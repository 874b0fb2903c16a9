"""The interpreter's settled-value memo changes no emitted task.

``CuneiformSource`` memoises every sub-expression reduced under an empty
env once it is no longer pending, and caches each such task
application's invocation list once its arguments have settled. The
reference below is the same interpreter with those tables cleared before
every reduction, so each completion re-reduces all targets from the
root. Completions are driven in hypothesis-chosen orders; both sources
must emit the same task sequence and reduce to the same target values.
"""

from hypothesis import given, settings, strategies as st

from repro.langs.cuneiform import CuneiformSource
from repro.workloads import kmeans_cuneiform, sample_read_files, snv_cuneiform


class _RereducingSource(CuneiformSource):
    """Reference: forgets every memoised value before each reduction."""

    def _reduce_targets(self) -> None:
        self._settled.clear()
        self._apply_invocations.clear()
        self._task_arguments.clear()
        super()._reduce_targets()


def _snv_script() -> str:
    inputs = sample_read_files(3, files_per_sample=3, mb_per_file=64.0)
    return snv_cuneiform(inputs, use_cram=True)


RECURSION = """
deftask step( next : current )in bash *{ tool: kmeans-update }*
deftask converged( flag : current )in bash *{
    tool: kmeans-converged
    output: empty-until 3
}*
defun iterate( current ) =
    let next = step( current: current );
    if converged( current: next )
    then next
    else iterate( current: next )
    end;
[ iterate( current: '/in/seed-a' ) iterate( current: '/in/seed-b' ) ];
"""

MIXED = """
deftask split( part : data )in bash *{ tool: split }*
deftask check( flag : data )in bash *{
    tool: grep
    output: empty-until 2
}*
deftask work( out : data )in bash *{ tool: sort }*
deftask merge( out : <parts> )in bash *{ tool: cat }*
deftask pair( out : left right )in bash *{ tool: join }*
inputs = [ '/in/a' '/in/b' '/in/c' ];
defun shared() = merge( parts: work( data: inputs ) );
parts = split( data: inputs );
let merged = merge( parts: parts );
[ shared()
  pair( left: merged, right: shared() )
  if check( data: '/in/a' ) then work( data: parts ) else shared() end
  if check( data: '/in/b' ) then work( data: '/in/b' )
  else merge( parts: parts + inputs ) end
  pair( left: inputs, right: [ '/in/x' '/in/y' ] )
];
"""

SCRIPTS = {
    "snv": _snv_script(),
    "recursion": RECURSION,
    "mixed": MIXED,
    "kmeans": kmeans_cuneiform(partitions=3, iterations_until_convergence=2),
}


def _shape(spec) -> tuple:
    return (spec.tool, spec.signature, spec.command, tuple(spec.inputs),
            tuple(spec.outputs))


def _check_batch(fast, slow, fast_ids, slow_ids) -> list:
    """Both batches describe the same tasks; ids keep their emission rank."""
    assert [_shape(s) for s in fast] == [_shape(s) for s in slow]
    for spec in fast:
        fast_ids.append(spec.task_id)
    for spec in slow:
        slow_ids.append(spec.task_id)
    assert fast_ids == sorted(fast_ids) and slow_ids == sorted(slow_ids)
    return list(zip(fast, slow))


@given(st.sampled_from(sorted(SCRIPTS)), st.data())
@settings(max_examples=60, deadline=None)
def test_memoised_reduction_emits_what_full_rereduction_emits(name, data):
    fast = CuneiformSource(SCRIPTS[name], name=name)
    slow = _RereducingSource(SCRIPTS[name], name=name)
    fast_ids: list[str] = []
    slow_ids: list[str] = []
    pending = _check_batch(
        fast.initial_tasks(), slow.initial_tasks(), fast_ids, slow_ids
    )
    completed = 0
    while pending:
        index = data.draw(st.integers(0, len(pending) - 1), label="complete")
        mine, theirs = pending.pop(index)
        pending.extend(_check_batch(
            fast.on_task_completed(mine, {}),
            slow.on_task_completed(theirs, {}),
            fast_ids, slow_ids,
        ))
        completed += 1
        assert fast.is_done() == slow.is_done()
    assert fast.is_done() and slow.is_done()
    assert completed == len(fast_ids) == len(slow_ids)
    assert fast.target_values() == slow.target_values()
    assert fast.target_files() == slow.target_files()
    assert fast.input_files() == slow.input_files()


def test_settled_values_are_memoised_once():
    """After the run every target's value sits in the memo, and each of
    the SNV script's task applications (five per sample) keeps one
    invocation list."""
    source = CuneiformSource(SCRIPTS["snv"], name="snv")
    pending = list(source.initial_tasks())
    while pending:
        pending.extend(source.on_task_completed(pending.pop(0), {}))
    assert source.is_done()
    for target in source.script.targets:
        assert source._settled[id(target)] == source.target_values()[0]
    assert len(source._apply_invocations) == 3 * 5

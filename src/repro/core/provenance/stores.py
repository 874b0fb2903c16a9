"""Provenance storage backends (Sec. 3.5).

Hi-WAY stores traces as JSON files in HDFS by default and offers MySQL
and Couchbase backends for installations with many runs. The three
backends here mirror that line-up with offline equivalents:

* :class:`TraceFileStore` — JSON-lines, exportable to a real file, and
  the basis of the re-executable trace language;
* :class:`SqlProvenanceStore` — stdlib ``sqlite3`` standing in for
  MySQL, with real SQL queries;
* :class:`DocumentProvenanceStore` — an in-memory document store
  standing in for Couchbase.

All three serve the query the adaptive scheduler needs: the *latest*
observed runtime per (task signature, node) pair, from an index kept
on write rather than a scan of the records.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Iterable, Optional

from repro.core.provenance.events import (
    FILE_EVENT,
    TASK_EVENT,
    WORKFLOW_EVENT,
    event_from_dict,
)
from repro.errors import ProvenanceError

__all__ = [
    "ProvenanceStore",
    "TraceFileStore",
    "SqlProvenanceStore",
    "DocumentProvenanceStore",
]


class ProvenanceStore:
    """Interface of every provenance backend."""

    def append(self, event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def records(
        self, kind: Optional[str] = None, workflow_id: Optional[str] = None
    ) -> list[dict]:  # pragma: no cover - interface
        raise NotImplementedError

    def latest_task_runtime(
        self, signature: str, node_id: str
    ) -> Optional[float]:  # pragma: no cover - interface
        raise NotImplementedError

    # -- shared conveniences -------------------------------------------------

    def observed_nodes(self, signature: str) -> set[str]:
        """Nodes on which tasks of ``signature`` have succeeded."""
        return {
            record["node_id"]
            for record in self.records(kind=TASK_EVENT)
            if record["signature"] == signature and record["success"]
        }

    def task_records(self, workflow_id: Optional[str] = None) -> list[dict]:
        """All successful task records (optionally of one workflow)."""
        return [
            record
            for record in self.records(kind=TASK_EVENT, workflow_id=workflow_id)
            if record["success"]
        ]

    def clear(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class _IndexedStore(ProvenanceStore):
    """A store answering the scheduler's queries from an in-memory index.

    ``_latest`` maps (signature, node) to the (timestamp, makespan) of
    the latest successful task record. A record replaces the entry
    unless it is strictly older, so the last-appended record wins a
    timestamp tie, as SQL's ``timestamp DESC, rowid DESC`` does.
    """

    def __init__(self):
        self._latest: dict[tuple[str, str], tuple[float, float]] = {}

    def _index(self, record: dict) -> None:
        if record["kind"] == TASK_EVENT and record["success"]:
            key = (record["signature"], record["node_id"])
            timestamp = record["timestamp"]
            current = self._latest.get(key)
            if current is None or timestamp >= current[0]:
                self._latest[key] = (timestamp, record["makespan_seconds"])

    def latest_task_runtime(self, signature, node_id):
        entry = self._latest.get((signature, node_id))
        return None if entry is None else entry[1]

    def observed_nodes(self, signature: str) -> set[str]:
        return {node for sig, node in self._latest if sig == signature}

    def clear(self) -> None:
        self._latest.clear()


class TraceFileStore(_IndexedStore):
    """JSON-lines trace, Hi-WAY's default backend."""

    def __init__(self):
        super().__init__()
        self._records: list[dict] = []

    def append(self, event) -> None:
        record = event.to_dict()
        self._records.append(record)
        self._index(record)

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        result = self._records
        if kind is not None:
            result = [r for r in result if r["kind"] == kind]
        if workflow_id is not None:
            result = [r for r in result if r.get("workflow_id") == workflow_id]
        return list(result)

    def clear(self) -> None:
        super().clear()
        self._records.clear()

    # -- (de)serialisation -----------------------------------------------------

    def to_jsonl(self) -> str:
        """The trace as JSON-lines text, ready to be re-executed."""
        return "\n".join(json.dumps(record, sort_keys=True) for record in self._records)

    @classmethod
    def from_jsonl(cls, text: str) -> "TraceFileStore":
        """Parse a JSON-lines trace back into a store."""
        store = cls()
        for line_number, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProvenanceError(
                    f"trace line {line_number} is not valid JSON: {exc}"
                ) from exc
            event_from_dict(record)  # validates the shape
            store._records.append(record)
            store._index(record)
        return store

    def save(self, path: str) -> None:
        """Write the trace to a real file on disk."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "TraceFileStore":
        """Read a trace from a real file on disk."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())


class SqlProvenanceStore(ProvenanceStore):
    """SQL backend (sqlite3 standing in for the paper's MySQL).

    Events land in one table with the scheduler-relevant columns lifted
    out of the JSON payload, which makes ad-hoc aggregation queries easy —
    the "added benefit" the paper notes for database-backed provenance.
    """

    def __init__(self, path: str = ":memory:"):
        self._conn = sqlite3.connect(path)
        self._conn.execute(
            """
            CREATE TABLE IF NOT EXISTS events (
                event_id TEXT PRIMARY KEY,
                kind TEXT NOT NULL,
                workflow_id TEXT,
                signature TEXT,
                node_id TEXT,
                timestamp REAL,
                makespan REAL,
                success INTEGER,
                payload TEXT NOT NULL
            )
            """
        )
        self._conn.execute(
            "CREATE INDEX IF NOT EXISTS idx_sig_node"
            " ON events (signature, node_id, timestamp)"
        )
        self._conn.commit()

    def append(self, event) -> None:
        record = event.to_dict()
        self._conn.execute(
            "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                record["event_id"],
                record["kind"],
                record.get("workflow_id"),
                record.get("signature"),
                record.get("node_id"),
                record.get("timestamp"),
                record.get("makespan_seconds"),
                1 if record.get("success", True) else 0,
                json.dumps(record, sort_keys=True),
            ),
        )
        self._conn.commit()

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        query = "SELECT payload FROM events WHERE 1=1"
        params: list = []
        if kind is not None:
            query += " AND kind = ?"
            params.append(kind)
        if workflow_id is not None:
            query += " AND workflow_id = ?"
            params.append(workflow_id)
        query += " ORDER BY rowid"
        return [json.loads(row[0]) for row in self._conn.execute(query, params)]

    def latest_task_runtime(self, signature, node_id):
        row = self._conn.execute(
            """
            SELECT makespan FROM events
            WHERE kind = ? AND signature = ? AND node_id = ? AND success = 1
            ORDER BY timestamp DESC, rowid DESC LIMIT 1
            """,
            (TASK_EVENT, signature, node_id),
        ).fetchone()
        return row[0] if row else None

    def clear(self) -> None:
        self._conn.execute("DELETE FROM events")
        self._conn.commit()

    def aggregate_mean_runtime(self, signature: str) -> Optional[float]:
        """Mean successful runtime of a signature across all nodes."""
        row = self._conn.execute(
            "SELECT AVG(makespan) FROM events"
            " WHERE kind = ? AND signature = ? AND success = 1",
            (TASK_EVENT, signature),
        ).fetchone()
        return row[0]


class DocumentProvenanceStore(_IndexedStore):
    """Document-oriented backend (in-memory Couchbase stand-in).

    Documents are keyed by event id and grouped into per-kind buckets;
    the shared map-style index keeps the latest runtime per
    (signature, node) pair current on write.
    """

    def __init__(self):
        super().__init__()
        self._buckets: dict[str, dict[str, dict]] = {
            WORKFLOW_EVENT: {},
            TASK_EVENT: {},
            FILE_EVENT: {},
        }

    def append(self, event) -> None:
        record = event.to_dict()
        bucket = self._buckets.get(record["kind"])
        if bucket is None:
            raise ProvenanceError(f"unknown event kind {record['kind']!r}")
        bucket[record["event_id"]] = record
        self._index(record)

    def records(self, kind=None, workflow_id=None) -> list[dict]:
        if kind is not None:
            pools: Iterable[dict] = self._buckets[kind].values()
        else:
            pools = (
                record
                for bucket in self._buckets.values()
                for record in bucket.values()
            )
        result = list(pools)
        if workflow_id is not None:
            result = [r for r in result if r.get("workflow_id") == workflow_id]
        result.sort(key=lambda r: r["event_id"])
        return result

    def clear(self) -> None:
        super().clear()
        for bucket in self._buckets.values():
            bucket.clear()

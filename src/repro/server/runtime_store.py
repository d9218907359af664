"""The persistent runtime-telemetry store of the serving tier.

A small SQLite database in WAL mode holding what an operator wants to
survive a restart: request counters per endpoint and status, per-endpoint
latency histograms (fixed log-spaced buckets, Prometheus-compatible), and
WebSocket session statistics.  ``/metrics`` renders the same state in
Prometheus text format and ``/telemetry`` as JSON.

Writes are buffered in memory and flushed in one transaction every
:attr:`RuntimeStore.FLUSH_EVERY` observations (and on every read and on
close), so the hot request path never waits on fsync while the store stays
bounded-staleness durable.  All methods are thread-safe: the ASGI app calls
in from executor threads and the event loop alike.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Histogram bucket upper bounds in milliseconds (log-spaced; +Inf implied).
LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name  TEXT NOT NULL,
    label TEXT NOT NULL,
    value INTEGER NOT NULL,
    PRIMARY KEY (name, label)
);
CREATE TABLE IF NOT EXISTS latency_buckets (
    endpoint TEXT NOT NULL,
    le_ms    REAL NOT NULL,
    count    INTEGER NOT NULL,
    PRIMARY KEY (endpoint, le_ms)
);
CREATE TABLE IF NOT EXISTS latency_totals (
    endpoint TEXT PRIMARY KEY,
    total_ms REAL NOT NULL,
    count    INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS ws_sessions (
    session_id        INTEGER PRIMARY KEY AUTOINCREMENT,
    query_id          TEXT NOT NULL,
    connected_unix    REAL NOT NULL,
    disconnected_unix REAL,
    pushes            INTEGER NOT NULL DEFAULT 0
);
"""


class RuntimeStore:
    """Restart-surviving request/latency/WebSocket telemetry (SQLite WAL)."""

    #: Buffered observations are flushed after this many updates.
    FLUSH_EVERY = 256

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self._path = str(path)
        if self._path != ":memory:":
            Path(self._path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(self._path, check_same_thread=False)
        self._connection.execute("PRAGMA journal_mode=WAL")
        self._connection.execute("PRAGMA synchronous=NORMAL")
        self._connection.executescript(_SCHEMA)
        self._connection.execute(
            "INSERT INTO meta (key, value) VALUES ('created_unix', ?) "
            "ON CONFLICT(key) DO NOTHING",
            (repr(time.time()),),
        )
        self._connection.execute(
            "INSERT INTO counters (name, label, value) VALUES ('restarts', '', 1) "
            "ON CONFLICT(name, label) DO UPDATE SET value = value + 1"
        )
        self._connection.commit()
        # Pending (unflushed) deltas, merged into SQLite in one transaction.
        self._pending_counters: Dict[Tuple[str, str], int] = {}
        self._pending_buckets: Dict[Tuple[str, float], int] = {}
        self._pending_totals: Dict[str, Tuple[float, int]] = {}
        self._pending_ops = 0
        self._closed = False

    @property
    def path(self) -> str:
        """The database path (``:memory:`` for the ephemeral store)."""
        return self._path

    # -- writes ------------------------------------------------------------------------

    def increment(self, name: str, label: str = "", by: int = 1) -> None:
        """Add ``by`` to the counter ``name{label}``."""
        with self._lock:
            key = (name, label)
            self._pending_counters[key] = self._pending_counters.get(key, 0) + by
            self._bump_locked()

    def observe_latency(self, endpoint: str, milliseconds: float) -> None:
        """Record one request latency into the endpoint's histogram."""
        value = float(milliseconds)
        with self._lock:
            for bound in LATENCY_BUCKETS_MS:
                if value <= bound:
                    key = (endpoint, bound)
                    self._pending_buckets[key] = self._pending_buckets.get(key, 0) + 1
                    break
            else:
                key = (endpoint, float("inf"))
                self._pending_buckets[key] = self._pending_buckets.get(key, 0) + 1
            total_ms, count = self._pending_totals.get(endpoint, (0.0, 0))
            self._pending_totals[endpoint] = (total_ms + value, count + 1)
            self._bump_locked()

    def ws_session_opened(self, query_id: str) -> int:
        """Record a new WebSocket session; returns its session id."""
        with self._lock:
            self._flush_locked()
            cursor = self._connection.execute(
                "INSERT INTO ws_sessions (query_id, connected_unix) VALUES (?, ?)",
                (query_id, time.time()),
            )
            self._connection.commit()
            return int(cursor.lastrowid or 0)

    def ws_session_closed(self, session_id: int, pushes: int) -> None:
        """Close a WebSocket session record with its delivered-push count."""
        with self._lock:
            self._flush_locked()
            self._connection.execute(
                "UPDATE ws_sessions SET disconnected_unix = ?, pushes = ? "
                "WHERE session_id = ?",
                (time.time(), int(pushes), int(session_id)),
            )
            self._connection.commit()

    def flush(self) -> None:
        """Write every buffered observation to SQLite in one transaction."""
        with self._lock:
            self._flush_locked()

    # -- reads -------------------------------------------------------------------------

    def counters(self) -> Dict[str, Dict[str, int]]:
        """``{counter name: {label: value}}`` including buffered deltas."""
        with self._lock:
            self._flush_locked()
            result: Dict[str, Dict[str, int]] = {}
            for name, label, value in self._connection.execute(
                "SELECT name, label, value FROM counters ORDER BY name, label"
            ):
                result.setdefault(str(name), {})[str(label)] = int(value)
            return result

    def histograms(self) -> Dict[str, Dict[str, object]]:
        """Per-endpoint latency histograms with totals and estimated percentiles."""
        with self._lock:
            self._flush_locked()
            buckets: Dict[str, List[Tuple[float, int]]] = {}
            for endpoint, le_ms, count in self._connection.execute(
                "SELECT endpoint, le_ms, count FROM latency_buckets "
                "ORDER BY endpoint, le_ms"
            ):
                buckets.setdefault(str(endpoint), []).append((float(le_ms), int(count)))
            totals: Dict[str, Tuple[float, int]] = {}
            for endpoint, total_ms, count in self._connection.execute(
                "SELECT endpoint, total_ms, count FROM latency_totals"
            ):
                totals[str(endpoint)] = (float(total_ms), int(count))
        result: Dict[str, Dict[str, object]] = {}
        for endpoint, rows in buckets.items():
            total_ms, count = totals.get(endpoint, (0.0, 0))
            result[endpoint] = {
                "buckets": {_le_label(le): n for le, n in rows},
                "total_ms": total_ms,
                "count": count,
                "mean_ms": total_ms / count if count else 0.0,
                "p50_ms": _estimate_percentile(rows, 0.50),
                "p95_ms": _estimate_percentile(rows, 0.95),
            }
        return result

    def ws_stats(self) -> Dict[str, object]:
        """Aggregate WebSocket session statistics (all restarts included)."""
        with self._lock:
            self._flush_locked()
            row = self._connection.execute(
                "SELECT COUNT(*), COUNT(disconnected_unix), "
                "COALESCE(SUM(pushes), 0), "
                "COALESCE(AVG(disconnected_unix - connected_unix), 0.0) "
                "FROM ws_sessions"
            ).fetchone()
        total, closed, pushes, mean_duration = row
        return {
            "sessions_total": int(total),
            "sessions_closed": int(closed),
            "sessions_active": int(total) - int(closed),
            "pushes_total": int(pushes),
            "mean_session_seconds": float(mean_duration),
        }

    def snapshot(self) -> Dict[str, object]:
        """The full telemetry document served by ``/telemetry``."""
        with self._lock:
            self._flush_locked()
            meta = {
                str(key): str(value)
                for key, value in self._connection.execute(
                    "SELECT key, value FROM meta"
                )
            }
        return {
            "meta": meta,
            "counters": self.counters(),
            "latency": self.histograms(),
            "websocket": self.ws_stats(),
        }

    # -- lifecycle ---------------------------------------------------------------------

    def close(self) -> None:
        """Flush pending observations and close the connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            self._connection.close()
            self._closed = True

    def __enter__(self) -> "RuntimeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- internals ---------------------------------------------------------------------

    def _bump_locked(self) -> None:
        self._pending_ops += 1
        if self._pending_ops >= self.FLUSH_EVERY:
            self._flush_locked()

    def _flush_locked(self) -> None:
        if self._pending_ops == 0 or self._closed:
            return
        self._connection.executemany(
            "INSERT INTO counters (name, label, value) VALUES (?, ?, ?) "
            "ON CONFLICT(name, label) DO UPDATE SET value = value + excluded.value",
            [(name, label, value) for (name, label), value in
             self._pending_counters.items()],
        )
        self._connection.executemany(
            "INSERT INTO latency_buckets (endpoint, le_ms, count) VALUES (?, ?, ?) "
            "ON CONFLICT(endpoint, le_ms) DO UPDATE SET count = count + excluded.count",
            [(endpoint, le, count) for (endpoint, le), count in
             self._pending_buckets.items()],
        )
        self._connection.executemany(
            "INSERT INTO latency_totals (endpoint, total_ms, count) VALUES (?, ?, ?) "
            "ON CONFLICT(endpoint) DO UPDATE SET "
            "total_ms = total_ms + excluded.total_ms, count = count + excluded.count",
            [(endpoint, total_ms, count) for endpoint, (total_ms, count) in
             self._pending_totals.items()],
        )
        self._connection.commit()
        self._pending_counters.clear()
        self._pending_buckets.clear()
        self._pending_totals.clear()
        self._pending_ops = 0


def _le_label(le_ms: float) -> str:
    """The Prometheus ``le`` label of one bucket bound."""
    if le_ms == float("inf"):
        return "+Inf"
    return f"{le_ms:g}"


def _estimate_percentile(rows: List[Tuple[float, int]], fraction: float) -> float:
    """Percentile estimate from cumulative-free bucket counts.

    Linear interpolation inside the winning bucket (the Prometheus
    convention); the +Inf bucket reports its lower bound.
    """
    total = sum(count for _, count in rows)
    if total == 0:
        return 0.0
    target = fraction * total
    cumulative = 0
    previous_bound = 0.0
    for le_ms, count in rows:
        if count == 0:
            previous_bound = le_ms if le_ms != float("inf") else previous_bound
            continue
        if cumulative + count >= target:
            if le_ms == float("inf"):
                return previous_bound
            fraction_in_bucket = (target - cumulative) / count
            return previous_bound + (le_ms - previous_bound) * fraction_in_bucket
        cumulative += count
        previous_bound = le_ms
    return previous_bound

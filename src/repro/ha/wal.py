"""The bucket write-ahead log of the supervised cluster runtime.

The supervisor appends every *prepared* bucket (topic distributions already
inferred) to the WAL before handing it to the coordinator, and truncates
the log whenever a checkpoint lands.  A worker restarted after a failure is
therefore restorable as ``latest checkpoint + replay of exactly its WAL
gap`` — routing is a pure function of the logged elements
(:meth:`repro.cluster.partition.ShardPlanner.route_bucket`), so the replayed per-shard
buckets are the originals.

The log lives in memory (the failure domain is a *worker process*; the
coordinator process holding the WAL survives).  Passing ``path`` addition-
ally appends each entry to a pickle stream on disk and reloads it on
construction, which extends recovery to coordinator restarts.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.element import SocialElement


@dataclass(frozen=True)
class WALEntry:
    """One logged bucket: its sequence number, elements and end time."""

    seq: int
    end_time: int
    elements: Tuple[SocialElement, ...]


class BucketWAL:
    """Append-only log of the buckets ingested since the last checkpoint."""

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self._entries: List[WALEntry] = []
        self._next_seq = 0
        self._path = Path(path) if path is not None else None
        self._handle: Optional[io.BufferedWriter] = None
        if self._path is not None:
            self._reload()
            self._handle = open(self._path, "ab")

    def _reload(self) -> None:
        assert self._path is not None
        if not self._path.exists():
            return
        with open(self._path, "rb") as handle:
            while True:
                try:
                    entry = pickle.load(handle)
                except EOFError:
                    break
                except (pickle.UnpicklingError, ValueError):
                    break  # torn tail write: everything before it is intact
                self._entries.append(entry)
        if self._entries:
            self._next_seq = self._entries[-1].seq + 1

    # -- the log ----------------------------------------------------------------------

    def append(self, elements: Sequence[SocialElement], end_time: int) -> int:
        """Log one bucket; returns its sequence number."""
        entry = WALEntry(
            seq=self._next_seq, end_time=int(end_time), elements=tuple(elements)
        )
        self._entries.append(entry)
        self._next_seq += 1
        if self._handle is not None:
            pickle.dump(entry, self._handle)
            self._handle.flush()
        return entry.seq

    def entries_since(self, seq: int) -> List[WALEntry]:
        """Every logged entry with a sequence number greater than ``seq``."""
        return [entry for entry in self._entries if entry.seq > seq]

    def entries_through(self, seq: int) -> List[WALEntry]:
        """Every retained entry with a sequence number up to ``seq``."""
        return [entry for entry in self._entries if entry.seq <= seq]

    def truncate(self) -> int:
        """Drop every retained entry (a checkpoint covers them); returns count.

        Sequence numbers keep counting across truncations, so gap
        arithmetic (``entries_since(checkpoint_seq)``) stays valid.
        """
        dropped = len(self._entries)
        self._entries.clear()
        if self._handle is not None:
            self._handle.truncate(0)
            self._handle.seek(0)
        return dropped

    # -- accounting -------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """The sequence number of the newest entry (-1 when empty-forever)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Retained entry/element counts for telemetry."""
        return {
            "entries": len(self._entries),
            "elements": sum(len(entry.elements) for entry in self._entries),
            "last_seq": self.last_seq,
        }

    def close(self) -> None:
        """Close the on-disk stream (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

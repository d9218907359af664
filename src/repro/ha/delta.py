"""Incremental (delta) checkpoints chained on the v2 checkpoint format.

A :class:`CheckpointChain` is a directory of segments described by a
``CHAIN.json`` manifest:

* ``NNNNNN-full/`` — an ordinary engine checkpoint
  (:func:`repro.api.checkpoint.write_checkpoint` directory, loadable on
  its own);
* ``NNNNNN-delta/`` — a **structural diff** against the previous
  segment's state: ``DELTA.json`` holding the diff tree with its array
  leaves extracted into ``arrays.npz`` exactly like the v2 state file.

Restoring folds the newest full segment forward through its deltas, which
is bit-exact: :func:`apply_delta` reconstructs precisely the state tree
:func:`diff_state` was given.

The diff exploits how the columnar store's state evolves between buckets —
most of it is untouched per bucket:

* dict nodes diff per key;
* NumPy arrays diff **by row**: only rows that changed since the base
  segment (plus any appended tail) are written, mirroring the store's
  dirtied-row tracking — unchanged column slices cost nothing;
* lists (the window archive) diff by longest reusable run, so a sliding
  archive writes only its new tail instead of the whole history;
* every other leaf is compared by value.

``compact()`` folds a whole chain into a single fresh full checkpoint and
deletes the superseded segments.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api.checkpoint import (
    CheckpointError,
    CheckpointPayload,
    _extract_arrays,
    _inflate_arrays,
    _json_default,
    read_checkpoint,
    write_checkpoint,
)

CHAIN_FILE = "CHAIN.json"
CHAIN_FORMAT = "ksir-ha-chain"
CHAIN_VERSION = 1
DELTA_FILE = "DELTA.json"
DELTA_ARRAYS_FILE = "arrays.npz"
DELTA_FORMAT = "ksir-ha-delta"

#: Diff-tree sentinels.  Chosen to be disjoint from any state-dict keys.
_SAME = {"__same__": True}
_SET = "__set__"
_DICT = "__dict__"
_DROP = "__drop__"
_LIST = "__list__"
_ELEMS = "__elems__"
_ROWS = "__rows__"
_ARRAY = "__array__"

#: Arrays at or below this size are inlined into ``DELTA.json`` (dtype and
#: shape preserved exactly) instead of becoming ``arrays.npz`` members: a
#: zip member costs ~250 bytes of ``.npy``+zip framing, which dwarfs the
#: row patches a per-bucket diff typically produces.
_INLINE_ARRAY_BYTES = 512


def _inline_small_arrays(node: Any) -> Any:
    """Replace small array leaves with exact JSON-encodable markers."""
    if isinstance(node, np.ndarray):
        if node.nbytes <= _INLINE_ARRAY_BYTES:
            return {
                _ARRAY: {
                    "dtype": node.dtype.str,
                    "shape": list(node.shape),
                    "data": node.ravel().tolist(),
                }
            }
        return node
    if isinstance(node, dict):
        return {key: _inline_small_arrays(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_inline_small_arrays(value) for value in node]
    return node


def _restore_inline_arrays(node: Any) -> Any:
    """Inverse of :func:`_inline_small_arrays` (dtype/shape bit-exact)."""
    if isinstance(node, dict):
        if set(node.keys()) == {_ARRAY}:
            spec = node[_ARRAY]
            return np.asarray(
                spec["data"], dtype=np.dtype(str(spec["dtype"]))
            ).reshape(spec["shape"])
        return {key: _restore_inline_arrays(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_restore_inline_arrays(value) for value in node]
    return node


# -- state normalisation ---------------------------------------------------------------


def normalise_state(node: Any) -> Any:
    """Canonicalise a state tree the way a JSON round-trip would.

    Tuples become lists, dict keys become strings and NumPy scalars become
    Python scalars, while array leaves stay arrays.  Diffing normalised
    trees guarantees that folding a chain reproduces *exactly* what a
    direct full-checkpoint restore would read back from disk.
    """
    if isinstance(node, np.ndarray):
        return node
    if isinstance(node, dict):
        return {str(key): normalise_state(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [normalise_state(value) for value in node]
    if isinstance(node, (np.integer, np.floating, np.bool_)):
        return node.item()
    return node


def _equal(a: Any, b: Any) -> bool:
    """Deep equality over normalised state trees (arrays included)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        if not isinstance(a, np.ndarray) or not isinstance(b, np.ndarray):
            return False
        if a.dtype != b.dtype or a.shape != b.shape:
            return False
        if a.dtype.kind == "f":
            return bool(np.array_equal(a, b, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return False
        return all(_equal(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return False
        return all(_equal(x, y) for x, y in zip(a, b))
    if type(a) is not type(b) and not (
        isinstance(a, (int, float)) and isinstance(b, (int, float))
    ):
        return False
    result = a == b
    return bool(result)


# -- diff ------------------------------------------------------------------------------


def _changed_rows(old: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Indices (along axis 0) where rows differ; NaN == NaN for floats."""
    neq = old != new
    if old.dtype.kind == "f":
        neq &= ~(np.isnan(old) & np.isnan(new))
    if neq.ndim > 1:
        # axis-tuple reduction (not reshape(n, -1)): reshape cannot infer
        # the trailing dimension of a zero-row array.
        neq = neq.any(axis=tuple(range(1, neq.ndim)))
    return np.nonzero(neq)[0].astype(np.int64)


def _diff_array(old: np.ndarray, new: np.ndarray) -> Dict[str, Any]:
    if (
        old.dtype != new.dtype
        or old.ndim != new.ndim
        or old.ndim == 0
        or old.shape[1:] != new.shape[1:]
    ):
        return {_SET: new}
    if old.shape == new.shape:
        if old.dtype.kind == "f":
            same = np.array_equal(old, new, equal_nan=True)
        else:
            same = np.array_equal(old, new)
        if same:
            return dict(_SAME)
    common = min(len(old), len(new))
    rows = _changed_rows(old[:common], new[:common])
    values = new[rows]
    tail = new[common:]
    patch_bytes = values.nbytes + tail.nbytes + rows.nbytes
    if patch_bytes >= new.nbytes:
        return {_SET: new}
    patch: Dict[str, Any] = {
        "length": int(len(new)),
        "indices": rows,
        "values": np.ascontiguousarray(values),
    }
    if len(tail):
        patch["tail"] = np.ascontiguousarray(tail)
    return {_ROWS: patch}


def _diff_list(old: List[Any], new: List[Any]) -> Dict[str, Any]:
    """List diff: reusable runs of the old list, or per-index recursion.

    Three candidate shapes cover the state lists that matter:

    * common prefix+suffix ``keep``/``ins`` opcodes (in-place edits);
    * drop-front+append-back opcodes (the sliding archive: old entries
      pruned from the front, new buckets appended);
    * for equal lengths, an **element-wise** diff recursing into each
      changed position (the per-shard ``workers`` list: every element
      changes a little every bucket, none is replaced wholesale).

    The cheapest candidate by estimated serialised size wins; a wholesale
    replace is the fallback.
    """
    if not old or not new:
        return dict(_SAME) if not old and not new else {_SET: new}

    op_candidates: List[List[List[Any]]] = []

    # Alignment 1: shared prefix and suffix around an edited middle.
    prefix = 0
    limit = min(len(old), len(new))
    while prefix < limit and _equal(old[prefix], new[prefix]):
        prefix += 1
    suffix = 0
    while (
        suffix < limit - prefix
        and _equal(old[len(old) - 1 - suffix], new[len(new) - 1 - suffix])
    ):
        suffix += 1
    if prefix == len(old) == len(new):
        return dict(_SAME)
    ops: List[List[Any]] = []
    if prefix:
        ops.append(["keep", 0, prefix])
    middle = new[prefix : len(new) - suffix]
    if middle:
        ops.append(["ins", middle])
    if suffix:
        ops.append(["keep", len(old) - suffix, suffix])
    op_candidates.append(ops)

    # Alignment 2: old[k:] survives as the new prefix, tail appended.
    for k in range(1, len(old)):
        keep = len(old) - k
        if keep <= len(new) and _equal(old[k], new[0]):
            if all(_equal(old[k + i], new[i]) for i in range(1, keep)):
                ops2: List[List[Any]] = [["keep", k, keep]]
                tail = new[keep:]
                if tail:
                    ops2.append(["ins", tail])
                op_candidates.append(ops2)
            break

    candidates: List[Dict[str, Any]] = [{_SET: new}]
    for ops_list in op_candidates:
        inserted = sum(len(op[1]) for op in ops_list if op[0] == "ins")
        if inserted < len(new):
            candidates.append({_LIST: ops_list})

    # Alignment 3: same length — recurse into each changed position.
    if len(old) == len(new):
        changed: Dict[str, Any] = {}
        for index, (a, b) in enumerate(zip(old, new)):
            sub = diff_state(a, b)
            if sub != _SAME:
                changed[str(index)] = sub
        candidates.append({_ELEMS: changed})

    return min(candidates, key=_tree_bytes)


def diff_state(old: Any, new: Any) -> Dict[str, Any]:
    """A structural delta such that ``apply_delta(old, delta) == new``.

    Both trees must be :func:`normalise_state` output (the chain always
    normalises before diffing).
    """
    if isinstance(old, np.ndarray) and isinstance(new, np.ndarray):
        return _diff_array(old, new)
    if isinstance(old, dict) and isinstance(new, dict):
        changed: Dict[str, Any] = {}
        dropped = [key for key in old if key not in new]
        for key, value in new.items():
            if key not in old:
                changed[key] = {_SET: value}
                continue
            sub = diff_state(old[key], value)
            if sub != _SAME:
                changed[key] = sub
        if not changed and not dropped:
            return dict(_SAME)
        node: Dict[str, Any] = {_DICT: changed}
        if dropped:
            node[_DROP] = dropped
        return node
    if isinstance(old, list) and isinstance(new, list):
        return _diff_list(old, new)
    if _equal(old, new):
        return dict(_SAME)
    return {_SET: new}


def apply_delta(base: Any, delta: Dict[str, Any]) -> Any:
    """Fold one :func:`diff_state` delta over its base tree."""
    if "__same__" in delta:
        return base
    if _SET in delta:
        return delta[_SET]
    if _ROWS in delta:
        patch = delta[_ROWS]
        assert isinstance(base, np.ndarray)
        length = int(patch["length"])
        out = np.array(base[: min(length, len(base))], copy=True)
        indices = np.asarray(patch["indices"], dtype=np.int64)
        if len(indices):
            out[indices] = patch["values"]
        tail = patch.get("tail")
        if tail is not None and len(tail):
            out = np.concatenate([out, tail], axis=0)
        return np.ascontiguousarray(out)
    if _LIST in delta:
        assert isinstance(base, list)
        result: List[Any] = []
        for op in delta[_LIST]:
            if op[0] == "keep":
                _, start, count = op
                result.extend(base[int(start) : int(start) + int(count)])
            else:
                result.extend(op[1])
        return result
    if _ELEMS in delta:
        assert isinstance(base, list)
        patched = list(base)
        for key, sub in delta[_ELEMS].items():
            index = int(key)
            patched[index] = apply_delta(base[index], sub)
        return patched
    if _DICT in delta:
        assert isinstance(base, dict)
        dropped = set(delta.get(_DROP, ()))
        result_dict: Dict[str, Any] = {
            key: value for key, value in base.items() if key not in dropped
        }
        for key, sub in delta[_DICT].items():
            result_dict[key] = apply_delta(base.get(key), sub)
        return result_dict
    raise CheckpointError(f"unrecognised delta node: {sorted(delta)[:4]}")


# -- the chain -------------------------------------------------------------------------


def _tree_bytes(node: Any) -> int:
    """Approximate serialised size of a state tree (arrays by nbytes)."""
    if isinstance(node, np.ndarray):
        return int(node.nbytes)
    if isinstance(node, dict):
        return sum(len(str(k)) + _tree_bytes(v) for k, v in node.items())
    if isinstance(node, (list, tuple)):
        return sum(_tree_bytes(v) for v in node)
    return len(str(node))


def _directory_bytes(directory: Path) -> int:
    total = 0
    for child in directory.rglob("*"):
        if child.is_file():
            total += child.stat().st_size
    return total


class CheckpointChain:
    """A directory of chained full + delta checkpoints of one engine."""

    def __init__(self, directory: Union[str, Path], full_every: int = 8) -> None:
        if full_every < 1:
            raise ValueError("full_every must be >= 1")
        self._directory = Path(directory)
        self._full_every = int(full_every)
        self._segments: List[Dict[str, Any]] = []
        self._state: Optional[Dict[str, Any]] = None  # state as of the newest segment
        manifest = self._directory / CHAIN_FILE
        if manifest.exists():
            self._load_manifest()

    @staticmethod
    def is_chain(path: Union[str, Path]) -> bool:
        """Whether ``path`` looks like a checkpoint chain directory."""
        return (Path(path) / CHAIN_FILE).exists()

    @property
    def directory(self) -> Path:
        """The chain directory."""
        return self._directory

    @property
    def segments(self) -> Tuple[Dict[str, Any], ...]:
        """The manifest entries, oldest first."""
        return tuple(dict(segment) for segment in self._segments)

    def _load_manifest(self) -> None:
        try:
            with open(self._directory / CHAIN_FILE, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"{self._directory / CHAIN_FILE} is corrupt: {error}"
            ) from error
        if manifest.get("format") != CHAIN_FORMAT:
            raise CheckpointError(
                f"{self._directory} has chain format {manifest.get('format')!r}, "
                f"expected {CHAIN_FORMAT!r}"
            )
        version = int(manifest.get("version", 0))
        if not 1 <= version <= CHAIN_VERSION:
            raise CheckpointError(f"chain version {version} is not supported")
        self._segments = list(manifest.get("segments", []))

    def _write_manifest(self) -> None:
        manifest = {
            "format": CHAIN_FORMAT,
            "version": CHAIN_VERSION,
            "full_every": self._full_every,
            "segments": self._segments,
        }
        scratch = self._directory / (CHAIN_FILE + ".tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
        os.replace(scratch, self._directory / CHAIN_FILE)

    # -- saving ------------------------------------------------------------------------

    def save(self, engine: Any, force_full: bool = False) -> str:
        """Append one segment capturing the engine's current state.

        The segment is a full snapshot on the configured cadence (every
        ``full_every``-th segment, always the first) or when forced, and a
        structural delta against the previous segment otherwise.  Returns
        the segment name.
        """
        state = normalise_state(engine.backend.state_dict())
        index = len(self._segments)
        deltas_since_full = 0
        for segment in reversed(self._segments):
            if segment["kind"] == "full":
                break
            deltas_since_full += 1
        make_full = (
            force_full
            or not self._segments
            or deltas_since_full + 1 >= self._full_every
        )
        self._directory.mkdir(parents=True, exist_ok=True)
        if make_full:
            name = f"{index:06d}-full"
            write_checkpoint(
                self._directory / name,
                backend_name=engine.backend_name,
                config=engine.config,
                topic_model=engine.topic_model,
                state=state,
            )
            kind = "full"
        else:
            assert self._state is not None or self._segments
            base = self._materialised_state()
            delta = diff_state(base, state)
            name = f"{index:06d}-delta"
            segment_dir = self._directory / name
            segment_dir.mkdir(parents=True, exist_ok=True)
            arrays: Dict[str, np.ndarray] = {}
            stored = _extract_arrays(_inline_small_arrays(delta), arrays, "")
            if arrays:
                np.savez(segment_dir / DELTA_ARRAYS_FILE, **arrays)
            with open(segment_dir / DELTA_FILE, "w", encoding="utf-8") as handle:
                json.dump(
                    {"format": DELTA_FORMAT, "delta": stored},
                    handle,
                    default=_json_default,
                )
            kind = "delta"
        self._state = state
        self._segments.append(
            {
                "kind": kind,
                "name": name,
                "buckets_processed": int(engine.buckets_processed),
                "current_time": engine.current_time,
                "bytes": _directory_bytes(self._directory / name),
                "state_bytes": _tree_bytes(state),
            }
        )
        self._write_manifest()
        return name

    # -- loading -----------------------------------------------------------------------

    def _read_delta(self, name: str) -> Dict[str, Any]:
        segment_dir = self._directory / name
        try:
            with open(segment_dir / DELTA_FILE, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"{segment_dir / DELTA_FILE} is missing or corrupt: {error}"
            ) from error
        if payload.get("format") != DELTA_FORMAT:
            raise CheckpointError(f"{segment_dir} is not a delta segment")
        delta = payload["delta"]
        arrays_path = segment_dir / DELTA_ARRAYS_FILE
        if arrays_path.exists():
            try:
                with np.load(arrays_path, allow_pickle=False) as arrays:
                    delta = _inflate_arrays(delta, arrays)
            except Exception as error:
                raise CheckpointError(
                    f"{arrays_path} is corrupt: {error}"
                ) from error
        return _restore_inline_arrays(delta)

    def _base_index(self) -> int:
        """Index of the newest full segment."""
        for position in range(len(self._segments) - 1, -1, -1):
            if self._segments[position]["kind"] == "full":
                return position
        raise CheckpointError(f"chain {self._directory} holds no full segment")

    def read_payload(self) -> CheckpointPayload:
        """The chain's newest state folded into a checkpoint payload."""
        if not self._segments:
            raise CheckpointError(f"chain {self._directory} is empty")
        base_position = self._base_index()
        payload = read_checkpoint(self._directory / self._segments[base_position]["name"])
        state = normalise_state(payload.state)
        for segment in self._segments[base_position + 1 :]:
            state = apply_delta(state, self._read_delta(segment["name"]))
        return CheckpointPayload(
            version=payload.version,
            backend=payload.backend,
            config=payload.config,
            topic_model=payload.topic_model,
            state=state,
            library_version=payload.library_version,
        )

    def _materialised_state(self) -> Dict[str, Any]:
        if self._state is None:
            self._state = self.read_payload().state
        return self._state

    def load_state(self) -> Dict[str, Any]:
        """The newest backend state tree (cached after the first fold)."""
        return self._materialised_state()

    # -- maintenance -------------------------------------------------------------------

    def compact(self) -> str:
        """Fold the whole chain into one fresh full segment, drop the rest.

        Restores from the chain stay bit-exact (compaction writes exactly
        the folded state) while recovery no longer pays the fold.
        """
        payload = self.read_payload()
        superseded = [segment["name"] for segment in self._segments]
        index = len(self._segments)
        name = f"{index:06d}-full"
        write_checkpoint(
            self._directory / name,
            backend_name=payload.backend,
            config=payload.config,
            topic_model=payload.topic_model,
            state=payload.state,
        )
        buckets = self._segments[-1]["buckets_processed"] if self._segments else 0
        current_time = self._segments[-1].get("current_time") if self._segments else None
        self._segments = [
            {
                "kind": "full",
                "name": name,
                "buckets_processed": buckets,
                "current_time": current_time,
                "bytes": _directory_bytes(self._directory / name),
                "state_bytes": _tree_bytes(payload.state),
            }
        ]
        self._write_manifest()
        self._state = normalise_state(payload.state)
        for stale in superseded:
            shutil.rmtree(self._directory / stale, ignore_errors=True)
        return name

    def stats(self) -> Dict[str, Any]:
        """Per-segment sizes and the full-vs-delta savings ratio."""
        full_bytes = [s["bytes"] for s in self._segments if s["kind"] == "full"]
        delta_bytes = [s["bytes"] for s in self._segments if s["kind"] == "delta"]
        mean_full = sum(full_bytes) / len(full_bytes) if full_bytes else 0.0
        mean_delta = sum(delta_bytes) / len(delta_bytes) if delta_bytes else 0.0
        return {
            "segments": len(self._segments),
            "full_segments": len(full_bytes),
            "delta_segments": len(delta_bytes),
            "mean_full_bytes": mean_full,
            "mean_delta_bytes": mean_delta,
            "delta_savings": 1.0 - (mean_delta / mean_full) if mean_full else 0.0,
            "total_bytes": sum(s["bytes"] for s in self._segments),
        }

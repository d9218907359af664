"""The versioned on-disk checkpoint format of :class:`~repro.api.engine.KSIREngine`.

A checkpoint is a directory:

* ``MANIFEST.json`` — format marker, format version, the engine
  configuration (:meth:`~repro.api.config.EngineConfig.to_dict`), the
  backend name and the library version that wrote it;
* ``topic_model.npz`` — the topic-model oracle (reloadable via
  :meth:`~repro.topics.model.MatrixTopicModel.load`);
* ``state.json`` — the execution backend's ``state_dict``: active window
  (elements included), ranked lists verbatim, stream counters, and — for
  service engines — the standing-query registry and cached results;
* ``state_arrays.npz`` — the store's numeric state columns (id vectors,
  activity pairs, follower CSR slices, ranked-list score arrays) as raw
  NumPy arrays.

**Format v2.**  The state store emits its numeric state as arrays inside
the ``state_dict``; the writer extracts every array leaf into
``state_arrays.npz`` (uncompressed, so each member is the raw ``.npy``
buffer) and leaves a ``{"__ndarray__": key}`` reference in ``state.json``.
The reader maps the references back onto the npz members, materialising
each array straight from its buffer — no JSON number parsing on the hot
restore path.  Version 2 is the only version read: the pure-JSON v1
format had no writer left once the objects store was retired.

The manifest is validated before any state is touched: an unknown format
marker or any other format version fails with a clear error instead of a
half-restored engine.  This module only knows about files; constructing
the restored engine lives in :meth:`KSIREngine.load`, which keeps the two
modules import-cycle-free.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Union

import numpy as np

from repro.api.config import EngineConfig
from repro.topics.model import MatrixTopicModel, TopicModel

#: Format marker stored in every manifest.
CHECKPOINT_FORMAT = "ksir-engine-checkpoint"

#: The checkpoint format version: the one writers emit and readers accept.
CHECKPOINT_VERSION = 2

MANIFEST_FILE = "MANIFEST.json"
MODEL_FILE = "topic_model.npz"
STATE_FILE = "state.json"
ARRAYS_FILE = "state_arrays.npz"

#: JSON marker referencing a member of ``state_arrays.npz``.
ARRAY_REF_KEY = "__ndarray__"


class CheckpointError(RuntimeError):
    """A checkpoint directory is missing, malformed or incompatible."""


@dataclass(frozen=True)
class CheckpointPayload:
    """Everything read back from a checkpoint directory."""

    version: int
    backend: str
    config: EngineConfig
    topic_model: MatrixTopicModel
    state: Dict[str, Any]
    library_version: str


def _json_default(value: object) -> object:
    """Coerce numpy scalars that may hide inside state dictionaries."""
    item = getattr(value, "item", None)
    if callable(item):
        coerced: object = item()
        return coerced
    raise TypeError(f"{type(value).__name__} is not JSON serialisable")


def _extract_arrays(
    node: Any, arrays: Dict[str, "np.ndarray"], path: str
) -> Any:
    """Replace every array leaf with an npz reference, collecting arrays.

    Keys are derived from the state-dict path (slashes joined), which
    keeps the npz members self-describing for debugging.
    """
    if isinstance(node, np.ndarray):
        key = f"a{len(arrays)}:{path}"
        arrays[key] = node
        return {ARRAY_REF_KEY: key}
    if isinstance(node, dict):
        return {
            str(key): _extract_arrays(value, arrays, f"{path}/{key}")
            for key, value in node.items()
        }
    if isinstance(node, (list, tuple)):
        return [
            _extract_arrays(value, arrays, f"{path}/{index}")
            for index, value in enumerate(node)
        ]
    return node


def _inflate_arrays(node: Any, arrays: "np.lib.npyio.NpzFile") -> Any:
    """Inverse of :func:`_extract_arrays`: resolve npz references."""
    if isinstance(node, dict):
        if set(node.keys()) == {ARRAY_REF_KEY}:
            return arrays[str(node[ARRAY_REF_KEY])]
        return {key: _inflate_arrays(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_inflate_arrays(value, arrays) for value in node]
    return node


def _contains_array_refs(node: Any) -> bool:
    """Whether a state tree still holds unresolved ``state_arrays.npz`` refs."""
    if isinstance(node, dict):
        if set(node.keys()) == {ARRAY_REF_KEY}:
            return True
        return any(_contains_array_refs(value) for value in node.values())
    if isinstance(node, list):
        return any(_contains_array_refs(value) for value in node)
    return False


def normalise_state(node: Any) -> Any:
    """Canonicalise a state tree the way a write-then-read round-trip would.

    Tuples become lists, dict keys become strings and NumPy scalars become
    Python scalars, while array leaves stay arrays.  A state kept in memory
    in this shape restores exactly like the checkpoint written from it.
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


def _library_version() -> str:
    try:  # Imported lazily: repro/__init__ imports this package.
        from repro import __version__

        return str(__version__)
    except Exception:  # pragma: no cover - only during partial imports
        return "unknown"


def write_checkpoint(
    path: Union[str, Path],
    backend_name: str,
    config: EngineConfig,
    topic_model: TopicModel,
    state: Dict[str, Any],
) -> Path:
    """Write a checkpoint directory; returns the directory path.

    Safe to overwrite an existing checkpoint in place (the single-writer
    case): any stale manifest is removed *before* the data files are
    rewritten, and the new manifest lands last via an atomic rename — so
    a crash mid-save leaves a directory that fails validation rather
    than one that validates against mismatched state.
    """
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_FILE
    # Invalidate any previous checkpoint at this path first: a torn
    # rewrite must never leave an old manifest validating new state.
    manifest_path.unlink(missing_ok=True)
    topic_model.save(directory / MODEL_FILE)
    arrays: Dict[str, "np.ndarray"] = {}
    state = _extract_arrays(state, arrays, "")
    np.savez(directory / ARRAYS_FILE, **arrays)
    with open(directory / STATE_FILE, "w", encoding="utf-8") as handle:
        json.dump(state, handle, default=_json_default)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "backend": backend_name,
        "config": config.to_dict(),
        "library_version": _library_version(),
    }
    scratch = directory / (MANIFEST_FILE + ".tmp")
    with open(scratch, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    os.replace(scratch, manifest_path)
    return directory


def read_checkpoint(path: Union[str, Path]) -> CheckpointPayload:
    """Read and validate a checkpoint directory."""
    directory = Path(path)
    manifest_path = directory / MANIFEST_FILE
    if (directory / "CHAIN.json").exists():
        # Not a configuration to correct: no reader of the format is left.
        fulls = sorted(directory.glob("[0-9]*-full"))
        newest = f"its newest full segment ({fulls[-1]})" if fulls else "a full segment"
        raise CheckpointError(
            f"{directory} is a delta-checkpoint chain, a format this library "
            f"no longer reads: load {newest}, an ordinary checkpoint that "
            "lacks the buckets of the delta segments after it, or re-ingest "
            "the stream"
        )
    if not manifest_path.exists():
        raise CheckpointError(
            f"{directory} is not a k-SIR checkpoint (missing {MANIFEST_FILE})"
        )
    try:
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except json.JSONDecodeError as error:
        raise CheckpointError(f"{manifest_path} is corrupt: {error}") from error
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{directory} has format marker {manifest.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT!r}"
        )
    version = int(manifest.get("version", 0))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version} is not supported "
            f"(this library reads version {CHECKPOINT_VERSION} only)"
        )
    for required in (MODEL_FILE, STATE_FILE):
        if not (directory / required).exists():
            raise CheckpointError(f"{directory} is missing {required}")
    partitioner = (manifest["config"].get("cluster") or {}).get("partitioner", "hash")
    if partitioner != "hash":
        # Not a configuration to correct: the state itself is unusable.
        raise CheckpointError(
            f"{directory} was written by a cluster partitioned by "
            f"{partitioner!r}, which is no longer supported: 'hash' is the "
            "only partitioner left and homes the elements on other shards "
            "than this checkpoint holds them on; re-ingest the stream"
        )
    config = EngineConfig.from_dict(manifest["config"])
    topic_model = MatrixTopicModel.load(directory / MODEL_FILE)
    try:
        with open(directory / STATE_FILE, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except json.JSONDecodeError as error:
        raise CheckpointError(
            f"{directory / STATE_FILE} is corrupt: {error}"
        ) from error
    arrays_path = directory / ARRAYS_FILE
    if arrays_path.exists():
        try:
            with np.load(arrays_path, allow_pickle=False) as arrays:
                state = _inflate_arrays(state, arrays)
        except (
            ValueError,
            KeyError,
            OSError,
            EOFError,
            zipfile.BadZipFile,
            zlib.error,
        ) as error:
            raise CheckpointError(f"{arrays_path} is corrupt: {error}") from error
    elif _contains_array_refs(state):
        # A columnar checkpoint whose npz member vanished (partial copy,
        # torn rsync) must fail loudly here, not with a KeyError when the
        # first unresolved reference reaches a restore_state.
        raise CheckpointError(
            f"{directory} is missing {ARRAYS_FILE} but {STATE_FILE} references "
            "array members; the checkpoint is incomplete"
        )
    return CheckpointPayload(
        version=version,
        backend=str(manifest["backend"]),
        config=config,
        topic_model=topic_model,
        state=state,
        library_version=str(manifest.get("library_version", "unknown")),
    )

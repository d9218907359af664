"""Fault injection for the supervised cluster runtime.

Three failure modes, matching the recovery paths `repro.ha` implements —
used by the test suite and runnable against a live deployment through
``repro-ksir ha drill``:

* :func:`kill_worker` — hard-kill one shard worker process (SIGKILL), the
  crash/OOM case the heartbeat or the next in-band command detects;
* :func:`delay_heartbeat` — make a worker sleep before answering liveness
  probes, the hung-but-alive case that must trip the heartbeat timeout;
* :func:`corrupt_checkpoint` — damage a checkpoint's array member on
  disk, the torn-copy case that must surface as a clear
  :class:`~repro.api.checkpoint.CheckpointError` instead of garbage state.

Every function takes the object it attacks explicitly; nothing here is
wired into production code paths.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Union

from repro.api.checkpoint import ARRAYS_FILE, MANIFEST_FILE
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.process_backend import ProcessFanout


def _fanout_of(target: Union[ClusterCoordinator, ProcessFanout]) -> ProcessFanout:
    fanout = target.fanout if isinstance(target, ClusterCoordinator) else target
    if not isinstance(fanout, ProcessFanout):
        raise TypeError(
            "fault injection needs the process fan-out backend "
            '(ClusterConfig(transport="pipe")); in-process workers cannot '
            "be killed independently"
        )
    return fanout


def kill_worker(
    target: Union[ClusterCoordinator, ProcessFanout],
    shard_id: int,
    wait: float = 5.0,
) -> None:
    """SIGKILL one shard worker process and wait until it is gone.

    The shard is *not* marked dead — exactly like a real crash, the
    failure becomes visible only when the heartbeat or the next command
    hits the broken pipe.
    """
    fanout = _fanout_of(target)
    fanout.kill_shard(shard_id)
    deadline = time.monotonic() + wait
    while time.monotonic() < deadline:
        if not fanout._processes[shard_id].is_alive():  # noqa: SLF001
            return
        time.sleep(0.01)
    raise TimeoutError(f"shard {shard_id} still alive {wait}s after kill")


def delay_heartbeat(
    target: Union[ClusterCoordinator, ProcessFanout],
    shard_id: int,
    delay: float,
) -> None:
    """Make one worker sleep ``delay`` seconds before answering each ping.

    A delay beyond the supervisor's ``heartbeat_timeout`` makes a healthy
    worker indistinguishable from a hung one — the timeout must declare it
    dead (its late reply can no longer be matched).  ``delay=0`` restores
    normal behaviour.
    """
    _fanout_of(target).set_chaos(shard_id, ping_delay=float(delay))


def corrupt_checkpoint(path: Union[str, Path], mode: str = "truncate") -> Path:
    """Damage a checkpoint directory on disk; returns the file that was corrupted.

    Modes: ``"truncate"`` cuts the ``state_arrays.npz`` member in half
    (torn copy), ``"garbage"`` overwrites its head (bit rot), ``"remove"``
    deletes it (partial rsync).  Loading the damaged checkpoint must raise
    :class:`~repro.api.checkpoint.CheckpointError`.
    """
    directory = Path(path)
    if not (directory / MANIFEST_FILE).exists():
        raise FileNotFoundError(f"{directory} is not a checkpoint directory")
    victim = directory / ARRAYS_FILE
    if not victim.exists():
        raise FileNotFoundError(
            f"{victim} does not exist (object-store checkpoints have no "
            "arrays member to corrupt)"
        )
    if mode == "truncate":
        size = victim.stat().st_size
        with open(victim, "r+b") as handle:
            handle.truncate(max(1, size // 2))
    elif mode == "garbage":
        with open(victim, "r+b") as handle:
            handle.write(os.urandom(min(64, victim.stat().st_size or 64)))
    elif mode == "remove":
        victim.unlink()
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return victim

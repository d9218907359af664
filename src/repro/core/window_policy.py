"""Window policies: the expiry-cutoff seam of the active window.

The window (:class:`repro.store.window.ColumnarWindow`) drives *all*
expiry decisions off one number — the ``window_start`` cutoff: window
members posted before
it leave ``W_t`` and elements whose last activity predates it leave
``A_t`` (Algorithm 1).  That makes the cutoff computation the natural seam
for alternative window shapes:

``sliding``
    The paper's window: the cutoff trails the current time by exactly
    ``T − 1``, so ``W_t`` covers ``[t − T + 1, t]``.  This is the default
    and is bit-identical to the historical behaviour.
``tumbling``
    Fixed consecutive spans of length ``T`` aligned to the epoch: at time
    ``t`` the cutoff is the start of the span containing ``t``, so the
    window covers ``((n − 1)·T, n·T]`` and empties out each time a span
    boundary is crossed.
``session``
    Gap-based: the window covers the current *session* — the run of
    elements with no silence longer than ``session_gap`` between
    consecutive events.  A silence longer than the gap closes the session
    and expires everything; ``T`` still bounds the maximum session extent
    so state stays bounded.

A policy is described by the frozen :class:`WindowPolicy` value (which
travels inside :class:`~repro.core.processor.ProcessorConfig`) and
realised by a per-window :class:`CutoffTracker`, the only stateful part
(session windows must remember where the current session started).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from repro.utils.config import config_from_dict, config_to_dict

#: Canonical window-policy names.
WINDOW_POLICY_CHOICES: Tuple[str, ...] = ("sliding", "tumbling", "session")


class CutoffTracker:
    """Computes the expiry cutoff for one window (base = sliding).

    The window calls :meth:`observe` for every inserted element (only
    when the policy is stateful — see :attr:`WindowPolicy.stateful`) and
    :meth:`cutoff` on every :meth:`advance_to`.  The sliding tracker is
    stateless: the cutoff is ``t − T + 1`` regardless of the elements.
    """

    kind: str = "sliding"

    def __init__(self, window_length: int) -> None:
        self._window_length = int(window_length)

    @property
    def window_length(self) -> int:
        """The configured maximum window extent ``T``."""
        return self._window_length

    def observe(self, timestamp: int) -> None:
        """Note one inserted element (no-op for stateless policies)."""

    def observe_many(self, timestamps: Iterable[int]) -> None:
        """Note a bucket of inserted elements, in arrival order."""
        for timestamp in timestamps:
            self.observe(timestamp)

    def cutoff(self, current_time: int) -> int:
        """The expiry cutoff at ``current_time``.

        Elements with ``timestamp < cutoff`` are outside the window;
        actives with ``last_activity < cutoff`` leave ``A_t``.
        """
        return current_time - self._window_length + 1

    def state_dict(self) -> Dict[str, Any]:
        """Serialisable tracker state (empty for stateless policies)."""
        return {}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output (no-op when stateless)."""


class TumblingCutoff(CutoffTracker):
    """Epoch-aligned fixed windows ``((n − 1)·T, n·T]``."""

    kind = "tumbling"

    def cutoff(self, current_time: int) -> int:
        span = self._window_length
        return ((current_time - 1) // span) * span + 1


class SessionCutoff(CutoffTracker):
    """Gap-based session windows bounded by the maximum extent ``T``."""

    kind = "session"

    def __init__(self, window_length: int, session_gap: int) -> None:
        super().__init__(window_length)
        if session_gap <= 0:
            raise ValueError("session_gap must be positive")
        self._gap = int(session_gap)
        self._session_start: Optional[int] = None
        self._last_event: Optional[int] = None

    @property
    def session_gap(self) -> int:
        """The maximum silence between two events of one session."""
        return self._gap

    def observe(self, timestamp: int) -> None:
        if self._last_event is None or timestamp - self._last_event > self._gap:
            self._session_start = timestamp
        if self._last_event is None or timestamp > self._last_event:
            self._last_event = timestamp

    def cutoff(self, current_time: int) -> int:
        floor = current_time - self._window_length + 1
        if self._last_event is None:
            return floor
        if current_time - self._last_event > self._gap:
            # The session closed during silence: everything expires.
            return current_time + 1
        assert self._session_start is not None
        return max(self._session_start, floor)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "session_start": self._session_start,
            "last_event": self._last_event,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        session_start = state.get("session_start")
        last_event = state.get("last_event")
        self._session_start = None if session_start is None else int(session_start)
        self._last_event = None if last_event is None else int(last_event)


@dataclass(frozen=True)
class WindowPolicy:
    """One window shape: the policy name plus its parameters.

    ``session_gap`` is required for (and exclusive to) the ``session``
    policy, in stream time units.
    """

    kind: str = "sliding"
    session_gap: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in WINDOW_POLICY_CHOICES:
            raise ValueError(
                f"unknown window policy {self.kind!r}; available: "
                + ", ".join(WINDOW_POLICY_CHOICES)
            )
        if self.kind == "session":
            if self.session_gap is None or self.session_gap <= 0:
                raise ValueError("session windows require a positive session_gap")
        elif self.session_gap is not None:
            raise ValueError("session_gap is only valid with the 'session' policy")

    @property
    def stateful(self) -> bool:
        """Whether the tracker needs to observe inserted elements."""
        return self.kind == "session"

    def tracker(self, window_length: int) -> CutoffTracker:
        """Build the per-window cutoff tracker realising this policy."""
        if self.kind == "tumbling":
            return TumblingCutoff(window_length)
        if self.kind == "session":
            assert self.session_gap is not None
            return SessionCutoff(window_length, self.session_gap)
        return CutoffTracker(window_length)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Optional[Mapping[str, Any]]) -> "WindowPolicy":
        """Rebuild from :meth:`to_dict` output (``None`` = sliding)."""
        return cls() if payload is None else config_from_dict(cls, payload, "window-policy")

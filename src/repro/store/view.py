"""The ``StateView`` protocol: the window-state surface consumers rely on.

The stream processor, the ranked-list maintenance, the scatter-gather
export and the snapshot builders never depend on a concrete window class —
they are typed against :class:`StateView`, which both the object-backed
:class:`~repro.core.window.ActiveWindow` and the array-backed
:class:`~repro.store.window.ColumnarWindow` satisfy.  Swapping the state
representation (``ProcessorConfig.store``) therefore changes no consumer
code.

:class:`TopicEpochSink` is the narrow write-side protocol the ranked-list
index uses to stamp topic change epochs onto the columnar store without
importing it.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.element import SocialElement


@runtime_checkable
class TopicEpochSink(Protocol):
    """Anything that can receive per-topic change stamps."""

    def mark_topics_dirty(self, topics: Iterable[int]) -> None:
        """Record that the given topics' ranked lists changed."""
        ...


@runtime_checkable
class StateView(Protocol):
    """The full sliding-window state surface of Algorithm 1."""

    # -- configuration ----------------------------------------------------------

    @property
    def window_length(self) -> int:
        """The window length ``T``."""
        ...

    @property
    def current_time(self) -> Optional[int]:
        """The time of the last advance (None before any)."""
        ...

    @property
    def window_start(self) -> Optional[int]:
        """The earliest in-window timestamp, ``t − T + 1``."""
        ...

    # -- updates ----------------------------------------------------------------

    def insert(self, element: SocialElement) -> Tuple[int, ...]:
        """Insert an arrival; returns the touched (referenced) parent ids."""
        ...

    def insert_bucket(
        self, elements: Iterable[SocialElement]
    ) -> Dict[int, Tuple[int, ...]]:
        """Insert a bucket; returns ``{element_id: touched_parent_ids}``."""
        ...

    def advance_to(self, time: int) -> Tuple[int, ...]:
        """Advance to ``time``; returns the ids expired from the active set."""
        ...

    # -- queries ----------------------------------------------------------------

    def __len__(self) -> int: ...

    def __contains__(self, element_id: int) -> bool: ...

    def __iter__(self) -> Iterator[SocialElement]: ...

    def get(self, element_id: int) -> SocialElement:
        """The active element with the given id (KeyError when absent)."""
        ...

    def active_ids(self) -> Tuple[int, ...]:
        """Ids of every active element (``A_t``)."""
        ...

    def active_elements(self) -> Tuple[SocialElement, ...]:
        """Every active element (``A_t``)."""
        ...

    def window_ids(self) -> Tuple[int, ...]:
        """Ids of the current ``W_t`` members."""
        ...

    def in_window(self, element_id: int) -> bool:
        """Whether the element is currently a member of ``W_t``."""
        ...

    def take_touched_by_expiry(self) -> Tuple[int, ...]:
        """Drain the set of elements whose follower set shrank by expiry."""
        ...

    def followers_of(self, element_id: int) -> Tuple[int, ...]:
        """``I_t(e)``: ids of in-window elements referencing the element."""
        ...

    def followers_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """Every element with ≥ 1 in-window follower → ascending follower ids.

        An absent id has no follower.  The dict is the caller's own: later
        window mutations do not show through it.
        """
        ...

    def follower_count(self, element_id: int) -> int:
        """``|I_t(e)|``."""
        ...

    def last_activity(self, element_id: int) -> int:
        """``t_e`` (KeyError when inactive)."""
        ...

    @property
    def active_count(self) -> int:
        """``n_t = |A_t|``."""
        ...

    @property
    def window_count(self) -> int:
        """``|W_t|``."""
        ...

    # -- checkpoint state -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A serialisable snapshot of the full window state."""
        ...

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the window contents with a :meth:`state_dict` snapshot."""
        ...

    def validate(self) -> bool:
        """Check internal invariants (used by property-based tests)."""
        ...

"""The time-based sliding window and the active element set ``A_t``.

Section 3.1: given window length ``T``, the window ``W_t`` holds elements with
``ts ∈ [t − T + 1, t]`` and the *active set* ``A_t`` additionally keeps every
element referred to by some window element.  The influence score only counts
references observed inside the window, so the window also maintains, for each
active element, the set of its *followers in the window*
(``I_t(e') = {e ∈ W_t : e' ∈ e.ref}``).

Eviction follows Algorithm 1: an element stays active as long as its last
activity (its own post time, or the latest time it was referenced) is within
the window.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.core.element import SocialElement
from repro.core.window_policy import WindowPolicy
from repro.store.archive import ElementArchive
from repro.store.codec import decode_followers, decode_id_list, decode_pairs


class ActiveWindow:
    """Maintains ``W_t``, ``A_t`` and the in-window follower sets.

    The window is advanced by inserting buckets of elements with
    :meth:`insert` and then calling :meth:`advance_to` with the new time,
    which expires stale window members and inactive referenced elements.
    The expiry cutoff is computed by the configured
    :class:`~repro.core.window_policy.WindowPolicy` (sliding by default;
    tumbling and session windows share every other code path).
    """

    def __init__(
        self,
        window_length: int,
        archive_windows: int = 8,
        policy: Optional[WindowPolicy] = None,
    ) -> None:
        if window_length <= 0:
            raise ValueError("window_length must be positive")
        if archive_windows < 1:
            raise ValueError("archive_windows must be at least 1")
        self._policy = policy if policy is not None else WindowPolicy()
        self._tracker = self._policy.tracker(int(window_length))
        self._window_length = int(window_length)
        self._archive_horizon = int(archive_windows) * self._window_length
        self._current_time: Optional[int] = None
        # Every active element (window members and referenced precedents).
        self._elements: Dict[int, SocialElement] = {}
        # Last time the element was posted or referenced (t_e in Algorithm 1).
        self._last_activity: Dict[int, int] = {}
        # Followers *inside the window* for each active element.
        self._followers: Dict[int, Set[int]] = {}
        # Window membership, needed to retire follower edges on expiry.
        self._window_members: Dict[int, SocialElement] = {}
        # Recently seen elements kept so a reference can re-activate an
        # already-expired precedent (A_t is defined over W_t's references,
        # regardless of when the referenced element was posted).  The archive
        # plays the role of the platform's backing store and is bounded to
        # the last ``archive_windows`` windows of stream time.
        self._archive = ElementArchive(self._archive_horizon)
        # Still-active elements whose in-window follower set shrank during the
        # latest advance; their influence scores are stale until re-scored.
        self._touched_by_expiry: Set[int] = set()

    # -- configuration ----------------------------------------------------------

    @property
    def window_length(self) -> int:
        """The window length ``T``."""
        return self._window_length

    @property
    def current_time(self) -> Optional[int]:
        """The time of the last :meth:`advance_to` call (None before any)."""
        return self._current_time

    @property
    def policy(self) -> WindowPolicy:
        """The window policy governing the expiry cutoff."""
        return self._policy

    @property
    def window_start(self) -> Optional[int]:
        """The earliest in-window timestamp (``t − T + 1`` when sliding)."""
        if self._current_time is None:
            return None
        return self._tracker.cutoff(self._current_time)

    # -- updates -----------------------------------------------------------------

    def insert(self, element: SocialElement) -> Tuple[int, ...]:
        """Insert a newly arrived element into the window.

        Returns the ids of the referenced elements that are active after the
        insertion (their influence scores changed, so their ranked-list
        tuples need to be refreshed — the caller forwards them to the
        ranked-list index).  A referenced element that had already expired is
        re-activated from the archive, because ``A_t`` contains every element
        referred to by a window member regardless of its own age.
        """
        element_id = element.element_id
        if self._policy.stateful:
            self._tracker.observe(element.timestamp)
        # A re-posted window member replaces its previous version: edges the
        # old version created and the new one no longer claims must retire
        # now (I_t(e') is defined over current references), otherwise they
        # would dangle past the element's expiry.  The affected parents are
        # re-scored through the touched-by-expiry channel.
        previous = self._window_members.get(element_id)
        if previous is not None:
            for parent_id in previous.references:
                followers = self._followers.get(parent_id)
                if followers is not None and element_id in followers:
                    followers.discard(element_id)
                    self._touched_by_expiry.add(parent_id)
        self._elements[element_id] = element
        self._window_members[element_id] = element
        self._archive.put(element)
        self._last_activity[element_id] = max(
            element.timestamp, self._last_activity.get(element_id, element.timestamp)
        )
        self._followers.setdefault(element_id, set())

        touched: List[int] = []
        for parent_id in element.references:
            parent = self._elements.get(parent_id)
            if parent is None:
                parent = self._archive.get(parent_id)
                if parent is None:
                    # The parent was never observed (posted before the replay
                    # started or already dropped from the archive); dangling
                    # references are ignored, as a deployment would.
                    continue
                # Re-activate the expired precedent.
                self._elements[parent_id] = parent
                self._followers.setdefault(parent_id, set())
            self._followers.setdefault(parent_id, set()).add(element_id)
            self._last_activity[parent_id] = max(
                self._last_activity.get(parent_id, parent.timestamp), element.timestamp
            )
            touched.append(parent_id)
        return tuple(touched)

    def insert_bucket(self, elements: Iterable[SocialElement]) -> Dict[int, Tuple[int, ...]]:
        """Insert a bucket; returns ``{element_id: touched_parent_ids}``."""
        return {element.element_id: self.insert(element) for element in elements}

    def advance_to(self, time: int) -> Tuple[int, ...]:
        """Advance the window to time ``time`` and expire stale elements.

        Returns the ids of elements removed from the active set (the caller
        removes their ranked-list tuples).
        """
        if self._current_time is not None and time < self._current_time:
            raise ValueError(
                f"cannot move the window backwards (from {self._current_time} to {time})"
            )
        self._current_time = int(time)
        window_start = self.window_start
        assert window_start is not None

        # 1. Window members posted before the window start leave W_t; their
        #    follower edges disappear with them and the affected parents are
        #    remembered so the caller can refresh their ranked-list scores.
        expired_members = [
            element_id
            for element_id, element in self._window_members.items()
            if element.timestamp < window_start
        ]
        for element_id in expired_members:
            element = self._window_members.pop(element_id)
            for parent_id in element.references:
                followers = self._followers.get(parent_id)
                if followers is not None and element_id in followers:
                    followers.discard(element_id)
                    self._touched_by_expiry.add(parent_id)

        # 2. Elements whose last activity predates the window start are no
        #    longer active at all.
        removed = [
            element_id
            for element_id, last_activity in self._last_activity.items()
            if last_activity < window_start
        ]
        for element_id in removed:
            self._elements.pop(element_id, None)
            self._last_activity.pop(element_id, None)
            self._followers.pop(element_id, None)
            self._window_members.pop(element_id, None)
            self._touched_by_expiry.discard(element_id)

        # 3. Trim the archive so memory stays bounded by the archive horizon.
        self._archive.trim(self._current_time, self._elements, removed)
        return tuple(removed)

    # -- queries ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, element_id: int) -> bool:
        return element_id in self._elements

    def __iter__(self) -> Iterator[SocialElement]:
        return iter(self._elements.values())

    def get(self, element_id: int) -> SocialElement:
        """Return the active element with the given id (KeyError when absent)."""
        return self._elements[element_id]

    def active_ids(self) -> Tuple[int, ...]:
        """Ids of every active element (``A_t``)."""
        return tuple(self._elements.keys())

    def active_elements(self) -> Tuple[SocialElement, ...]:
        """Every active element (``A_t``)."""
        return tuple(self._elements.values())

    def window_ids(self) -> Tuple[int, ...]:
        """Ids of the elements inside the sliding window (``W_t``)."""
        return tuple(self._window_members.keys())

    def in_window(self, element_id: int) -> bool:
        """Whether the element is currently a member of ``W_t``."""
        return element_id in self._window_members

    def take_touched_by_expiry(self) -> Tuple[int, ...]:
        """Active elements whose follower set shrank since the last call.

        Their stored topic-wise scores are stale (they still include expired
        followers); the stream processor re-scores them after every window
        advance so the ranked lists always equal ``f_i({e})`` at query time
        (this is what makes Figure 5's tuple values exact).  The set is
        cleared by the call.
        """
        touched = tuple(eid for eid in self._touched_by_expiry if eid in self._elements)
        self._touched_by_expiry.clear()
        return touched

    def followers_of(self, element_id: int) -> Tuple[int, ...]:
        """``I_t(e)``: ids of in-window elements referencing ``element_id``."""
        return tuple(self._followers.get(element_id, ()))

    def followers_snapshot(self) -> Dict[int, Tuple[int, ...]]:
        """Every element with ≥ 1 in-window follower → ascending follower ids."""
        return {
            element_id: tuple(sorted(follower_ids))
            for element_id, follower_ids in self._followers.items()
            if follower_ids
        }

    def follower_count(self, element_id: int) -> int:
        """``|I_t(e)|`` without materialising the tuple."""
        return len(self._followers.get(element_id, ()))

    def last_activity(self, element_id: int) -> int:
        """Last post/reference time of the element (KeyError when inactive)."""
        return self._last_activity[element_id]

    @property
    def active_count(self) -> int:
        """``n_t = |A_t|``."""
        return len(self._elements)

    @property
    def window_count(self) -> int:
        """``|W_t|``."""
        return len(self._window_members)

    # -- checkpoint state --------------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot of the full window state.

        The archive is the superset of every live element (actives are
        always archived first), so elements are serialised once, from the
        archive, and the active/window/member structure is stored as id
        lists.  Integer-keyed maps are stored as pair lists because JSON
        object keys are strings.  :meth:`restore_state` is the inverse.
        """
        state: Dict[str, object] = {
            "window_length": self._window_length,
            "archive_horizon": self._archive_horizon,
            "current_time": self._current_time,
            "archive": [element.to_dict() for element in self._archive.values()],
            "active_ids": sorted(self._elements),
            "window_member_ids": sorted(self._window_members),
            "last_activity": sorted(self._last_activity.items()),
            "followers": [
                [element_id, sorted(follower_ids)]
                for element_id, follower_ids in sorted(self._followers.items())
            ],
            "touched_by_expiry": sorted(self._touched_by_expiry),
        }
        # Non-sliding policies carry their identity and tracker state; the
        # sliding default writes neither so its checkpoints stay identical
        # to every earlier release.
        if self._policy.kind != "sliding":
            state["window_policy"] = self._policy.to_dict()
            state["window_tracker"] = self._tracker.state_dict()
        return state

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Replace the window contents with a :meth:`state_dict` snapshot.

        The receiving window must have been constructed with the same
        ``window_length`` (the expiry semantics depend on it); a mismatch
        raises ``ValueError`` instead of silently changing behaviour.
        Accepts both snapshot shapes — the JSON-list form this class
        writes and the array/CSR form the columnar window writes — so
        either state representation restores either checkpoint vintage.
        The loaded archive is pruned to *this* window's configured
        horizon, so a checkpoint written with a longer horizon does not
        carry stale history into a tighter configuration.
        """
        if int(state["window_length"]) != self._window_length:
            raise ValueError(
                f"checkpoint window_length {state['window_length']} does not match "
                f"the configured window_length {self._window_length}"
            )
        persisted_policy = WindowPolicy.from_dict(state.get("window_policy"))
        if persisted_policy.kind != self._policy.kind:
            raise ValueError(
                f"checkpoint window policy {persisted_policy.kind!r} does not "
                f"match the configured policy {self._policy.kind!r}"
            )
        tracker_state = state.get("window_tracker")
        if tracker_state is not None:
            self._tracker.restore_state(tracker_state)
        archive = {
            int(payload["element_id"]): SocialElement.from_dict(payload)
            for payload in state["archive"]
        }
        current_time = state["current_time"]
        self._current_time = None if current_time is None else int(current_time)
        self._elements = {
            eid: archive[eid] for eid in decode_id_list(state["active_ids"])
        }
        self._window_members = {
            eid: archive[eid] for eid in decode_id_list(state["window_member_ids"])
        }
        self._last_activity = dict(decode_pairs(state["last_activity"]))
        self._followers = decode_followers(state["followers"])
        self._touched_by_expiry = set(decode_id_list(state["touched_by_expiry"]))
        # A restored window must not carry more history than a live one would.
        self._archive = ElementArchive(self._archive_horizon, archive)
        if self._current_time is not None:
            self._archive.trim(self._current_time, self._elements, archive)

    def validate(self) -> bool:
        """Check internal invariants (used by property-based tests)."""
        window_start = self.window_start
        for element_id, element in self._window_members.items():
            if element_id not in self._elements:
                return False
            if window_start is not None and element.timestamp < window_start:
                return False
        for element_id, followers in self._followers.items():
            if element_id not in self._elements:
                return False
            for follower_id in followers:
                follower = self._window_members.get(follower_id)
                if follower is None or element_id not in follower.references:
                    return False
        for element_id in self._elements:
            if element_id not in self._last_activity:
                return False
        return True

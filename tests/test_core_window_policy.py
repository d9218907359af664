"""Window policies: cutoff trackers, the window and the reference oracle.

The policy seam is one number — the ``window_start`` cutoff — so these
tests pin the cutoff arithmetic of each policy directly, then drive
:class:`~repro.store.window.ColumnarWindow` and the test oracle's
:class:`~tests.oracle.OracleWindow` side by side to show the two agree
under every policy, and that checkpoints carry the policy (and the session
tracker's state) across a restore.
"""

from __future__ import annotations

import pytest

from repro.core.element import SocialElement
from repro.core.window_policy import (
    CutoffTracker,
    SessionCutoff,
    TumblingCutoff,
    WindowPolicy,
)
from repro.store.window import ColumnarWindow
from tests.oracle import OracleWindow


def make_element(element_id: int, timestamp: int, references=()) -> SocialElement:
    return SocialElement(
        element_id=element_id,
        timestamp=timestamp,
        tokens=("w",),
        references=tuple(references),
    )


class TestPolicyValue:
    def test_default_is_sliding(self):
        policy = WindowPolicy()
        assert policy.kind == "sliding"
        assert not policy.stateful
        assert isinstance(policy.tracker(10), CutoffTracker)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown window policy"):
            WindowPolicy(kind="hopping")

    def test_session_requires_gap(self):
        with pytest.raises(ValueError, match="session_gap"):
            WindowPolicy(kind="session")
        with pytest.raises(ValueError, match="session_gap"):
            WindowPolicy(kind="session", session_gap=0)

    def test_gap_exclusive_to_session(self):
        with pytest.raises(ValueError, match="only valid with the 'session'"):
            WindowPolicy(kind="tumbling", session_gap=5)

    def test_tracker_dispatch(self):
        assert isinstance(WindowPolicy("tumbling").tracker(10), TumblingCutoff)
        session = WindowPolicy("session", session_gap=3)
        assert isinstance(session.tracker(10), SessionCutoff)
        assert session.stateful

    def test_dict_roundtrip(self):
        for policy in (
            WindowPolicy(),
            WindowPolicy("tumbling"),
            WindowPolicy("session", session_gap=7),
        ):
            assert WindowPolicy.from_dict(policy.to_dict()) == policy
        assert WindowPolicy.from_dict(None) == WindowPolicy()
        with pytest.raises(ValueError, match="unknown window-policy keys"):
            WindowPolicy.from_dict({"kind": "sliding", "extra": 1})


class TestCutoffArithmetic:
    def test_sliding_cutoff_trails_by_window(self):
        tracker = CutoffTracker(4)
        assert tracker.cutoff(8) == 5  # W_8 = [5, 8], the paper's T = 4

    def test_tumbling_cutoff_is_span_start(self):
        tracker = TumblingCutoff(4)
        # Spans (0, 4], (4, 8], ...: the cutoff jumps at span boundaries.
        assert tracker.cutoff(1) == 1
        assert tracker.cutoff(4) == 1
        assert tracker.cutoff(5) == 5
        assert tracker.cutoff(8) == 5
        assert tracker.cutoff(9) == 9

    def test_session_cutoff_follows_session_start(self):
        tracker = SessionCutoff(100, session_gap=3)
        tracker.observe(10)
        tracker.observe(12)
        assert tracker.cutoff(12) == 10  # session open since 10
        tracker.observe(14)
        assert tracker.cutoff(14) == 10
        # Silence longer than the gap closes the session entirely.
        assert tracker.cutoff(18) == 19
        # The next event opens a fresh session.
        tracker.observe(30)
        assert tracker.cutoff(30) == 30

    def test_session_cutoff_is_bounded_by_window_length(self):
        tracker = SessionCutoff(5, session_gap=3)
        for timestamp in range(1, 20, 2):
            tracker.observe(timestamp)
        # One long session, but T = 5 still bounds the extent.
        assert tracker.cutoff(19) == 19 - 5 + 1

    def test_session_state_roundtrip(self):
        tracker = SessionCutoff(100, session_gap=3)
        tracker.observe(10)
        tracker.observe(12)
        restored = SessionCutoff(100, session_gap=3)
        restored.restore_state(tracker.state_dict())
        assert restored.cutoff(13) == tracker.cutoff(13)
        assert restored.cutoff(40) == tracker.cutoff(40)


@pytest.mark.parametrize("window_cls", [ColumnarWindow])
class TestWindowsUnderPolicies:
    def test_sliding_default_unchanged(self, window_cls):
        window = window_cls(4)
        assert window.policy == WindowPolicy()
        window.insert_bucket([make_element(1, 1), make_element(2, 4)])
        window.advance_to(4)
        assert set(window.window_ids()) == {1, 2}
        window.advance_to(7)
        assert set(window.window_ids()) == {2}

    def test_tumbling_window_empties_at_span_boundary(self, window_cls):
        window = window_cls(4, policy=WindowPolicy("tumbling"))
        window.insert_bucket([make_element(1, 2), make_element(2, 4)])
        window.advance_to(4)  # span (0, 4] still open
        assert set(window.window_ids()) == {1, 2}
        window.insert_bucket([make_element(3, 5)])
        window.advance_to(5)  # crossed into (4, 8]: the span emptied
        assert set(window.window_ids()) == {3}
        assert set(window.active_ids()) == {3}

    def test_session_window_expires_after_gap_silence(self, window_cls):
        window = window_cls(100, policy=WindowPolicy("session", session_gap=3))
        window.insert_bucket([make_element(1, 10), make_element(2, 12)])
        window.advance_to(12)
        assert set(window.window_ids()) == {1, 2}
        window.advance_to(14)  # silence within the gap: session stays open
        assert set(window.window_ids()) == {1, 2}
        window.advance_to(16)  # gap exceeded: the session closed
        assert window.window_ids() == ()
        window.insert_bucket([make_element(3, 20)])
        window.advance_to(20)  # a new session holds only the new element
        assert set(window.window_ids()) == {3}

    def test_both_implementations_agree_under_every_policy(self, window_cls):
        # Not parametrised over the *other* class: build both here and
        # replay the same buckets, comparing membership step by step.
        del window_cls
        elements = [
            make_element(1, 2),
            make_element(2, 4, references=(1,)),
            make_element(3, 5),
            make_element(4, 9, references=(3,)),
            make_element(5, 13),
        ]
        for policy in (
            WindowPolicy(),
            WindowPolicy("tumbling"),
            WindowPolicy("session", session_gap=4),
        ):
            core = OracleWindow(6, policy=policy)
            columnar = ColumnarWindow(6, policy=policy)
            for element in elements:
                core.insert(element)
                columnar.insert_bucket([element])
                core.advance_to(element.timestamp)
                columnar.advance_to(element.timestamp)
                assert set(core.window_ids()) == set(columnar.window_ids()), policy
                assert set(core.active_ids()) == set(columnar.active_ids()), policy

    def test_checkpoint_roundtrip_carries_policy_state(self, window_cls):
        policy = WindowPolicy("session", session_gap=3)
        window = window_cls(100, policy=policy)
        window.insert_bucket([make_element(1, 10), make_element(2, 12)])
        window.advance_to(12)
        restored = window_cls(100, policy=policy)
        restored.restore_state(window.state_dict())
        # The restored tracker remembers the open session: advancing
        # within the gap keeps it, advancing past the gap closes it.
        restored.advance_to(14)
        assert set(restored.window_ids()) == {1, 2}
        restored.advance_to(16)
        assert restored.window_ids() == ()

    def test_checkpoint_policy_mismatch_is_rejected(self, window_cls):
        window = window_cls(4, policy=WindowPolicy("tumbling"))
        window.insert_bucket([make_element(1, 2)])
        window.advance_to(2)
        plain = window_cls(4)
        with pytest.raises(ValueError, match="window policy"):
            plain.restore_state(window.state_dict())

    def test_sliding_checkpoint_has_no_policy_keys(self, window_cls):
        window = window_cls(4)
        window.insert_bucket([make_element(1, 2)])
        window.advance_to(2)
        state = window.state_dict()
        assert "window_policy" not in state
        assert "window_tracker" not in state

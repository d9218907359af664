"""The bodies of the four hot-path kernels.

Each function is a pure array transformation: no store or processor
objects cross the seam.  :mod:`repro.kernels` wraps each one in a call
timer, and the call sites use the wrapped names.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import numpy.typing as npt

from repro.kernels.segments import segment_sums


def delta_topic_sums(
    profile_matrix: npt.NDArray[np.float64],
    indices: npt.NDArray[np.intp],
    counts: npt.NDArray[np.intp],
) -> npt.NDArray[np.float64]:
    """Gather + segmented-reduce over the store's ``P[rows, z]`` matrix.

    For each touched parent ``j`` (whose follower rows occupy segment
    ``j`` of ``indices``, ``counts[j]`` rows long) the result row is
    ``Σ_{f ∈ followers(j)} P[f]`` — the follower-probability sums behind
    the δ-recompute ``δ_i = λ·R_i + ((1−λ)/η)·(p_i·Σ p_i(f))``.
    """
    gathered: npt.NDArray[np.float64] = profile_matrix[indices]
    return segment_sums(gathered, counts)


def ranked_merge(
    scores: npt.NDArray[np.float64], keys: npt.NDArray[np.int64]
) -> npt.NDArray[np.intp]:
    """Sort order of ranked-list entries: score descending, key ascending.

    Returns the permutation ``order`` such that
    ``zip(scores[order], keys[order])`` is the merged ranked list.  The
    ascending-key tie-break is the library-wide determinism contract of
    :class:`~repro.utils.sorted_list.DescendingSortedList`.
    """
    order: npt.NDArray[np.intp] = np.lexsort((keys, -scores))
    return order


def window_scan(
    element_ids: npt.NDArray[np.int64],
    in_window: npt.NDArray[np.bool_],
    timestamps: npt.NDArray[np.int64],
    last_activity: npt.NDArray[np.int64],
    window_start: int,
) -> Tuple[npt.NDArray[np.intp], npt.NDArray[np.intp]]:
    """Fused expiry + free-row-recycling scan over the store columns.

    One pass computes both row sets the window advance needs: window
    members posted before ``window_start`` (they leave ``W_t``) and live
    rows whose last activity predates ``window_start`` (their rows are
    recycled).  Columns arrive pre-sliced to the store's high-water mark.
    """
    expired: npt.NDArray[np.intp] = np.nonzero(
        in_window & (timestamps < window_start)
    )[0]
    inactive: npt.NDArray[np.intp] = np.nonzero(
        (element_ids >= 0) & (last_activity < window_start)
    )[0]
    return expired, inactive


def positive_counts(
    weights: npt.NDArray[np.float64], counts: npt.NDArray[np.intp]
) -> npt.NDArray[np.intp]:
    """Per-segment count of strictly positive weights.

    The profile builder's per-topic candidate counting: segment ``j``
    covers ``counts[j]`` consecutive weights, and the result is how many
    of them survive thresholding (``> 0``).
    """
    flags: npt.NDArray[np.intp] = (weights > 0.0).astype(np.intp)
    return segment_sums(flags, counts)

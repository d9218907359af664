"""Argument-validation helpers shared by the public API.

The k-SIR public entry points validate user-facing parameters eagerly so that
misconfiguration surfaces as a clear ``ValueError`` at call time rather than
as a silent quality loss deep in an algorithm.
"""

from __future__ import annotations

from numbers import Real
from typing import Optional


def require_positive(value: Real, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def require_non_negative(value: Real, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` is >= 0 (NaN is not)."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")


def require_probability(value: Real, name: str) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the closed unit interval."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def require_in_range(
    value: Real,
    name: str,
    low: Optional[Real] = None,
    high: Optional[Real] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> None:
    """Raise ``ValueError`` unless ``value`` lies in the requested interval.

    Each check is written negated, so NaN — which compares false with
    everything — lies in no interval that has a bound.
    """
    if low is not None:
        if low_inclusive and not value >= low:
            raise ValueError(f"{name} must be >= {low}, got {value!r}")
        if not low_inclusive and not value > low:
            raise ValueError(f"{name} must be > {low}, got {value!r}")
    if high is not None:
        if high_inclusive and not value <= high:
            raise ValueError(f"{name} must be <= {high}, got {value!r}")
        if not high_inclusive and not value < high:
            raise ValueError(f"{name} must be < {high}, got {value!r}")


def require_forward(current: Optional[int], time: int) -> None:
    """Raise ``ValueError`` when ``time`` would move a window that stands at
    ``current`` (None before its first bucket) backwards."""
    if current is not None and time < current:
        raise ValueError(f"cannot move the window backwards (from {current} to {time})")

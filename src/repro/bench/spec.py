"""Declarative paper-artefact specifications and the process-wide registry.

A :class:`BenchSpec` describes one artefact of the paper's evaluation (a
figure, a table or an ablation): a name, the parameters of each size tier
(``tiny`` for CI, ``full`` for the sizes the shape assertions were tuned
on), a ``run`` callable that regenerates the artefact and a ``check`` that
asserts its shape.

Specs register themselves into a module-level registry; the CLI
(``repro-ksir bench``), the thin ``benchmarks/bench_*.py`` wrappers and the
tests all resolve them through :func:`get_spec` / :func:`iter_specs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

#: The two size tiers every spec must provide.
TIERS = ("tiny", "full")


@dataclass(frozen=True)
class Outcome:
    """What a spec's ``run`` returns.

    ``artefact`` is the rendered table/figure persisted next to the JSON
    report; ``value`` is the object handed to the spec's check function
    (never serialised).
    """

    artefact: str
    value: Any


#: ``run(params, seed)`` regenerates the artefact from one tier's parameters.
RunFn = Callable[[Mapping[str, Any], int], Outcome]

#: ``check(value, tier)`` receives :attr:`Outcome.value` and the tier name;
#: it raises ``AssertionError`` on failure.
CheckFn = Callable[[Any, str], None]


@dataclass(frozen=True)
class BenchSpec:
    """A registered paper artefact.

    Attributes
    ----------
    name:
        Registry key; the report is written as ``BENCH_<name>.json`` and
        the rendered artefact as ``<name>.txt``.
    description:
        One-line summary shown by ``repro-ksir bench list``.
    run:
        Regenerates the artefact (see :data:`RunFn`).
    tiers:
        ``{"tiny": params, "full": params}``; the parameters are passed
        verbatim to ``run`` and recorded in the JSON report.
    check:
        Shape assertions run on the result (see :data:`CheckFn`); a failure
        marks the report ``checks_passed: false`` and makes the runner exit
        non-zero.
    """

    name: str
    description: str
    run: RunFn
    tiers: Mapping[str, Mapping[str, Any]]
    check: CheckFn

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in " /\\"):
            raise ValueError(f"invalid benchmark name {self.name!r}")
        for tier in TIERS:
            if tier not in self.tiers:
                raise ValueError(f"benchmark {self.name!r} is missing tier {tier!r}")


_REGISTRY: Dict[str, BenchSpec] = {}


def register(spec: BenchSpec) -> BenchSpec:
    """Add a spec to the registry; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"benchmark {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Drop a spec (used by tests)."""
    _REGISTRY.pop(name, None)


def get_spec(name: str) -> BenchSpec:
    """Look up a registered spec by name."""
    _ensure_suites()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown benchmark {name!r}; registered: {known}") from None


def spec_names() -> Tuple[str, ...]:
    """Sorted names of every registered benchmark."""
    _ensure_suites()
    return tuple(sorted(_REGISTRY))


def iter_specs(names: Sequence[str] = ()) -> Tuple[BenchSpec, ...]:
    """The named specs (unknown names raise), or every registered one."""
    return tuple(get_spec(name) for name in (names or spec_names()))


def _ensure_suites() -> None:
    """Import the built-in suites exactly once (registration side effect)."""
    from repro.bench import suites  # noqa: F401  (import registers the specs)

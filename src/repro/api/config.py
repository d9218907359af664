"""The composable engine configuration of the :mod:`repro.api` facade.

One :class:`EngineConfig` describes a complete k-SIR deployment: the
stream-processor parameters (window, bucket, scoring), the optional
sharding layer, the topic-inference settings and the execution-backend
name.  It round-trips losslessly through plain dictionaries
(:meth:`EngineConfig.to_dict` / :meth:`EngineConfig.from_dict`), which is
what the checkpoint format and any JSON/YAML deployment description use,
and it can be assembled from an ``argparse`` namespace
(:meth:`EngineConfig.from_args`) so every CLI subcommand shares one
backend-wiring path instead of re-implementing it.

No key or default is spelled twice: the round-trip is :mod:`repro.utils.config`
walking the dataclass fields, ``_RETIRED`` holds the keys earlier releases
wrote and ``_FLAGS`` the CLI flags ``add_arguments`` and ``from_args`` read.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Any, Callable, Dict, Mapping, NamedTuple, Optional, Sequence, Union

from repro.cluster.coordinator import ClusterConfig, transport_names
from repro.core.processor import ProcessorConfig
from repro.ha.config import HAConfig
from repro.streams.config import StreamConfig
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel
from repro.utils.config import RetiredKeys, config_from_dict, config_to_dict

#: Canonical execution-backend names (what `EngineConfig.backend` holds).
LOCAL_BACKEND = "local"
SHARDED_BACKEND = "sharded"
SERVICE_BACKEND = "service"

#: Accepted spellings → canonical backend names (CLI compatibility).
BACKEND_ALIASES: Dict[str, str] = {
    LOCAL_BACKEND: LOCAL_BACKEND,
    "single": LOCAL_BACKEND,
    "processor": LOCAL_BACKEND,
    SHARDED_BACKEND: SHARDED_BACKEND,
    "cluster": SHARDED_BACKEND,
    SERVICE_BACKEND: SERVICE_BACKEND,
    "serve": SERVICE_BACKEND,
}


def canonical_backend_name(name: str) -> str:
    """Resolve a backend spelling to its canonical name."""
    key = name.strip().lower()
    try:
        return BACKEND_ALIASES[key]
    except KeyError as error:
        available = ", ".join(sorted(set(BACKEND_ALIASES.values())))
        raise ValueError(
            f"unknown execution backend {name!r}; available: {available}"
        ) from error


@dataclass(frozen=True)
class InferenceConfig:
    """Topic-inference settings, shared by ingest and query-by-keyword.

    Mirrors the :class:`~repro.topics.inference.TopicInferencer` options
    (minus the model and the RNG seed, which are runtime objects).  Keeping
    them in the engine config ends the historical drift where different
    entry points hard-coded different inferencer parameters: every surface
    now builds its inferencer through :meth:`build`.
    """

    alpha: Optional[float] = None
    iterations: int = 30
    method: str = "expectation"
    sparsity_threshold: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in ("expectation", "gibbs"):
            raise ValueError("method must be 'expectation' or 'gibbs'")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not (0.0 <= self.sparsity_threshold < 1.0):
            raise ValueError("sparsity_threshold must lie in [0, 1)")

    def build(self, model: TopicModel) -> TopicInferencer:
        """Instantiate a :class:`TopicInferencer` bound to ``model``."""
        return TopicInferencer(model, **config_to_dict(self))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InferenceConfig":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        return config_from_dict(cls, payload, "inference")


#: The inference settings every dataset-backed CLI path historically used
#: (weak prior + light sparsification, so keyword queries stay topical).
QUERY_INFERENCE = InferenceConfig(alpha=0.05, sparsity_threshold=0.05)


@dataclass(frozen=True)
class EngineConfig:
    """One composable description of a complete k-SIR engine.

    Parameters
    ----------
    backend:
        Execution-backend name: ``"local"`` (one processor), ``"sharded"``
        (a cluster coordinator) or ``"service"`` (a standing-query serving
        engine over either substrate).  CLI spellings ``"single"`` and
        ``"cluster"`` are accepted as aliases.
    processor:
        The per-node stream-processor configuration (window length,
        bucket, scoring, defaults) — the section shard workers receive.
    cluster:
        The sharding configuration; ``None`` keeps single-node execution.
        A ``service`` backend with a cluster config serves its standing
        queries over the shards.
    inference:
        Topic-inference settings applied to both ingest and keyword
        queries; ``None`` uses the inferencer defaults (``α = 50/z``,
        dense posteriors).
    ha:
        Supervision tuning (heartbeats, checkpoint cadence, bucket WAL)
        consumed by :class:`~repro.ha.supervisor.ClusterSupervisor`;
        ``None`` means supervisor defaults.  The engine itself ignores
        this section — it only travels with the configuration.
    streams:
        Event-time ingestion tuning (allowed lateness) consumed by
        :meth:`~repro.api.engine.KSIREngine.ingest`; ``None`` means in-order
        defaults.
    """

    backend: str = LOCAL_BACKEND
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    cluster: Optional[ClusterConfig] = None
    inference: Optional[InferenceConfig] = None
    ha: Optional[HAConfig] = None
    streams: Optional[StreamConfig] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", canonical_backend_name(self.backend))
        if self.backend == SHARDED_BACKEND and self.cluster is None:
            object.__setattr__(self, "cluster", ClusterConfig())

    # -- derived views -----------------------------------------------------------------

    @property
    def is_sharded(self) -> bool:
        """Whether execution runs over shard partitions."""
        return self.cluster is not None and self.backend != LOCAL_BACKEND

    def build_inferencer(self, model: TopicModel) -> Optional[TopicInferencer]:
        """The configured inferencer, or ``None`` for the library default."""
        if self.inference is None:
            return None
        return self.inference.build(model)

    def with_backend(self, backend: str) -> "EngineConfig":
        """A copy of this configuration running on a different backend."""
        return replace(self, backend=canonical_backend_name(backend))

    # -- dict round-trip ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return config_to_dict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing sections and keys fall back to their defaults; unknown keys
        and values of the wrong type raise ``ValueError`` so typos in
        deployment files fail loudly.  Keys retired by earlier releases
        (``_RETIRED``) still load.
        """
        return config_from_dict(cls, payload, "engine", _RETIRED)

    # -- argparse integration ----------------------------------------------------------

    @staticmethod
    def add_arguments(parser: argparse.ArgumentParser) -> None:
        """Install the shared engine options on an ``argparse`` parser.

        One option per row of ``_FLAGS``.  An option's default is its config
        field's default unless the row states a CLI default of its own.
        """
        declared = EngineConfig(cluster=ClusterConfig(), streams=StreamConfig())
        for flag in _FLAGS:
            default = flag.default
            if default is None:
                default = reduce(getattr, flag.path.split("."), declared)
                if flag.scale != 1:
                    default //= flag.scale
            choices = flag.choices() if callable(flag.choices) else flag.choices
            parser.add_argument(
                flag.flag, type=flag.type, default=default, choices=choices, help=flag.help
            )

    @classmethod
    def from_args(
        cls,
        args: argparse.Namespace,
        service: bool = False,
        inference: Optional[InferenceConfig] = QUERY_INFERENCE,
    ) -> "EngineConfig":
        """Build a configuration from parsed :meth:`add_arguments` options.

        ``service=True`` selects the ``service`` execution backend (over a
        cluster when ``--backend cluster`` was given).  ``inference``
        defaults to the dataset-backed CLI inference settings; pass
        ``None`` to keep the library-default inferencer.  An option the
        namespace does not carry takes its ``_FLAGS`` default.
        """
        given = vars(args)
        payload: Dict[str, Any] = {"streams": {}}
        for flag in _FLAGS:
            value = given.get(flag.flag[2:].replace("-", "_"), flag.default)
            if value is None:
                continue  # the dataclass default
            if flag.scale != 1:
                value *= flag.scale
            *sections, key = flag.path.split(".")
            section = payload
            for name in sections:
                section = section.setdefault(name, {})
            section[key] = value
        if canonical_backend_name(payload["backend"]) != SHARDED_BACKEND:
            payload.pop("cluster", None)
        if service:
            payload["backend"] = SERVICE_BACKEND
        return replace(cls.from_dict(payload), inference=inference)


# -- keys earlier releases wrote --------------------------------------------------------

#: ``ProcessorConfig`` keys retired with the objects store and the
#: sequential ingest path, mapped to the only value each may still carry.
_RETIRED_PROCESSOR_KEYS = {"store": "columnar", "batched_ingest": True}

#: The same for ``ClusterConfig``: ``round-robin`` and ``load-balanced``
#: homed elements where ``shard_of`` does not; see ``_WHY_RETIRED``.
_RETIRED_CLUSTER_KEYS = {"partitioner": "hash", "budget_scale": 1.0}

#: The window shape, named in ``processor`` (and in ``streams`` by older
#: manifests): the sliding window is the only one left; see ``_WHY_RETIRED``.
_RETIRED_WINDOW_KEYS = {"window_policy": "sliding", "session_gap": None}

_WHY_RETIRED = {
    "window_policy": "the tumbling and session windows were removed; a k-SIR "
    "query is defined over the paper's sliding window",
    "session_gap": "it only configured the removed session window",
    "budget_scale": "queries read the coordinator's replica of every shard's "
    "records, so there is no candidate budget to scale",
    "mode": "Numba, the other kernel backend, was retired because it could "
    "never be measured",
}

#: Fan-out spellings of manifests written before PR 16 → the transport that
#: survived them.  ``thread`` (the old default) was the ``serial`` workers
#: behind a pool and ``shm`` the ``pipe`` processes with another payload
#: encoding; answers and checkpoint state are the same on all of them.
_RETIRED_TRANSPORTS = {"thread": "serial", "shm": "pipe", "process": "pipe"}


def _pop_retired(section: str, keys: Mapping[str, Any], written: Dict[str, Any]) -> None:
    for key, surviving in keys.items():
        if key in written and written.pop(key) != surviving:
            why = f" ({_WHY_RETIRED[key]})" if key in _WHY_RETIRED else ""
            raise ValueError(
                f"{section}.{key} is no longer supported: the {key!r} option "
                f"was retired and {surviving!r} is the only behaviour left{why}"
            )


def _retired_processor(written: Dict[str, Any]) -> None:
    _pop_retired("processor", _RETIRED_WINDOW_KEYS, written)
    _pop_retired("processor", _RETIRED_PROCESSOR_KEYS, written)


def _retired_streams(written: Dict[str, Any]) -> None:
    _pop_retired("streams", _RETIRED_WINDOW_KEYS, written)
    # The default of the removed named sources: it never changed state or
    # answers, so any value loads.
    written.pop("source", None)


def _retired_cluster(written: Dict[str, Any]) -> None:
    _pop_retired("cluster", _RETIRED_CLUSTER_KEYS, written)
    # ``backend`` (the fan-out when ``transport`` was null) and
    # ``max_workers`` (the thread pool's size) are in every older manifest.
    written.pop("max_workers", None)
    backend = written.pop("backend", None)
    transport = written.pop("transport", None)
    if transport is None:
        transport = backend
    if isinstance(transport, str):
        transport = _RETIRED_TRANSPORTS.get(transport.strip().lower(), transport)
    if transport is not None:
        written["transport"] = transport


def _retired_engine(written: Dict[str, Any]) -> None:
    """Drop the ``service`` and ``kernels`` sections.

    ``service`` held the maintenance mode (``incremental``: the naive mode
    re-ran every standing query and gave the same answers) and the
    evaluator pool's size (``max_workers``), so any value of either loads.
    ``kernels`` chose the kernel backend.
    """
    service = written.pop("service", {})
    if not isinstance(service, Mapping):
        raise ValueError(f"service must be a mapping of config keys, got {service!r}")
    unknown = sorted(set(service) - {"incremental", "max_workers"})
    if unknown:
        raise ValueError(f"unknown service keys: {', '.join(unknown)}")
    kernels = written.pop("kernels", {})
    if not isinstance(kernels, Mapping):
        raise ValueError(f"kernels must be a mapping of config keys, got {kernels!r}")
    kernels = dict(kernels)
    if kernels.get("mode") == "auto":  # the default, which ran these kernels
        kernels["mode"] = "numpy"
    _pop_retired("kernels", {"mode": "numpy"}, kernels)
    if kernels:
        raise ValueError(f"unknown kernels keys: {', '.join(sorted(kernels))}")


_RETIRED: RetiredKeys = {
    ProcessorConfig: _retired_processor,
    ClusterConfig: _retired_cluster,
    # The cadence of full segments in the retired delta-checkpoint chain:
    # it never changed an answer, so any value loads.
    HAConfig: lambda written: written.pop("full_every", None),
    StreamConfig: _retired_streams,
    EngineConfig: _retired_engine,
}


# -- the CLI flags, once ----------------------------------------------------------------


class _Flag(NamedTuple):
    """One shared CLI option and the ``section.key`` path of the field it sets.

    ``scale`` is config units per flag unit (``--window-hours`` counts 3600 s);
    ``default`` is the CLI's own default, ``None`` = the dataclass default.
    """

    flag: str
    path: str
    type: type
    help: Optional[str] = None
    scale: int = 1
    default: Any = None
    choices: Union[Sequence[str], Callable[[], Sequence[str]], None] = None


_FLAGS = (
    _Flag("--backend", "backend", str,
          "execution backend: one processor or a sharded cluster",
          default="single", choices=("single", "cluster")),
    _Flag("--shards", "cluster.num_shards", int,
          "number of shards (cluster backend only)"),
    _Flag("--transport", "cluster.transport", str,
          "cluster transport (serial = in-process shard workers, "
          "pipe = one process per shard)", choices=transport_names),
    _Flag("--window-hours", "processor.window_length", int, scale=3600),
    _Flag("--bucket-minutes", "processor.bucket_length", int, scale=60),
    _Flag("--lambda-weight", "processor.scoring.lambda_weight", float),
    # The η of ``twitter-small``, the profile ``query`` replays by default
    # (``experiments.config.DATASET_ETA``); the dataclass holds the paper's 20.
    _Flag("--eta", "processor.scoring.eta", float, default=1.5),
    _Flag("--archive-windows", "processor.archive_windows", int,
          "archive retention horizon in window lengths"),
    _Flag("--allowed-lateness", "streams.allowed_lateness", int,
          "out-of-order tolerance of raw-event ingest, in bucket "
          "units (0 = require in-order arrival)"),
)

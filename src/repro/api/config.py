"""The composable engine configuration of the :mod:`repro.api` facade.

One :class:`EngineConfig` describes a complete k-SIR deployment: the
stream-processor parameters (window, bucket, scoring), the optional
sharding layer, the standing-query serving options, the topic-inference
settings and the execution-backend name.  It round-trips losslessly
through plain dictionaries (:meth:`EngineConfig.to_dict` /
:meth:`EngineConfig.from_dict`), which is what the checkpoint format and
any JSON/YAML deployment description use, and it can be assembled from an
``argparse`` namespace (:meth:`EngineConfig.from_args`) so every CLI
subcommand shares one backend-wiring path instead of re-implementing it.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cluster.coordinator import ClusterConfig
from repro.cluster.transport import transport_names
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.core.window_policy import WINDOW_POLICY_CHOICES
from repro.ha.config import HAConfig
from repro.kernels import KERNEL_CHOICES
from repro.streams.config import StreamConfig
from repro.topics.inference import TopicInferencer
from repro.topics.model import TopicModel

#: Canonical execution-backend names (the adapter registry keys).
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
    """Resolve a backend spelling to its canonical registry name."""
    key = name.strip().lower()
    try:
        return BACKEND_ALIASES[key]
    except KeyError as error:
        available = ", ".join(sorted(set(BACKEND_ALIASES.values())))
        raise ValueError(
            f"unknown execution backend {name!r}; available: {available}"
        ) from error


def _check_known_keys(payload: Mapping[str, Any], known: Tuple[str, ...], where: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} keys in config dict: {', '.join(unknown)}")


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
        return TopicInferencer(
            model,
            alpha=self.alpha,
            iterations=self.iterations,
            method=self.method,
            sparsity_threshold=self.sparsity_threshold,
        )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return {
            "alpha": self.alpha,
            "iterations": self.iterations,
            "method": self.method,
            "sparsity_threshold": self.sparsity_threshold,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "InferenceConfig":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(
            payload, ("alpha", "iterations", "method", "sparsity_threshold"), "inference"
        )
        alpha = payload.get("alpha")
        return cls(
            alpha=None if alpha is None else float(alpha),
            iterations=int(payload.get("iterations", 30)),
            method=str(payload.get("method", "expectation")),
            sparsity_threshold=float(payload.get("sparsity_threshold", 0.0)),
        )


#: The inference settings every dataset-backed CLI path historically used
#: (weak prior + light sparsification, so keyword queries stay topical).
QUERY_INFERENCE = InferenceConfig(alpha=0.05, sparsity_threshold=0.05)


@dataclass(frozen=True)
class ServiceConfig:
    """Standing-query serving options of the ``service`` backend."""

    max_workers: int = 4
    incremental: bool = True

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return {"max_workers": self.max_workers, "incremental": self.incremental}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ServiceConfig":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(payload, ("max_workers", "incremental"), "service")
        return cls(
            max_workers=int(payload.get("max_workers", 4)),
            incremental=bool(payload.get("incremental", True)),
        )


@dataclass(frozen=True)
class KernelConfig:
    """Hot-path kernel selection (see :mod:`repro.kernels`).

    ``mode`` is ``"auto"`` (compile with Numba when importable, silently
    fall back to the NumPy reference otherwise — the default, zero hard
    dependencies), ``"numba"`` (require the compiled path) or
    ``"numpy"`` (force the reference implementations).  Selection is
    process-wide: the backend factory applies it once per engine
    construction via :func:`repro.kernels.configure_kernels`.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in KERNEL_CHOICES:
            available = ", ".join(KERNEL_CHOICES)
            raise ValueError(
                f"unknown kernel mode {self.mode!r}; available: {available}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable dictionary; inverse of :meth:`from_dict`."""
        return {"mode": self.mode}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "KernelConfig":
        """Inverse of :meth:`to_dict` (unknown keys raise ``ValueError``)."""
        _check_known_keys(payload, ("mode",), "kernels")
        return cls(mode=str(payload.get("mode", "auto")))


def _scoring_to_dict(scoring: ScoringConfig) -> Dict[str, Any]:
    return {
        "lambda_weight": scoring.lambda_weight,
        "eta": scoring.eta,
        "topic_threshold": scoring.topic_threshold,
    }


def _scoring_from_dict(payload: Mapping[str, Any]) -> ScoringConfig:
    _check_known_keys(payload, ("lambda_weight", "eta", "topic_threshold"), "scoring")
    defaults = ScoringConfig()
    return ScoringConfig(
        lambda_weight=float(payload.get("lambda_weight", defaults.lambda_weight)),
        eta=float(payload.get("eta", defaults.eta)),
        topic_threshold=float(payload.get("topic_threshold", defaults.topic_threshold)),
    )


def _processor_to_dict(config: ProcessorConfig) -> Dict[str, Any]:
    return {
        "window_length": config.window_length,
        "bucket_length": config.bucket_length,
        "scoring": _scoring_to_dict(config.scoring),
        "default_algorithm": config.default_algorithm,
        "default_epsilon": config.default_epsilon,
        "archive_windows": config.archive_windows,
        "window_policy": config.window_policy,
        "session_gap": config.session_gap,
    }


#: ``ProcessorConfig`` keys retired with the objects store and the
#: sequential ingest path, mapped to the only value each may still carry.
#: Payloads written by earlier releases (checkpoint manifests) hold them.
_RETIRED_PROCESSOR_KEYS = {"store": "columnar", "batched_ingest": True}


def _processor_from_dict(payload: Mapping[str, Any]) -> ProcessorConfig:
    for key, surviving in _RETIRED_PROCESSOR_KEYS.items():
        if key in payload and payload[key] != surviving:
            raise ValueError(
                f"processor.{key}={payload[key]!r} is no longer supported: "
                f"the {key!r} option was retired and {surviving!r} is the "
                "only behaviour left"
            )
    _check_known_keys(
        payload,
        (
            "window_length",
            "bucket_length",
            "scoring",
            "default_algorithm",
            "default_epsilon",
            "archive_windows",
            "window_policy",
            "session_gap",
            *_RETIRED_PROCESSOR_KEYS,
        ),
        "processor",
    )
    defaults = ProcessorConfig()
    session_gap = payload.get("session_gap")
    return ProcessorConfig(
        window_length=int(payload.get("window_length", defaults.window_length)),
        bucket_length=int(payload.get("bucket_length", defaults.bucket_length)),
        scoring=_scoring_from_dict(payload.get("scoring", {})),
        default_algorithm=str(
            payload.get("default_algorithm", defaults.default_algorithm)
        ),
        default_epsilon=float(payload.get("default_epsilon", defaults.default_epsilon)),
        archive_windows=int(payload.get("archive_windows", defaults.archive_windows)),
        window_policy=str(payload.get("window_policy", defaults.window_policy)),
        session_gap=None if session_gap is None else int(session_gap),
    )


def _cluster_to_dict(config: ClusterConfig) -> Dict[str, Any]:
    return {
        "num_shards": config.num_shards,
        "partitioner": config.partitioner,
        "transport": config.transport,
        "candidate_budget": config.candidate_budget,
        "budget_scale": config.budget_scale,
    }


#: Fan-out spellings of manifests written before PR 16 → the transport that
#: survived them.  ``thread`` (the old default) was the ``serial`` workers
#: behind a pool and ``shm`` the ``pipe`` processes with another payload
#: encoding; answers and checkpoint state are the same on all of them.
_RETIRED_TRANSPORTS = {"thread": "serial", "shm": "pipe", "process": "pipe"}


def _cluster_from_dict(payload: Mapping[str, Any]) -> ClusterConfig:
    # ``backend`` (the fan-out when ``transport`` was null) and
    # ``max_workers`` (the thread pool's size) are in every older manifest.
    _check_known_keys(
        payload,
        (
            "num_shards",
            "partitioner",
            "transport",
            "candidate_budget",
            "budget_scale",
            "backend",
            "max_workers",
        ),
        "cluster",
    )
    defaults = ClusterConfig()
    candidate_budget = payload.get("candidate_budget")
    transport = payload.get("transport")
    if transport is None:
        transport = payload.get("backend", defaults.transport)
    transport = str(transport)
    return ClusterConfig(
        num_shards=int(payload.get("num_shards", defaults.num_shards)),
        partitioner=str(payload.get("partitioner", defaults.partitioner)),
        transport=_RETIRED_TRANSPORTS.get(transport.strip().lower(), transport),
        candidate_budget=None if candidate_budget is None else int(candidate_budget),
        budget_scale=float(payload.get("budget_scale", defaults.budget_scale)),
    )


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
        The per-node stream-processor configuration (window, bucket,
        scoring, ingest path, defaults).
    cluster:
        The sharding configuration; ``None`` keeps single-node execution.
        A ``service`` backend with a cluster config serves its standing
        queries over the shards.
    service:
        Standing-query serving options (thread pool, incremental vs naive
        maintenance); only the ``service`` backend reads them.
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
        Event-time ingestion tuning (default source, allowed lateness,
        window policy) consumed by :meth:`~repro.api.engine.KSIREngine.ingest`;
        ``None`` means in-order defaults.  A non-sliding window policy
        named here is mirrored into the processor section (which is what
        shard workers receive), so the two spellings cannot drift.
    kernels:
        Hot-path kernel selection (``auto``/``numba``/``numpy``), applied
        process-wide when a backend is constructed; see
        :mod:`repro.kernels`.
    """

    backend: str = LOCAL_BACKEND
    processor: ProcessorConfig = field(default_factory=ProcessorConfig)
    cluster: Optional[ClusterConfig] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    inference: Optional[InferenceConfig] = None
    ha: Optional[HAConfig] = None
    streams: Optional[StreamConfig] = None
    kernels: KernelConfig = field(default_factory=KernelConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "backend", canonical_backend_name(self.backend))
        if self.backend == SHARDED_BACKEND and self.cluster is None:
            object.__setattr__(self, "cluster", ClusterConfig())
        streams = self.streams
        if streams is not None and (
            streams.window_policy != "sliding" or streams.session_gap is not None
        ):
            processor = self.processor
            if processor.window_policy == "sliding" and processor.session_gap is None:
                object.__setattr__(
                    self,
                    "processor",
                    replace(
                        processor,
                        window_policy=streams.window_policy,
                        session_gap=streams.session_gap,
                    ),
                )
            elif (
                processor.window_policy != streams.window_policy
                or processor.session_gap != streams.session_gap
            ):
                raise ValueError(
                    "the processor and streams sections name different window "
                    f"policies ({processor.window_policy!r} vs "
                    f"{streams.window_policy!r}); configure the policy once"
                )

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
        return {
            "backend": self.backend,
            "processor": _processor_to_dict(self.processor),
            "cluster": None if self.cluster is None else _cluster_to_dict(self.cluster),
            "service": self.service.to_dict(),
            "inference": None if self.inference is None else self.inference.to_dict(),
            "ha": None if self.ha is None else self.ha.to_dict(),
            "streams": None if self.streams is None else self.streams.to_dict(),
            "kernels": self.kernels.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineConfig":
        """Rebuild a configuration from :meth:`to_dict` output.

        Missing sections fall back to their defaults; unknown keys raise
        ``ValueError`` so typos in deployment files fail loudly.
        """
        _check_known_keys(
            payload,
            (
                "backend",
                "processor",
                "cluster",
                "service",
                "inference",
                "ha",
                "streams",
                "kernels",
            ),
            "engine",
        )
        cluster = payload.get("cluster")
        inference = payload.get("inference")
        ha = payload.get("ha")
        streams = payload.get("streams")
        return cls(
            backend=str(payload.get("backend", LOCAL_BACKEND)),
            processor=_processor_from_dict(payload.get("processor", {})),
            cluster=None if cluster is None else _cluster_from_dict(cluster),
            service=ServiceConfig.from_dict(payload.get("service", {})),
            inference=None if inference is None else InferenceConfig.from_dict(inference),
            ha=None if ha is None else HAConfig.from_dict(ha),
            streams=None if streams is None else StreamConfig.from_dict(streams),
            kernels=KernelConfig.from_dict(payload.get("kernels", {})),
        )

    # -- argparse integration ----------------------------------------------------------

    @staticmethod
    def add_arguments(
        parser: argparse.ArgumentParser, service: bool = False
    ) -> None:
        """Install the shared engine options on an ``argparse`` parser.

        Adds the execution-layer flags (``--backend``, ``--shards``,
        ``--partitioner``, ``--transport``), the processor flags
        (``--window-hours``, ``--bucket-minutes``, ``--lambda-weight``,
        ``--eta``), the event-time ingest flags (``--source``,
        ``--allowed-lateness``, ``--window-policy``, ``--session-gap``)
        and the kernel-backend flag (``--kernels``).
        With ``service=True`` the serving flags
        (``--workers``, ``--naive``) are added too.  The single source of
        truth consumed by :meth:`from_args`.
        """
        parser.add_argument(
            "--backend",
            default="single",
            choices=["single", "cluster"],
            help="execution backend: one processor or a sharded cluster",
        )
        parser.add_argument(
            "--shards",
            type=int,
            default=4,
            help="number of shards (cluster backend only)",
        )
        parser.add_argument(
            "--partitioner",
            default="hash",
            choices=["hash", "round-robin", "load-balanced"],
            help="element partitioning strategy (cluster backend only)",
        )
        parser.add_argument(
            "--transport",
            default="serial",
            choices=list(transport_names()),
            help="cluster transport (serial = in-process shard workers, "
            "pipe = one process per shard)",
        )
        parser.add_argument("--window-hours", type=int, default=24)
        parser.add_argument("--bucket-minutes", type=int, default=15)
        parser.add_argument("--lambda-weight", type=float, default=0.5)
        parser.add_argument("--eta", type=float, default=1.5)
        parser.add_argument(
            "--archive-windows",
            type=int,
            default=8,
            help="archive retention horizon in window lengths",
        )
        parser.add_argument(
            "--source",
            default="memory",
            help="default stream source name for raw-event ingest "
            "(memory, jsonl, citations, entities, or a registered name)",
        )
        parser.add_argument(
            "--allowed-lateness",
            type=int,
            default=0,
            help="out-of-order tolerance of raw-event ingest, in bucket "
            "units (0 = require in-order arrival)",
        )
        parser.add_argument(
            "--window-policy",
            default="sliding",
            choices=list(WINDOW_POLICY_CHOICES),
            help="window shape driving expiry: the paper's sliding window "
            "(default), epoch-aligned tumbling spans, or gap-based sessions",
        )
        parser.add_argument(
            "--session-gap",
            type=int,
            default=None,
            help="session-window gap in stream time units "
            "(required by --window-policy session)",
        )
        parser.add_argument(
            "--kernels",
            default="auto",
            choices=list(KERNEL_CHOICES),
            help="hot-path kernel backend: compile with Numba when "
            "importable (auto, the default), require the compiled path "
            "(numba), or force the NumPy reference (numpy)",
        )
        if service:
            parser.add_argument(
                "--workers", type=int, default=4, help="evaluator thread-pool size"
            )
            parser.add_argument(
                "--naive",
                action="store_true",
                help="re-run every standing query on every bucket "
                "(disables incremental maintenance)",
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
        ``None`` to keep the library-default inferencer.
        """
        processor = ProcessorConfig(
            window_length=int(getattr(args, "window_hours", 24)) * 3600,
            bucket_length=int(getattr(args, "bucket_minutes", 15)) * 60,
            scoring=ScoringConfig(
                lambda_weight=float(getattr(args, "lambda_weight", 0.5)),
                eta=float(getattr(args, "eta", 1.5)),
            ),
            archive_windows=int(getattr(args, "archive_windows", 8)),
        )
        cluster: Optional[ClusterConfig] = None
        backend = canonical_backend_name(str(getattr(args, "backend", "single")))
        if backend == SHARDED_BACKEND:
            cluster = ClusterConfig(
                num_shards=int(getattr(args, "shards", 4)),
                partitioner=str(getattr(args, "partitioner", "hash")),
                transport=str(getattr(args, "transport", "serial")),
            )
        if service:
            backend = SERVICE_BACKEND
        session_gap = getattr(args, "session_gap", None)
        streams = StreamConfig(
            source=str(getattr(args, "source", "memory")),
            allowed_lateness=int(getattr(args, "allowed_lateness", 0)),
            window_policy=str(getattr(args, "window_policy", "sliding")),
            session_gap=None if session_gap is None else int(session_gap),
        )
        return cls(
            backend=backend,
            processor=processor,
            cluster=cluster,
            service=ServiceConfig(
                max_workers=int(getattr(args, "workers", 4)),
                incremental=not bool(getattr(args, "naive", False)),
            ),
            inference=inference,
            streams=streams,
            kernels=KernelConfig(mode=str(getattr(args, "kernels", "auto"))),
        )

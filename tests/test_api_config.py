"""Tests for the composable EngineConfig of the repro.api facade."""

from __future__ import annotations

import argparse
import json

import pytest
from hypothesis import given, strategies as st

from repro.api import (
    BACKEND_ALIASES,
    EngineConfig,
    InferenceConfig,
    KernelConfig,
    ServiceConfig,
    StreamConfig,
    canonical_backend_name,
)
from repro.cluster import ClusterConfig
from repro.core.processor import ProcessorConfig
from repro.core.scoring import ScoringConfig
from repro.ha import HAConfig


class TestBackendNames:
    def test_canonical_names_resolve_to_themselves(self):
        for name in ("local", "sharded", "service"):
            assert canonical_backend_name(name) == name

    def test_cli_aliases(self):
        assert canonical_backend_name("single") == "local"
        assert canonical_backend_name("cluster") == "sharded"
        assert canonical_backend_name("  Cluster ") == "sharded"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            canonical_backend_name("quantum")

    def test_alias_table_covers_canonical_names(self):
        assert set(BACKEND_ALIASES.values()) == {"local", "sharded", "service"}


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "local"
        assert config.cluster is None
        assert config.service == ServiceConfig()
        assert config.inference is None
        assert not config.is_sharded

    def test_sharded_backend_gets_default_cluster(self):
        config = EngineConfig(backend="cluster")
        assert config.backend == "sharded"
        assert config.cluster == ClusterConfig()
        assert config.is_sharded

    def test_with_backend(self):
        config = EngineConfig(backend="sharded")
        serving = config.with_backend("service")
        assert serving.backend == "service"
        assert serving.cluster == config.cluster  # still sharded underneath
        assert serving.is_sharded

    def test_round_trip_defaults(self):
        config = EngineConfig()
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_round_trip_full(self):
        config = EngineConfig(
            backend="service",
            processor=ProcessorConfig(
                window_length=7200,
                bucket_length=600,
                scoring=ScoringConfig(lambda_weight=0.3, eta=4.0, topic_threshold=1e-3),
                default_algorithm="celf",
                default_epsilon=0.2,
                archive_windows=3,
            ),
            cluster=ClusterConfig(
                num_shards=3,
                transport="pipe",
                candidate_budget=64,
            ),
            service=ServiceConfig(incremental=False),
            inference=InferenceConfig(alpha=0.05, sparsity_threshold=0.05),
            kernels=KernelConfig(mode="numpy"),
        )
        payload = config.to_dict()
        assert payload["kernels"] == {"mode": "numpy"}
        assert EngineConfig.from_dict(payload) == config

    def test_dict_is_json_compatible(self):
        payload = json.loads(json.dumps(EngineConfig(backend="sharded").to_dict()))
        assert EngineConfig.from_dict(payload) == EngineConfig(backend="sharded")

    def test_retired_processor_keys(self):
        """``store`` / ``batched_ingest`` are gone from the config; payloads
        written before still load at the only values that survive."""
        payload = EngineConfig().to_dict()
        assert "store" not in payload["processor"]
        assert "batched_ingest" not in payload["processor"]
        payload["processor"].update(store="columnar", batched_ingest=True)
        assert EngineConfig.from_dict(payload) == EngineConfig()
        for retired in ({"store": "objects"}, {"batched_ingest": False}):
            (key,) = retired
            with pytest.raises(ValueError, match=f"{key}.*retired"):
                EngineConfig.from_dict({"processor": retired})

    def test_retired_cluster_spellings(self):
        """``backend`` / ``max_workers`` and the ``thread`` / ``shm`` /
        ``process`` names are gone from the config; the manifests written
        before still load, at the transport that survived each."""
        payload = EngineConfig(backend="sharded").to_dict()
        assert sorted(payload["cluster"]) == [
            "candidate_budget", "num_shards", "transport",
        ]
        assert payload["cluster"]["transport"] == "serial"
        written_before = {
            # (backend, transport) as ClusterConfig.to_dict emitted them
            ("thread", None): "serial",  # the old default
            ("serial", None): "serial",
            ("process", None): "pipe",
            ("thread", "thread"): "serial",
            ("serial", "pipe"): "pipe",
            ("process", "shm"): "pipe",
            ("thread", "shm"): "pipe",
            ("thread", "process"): "pipe",
        }
        for (backend, transport), surviving in written_before.items():
            manifest = {
                "num_shards": 3, "partitioner": "hash", "backend": backend,
                "transport": transport, "candidate_budget": None,
                "budget_scale": 1.0, "max_workers": 2,
            }
            loaded = EngineConfig.from_dict({"backend": "sharded", "cluster": manifest})
            assert loaded.cluster == ClusterConfig(num_shards=3, transport=surviving)
        # A hand-written payload that names no fan-out gets the default.
        assert EngineConfig.from_dict({"cluster": {"num_shards": 2}}).cluster == (
            ClusterConfig(num_shards=2)
        )

    def test_retired_partitioner(self):
        """``cluster.partitioner`` is gone (PR 22): ``hash`` — what every
        cluster runs now — loads silently, the two strategies that needed an
        ownership table are refused by name."""
        assert EngineConfig.from_dict({"cluster": {"partitioner": "hash"}}).cluster == (
            ClusterConfig()
        )
        for retired in ("round-robin", "load-balanced"):
            with pytest.raises(
                ValueError,
                match="cluster.partitioner is no longer supported.*'hash' is the only behaviour left",
            ):
                EngineConfig.from_dict({"cluster": {"partitioner": retired}})
        with pytest.raises(TypeError):
            ClusterConfig(partitioner="hash")

    def test_retired_budget_scale(self):
        """``cluster.budget_scale`` is gone: a query reads the coordinator's
        replica, so no per-shard budget is left to scale.  ``1.0`` — what
        every manifest wrote unless told otherwise — loads silently; any
        other value is refused, naming the key and the reason."""
        assert EngineConfig.from_dict({"cluster": {"budget_scale": 1.0}}).cluster == (
            ClusterConfig()
        )
        with pytest.raises(
            ValueError,
            match=r"cluster.budget_scale is no longer supported.*1.0 is the only "
            r"behaviour left \(queries read the coordinator's replica",
        ):
            EngineConfig.from_dict({"cluster": {"budget_scale": 2.0}})
        with pytest.raises(TypeError):
            ClusterConfig(budget_scale=1.0)

    def test_manifest_written_before_pr19_loads(self):
        """``service.max_workers`` and the ``streams`` spelling of the window
        policy are gone; this is the ``config`` of a manifest the parent
        commit wrote for a service-over-cluster engine with session windows."""
        manifest = {
            "backend": "service",
            "processor": {
                "window_length": 7200, "bucket_length": 600,
                "scoring": {"lambda_weight": 0.5, "eta": 20.0, "topic_threshold": 0.0001},
                "default_algorithm": "mttd", "default_epsilon": 0.1,
                "archive_windows": 8, "window_policy": "session", "session_gap": 1800,
            },
            "cluster": {
                "num_shards": 2, "partitioner": "hash", "transport": "pipe",
                "candidate_budget": None, "budget_scale": 1.0,
            },
            "service": {"max_workers": 2, "incremental": False},
            "inference": None,
            "ha": {
                "auto_restart": True, "checkpoint_every": 4, "full_every": 8,
                "heartbeat_interval": 0.5, "heartbeat_timeout": 2.0, "wal_capacity": 4096,
            },
            "streams": {
                "source": "memory", "allowed_lateness": 2,
                "window_policy": "session", "session_gap": 1800,
            },
            "kernels": {"mode": "auto"},
        }
        loaded = EngineConfig.from_dict(manifest)
        assert loaded == EngineConfig(
            backend="service",
            processor=ProcessorConfig(
                window_length=7200, bucket_length=600,
                window_policy="session", session_gap=1800,
            ),
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
            service=ServiceConfig(incremental=False),
            ha=HAConfig(checkpoint_every=4),
            streams=StreamConfig(allowed_lateness=2),
        )
        # What it writes back drops exactly the five retired keys.
        written = loaded.to_dict()
        del manifest["service"]["max_workers"], manifest["cluster"]["partitioner"]
        del manifest["cluster"]["budget_scale"]
        del manifest["streams"]["window_policy"], manifest["streams"]["session_gap"]
        assert written == manifest
        assert ServiceConfig.from_dict({"max_workers": 4}) == ServiceConfig()
        with pytest.raises(TypeError):
            ServiceConfig(max_workers=4)  # type: ignore[call-arg]

    def test_retired_transports_cannot_be_constructed(self):
        for retired in ("shm", "thread"):
            with pytest.raises(ValueError, match="retired in PR 16"):
                ClusterConfig(transport=retired)
        with pytest.raises(TypeError):
            ClusterConfig(backend="serial")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ClusterConfig(max_workers=2)  # type: ignore[call-arg]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown engine keys"):
            EngineConfig.from_dict({"backnd": "local"})
        with pytest.raises(ValueError, match="unknown processor keys"):
            EngineConfig.from_dict({"processor": {"window": 10}})
        with pytest.raises(ValueError, match="unknown scoring keys"):
            EngineConfig.from_dict({"processor": {"scoring": {"lambda": 0.5}}})
        with pytest.raises(ValueError, match="unknown cluster keys"):
            EngineConfig.from_dict({"cluster": {"shards": 4}})
        with pytest.raises(ValueError, match="unknown service keys"):
            EngineConfig.from_dict({"service": {"threads": 4}})
        with pytest.raises(ValueError, match="unknown inference keys"):
            EngineConfig.from_dict({"inference": {"a": 1.0}})
        with pytest.raises(ValueError, match="unknown kernels keys"):
            EngineConfig.from_dict({"kernels": {"backend": "auto"}})
        with pytest.raises(ValueError, match="unknown ha keys: heartbeat"):
            EngineConfig.from_dict({"ha": {"heartbeat": 1.0}})
        with pytest.raises(ValueError, match="unknown streams keys: lateness"):
            EngineConfig.from_dict({"streams": {"lateness": 1}})

    def test_kernel_config_validates_mode(self):
        assert KernelConfig().mode == "auto"
        with pytest.raises(ValueError, match="unknown kernel mode"):
            KernelConfig(mode="fortran")

    def test_kernels_flag_reaches_config(self):
        parser = argparse.ArgumentParser()
        EngineConfig.add_arguments(parser)
        config = EngineConfig.from_args(parser.parse_args(["--kernels", "numpy"]))
        assert config.kernels == KernelConfig(mode="numpy")


class TestValidation:
    def test_inference_config_validates(self):
        with pytest.raises(ValueError):
            InferenceConfig(method="magic")
        with pytest.raises(ValueError):
            InferenceConfig(iterations=0)
        with pytest.raises(ValueError):
            InferenceConfig(sparsity_threshold=1.5)

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"service": {"incremental": "false"}}, "service.incremental"),
            ({"ha": {"auto_restart": "no"}}, "ha.auto_restart"),
            ({"cluster": {"num_shards": 2.9}}, "cluster.num_shards"),
            ({"processor": {"window_length": True}}, "processor.window_length"),
            ({"processor": {"scoring": None}}, "processor.scoring"),
            ({"processor": {"window_length": "abc"}}, "processor.window_length"),
        ],
    )
    def test_values_are_checked_against_the_field_type(self, payload, named):
        """No silent coercion at the boundary: ``"false"`` is not a bool,
        2.9 is not a shard count, ``True`` is not a length."""
        with pytest.raises(ValueError, match=named.replace(".", r"\.")):
            EngineConfig.from_dict(payload)

    def test_numbers_load_as_the_field_type(self):
        loaded = EngineConfig.from_dict(
            {"processor": {"window_length": 7200.0, "default_epsilon": 1}}
        )
        assert loaded.processor == ProcessorConfig(window_length=7200, default_epsilon=1.0)
        assert type(loaded.processor.window_length) is int
        assert type(loaded.processor.default_epsilon) is float


def parse(extra, service=False):
    parser = argparse.ArgumentParser()
    EngineConfig.add_arguments(parser, service=service)
    return parser.parse_args(extra)


class TestFromArgs:
    def test_defaults_build_local_engine(self):
        config = EngineConfig.from_args(parse([]))
        assert config.backend == "local"
        assert config.cluster is None
        assert config.processor.window_length == 24 * 3600
        assert config.processor.bucket_length == 15 * 60
        assert config.processor.scoring.eta == 1.5

    def test_cluster_flags_build_sharded_engine(self):
        config = EngineConfig.from_args(
            parse(
                [
                    "--backend", "cluster", "--shards", "6",
                    "--transport", "serial",
                    "--window-hours", "3", "--bucket-minutes", "30",
                    "--lambda-weight", "0.7", "--eta", "2.0",
                ]
            )
        )
        assert config.backend == "sharded"
        assert config.cluster == ClusterConfig(num_shards=6)
        with pytest.raises(SystemExit):
            parse(["--backend", "cluster", "--partitioner", "hash"])
        assert config.processor.window_length == 3 * 3600
        assert config.processor.bucket_length == 30 * 60
        assert config.processor.scoring.lambda_weight == 0.7
        assert config.processor.scoring.eta == 2.0

    def test_transport_flag_selects_the_transport(self):
        config = EngineConfig.from_args(
            parse(["--backend", "cluster", "--transport", "pipe"])
        )
        assert config.cluster is not None
        assert config.cluster.transport == "pipe"
        # Without the flag the cluster runs its in-process workers.
        bare = EngineConfig.from_args(parse(["--backend", "cluster"]))
        assert bare.cluster is not None
        assert bare.cluster.transport == "serial"
        for retired in (["--fanout", "serial"], ["--transport", "shm"]):
            with pytest.raises(SystemExit):
                parse(["--backend", "cluster", *retired])

    def test_service_mode_wraps_any_backend(self):
        config = EngineConfig.from_args(
            parse(["--naive"], service=True), service=True
        )
        assert config.backend == "service"
        assert config.cluster is None
        assert config.service == ServiceConfig(incremental=False)
        with pytest.raises(SystemExit):  # retired with the evaluator pool
            parse(["--workers", "2"], service=True)

        sharded = EngineConfig.from_args(
            parse(["--backend", "cluster"], service=True), service=True
        )
        assert sharded.backend == "service"
        assert sharded.cluster is not None

    def test_from_args_defaults_to_query_inference(self):
        config = EngineConfig.from_args(parse([]))
        assert config.inference == InferenceConfig(alpha=0.05, sparsity_threshold=0.05)
        bare = EngineConfig.from_args(parse([]), inference=None)
        assert bare.inference is None

    @pytest.mark.parametrize("service", [False, True])
    def test_flag_defaults_are_pinned(self, service):
        """The flags derive their defaults from the dataclasses and the
        flag table; this literal is what they must keep deriving."""
        config = EngineConfig.from_args(parse([], service=service), service=service)
        assert config == EngineConfig(
            backend="service" if service else "local",
            processor=ProcessorConfig(
                window_length=86400,
                bucket_length=900,
                scoring=ScoringConfig(lambda_weight=0.5, eta=1.5, topic_threshold=1e-4),
                default_algorithm="mttd",
                default_epsilon=0.1,
                archive_windows=8,
                window_policy="sliding",
                session_gap=None,
            ),
            cluster=None,
            service=ServiceConfig(incremental=True),
            inference=InferenceConfig(
                alpha=0.05, iterations=30, method="expectation", sparsity_threshold=0.05
            ),
            ha=None,
            streams=StreamConfig(source="memory", allowed_lateness=0),
            kernels=KernelConfig(mode="auto"),
        )
        sharded = EngineConfig.from_args(
            parse(["--backend", "cluster"], service=service), service=service
        )
        assert sharded.cluster == ClusterConfig(
            num_shards=4, transport="serial",
            candidate_budget=None,
        )

    def test_a_namespace_without_the_flags_takes_the_same_defaults(self):
        assert EngineConfig.from_args(argparse.Namespace()) == EngineConfig.from_args(
            parse([])
        )


class TestStreamsSection:
    def test_streams_round_trip(self):
        config = EngineConfig(
            streams=StreamConfig(source="jsonl", allowed_lateness=3)
        )
        assert EngineConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["streams"]["allowed_lateness"] == 3

    def test_absent_streams_round_trips_to_none(self):
        config = EngineConfig()
        assert config.streams is None
        assert config.to_dict()["streams"] is None
        assert EngineConfig.from_dict(config.to_dict()).streams is None

    def test_stream_config_validation(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            StreamConfig(allowed_lateness=-1)
        with pytest.raises(ValueError, match="source"):
            StreamConfig(source="")
        with pytest.raises(TypeError):  # the policy is named in ``processor``
            StreamConfig(window_policy="tumbling")  # type: ignore[call-arg]
        with pytest.raises(ValueError, match="unknown streams keys"):
            StreamConfig.from_dict({"lateness": 1})

    def test_window_policy_is_mirrored_into_processor(self):
        """A ``streams`` section written before PR 19 may carry the policy;
        it is folded into ``processor``, the one place that names it."""
        config = EngineConfig.from_dict(
            {"streams": {"window_policy": "session", "session_gap": 600}}
        )
        assert config.processor.window_policy == "session"
        assert config.processor.session_gap == 600
        assert config.streams == StreamConfig()
        assert set(config.to_dict()["streams"]) == {"source", "allowed_lateness"}

    def test_matching_policy_in_both_sections_is_accepted(self):
        config = EngineConfig.from_dict(
            {
                "processor": {"window_policy": "tumbling"},
                "streams": {"window_policy": "tumbling", "session_gap": None},
            }
        )
        assert config.processor.window_policy == "tumbling"
        # The sliding default in ``streams`` never overrides ``processor``.
        kept = EngineConfig.from_dict(
            {
                "processor": {"window_policy": "tumbling"},
                "streams": {"window_policy": "sliding", "session_gap": None},
            }
        )
        assert kept.processor.window_policy == "tumbling"

    def test_conflicting_policies_are_rejected(self):
        with pytest.raises(ValueError, match="configure the policy once"):
            EngineConfig.from_dict(
                {
                    "processor": {"window_policy": "tumbling"},
                    "streams": {"window_policy": "session", "session_gap": 60},
                }
            )

    def test_stream_flags_build_streams_section(self):
        config = EngineConfig.from_args(
            parse(
                [
                    "--source", "citations", "--allowed-lateness", "2",
                    "--window-policy", "session", "--session-gap", "1800",
                ]
            )
        )
        assert config.streams == StreamConfig(source="citations", allowed_lateness=2)
        assert config.processor.window_policy == "session"
        assert config.processor.session_gap == 1800

    def test_stream_flag_defaults_are_inert(self):
        config = EngineConfig.from_args(parse([]))
        assert config.streams == StreamConfig()
        assert config.processor.window_policy == "sliding"


# -- the round-trip property -----------------------------------------------------------

_POLICIES = st.one_of(
    st.sampled_from([("sliding", None), ("tumbling", None)]),
    st.tuples(st.just("session"), st.integers(1, 10**6)),
)
_POSITIVE = st.floats(1e-6, 1e6, allow_nan=False)


@st.composite
def processor_configs(draw):
    window_length = draw(st.integers(1, 10**7))
    policy, gap = draw(_POLICIES)
    return ProcessorConfig(
        window_length=window_length,
        bucket_length=draw(st.integers(1, window_length)),
        scoring=ScoringConfig(
            lambda_weight=draw(st.floats(0, 1)),
            eta=draw(_POSITIVE),
            topic_threshold=draw(st.floats(0, 0.99)),
        ),
        default_algorithm=draw(st.sampled_from(["mttd", "mtts", "celf"])),
        default_epsilon=draw(st.floats(0.01, 0.99)),
        archive_windows=draw(st.integers(1, 64)),
        window_policy=policy,
        session_gap=gap,
    )


def _optional(strategy):
    return st.one_of(st.none(), strategy)


engine_configs = st.builds(
    EngineConfig,
    backend=st.sampled_from(["local", "sharded", "service", "single", "cluster"]),
    processor=processor_configs(),
    cluster=_optional(
        st.builds(
            ClusterConfig,
            num_shards=st.integers(1, 64),
            transport=st.sampled_from(["serial", "pipe"]),
            candidate_budget=_optional(st.integers(1, 10**4)),
        )
    ),
    service=st.builds(ServiceConfig, incremental=st.booleans()),
    inference=_optional(
        st.builds(
            InferenceConfig,
            alpha=_optional(_POSITIVE),
            iterations=st.integers(1, 200),
            method=st.sampled_from(["expectation", "gibbs"]),
            sparsity_threshold=st.floats(0, 0.99),
        )
    ),
    ha=_optional(
        st.builds(
            HAConfig,
            heartbeat_interval=_POSITIVE,
            heartbeat_timeout=_POSITIVE,
            checkpoint_every=st.integers(0, 100),
            full_every=st.integers(1, 100),
            wal_capacity=st.integers(1, 10**5),
            auto_restart=st.booleans(),
        )
    ),
    streams=_optional(
        st.builds(
            StreamConfig,
            source=st.text(min_size=1, max_size=12),
            allowed_lateness=st.integers(0, 100),
        )
    ),
    kernels=st.builds(KernelConfig, mode=st.sampled_from(["auto", "numpy"])),
)


@given(engine_configs)
def test_every_config_round_trips_through_a_dict_and_through_json(config):
    payload = config.to_dict()
    assert EngineConfig.from_dict(payload) == config
    assert json.loads(json.dumps(payload)) == payload
    assert EngineConfig.from_dict(json.loads(json.dumps(payload))) == config

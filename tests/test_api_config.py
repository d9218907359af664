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
            inference=InferenceConfig(alpha=0.05, sparsity_threshold=0.05),
        )
        payload = config.to_dict()
        assert "kernels" not in payload
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

    def test_retired_kernels(self):
        """The ``kernels`` section is gone: every kernel is a NumPy function.
        ``auto`` (the default every manifest wrote, which ran NumPy wherever
        Numba was absent) and ``numpy`` load silently; ``numba`` is refused,
        naming the key and the reason."""
        for mode in ("auto", "numpy"):
            assert EngineConfig.from_dict({"kernels": {"mode": mode}}) == EngineConfig()
        assert EngineConfig.from_dict({"kernels": {}}) == EngineConfig()
        with pytest.raises(
            ValueError,
            match=r"kernels.mode is no longer supported.*'numpy' is the only "
            r"behaviour left \(Numba, the other kernel backend, was retired because "
            r"it could never be measured\)",
        ):
            EngineConfig.from_dict({"kernels": {"mode": "numba"}})
        with pytest.raises(ValueError, match="kernels must be a mapping"):
            EngineConfig.from_dict({"kernels": "numpy"})
        with pytest.raises(TypeError):
            EngineConfig(kernels=None)  # type: ignore[call-arg]

    def test_kernels_flag_reaches_config(self):
        """``--kernels`` went with its section: the parser refuses the flag,
        and a parsed config carries no ``kernels`` section for it to reach."""
        parser = argparse.ArgumentParser()
        EngineConfig.add_arguments(parser)
        with pytest.raises(SystemExit):
            parser.parse_args(["--kernels", "numpy"])
        config = EngineConfig.from_args(parser.parse_args([]))
        assert "kernels" not in config.to_dict()
        assert not hasattr(config, "kernels")

    def test_manifest_written_before_pr19_loads(self):
        """``service.max_workers``, the window policy (in both sections) and
        ``streams.source`` are gone; this is the ``config`` of a manifest an
        older release wrote for a service-over-cluster engine.  Its
        session-window version is refused, naming the key, and its sliding
        twin loads."""
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
        with pytest.raises(ValueError, match=r"processor\.window_policy is no longer"):
            EngineConfig.from_dict(manifest)
        for section in ("processor", "streams"):
            manifest[section].update(window_policy="sliding", session_gap=None)
        manifest["streams"]["source"] = "citations"
        loaded = EngineConfig.from_dict(manifest)
        assert loaded == EngineConfig(
            backend="service",
            processor=ProcessorConfig(window_length=7200, bucket_length=600),
            cluster=ClusterConfig(num_shards=2, transport="pipe"),
            ha=HAConfig(checkpoint_every=4),
            streams=StreamConfig(allowed_lateness=2),
        )
        # What it writes back drops exactly the eleven retired keys.
        written = loaded.to_dict()
        del manifest["ha"]["full_every"], manifest["service"]
        del manifest["cluster"]["partitioner"]
        del manifest["cluster"]["budget_scale"], manifest["kernels"]
        for section in ("processor", "streams"):
            del manifest[section]["window_policy"], manifest[section]["session_gap"]
        del manifest["streams"]["source"]
        assert written == manifest
        # The chain cadence never changed an answer: any value loads.
        for full_every in (1, 100):
            assert EngineConfig.from_dict({"ha": {"full_every": full_every}}).ha == HAConfig()
        with pytest.raises(TypeError):
            HAConfig(full_every=8)  # type: ignore[call-arg]

    def test_retired_service_section(self):
        """``service`` held the naive switch and the evaluator pool's size.
        A manifest carrying it loads, at any value of either, to the same
        config as without it; any other key is refused, naming it."""
        bare = EngineConfig(backend="service")
        assert "service" not in bare.to_dict()
        assert not hasattr(bare, "service")
        for section in (
            {"incremental": False, "max_workers": 2},
            {"incremental": True},
            {"max_workers": 8},
            {},
        ):
            assert EngineConfig.from_dict({**bare.to_dict(), "service": section}) == bare
        with pytest.raises(ValueError, match="unknown service keys: bogus"):
            EngineConfig.from_dict({"service": {"bogus": 1}})
        with pytest.raises(ValueError, match="unknown service keys: bogus"):
            EngineConfig.from_dict({"service": {"incremental": False, "bogus": 1}})

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
            ({"service": ["incremental"]}, "service"),
            ({"ha": {"auto_restart": "no"}}, "ha.auto_restart"),
            ({"cluster": {"num_shards": 2.9}}, "cluster.num_shards"),
            ({"processor": {"window_length": True}}, "processor.window_length"),
            ({"processor": {"scoring": None}}, "processor.scoring"),
            ({"processor": {"window_length": "abc"}}, "processor.window_length"),
        ],
    )
    def test_values_are_checked_against_the_field_type(self, payload, named):
        """No silent coercion at the boundary: a list is not a section,
        ``"no"`` is not a bool, 2.9 is not a shard count, ``True`` is not a
        length."""
        with pytest.raises(ValueError, match=named.replace(".", r"\.")):
            EngineConfig.from_dict(payload)

    def test_numbers_load_as_the_field_type(self):
        loaded = EngineConfig.from_dict(
            {"processor": {"window_length": 7200.0, "default_epsilon": 1}}
        )
        assert loaded.processor == ProcessorConfig(window_length=7200, default_epsilon=1.0)
        assert type(loaded.processor.window_length) is int
        assert type(loaded.processor.default_epsilon) is float


def parse(extra):
    parser = argparse.ArgumentParser()
    EngineConfig.add_arguments(parser)
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
        for retired in (["--fanout", "serial"], ["--transport", "shm"], ["--kernels", "numpy"]):
            with pytest.raises(SystemExit):
                parse(["--backend", "cluster", *retired])

    def test_service_mode_wraps_any_backend(self):
        config = EngineConfig.from_args(parse([]), service=True)
        assert config.backend == "service"
        assert config.cluster is None
        with pytest.raises(SystemExit):  # retired with the evaluator pool
            parse(["--workers", "2"])
        with pytest.raises(SystemExit):  # retired with the naive mode
            parse(["--naive"])

        sharded = EngineConfig.from_args(parse(["--backend", "cluster"]), service=True)
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
        config = EngineConfig.from_args(parse([]), service=service)
        assert config == EngineConfig(
            backend="service" if service else "local",
            processor=ProcessorConfig(
                window_length=86400,
                bucket_length=900,
                scoring=ScoringConfig(lambda_weight=0.5, eta=1.5, topic_threshold=1e-4),
                default_algorithm="mttd",
                default_epsilon=0.1,
                archive_windows=8,
            ),
            cluster=None,
            inference=InferenceConfig(
                alpha=0.05, iterations=30, method="expectation", sparsity_threshold=0.05
            ),
            ha=None,
            streams=StreamConfig(allowed_lateness=0),
        )
        sharded = EngineConfig.from_args(parse(["--backend", "cluster"]), service=service)
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
        config = EngineConfig(streams=StreamConfig(allowed_lateness=3))
        assert EngineConfig.from_dict(config.to_dict()) == config
        assert config.to_dict()["streams"] == {"allowed_lateness": 3}

    def test_absent_streams_round_trips_to_none(self):
        config = EngineConfig()
        assert config.streams is None
        assert config.to_dict()["streams"] is None
        assert EngineConfig.from_dict(config.to_dict()).streams is None

    def test_stream_config_validation(self):
        with pytest.raises(ValueError, match="allowed_lateness"):
            StreamConfig(allowed_lateness=-1)
        for retired in ("source", "window_policy"):
            with pytest.raises(TypeError):
                StreamConfig(**{retired: "memory"})
        with pytest.raises(ValueError, match="unknown streams keys"):
            StreamConfig.from_dict({"lateness": 1})

    def test_streams_window_policy_loads_only_as_sliding(self):
        """An older ``streams`` section may name the window policy: the
        sliding one loads and is dropped, any other is refused."""
        config = EngineConfig.from_dict(
            {"streams": {"window_policy": "sliding", "session_gap": None}}
        )
        assert config.streams == StreamConfig()
        assert config.to_dict()["streams"] == {"allowed_lateness": 0}
        for policy, gap in (("session", 600), ("tumbling", None), ("sliding", 600)):
            key = "session_gap" if policy == "sliding" else "window_policy"
            with pytest.raises(ValueError, match=rf"streams\.{key} is no longer"):
                EngineConfig.from_dict(
                    {"streams": {"window_policy": policy, "session_gap": gap}}
                )

    def test_retired_source_loads_at_any_value(self):
        """``streams.source`` named the default of the removed stream sources;
        it never changed state or answers, so any value loads and is dropped."""
        for source in ("memory", "citations", "anything"):
            config = EngineConfig.from_dict(
                {"streams": {"source": source, "allowed_lateness": 1}}
            )
            assert config.streams == StreamConfig(allowed_lateness=1)

    def test_matching_policy_in_both_sections_is_accepted(self):
        config = EngineConfig.from_dict(
            {
                "processor": {"window_policy": "sliding", "session_gap": None},
                "streams": {"window_policy": "sliding", "session_gap": None},
            }
        )
        assert config == EngineConfig(streams=StreamConfig())
        with pytest.raises(ValueError, match=r"processor\.window_policy is no longer"):
            EngineConfig.from_dict(
                {
                    "processor": {"window_policy": "tumbling"},
                    "streams": {"window_policy": "tumbling", "session_gap": None},
                }
            )

    def test_conflicting_policies_are_rejected(self):
        with pytest.raises(ValueError, match=r"processor\.window_policy is no longer"):
            EngineConfig.from_dict(
                {
                    "processor": {"window_policy": "tumbling"},
                    "streams": {"window_policy": "session", "session_gap": 60},
                }
            )

    def test_stream_flags_build_streams_section(self):
        config = EngineConfig.from_args(parse(["--allowed-lateness", "2"]))
        assert config.streams == StreamConfig(allowed_lateness=2)
        for retired in ("--source", "--window-policy", "--session-gap"):
            with pytest.raises(SystemExit):
                parse([retired, "1"])

    def test_stream_flag_defaults_are_inert(self):
        config = EngineConfig.from_args(parse([]))
        assert config.streams == StreamConfig()
        assert config.processor == ProcessorConfig(
            scoring=ScoringConfig(eta=1.5)
        )


# -- the round-trip property -----------------------------------------------------------

_POSITIVE = st.floats(1e-6, 1e6, allow_nan=False)


@st.composite
def processor_configs(draw):
    window_length = draw(st.integers(1, 10**7))
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
            wal_capacity=st.integers(1, 10**5),
            auto_restart=st.booleans(),
        )
    ),
    streams=_optional(
        st.builds(
            StreamConfig,
            allowed_lateness=st.integers(0, 100),
        )
    ),
)


@given(engine_configs)
def test_every_config_round_trips_through_a_dict_and_through_json(config):
    payload = config.to_dict()
    assert EngineConfig.from_dict(payload) == config
    assert json.loads(json.dumps(payload)) == payload
    assert EngineConfig.from_dict(json.loads(json.dumps(payload))) == config

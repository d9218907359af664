"""The frozen end-to-end benchmark's import surface, guarded in tier 1.

``benchmarks/e2e/`` never changes, so every name it imports or reads must
keep working through any refactor of the package: the callables its tracer
wraps, the engine attributes ``closed.py`` reads, the kernel counters, the
transport names and ``ClusterConfig(candidate_budget=…)``.
``benchmarks/e2e/test_smoke.py`` checks the same by running the benchmark;
this module checks it without running it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro import ClusterConfig, EngineConfig, KSIREngine, transport_names
from repro.core.processor import ProcessorConfig
from repro.kernels import kernel_stats

from tests.conftest import build_reference_stream

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
PROCESSOR = ProcessorConfig(window_length=6, bucket_length=2)


def _tracing_module():
    spec = importlib.util.spec_from_file_location("e2e_tracing", E2E / "tracing.py")
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ingested(config: EngineConfig) -> KSIREngine:
    model, elements = build_reference_stream(3, 12, 3, 8)
    engine = KSIREngine(model, config)
    engine.process_stream(elements)
    return engine


def test_every_traced_target_resolves():
    targets = _tracing_module().TARGETS
    assert len(targets) == 19
    for _layer, module_name, dotted in targets:
        owner = importlib.import_module(module_name)
        for part in dotted.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{dotted}"


def test_closed_loop_reads_on_a_serial_two_shard_engine():
    config = EngineConfig(
        backend="sharded",
        processor=PROCESSOR,
        cluster=ClusterConfig(num_shards=2, transport="serial"),
    )
    with _ingested(config) as engine:
        assert engine.backend_name == "sharded"
        homes = engine.backend.coordinator.fanout.home_active_counts()
        assert len(homes) == 2
        assert sum(homes) == engine.active_count > 0


def test_closed_loop_reads_on_a_local_engine():
    with _ingested(EngineConfig(backend="local", processor=PROCESSOR)) as engine:
        assert engine.backend_name == "local"
        assert engine.stats()["ranked_tuples"] > 0


def test_kernel_stats_shape():
    stats = kernel_stats()
    assert isinstance(stats["backend"], str)
    assert set(_tracing_module().KERNELS) <= set(stats["per_kernel"])
    for counters in stats["per_kernel"].values():
        assert isinstance(counters["calls"], int)
        assert isinstance(counters["total_ns"], int)


def test_transport_names_and_candidate_budget():
    assert transport_names() == ("pipe", "serial")
    assert ClusterConfig(num_shards=2, candidate_budget=19_200).candidate_budget == 19_200
    with pytest.raises(ValueError):
        ClusterConfig(candidate_budget=0)


def test_server_child_surface():
    """``server_child.py`` builds its app with ``create_app(engine)``, serves
    it with ``repro.server.serve``, listens on the serving engine and reads
    the hub's push count and the ranked lists' size."""
    from repro.server import create_app, serve

    assert callable(serve)
    config = EngineConfig(backend="service", processor=PROCESSOR)
    app = create_app(_ingested(config))
    try:
        engine = app.engine
        assert isinstance(app.hub.pushes, int)
        engine.service_engine.add_update_listener(lambda update: None)
        ranked = engine.service_engine.processor.ranked_lists.total_tuples()
        assert ranked == engine.stats()["ranked_tuples"] > 0
    finally:
        app.close()

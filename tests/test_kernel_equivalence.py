"""Property tests: kernel backends are result-identical on every engine backend.

The acceptance contract of the kernel layer: for random streamed
instances, an engine running the pure-NumPy reference kernels
(``kernels="numpy"``) and one running under ``kernels="auto"`` (the
Numba-compiled variants when the ``[kernels]`` extra is installed, the
reference fallback otherwise) must produce *identical* query answers —
element ids equal, scores within 1e-9 — on the local, sharded and
service execution backends.  When Numba is absent this doubles as the
fallback-parity proof CI's ``kernels-smoke`` job runs on its
without-numba leg.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EngineConfig, KernelConfig, KSIREngine
from repro.cluster import ClusterConfig
from repro.kernels import configure_kernels, kernel_mode, numba_available

from tests.conftest import build_reference_stream as build_stream
from tests.test_api_engine import ingest, random_query, small_processor_config


def assert_results_match(a, b):
    """Identical ids and algorithm; scores within the 1e-9 contract.

    Exact float equality would over-assert on the compiled path: Numba
    loops may accumulate in a different order than ``np.add.reduceat``'s
    pairwise summation, which is allowed to differ at the ulp level.
    """
    assert a.element_ids == b.element_ids
    assert a.algorithm == b.algorithm
    assert abs(a.score - b.score) <= 1e-9

#: The numpy reference is compared against every other selectable mode.
#: "auto" resolves to numba when installed (the real compiled-vs-reference
#: proof) and to the reference fallback otherwise (the parity proof).
COMPARE_MODES = ("auto", "numba") if numba_available() else ("auto",)


@pytest.fixture(autouse=True)
def restore_kernel_mode():
    previous = kernel_mode()
    yield
    configure_kernels(previous)


instance_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=6, max_value=12),      # elements
    st.integers(min_value=2, max_value=5),       # topics
    st.integers(min_value=6, max_value=14),      # vocabulary
    st.integers(min_value=2, max_value=4),       # k
)


def run_local(model, elements, config, query, mode):
    engine = KSIREngine(
        model, EngineConfig(processor=config, kernels=KernelConfig(mode=mode))
    )
    ingest(engine, elements, config.bucket_length)
    results = [
        engine.query(query, algorithm=algorithm, epsilon=0.25)
        for algorithm in ("mttd", "greedy")
    ]
    engine.close()
    return results


def run_sharded(model, elements, config, query, mode, shards):
    engine = KSIREngine(
        model,
        EngineConfig(
            backend="sharded",
            processor=config,
            cluster=ClusterConfig(num_shards=shards),
            kernels=KernelConfig(mode=mode),
        ),
    )
    ingest(engine, elements, config.bucket_length)
    results = [engine.query(query, algorithm="mttd", epsilon=0.25)]
    engine.close()
    return results


def run_service(model, elements, config, query, mode):
    engine = KSIREngine(
        model,
        EngineConfig(
            backend="service",
            processor=config,
            kernels=KernelConfig(mode=mode),
        ),
    )
    engine.register(query, algorithm="mttd", epsilon=0.25)
    ingest(engine, elements, config.bucket_length)
    results = engine.results()
    engine.close()
    return results


class TestKernelBackendEquivalence:
    @given(params=instance_params)
    @settings(max_examples=20, deadline=None)
    def test_local_backend(self, params):
        seed, n, z, v, k = params
        model, elements = build_stream(seed, n, z, v)
        config = small_processor_config(n)
        query = random_query(seed, z, k)
        reference = run_local(model, elements, config, query, "numpy")
        for mode in COMPARE_MODES:
            candidate = run_local(model, elements, config, query, mode)
            for ours, theirs in zip(reference, candidate):
                assert_results_match(ours, theirs)

    @given(params=instance_params, shards=st.integers(min_value=2, max_value=3))
    @settings(max_examples=12, deadline=None)
    def test_sharded_backend(self, params, shards):
        seed, n, z, v, k = params
        model, elements = build_stream(seed, n, z, v)
        config = small_processor_config(n)
        query = random_query(seed, z, k)
        reference = run_sharded(model, elements, config, query, "numpy", shards)
        for mode in COMPARE_MODES:
            candidate = run_sharded(model, elements, config, query, mode, shards)
            for ours, theirs in zip(reference, candidate):
                assert_results_match(ours, theirs)

    @given(params=instance_params)
    @settings(max_examples=12, deadline=None)
    def test_service_backend(self, params):
        seed, n, z, v, k = params
        model, elements = build_stream(seed, n, z, v)
        config = small_processor_config(n)
        query = random_query(seed, z, k)
        reference = run_service(model, elements, config, query, "numpy")
        for mode in COMPARE_MODES:
            candidate = run_service(model, elements, config, query, mode)
            assert reference.keys() == candidate.keys()
            for query_id in reference:
                assert_results_match(
                    reference[query_id].result, candidate[query_id].result
                )

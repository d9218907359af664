"""The three closed-loop workloads: ``ingest_vec``, ``query_mixed``, ``sharded_mixed``.

One client drives a :class:`KSIREngine` in cycles — ``buckets_per_cycle``
``ingest_bucket`` calls, then ``queries_per_cycle`` ad-hoc queries — and
issues its next call only when the previous one returned.  The first
query of a cycle is the first look at a window the cycle just changed, so
``push_ms`` here is the polling consumer's freshness: arrival of the
cycle's last bucket until that first answer is in hand.

The number of cycles is fixed by ``--seconds`` (``cycles_per_second`` was
sized on the 2-core reference box so the timed phase lasts about that
long, and so the default 20 s is a whole number of 32-cycle blocks of the
query mix: see ``gen.build_queries``); the work is therefore identical on
the parent and on a change.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import common
import gen
import tracing
from repro import ClusterConfig, EngineConfig, KSIREngine, transport_names
from repro.kernels import kernel_stats


def process_transport() -> str:
    """The process-per-shard transport to use (``pipe`` when registered)."""
    names = transport_names()
    return next((name for name in ("pipe", "shm") if name in names), names[0])


def _local_config() -> EngineConfig:
    return EngineConfig(backend="local", processor=common.PROCESSOR)


def _sharded_config() -> EngineConfig:
    # The default per-shard candidate budget (k/ε) truncates on a window this
    # size, and a truncated answer is only close to the single-node one
    # (24 of 60 sized queries differed, scores within 12 %).  A budget above
    # the window size never truncates, which is the one configuration whose
    # answers the cluster layer promises — and this workload checks — to be
    # the single-node answers.
    return EngineConfig(
        backend="sharded",
        processor=common.PROCESSOR,
        cluster=ClusterConfig(
            num_shards=2,
            transport=process_transport(),
            candidate_budget=4 * gen.WINDOW_BUCKETS * gen.TWITTER_SHARDED.per_bucket,
        ),
    )


@dataclass(frozen=True)
class ClosedSpec:
    """Shape of one closed-loop workload."""

    name: str
    shape: gen.Shape
    config: Callable[[], EngineConfig]
    buckets_per_cycle: int
    queries_per_cycle: int
    cycles_per_second: float
    #: Compare sampled answers and CELF against a local engine fed the same
    #: buckets (the sharded engine's own CELF only sees merged candidates).
    local_reference: bool = False


SPECS: Dict[str, ClosedSpec] = {
    spec.name: spec
    for spec in (
        ClosedSpec("ingest_vec", gen.TWITTER, _local_config, 4, 1, 12.8),
        ClosedSpec("query_mixed", gen.REDDIT, _local_config, 1, 3, 8.0),
        ClosedSpec(
            "sharded_mixed", gen.TWITTER_SHARDED, _sharded_config, 1, 1, 17.6,
            local_reference=True,
        ),
    )
}


@dataclass
class _Instance:
    """One set-up system: inputs generated, engine built, window prefilled."""

    model: object
    stream: gen.Stream
    materialiser: gen.Materialiser
    queries: List[gen.QuerySpec]
    engine: KSIREngine
    rss_before_mb: float


#: Every engine built; ``run`` closes them (and so ends the shard worker
#: processes of ``sharded_mixed``) on every way out.  Closing twice is fine.
_OPEN: List[KSIREngine] = []


def _close(engine: KSIREngine) -> None:
    engine.close()
    _OPEN.remove(engine)


def _set_up(spec: ClosedSpec, seed: int, cycles: int) -> Tuple[_Instance, float]:
    """Build inputs and engine, prefill; returns nominal-speed seconds."""
    speed = common.HostSpeed()
    speed.sample(common.SETUP_CALIBRATIONS)
    started = perf_counter()
    model = gen.build_topic_model(seed)
    stream = gen.build_stream(
        seed, spec.shape, gen.WINDOW_BUCKETS + cycles * spec.buckets_per_cycle, model
    )
    queries = gen.build_queries(cycles * spec.queries_per_cycle + common.VERIFY_QUERIES)
    materialiser = gen.Materialiser(stream, model)
    gc.collect()
    rss_before = common.host_rss_mb()
    engine = KSIREngine(model, spec.config())
    _OPEN.append(engine)
    for bucket in range(gen.WINDOW_BUCKETS):
        engine.ingest_bucket(materialiser.elements(bucket), stream.end_time(bucket))
    instance = _Instance(model, stream, materialiser, queries, engine, rss_before)
    took = perf_counter() - started
    speed.sample(common.SETUP_CALIBRATIONS)
    return instance, took / speed.index


def run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[tracing.Tracer],
    setups: int,
) -> common.PassResult:
    """One pass of a closed-loop workload."""
    try:
        return _run(name, seed, seconds, tracer, setups)
    finally:
        while _OPEN:
            _OPEN.pop().close()


def _run(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[tracing.Tracer],
    setups: int,
) -> common.PassResult:
    spec = SPECS[name]
    check = common.Checker()
    cycles = max(2, round(spec.cycles_per_second * seconds))
    setup_seconds: List[float] = []

    instance, took = _set_up(spec, seed, cycles)
    setup_seconds.append(took)
    engine, stream, materialiser = instance.engine, instance.stream, instance.materialiser
    queries = instance.queries
    timed_queries = queries[: cycles * spec.queries_per_cycle]
    verify_queries = queries[cycles * spec.queries_per_cycle :]
    digest = gen.input_sha256(stream, queries)

    sample_every = max(1, cycles // common.VERIFY_QUERIES)
    sampled: Dict[int, Tuple[Tuple[int, ...], float]] = {}
    bucket_s: List[float] = []
    query_s: List[float] = []
    fresh_s: List[float] = []
    # When each timed call started: a sample is scaled by the host speed then.
    bucket_at: List[float] = []
    query_at: List[float] = []
    evaluated = active = candidates = 0
    kernels_before = kernel_stats()
    active_before = engine.active_count
    bucket = gen.WINDOW_BUCKETS
    query_index = 0
    speed = common.HostSpeed()

    gc.collect()
    phase_started_ns = perf_counter_ns()
    phase_started = perf_counter()
    for cycle in range(cycles):
        for _ in range(spec.buckets_per_cycle):
            if tracer is not None:
                tracer.tag = f"bucket {bucket}"
                span = tracer.begin("loadgen.prepare")
            elements = materialiser.elements(bucket)
            end_time = stream.end_time(bucket)
            if tracer is not None:
                tracer.end(span)
            started = perf_counter()
            try:
                engine.ingest_bucket(elements, end_time)
                failure = None
            except Exception as error:  # noqa: BLE001 - a failed operation is a counted result
                failure = repr(error)
            bucket_s.append(perf_counter() - started)
            bucket_at.append(started)
            check.ok(failure is None, f"ingest_bucket {bucket}: {failure}")
            bucket += 1
        oldest_id, newest_id = stream.active_id_range(bucket - 1)
        for position in range(spec.queries_per_cycle):
            query = timed_queries[query_index]
            ksir_query = query.as_query()
            if tracer is not None:
                tracer.tag = f"query {query_index}"
            started = perf_counter()
            try:
                result = engine.query(ksir_query, algorithm=query.algorithm)
                failure = None
            except Exception as error:  # noqa: BLE001 - counted, see above
                result, failure = None, repr(error)
            took = perf_counter() - started
            query_s.append(took)
            query_at.append(started)
            if position == 0:
                fresh_s.append(bucket_s[-1] + took)
            if check.ok(result is not None, f"query {query_index}: {failure}"):
                common.check_answer(
                    check, result.element_ids, query.k, oldest_id, newest_id,
                    f"query {query_index}",
                )
                evaluated += result.evaluated_elements
                active += result.active_elements
                candidates += int(result.extras.get("merged_candidates", 0))
                if (
                    spec.local_reference
                    and position == 0
                    and cycle % sample_every == 0
                    and len(sampled) < common.VERIFY_QUERIES
                ):
                    sampled[cycle] = (tuple(result.element_ids), float(result.score))
            query_index += 1
        if tracer is not None:
            tracer.tag = None
            span = tracer.begin("loadgen.calibrate")
        speed.sample()
        if tracer is not None:
            tracer.end(span)
    elapsed = perf_counter() - phase_started
    phase_ended_ns = perf_counter_ns()
    rss_growth = common.host_rss_mb() - instance.rss_before_mb

    end_to_end: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    ingested = len(bucket_s) * spec.shape.per_bucket
    bucket_speed = speed.index_at(bucket_at)
    query_speed = speed.index_at(query_at)
    end_to_end["ingest_eps"] = ingested / float(np.sum(np.asarray(bucket_s) / bucket_speed))
    common.timing_metrics("bucket_ms", bucket_s, bucket_speed, end_to_end, samples)
    common.timing_metrics("query_ms", query_s, query_speed, end_to_end, samples)
    common.timing_metrics(
        "push_ms", fresh_s, query_speed[:: spec.queries_per_cycle], end_to_end, samples
    )
    end_to_end["rss_growth_mb"] = rss_growth

    per_layer: Dict[str, float] = {}
    info: Dict[str, object] = {
        "cycles": cycles,
        "backend": engine.backend_name,
        "speed_index": speed.index,
        # What a traced pass is compared with, at nominal host speed.
        "overhead_base_s": elapsed / speed.index,
    }
    if spec.local_reference:
        info["transport"] = process_transport()
    if tracer is not None:
        spans = tracing.clip(tracer.spans, phase_started_ns, phase_ended_ns)
        per_layer = tracing.layer_metrics(spans, tracer.missing, elapsed)
        per_layer.update(tracing.kernel_metrics(kernels_before, kernel_stats()))
        stats = engine.stats()
        per_layer["core.eval_ratio"] = evaluated / max(1, active)
        per_layer["core.ranked_tuples"] = float(stats.get("ranked_tuples", 0))
        per_layer["store.active_rows"] = float(engine.active_count)
        per_layer["store.expired"] = float(
            active_before + ingested - engine.active_count
        )
        per_layer["loadgen.sent"] = float(len(bucket_s) + len(query_s))
        per_layer["host.speed_index"] = speed.index
        info["spans"] = spans
        if spec.local_reference:
            homes = engine.backend.coordinator.fanout.home_active_counts()
            per_layer["cluster.shard_skew"] = max(homes) / (sum(homes) / len(homes))
            per_layer["cluster.candidates_per_query"] = candidates / max(1, len(query_s))

    end_to_end["score_ratio"] = _verify(
        spec, cycles, instance, verify_queries, timed_queries, sampled, check
    )
    _close(engine)
    del instance, engine

    for _ in range(setups - 1):
        extra, took = _set_up(spec, seed, cycles)
        _close(extra.engine)
        setup_seconds.append(took)
        del extra
    end_to_end["setup_s"] = common.percentile(setup_seconds, 50)
    samples["setup_s"] = len(setup_seconds)
    end_to_end["ok_share"] = check.ok_share

    return common.PassResult(
        workload=name,
        seed=seed,
        seconds=seconds,
        traced=tracer is not None,
        input_sha256=digest,
        elapsed_s=elapsed,
        end_to_end=end_to_end,
        samples=samples,
        per_layer=per_layer,
        check=check,
        info=info,
    )


def _verify(
    spec: ClosedSpec,
    cycles: int,
    instance: _Instance,
    verify_queries: List[gen.QuerySpec],
    timed_queries: List[gen.QuerySpec],
    sampled: Dict[int, Tuple[Tuple[int, ...], float]],
    check: common.Checker,
) -> float:
    """After timing: answer quality against CELF, and sharded/local parity."""
    engine = instance.engine
    reference = engine
    if spec.local_reference:
        # Replay every bucket into a single-node engine; at each sampled cycle
        # its answer to the same query must equal the sharded one.
        reference = KSIREngine(instance.model, _local_config())
        _OPEN.append(reference)
        stream, materialiser = instance.stream, instance.materialiser
        for bucket in range(gen.WINDOW_BUCKETS):
            reference.ingest_bucket(materialiser.elements(bucket), stream.end_time(bucket))
        bucket = gen.WINDOW_BUCKETS
        for cycle in range(cycles):
            for _ in range(spec.buckets_per_cycle):
                reference.ingest_bucket(
                    materialiser.elements(bucket), stream.end_time(bucket)
                )
                bucket += 1
            if cycle in sampled:
                query = timed_queries[cycle * spec.queries_per_cycle]
                expected = reference.query(query.as_query(), algorithm=query.algorithm)
                ids, score = sampled[cycle]
                check.ok(
                    ids == tuple(expected.element_ids)
                    and abs(score - expected.score) <= 1e-9,
                    f"parity miss at cycle {cycle}: sharded {ids[:5]} {score!r} "
                    f"vs local {tuple(expected.element_ids)[:5]} {expected.score!r}",
                )

    ratios: List[float] = []
    for index, query in enumerate(verify_queries):
        ksir_query = query.as_query()
        algorithm = gen.QUERY_ALGORITHMS[index % len(gen.QUERY_ALGORITHMS)]
        score = engine.query(ksir_query, algorithm=algorithm).score
        celf = reference.query(ksir_query, algorithm="celf").score
        if check.ok(celf > 0.0, f"verify query {index}: CELF scored {celf!r}"):
            ratios.append(score / celf)
    if reference is not engine:
        _close(reference)
    ratio = sum(ratios) / max(1, len(ratios))
    check.ok(
        ratio >= common.MIN_SCORE_RATIO,
        f"score_ratio {ratio:.4f} is below {common.MIN_SCORE_RATIO}",
    )
    return ratio

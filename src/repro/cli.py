"""Command-line interface for the k-SIR reproduction.

The CLI exposes the workflows a user of the released system would want
without writing Python:

* ``repro-ksir generate`` — generate a synthetic stream from a named profile
  and save it (JSONL) together with its topic-model oracle (``.npz``);
* ``repro-ksir stats`` — print Table-3-style statistics of a profile or of a
  previously saved stream;
* ``repro-ksir query`` — replay a stream and answer a keyword query with any
  of the registered algorithms;
* ``repro-ksir serve`` — replay a stream while continuously maintaining N
  registered standing queries and print the service metrics report;
* ``repro-ksir server`` — expose the engine over HTTP + WebSockets (REST
  CRUD for standing queries, bucket ingest, checkpoints, Prometheus
  metrics and push channels) on the bundled stdlib ASGI server;
* ``repro-ksir bench`` — list or regenerate the paper's figures, tables and
  ablations: every run prints the rendered artefact, asserts its shape and
  writes ``BENCH_<name>.json`` plus ``<name>.txt``;
* ``repro-ksir ha drill`` — the supervised cluster runtime's
  kill-and-recover failover drill: it SIGKILLs a live shard mid-stream and
  verifies the recovered cluster answers queries identically to an
  uninterrupted run.

Every subcommand is a thin wrapper over the public library API, so the CLI
doubles as executable documentation.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.api import EngineConfig, KSIREngine
from repro.core.algorithms import ALGORITHM_REGISTRY
from repro.core.stream import SocialStream
from repro.datasets.loaders import load_stream_jsonl, save_stream_jsonl
from repro.datasets.profiles import profile_names
from repro.datasets.synthetic import SyntheticDataset, SyntheticStreamGenerator
from repro.evaluation.workload import WorkloadGenerator
from repro.experiments import tables as table_experiments
from repro.experiments.paper import TIERS
from repro.topics.model import MatrixTopicModel, TopicModel


def _canonical_algorithm_names() -> tuple:
    """One name per registered algorithm class (shortest spelling wins)."""
    best: Dict[type, str] = {}
    for name, cls in ALGORITHM_REGISTRY.items():
        current = best.get(cls)
        if current is None or (len(name), name) < (len(current), current):
            best[cls] = name
    return tuple(sorted(best.values()))


#: Algorithm names accepted by ``query``/``serve`` (derived from the
#: registry, so newly registered algorithms appear automatically).
ALGORITHM_CHOICES = _canonical_algorithm_names()


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the ``repro-ksir`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-ksir",
        description="Semantic and Influence aware k-Representative queries over social streams",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic stream and save it to disk"
    )
    generate.add_argument("profile", choices=sorted(profile_names()))
    generate.add_argument("--seed", type=int, default=2019)
    generate.add_argument("--output-dir", type=Path, default=Path("data"))

    stats = subparsers.add_parser(
        "stats", help="print dataset statistics for a profile or a saved stream"
    )
    stats.add_argument("--profile", choices=sorted(profile_names()))
    stats.add_argument("--stream", type=Path, help="path to a JSONL stream")
    stats.add_argument("--seed", type=int, default=2019)

    query = subparsers.add_parser(
        "query", help="replay a stream and answer a keyword k-SIR query"
    )
    query.add_argument("keywords", nargs="+", help="query keywords")
    query.add_argument("--profile", default="twitter-small", choices=sorted(profile_names()))
    query.add_argument("--stream", type=Path, help="JSONL stream (defaults to generating the profile)")
    query.add_argument("--model", type=Path, help="topic model .npz (required with --stream)")
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--algorithm", default="mttd", choices=ALGORITHM_CHOICES)
    query.add_argument("--epsilon", type=float, default=0.1)
    query.add_argument("--seed", type=int, default=2019)
    # Engine options (--backend/--shards/... and --window-hours/...) come
    # from one shared helper, so subcommands cannot drift apart.
    EngineConfig.add_arguments(query)

    serve = subparsers.add_parser(
        "serve", help="replay a stream while maintaining standing k-SIR queries"
    )
    serve.add_argument("--profile", default="tiny", choices=sorted(profile_names()))
    serve.add_argument("--queries", type=int, default=100,
                       help="number of standing queries to register")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--algorithm", default="mttd", choices=ALGORITHM_CHOICES)
    serve.add_argument("--epsilon", type=float, default=0.1)
    serve.add_argument("--mode", default="topical",
                       choices=["topical", "frequency", "uniform"],
                       help="standing-query keyword sampling mode")
    serve.add_argument("--ttl-buckets", type=int, default=None,
                       help="drop standing queries after this many buckets")
    serve.add_argument("--top", type=int, default=3,
                       help="standing results to print after the replay")
    serve.add_argument("--seed", type=int, default=2019)
    EngineConfig.add_arguments(serve)

    server = subparsers.add_parser(
        "server", help="serve standing k-SIR queries over HTTP and WebSockets"
    )
    server.add_argument("--host", default="127.0.0.1")
    server.add_argument("--port", type=int, default=8000)
    server.add_argument("--profile", default="tiny", choices=sorted(profile_names()),
                        help="synthetic profile providing the topic model")
    server.add_argument("--stream", type=Path,
                        help="JSONL stream to replay before serving")
    server.add_argument("--model", type=Path,
                        help="topic model .npz (required with --stream)")
    server.add_argument("--preload", action="store_true",
                        help="replay the profile's stream before serving")
    server.add_argument("--checkpoint", type=Path, default=None,
                        help="restore the engine from a checkpoint directory")
    server.add_argument("--http-workers", type=int, default=8,
                        help="request worker threads of the serving tier")
    server.add_argument("--seed", type=int, default=2019)
    EngineConfig.add_arguments(server)

    bench = subparsers.add_parser(
        "bench", help="list or regenerate the paper's figures, tables and ablations"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_sub.add_parser("list", help="list registered benchmarks")

    bench_run = bench_sub.add_parser(
        "run", help="regenerate artefacts, check their shape, write reports"
    )
    bench_run.add_argument("names", nargs="*",
                           help="benchmark names (default: every registered one)")
    bench_run.add_argument("--tier", default="tiny", choices=list(TIERS),
                           help="size tier: tiny for CI smoke runs, full for "
                                "the paper-sized sweeps")
    bench_run.add_argument("--seed", type=int, default=2019)
    bench_run.add_argument("--output-dir", type=Path,
                           default=Path("benchmarks/results"),
                           help="where reports and rendered artefacts are written")

    ha = subparsers.add_parser(
        "ha", help="supervised cluster runtime: failover drills"
    )
    ha_sub = ha.add_subparsers(dest="ha_command", required=True)

    ha_drill = ha_sub.add_parser(
        "drill", help="kill a live shard mid-stream, recover, verify equivalence"
    )
    ha_drill.add_argument("--profile", default="tiny", choices=sorted(profile_names()))
    ha_drill.add_argument("--shards", type=int, default=2,
                          help="process shard workers to run")
    ha_drill.add_argument("--kill-shard", type=int, default=None,
                          help="shard to SIGKILL (default: the last one)")
    ha_drill.add_argument("--kill-after", type=int, default=5,
                          help="buckets to ingest before the kill")
    ha_drill.add_argument("--checkpoint-every", type=int, default=4,
                          help="checkpoint cadence in buckets (0 = WAL only)")
    ha_drill.add_argument("--checkpoint-dir", type=Path, default=None,
                          help="where the supervisor checkpoints; the newest "
                               "checkpoint is <dir>/latest, loadable with "
                               "KSIREngine.load (default: a temporary directory)")
    ha_drill.add_argument("--queries", type=int, default=5,
                          help="verification queries after the replay")
    ha_drill.add_argument("--k", type=int, default=5)
    ha_drill.add_argument("--seed", type=int, default=2019)

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _print(text: str) -> None:
    print(text)


class UsageError(Exception):
    """Options the parser accepted but no engine can be built from.

    :func:`main` reports it through ``parser.error``: usage and message on
    stderr, exit status 2, no traceback.
    """


def _engine_config(args: argparse.Namespace, service: bool = False) -> EngineConfig:
    try:
        return EngineConfig.from_args(args, service=service)
    except ValueError as error:
        raise UsageError(str(error)) from error


def _profile_dataset(args: argparse.Namespace) -> SyntheticDataset:
    return SyntheticStreamGenerator.from_profile(args.profile, seed=args.seed).generate()


def _load_inputs(args: argparse.Namespace) -> Tuple[SocialStream, TopicModel]:
    """The stream and topic model of ``--stream`` + ``--model``, or of ``--profile``."""
    if args.stream is None:
        dataset = _profile_dataset(args)
        return dataset.stream, dataset.topic_model
    if args.model is None:
        raise UsageError("--model is required when --stream is given")
    return load_stream_jsonl(args.stream), MatrixTopicModel.load(args.model)


def run_generate(args: argparse.Namespace) -> int:
    dataset = _profile_dataset(args)
    output_dir = args.output_dir / args.profile
    stream_path = output_dir / "stream.jsonl"
    model_path = output_dir / "topic_model.npz"
    count = save_stream_jsonl(dataset.stream, stream_path)
    dataset.topic_model.save(model_path)
    _print(f"wrote {count} elements to {stream_path}")
    _print(f"wrote topic model ({dataset.topic_model.num_topics} topics) to {model_path}")
    stats = dataset.statistics()
    _print(
        f"avg length {stats['average_length']:.2f}, "
        f"avg references {stats['average_references']:.2f}"
    )
    return 0


def run_stats(args: argparse.Namespace) -> int:
    if (args.profile is None) == (args.stream is None):
        _print("error: provide exactly one of --profile or --stream")
        return 2
    if args.profile is not None:
        table = table_experiments.dataset_statistics_table(
            datasets=(args.profile,), seed=args.seed
        )
        _print(table.render())
        return 0
    stream = load_stream_jsonl(args.stream)
    elements = stream.elements
    total_length = sum(len(e.tokens) for e in elements)
    total_references = sum(len(e.references) for e in elements)
    distinct = {token for element in elements for token in element.tokens}
    _print(f"elements:        {len(elements)}")
    _print(f"vocabulary:      {len(distinct)}")
    _print(f"avg length:      {total_length / max(1, len(elements)):.2f}")
    _print(f"avg references:  {total_references / max(1, len(elements)):.2f}")
    if elements:
        _print(f"time span:       {stream.start_time} .. {stream.end_time}")
    return 0


def run_query(args: argparse.Namespace) -> int:
    # Both input paths share the engine's inference settings (from
    # EngineConfig.from_args), so stream-file and profile runs infer
    # query vectors identically.
    config = _engine_config(args)
    stream, model = _load_inputs(args)
    with KSIREngine(model, config) as engine:
        engine.process_stream(stream)
        cluster = engine.config.cluster
        where = (
            f" across {cluster.num_shards} shards" if engine.config.is_sharded else ""
        )
        _print(
            f"replayed {engine.elements_processed} elements{where}; "
            f"{engine.active_count} active at time {engine.current_time}"
        )

        result = engine.query_keywords(
            args.keywords, k=args.k, algorithm=args.algorithm, epsilon=args.epsilon
        )
        _print(result.summary())
        elements_by_id = {element.element_id: element for element in stream}
        processor = engine.processor
        if processor is not None:
            follower_count = processor.window.follower_count
        else:
            # Shard windows are not exposed here; show the stream-wide
            # in-degree instead (one pass, shared by every result line).
            in_degree: Dict[int, int] = {}
            for element in stream:
                for parent_id in element.references:
                    in_degree[parent_id] = in_degree.get(parent_id, 0) + 1
            follower_count = lambda element_id: in_degree.get(element_id, 0)  # noqa: E731
        for element_id in result.element_ids:
            element = elements_by_id[element_id]
            _print(
                f"  e{element_id} ({follower_count(element_id)} refs): "
                + " ".join(element.tokens[:10])
            )
    return 0


def run_serve(args: argparse.Namespace) -> int:
    config = _engine_config(args, service=True)
    dataset = _profile_dataset(args)
    generator = WorkloadGenerator(
        dataset, k=args.k, mode=args.mode, seed=args.seed + 17
    )
    with KSIREngine(dataset.topic_model, config) as engine:
        for _ in range(args.queries):
            engine.register(
                generator.generate_query(),
                algorithm=args.algorithm,
                epsilon=args.epsilon,
                ttl_buckets=args.ttl_buckets,
            )
        engine.process_stream(dataset.stream)
        _print(engine.report())

        service = engine.service_engine
        assert service is not None  # the service backend always has one
        shown = 0
        for query_id, standing_result in engine.results().items():
            if shown >= max(0, args.top):
                break
            standing = service.registry.get(query_id)
            keywords = " ".join(standing.query.keywords) or "<no keywords>"
            result = standing_result.result
            _print(
                f"  {query_id} [{keywords}]: |S|={len(result)} "
                f"score={result.score:.4f} stale={standing_result.staleness_buckets} "
                f"buckets, evaluated {standing_result.evaluations}x"
            )
            shown += 1
    return 0


def build_server_app(args: argparse.Namespace):
    """Build the ASGI serving app from ``server`` subcommand arguments.

    Split from :func:`run_server` so tests (and programmatic embedders) can
    construct the exact app the CLI would serve without binding a socket.
    The serving tier is imported lazily: the core CLI works without it.
    """
    from repro.server.app import create_app

    # Standing queries and pushes are the product of this tier.
    config = _engine_config(args, service=True)
    if args.checkpoint is not None:
        engine = KSIREngine.load(args.checkpoint)
        if engine.service_engine is None:
            engine.close()
            raise UsageError("checkpoint does not hold a service-backend engine")
    else:
        stream, model = _load_inputs(args)
        engine = KSIREngine(model, config)
        if args.stream is not None or args.preload:
            engine.process_stream(stream)
            replayed = args.stream if args.stream is not None else f"profile {args.profile!r}"
            _print(f"replayed {engine.elements_processed} elements of {replayed}")
    return create_app(engine, max_workers=args.http_workers)


def run_server(args: argparse.Namespace) -> int:
    from repro.server.asgi import run

    app = build_server_app(args)
    try:
        run(app, host=args.host, port=args.port)
    finally:
        app.close()
    return 0


def run_bench(args: argparse.Namespace) -> int:
    from repro.experiments.paper import ARTEFACTS, run_artefact

    if args.bench_command == "list":
        for name in sorted(ARTEFACTS):
            _print(f"{name:<24} {ARTEFACTS[name][0]}")
        _print(f"{len(ARTEFACTS)} benchmark(s) registered")
        return 0

    if args.bench_command == "run":
        unknown = [name for name in args.names if name not in ARTEFACTS]
        if unknown:
            raise UsageError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(ARTEFACTS))}"
            )
        failures = 0
        for name in args.names or sorted(ARTEFACTS):
            report, rendered = run_artefact(
                name, ARTEFACTS[name], args.tier, args.seed, args.output_dir
            )
            passed = report["checks_passed"]
            _print(rendered)
            _print(
                f"{name} [{args.tier}] seed={args.seed} {report['elapsed_s']:.1f}s "
                f"checks={'ok' if passed else 'FAILED'}"
            )
            _print(f"[saved to {args.output_dir / f'BENCH_{name}.json'}]")
            if not passed:
                _print(f"CHECK FAILED ({name}): {report['check_error']}")
                failures += 1
        return 1 if failures else 0

    raise ValueError(f"unknown bench command {args.bench_command!r}")


def run_ha(args: argparse.Namespace) -> int:
    if args.ha_command == "drill":
        return _run_ha_drill(args)

    raise ValueError(f"unknown ha command {args.ha_command!r}")


def _run_ha_drill(args: argparse.Namespace) -> int:
    """Kill-and-recover drill: crash a shard mid-stream, verify equivalence."""
    import tempfile

    from repro.cluster.coordinator import ClusterConfig
    from repro.core.stream import replay_stream
    from repro.ha import ClusterSupervisor, HAConfig
    from repro.ha.chaos import kill_worker

    kill_shard = args.kill_shard if args.kill_shard is not None else args.shards - 1
    if not 0 <= kill_shard < args.shards:
        raise UsageError(f"--kill-shard must be in [0, {args.shards})")

    dataset = _profile_dataset(args)
    sharded_config = EngineConfig(
        backend="sharded",
        cluster=ClusterConfig(num_shards=args.shards, transport="pipe"),
        ha=HAConfig(checkpoint_every=args.checkpoint_every),
    )

    with tempfile.TemporaryDirectory() as tmp:
        checkpoint_dir = args.checkpoint_dir if args.checkpoint_dir is not None else Path(tmp)
        engine = KSIREngine(dataset.topic_model, sharded_config)
        with ClusterSupervisor(engine, checkpoint_dir=checkpoint_dir) as supervisor:
            bucket_length = supervisor.coordinator.config.bucket_length
            buckets_seen = 0

            def ingest(elements, end_time) -> None:
                nonlocal buckets_seen
                if buckets_seen == args.kill_after:
                    _print(f"killing shard {kill_shard} before bucket {buckets_seen}")
                    kill_worker(supervisor.coordinator, kill_shard)
                supervisor.ingest_bucket(elements, end_time)
                buckets_seen += 1

            replay_stream(dataset.stream, bucket_length, ingest)
            status = supervisor.status()
            _print(
                f"replayed {supervisor.engine.elements_processed} elements in "
                f"{buckets_seen} buckets across {args.shards} process shards"
            )
            _print(
                f"recoveries: {status['recoveries']}, last recovery "
                f"{(status['last_recovery_seconds'] or 0) * 1000:.1f} ms, "
                f"{status['last_replayed_buckets']} bucket(s) replayed from the WAL"
            )

            if status["recoveries"] == 0:
                _print("warning: the kill was never detected (stream too short?)")

            # Equivalence: the recovered cluster must answer exactly like an
            # uninterrupted single-node run over the same stream.
            generator = WorkloadGenerator(dataset, k=args.k, seed=args.seed + 17)
            worst = 0.0
            with KSIREngine(dataset.topic_model, EngineConfig(backend="local")) as reference:
                reference.process_stream(dataset.stream)
                for _ in range(max(1, args.queries)):
                    query = generator.generate_query()
                    recovered = supervisor.query(query)
                    expected = reference.query(query)
                    worst = max(worst, abs(recovered.score - expected.score))
            _print(f"verification: {args.queries} queries, max |Δscore| = {worst:.3g}")
            ok = worst <= 1e-9 and status["recoveries"] >= 1
            _print("DRILL PASSED" if ok else "DRILL FAILED")
            return 0 if ok else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "generate": run_generate,
    "stats": run_stats,
    "query": run_query,
    "serve": run_serve,
    "server": run_server,
    "bench": run_bench,
    "ha": run_ha,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as error:
        parser.error(str(error))


if __name__ == "__main__":
    sys.exit(main())

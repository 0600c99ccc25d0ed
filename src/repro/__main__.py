"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro table2            # Table 2 power model (fast)
    python -m repro table1            # Table 1 operation agreement (fast)
    python -m repro validate          # corelet vs software correlation
    python -m repro fig4 [--small]    # Figure 4 SVM curves
    python -m repro fig5 [--small]    # Figure 5 Eedn curves
    python -m repro fig6              # Figure 6 precision sweep
    python -m repro absorbed          # Section 5.1 convergence study
    python -m repro serve             # micro-batching service demo
    python -m repro serve --metrics   # + process-wide metrics snapshot
    python -m repro serve --flaky-rate 0.2 --retries 3   # resilience demo
    python -m repro faults            # fault-rate degradation sweep
    python -m repro video             # streaming video pipeline demo
    python -m repro trace <cmd>       # any command + span trace summary
    python -m repro trace --export t.json <cmd>   # + Chrome trace JSON
    python -m repro profile <cmd>     # any command + hw-counter profile
    python -m repro slo <cmd>         # any command + latency/energy SLOs

``--small`` shrinks the data split for a faster (noisier) run.
``--engine`` selects the simulation engine (``batch`` = the vectorized
PR-1 engine, ``event`` = the sparse event-driven engine; both are
bit-identical to ``reference``) where a command runs the simulator;
``--chunk-size`` sets windows per classifier call.

Observability (DESIGN.md §10): ``serve --metrics`` publishes the
service's stats into the process-wide ``repro.obs`` registry and emits
one JSON snapshot covering simulator ticks, windows scored, the batch
histogram, cache hit rate, and per-span timings, plus a
Prometheus-style text exposition (``--metrics-output PATH`` writes the
exposition to a file — the CI ``obs-smoke`` job scrapes it).
``trace <cmd>`` runs any other command and then prints the span
aggregates and the tail of the span ring buffer; ``--export PATH``
additionally stitches the run's spans and flight events into
per-request traces (``docs/OBSERVABILITY.md``) and writes Chrome
trace-event JSON for ``chrome://tracing`` / Perfetto, and video runs
get the per-stage/per-level frame latency breakdown. ``slo <cmd>``
(DESIGN.md §16) runs any other command with metrics forced on and then
evaluates the declared latency and joules-per-request objectives over
the run's histograms — compliance, error-budget burn rate, met/violated
— publishing ``slo_*`` series back into the registry and emitting a
schema-validated JSON report (``--objectives PATH`` loads custom
objectives, ``--output PATH`` writes the report, ``--check`` gates the
exit code).

Hardware-counter telemetry (DESIGN.md §12): ``profile <cmd>`` runs any
other command inside a hardware-counter collection scope and emits a
JSON profile — spikes, synaptic events, membrane updates, router hops,
fault drops/echoes — plus the attributed energy (total joules,
nJ/lane, sustained mW) and a top-N hot-core table
(``--output PATH`` writes the JSON, ``--top N`` sizes the table). The
per-core rollup is also published as labeled
``hw_core_spikes_total{core="..."}`` registry counters. ``serve
--flight-dump PATH`` arms the flight recorder: the bounded structured
event log is written to PATH when the run ends and automatically on
request failure or breaker-open.

Fault injection (DESIGN.md §11, ``docs/FAULT_MODEL.md``): ``faults``
sweeps a hardware fault rate and reports detection miss-rate
degradation for the TrueNorth-deployed classifiers against the
software SVM baseline (``--output`` writes ``BENCH_faults.json``;
``--check`` exits nonzero unless the curves degrade monotonically).
``serve`` grows resilience knobs: ``--flaky-rate`` injects transient
scorer faults, handled by ``--retries``/``--retry-backoff-ms`` and a
``--breaker-failures``/``--breaker-reset-ms`` circuit breaker, with
``--degraded-score`` serving a sentinel instead of failing while the
breaker is open.

Streaming video (DESIGN.md §15, ``docs/VIDEO_PIPELINE.md``): ``video``
streams a synthetic sequence through the frame pipeline — pyramid
decomposition, window fan-out to the (optionally sharded with
``--workers``) micro-batching service, NMS reassembly — and reports
fps, joules/frame, the per-frame LRU hit rate, degraded frames, and
the FPPI/miss-rate summary. ``--motion {static,walk,full}`` sets the
scene's temporal locality, ``--deadline-ms`` arms the per-frame budget
that drops the finest pyramid scales first, and ``--frames``/
``--video-shape`` size the sequence (``--output`` writes the report
JSON).

A full per-subcommand reference with runnable examples lives in
``docs/CLI.md``.
"""

import argparse
import json
import sys


def _data(small: bool):
    from repro.experiments.setup import make_experiment_data

    if small:
        return make_experiment_data(
            n_positive=40,
            n_negative=80,
            n_negative_images=3,
            n_test_scenes=8,
            rng=7,
        )
    return make_experiment_data(
        n_positive=120,
        n_negative=240,
        n_negative_images=6,
        n_test_scenes=15,
        rng=7,
    )


def main(argv=None) -> int:
    """Parse the experiment name and print its report."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return _trace(argv[1:])
    if argv and argv[0] == "profile":
        return _profile(argv[1:])
    if argv and argv[0] == "slo":
        return _slo(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables and figures of the DAC'17 paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "table1",
            "table2",
            "validate",
            "fig4",
            "fig5",
            "fig6",
            "absorbed",
            "serve",
            "faults",
            "video",
        ],
        help="which artifact to regenerate (or 'serve' for the service "
        "demo, 'faults' for the fault-rate degradation sweep, 'video' "
        "for the streaming video pipeline)",
    )
    parser.add_argument(
        "--small", action="store_true", help="use a smaller, faster data split"
    )
    parser.add_argument(
        "--cells", type=int, default=25, help="cells for the validate run"
    )
    parser.add_argument(
        "--engine",
        choices=["reference", "batch", "event"],
        default=None,
        help="simulation engine (validate defaults to reference, "
        "serve to batch; all engines are bit-identical — 'event' skips "
        "quiescent cores and is fastest at sparse activity)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=16,
        help="windows per classifier call (serve: rows per client burst)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--requests", type=int, default=192, help="total scoring requests"
    )
    serve_group.add_argument(
        "--concurrency", type=int, default=16, help="closed-loop client threads"
    )
    serve_group.add_argument(
        "--max-batch-size", type=int, default=32, help="micro-batch size cap"
    )
    serve_group.add_argument(
        "--max-wait-ms", type=float, default=2.0, help="micro-batch wait cap"
    )
    serve_group.add_argument(
        "--queue-capacity", type=int, default=256,
        help="bounded queue depth (backpressure threshold)",
    )
    serve_group.add_argument(
        "--cache-capacity", type=int, default=4096,
        help="LRU result-cache entries (0 disables)",
    )
    serve_group.add_argument(
        "--timeout-ms", type=float, default=None,
        help="per-request deadline (unset = none)",
    )
    serve_group.add_argument(
        "--workers", type=int, default=0,
        help="shard the model across this many worker processes behind "
        "the micro-batcher (0 = in-process serving; results are "
        "bit-identical either way)",
    )
    serve_group.add_argument(
        "--duplicate-fraction", type=float, default=0.0,
        help="fraction of requests repeating earlier windows",
    )
    serve_group.add_argument(
        "--metrics", action="store_true",
        help="publish into the process-wide repro.obs registry and emit "
        "its snapshot plus a Prometheus-style exposition",
    )
    serve_group.add_argument(
        "--metrics-output", default=None, metavar="PATH",
        help="write the text exposition to PATH instead of stdout "
        "(implies --metrics)",
    )
    serve_group.add_argument(
        "--flight-dump", default=None, metavar="PATH",
        help="write the flight-recorder event log to PATH at exit (and "
        "automatically on request failure or breaker-open)",
    )
    serve_group.add_argument(
        "--flaky-rate", type=float, default=0.0,
        help="inject transient scorer faults at this per-batch rate",
    )
    serve_group.add_argument(
        "--retries", type=int, default=1,
        help="total scorer attempts per batch (1 = no retry)",
    )
    serve_group.add_argument(
        "--retry-backoff-ms", type=float, default=1.0,
        help="backoff before the first retry (doubles per retry)",
    )
    serve_group.add_argument(
        "--breaker-failures", type=int, default=0,
        help="consecutive failures that open the circuit breaker "
        "(0 disables the breaker)",
    )
    serve_group.add_argument(
        "--breaker-reset-ms", type=float, default=100.0,
        help="breaker cooldown before a half-open trial call",
    )
    serve_group.add_argument(
        "--degraded-score", type=float, default=None,
        help="serve this sentinel score instead of failing while the "
        "scorer is down (unset = fail the requests)",
    )
    faults_group = parser.add_argument_group("faults options")
    faults_group.add_argument(
        "--fault-kind", choices=["drop", "dup", "dead", "stuck", "flip", "drift"],
        default="drop", help="which hardware fault to sweep",
    )
    faults_group.add_argument(
        "--rates", default="0,0.05,0.1,0.2,0.4,0.7,1.0",
        help="comma-separated fault rates (ascending)",
    )
    faults_group.add_argument(
        "--approaches", default="NApprox,Parrot,SVM",
        help="comma-separated subset of NApprox,Parrot,SVM",
    )
    faults_group.add_argument(
        "--seeds", default="0,1,2,3,4",
        help="comma-separated fault-plan seeds averaged per rate",
    )
    faults_group.add_argument(
        "--ticks", type=int, default=12, help="spike window per scored vector"
    )
    faults_group.add_argument(
        "--hidden", type=int, default=48, help="classifier hidden width"
    )
    faults_group.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless hardware curves degrade monotonically",
    )
    faults_group.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the sweep payload as JSON (BENCH_faults.json)",
    )
    video_group = parser.add_argument_group("video options")
    video_group.add_argument(
        "--frames", type=int, default=12, help="frames in the synthetic sequence"
    )
    video_group.add_argument(
        "--motion", choices=["static", "walk", "full"], default="walk",
        help="scene motion level (static = maximal cross-frame cache "
        "locality, full = none)",
    )
    video_group.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-frame scoring budget; late frames drop the finest "
        "pyramid scales first (unset = no budget)",
    )
    video_group.add_argument(
        "--video-shape", default="240x320", metavar="HxW",
        help="frame shape in pixels (--small shrinks it to 160x224)",
    )
    args = parser.parse_args(argv)
    if args.metrics_output:
        args.metrics = True

    if args.experiment == "table2":
        from repro.experiments import table2

        print(table2.format_report(table2.run()))
    elif args.experiment == "table1":
        import numpy as np

        from repro.napprox import NApproxConfig, NApproxDescriptor

        for name, quantized in (("NApprox(fp)", False), ("NApprox", True)):
            descriptor = NApproxDescriptor(NApproxConfig(quantized=quantized))
            image = np.tile(np.linspace(0, 1, 64), (64, 1))
            grid = descriptor.cell_grid(image)
            print(f"{name}: horizontal-ramp dominant bin = "
                  f"{grid[3, 3].argmax()} (expected 0), "
                  f"votes/cell = {grid[3, 3].sum():.0f}")
        print("Run `pytest benchmarks/bench_table1_napprox_ops.py -s` for the "
              "full component-agreement table.")
    elif args.experiment == "validate":
        from repro.napprox import correlate_corelet_vs_software

        engine = args.engine or "reference"
        report = correlate_corelet_vs_software(
            n_cells=args.cells, rng=42, engine=engine
        )
        print(f"corelet vs software over {report.n_cells} cells "
              f"({engine} engine): "
              f"correlation {report.correlation:.4f} (paper: >0.995), "
              f"mean |error| {report.mean_absolute_error:.3f} votes")
    elif args.experiment == "fig4":
        from repro.experiments import fig4

        print(fig4.format_report(fig4.run(_data(args.small))))
    elif args.experiment == "fig5":
        from repro.experiments import fig5

        print(fig5.format_report(fig5.run(_data(args.small))))
    elif args.experiment == "fig6":
        from repro.experiments import fig6

        print(fig6.format_report(fig6.run()))
    elif args.experiment == "absorbed":
        from repro.experiments import absorbed_exp

        sizes = (60, 150) if args.small else (100, 300)
        print(absorbed_exp.format_report(absorbed_exp.run(sizes=sizes)))
    elif args.experiment == "serve":
        return _serve(args)
    elif args.experiment == "faults":
        return _faults(args)
    elif args.experiment == "video":
        return _video(args)
    return 0


def _faults(args) -> int:
    """Run the fault-rate sweep (exit 0 = monotone when ``--check``)."""
    from repro.experiments import faults_sweep

    rates = tuple(float(r) for r in args.rates.split(","))
    approaches = tuple(a.strip() for a in args.approaches.split(",") if a.strip())
    seeds = tuple(int(s) for s in args.seeds.split(","))
    kwargs = {}
    if args.small:
        kwargs.update(
            n_train=32,
            n_eval=16,
            epochs=15,
            fault_seeds=seeds[:1],
            parrot_params={"hidden": 96, "n_samples": 1500, "epochs": 8},
        )
    else:
        kwargs.update(fault_seeds=seeds)
    result = faults_sweep.run(
        rates=rates,
        fault_kind=args.fault_kind,
        approaches=approaches,
        hidden=args.hidden,
        ticks=args.ticks,
        **kwargs,
    )
    print(faults_sweep.format_report(result))
    if args.output:
        faults_sweep.write_json(result, args.output)
        print(f"wrote {args.output}")
    if args.check:
        hardware = tuple(a for a in approaches if a != "SVM")
        violations = result.check_monotone(approaches=hardware)
        if violations:
            for violation in violations:
                print(f"FAIL: {violation}", file=sys.stderr)
            return 1
        print(f"monotonicity check passed for {', '.join(hardware)}")
    return 0


def _serve(args) -> int:
    """Run the serving demo / smoke (exit 0 = all accounted)."""
    from repro.serve import (
        CircuitBreaker,
        InferenceService,
        ShardedInferenceService,
        closed_loop,
        demo_classifier_workload,
    )

    registry = None
    if args.metrics:
        from repro.obs import get_registry

        registry = get_registry()

    scorer, rows = demo_classifier_workload(
        n_requests=args.requests,
        engine=args.engine or "batch",
        duplicate_fraction=args.duplicate_fraction,
    )
    flaky = None
    if args.flaky_rate > 0:
        from repro.serve import FlakyModel

        flaky = FlakyModel(scorer, failure_rate=args.flaky_rate, rng=0)
        scorer = flaky
    retry_policy = None
    if args.retries > 1:
        from repro.serve import RetryPolicy

        retry_policy = RetryPolicy(
            max_attempts=args.retries, backoff_ms=args.retry_backoff_ms
        )
    if args.workers > 0:
        service_class = ShardedInferenceService
        mode_options = {
            "workers": args.workers,
            "breaker_failure_threshold": args.breaker_failures,
            "breaker_reset_timeout_s": args.breaker_reset_ms / 1e3,
        }
    else:
        service_class = InferenceService
        mode_options = {
            "circuit_breaker": CircuitBreaker(
                failure_threshold=args.breaker_failures,
                reset_timeout_s=args.breaker_reset_ms / 1e3,
            )
            if args.breaker_failures > 0
            else None
        }
    service = service_class(
        scorer,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
        registry=registry,
        retry_policy=retry_policy,
        degraded_value=args.degraded_score,
        flight_dump_path=args.flight_dump,
        **mode_options,
    )
    timeout_s = None if args.timeout_ms is None else args.timeout_ms / 1e3
    with service:
        report = closed_loop(
            service,
            rows,
            concurrency=args.concurrency,
            chunk_size=args.chunk_size,
            timeout_s=timeout_s,
        )
        snapshot = service.stats.snapshot()
    print(
        f"served {report.completed}/{report.requests} requests in "
        f"{report.seconds:.2f}s = {report.requests_per_second:.1f} req/s "
        f"(rejected {report.rejected_queue_full}, "
        f"expired {report.deadline_expired}, failed {report.failed})"
    )
    if flaky is not None:
        # Count retries, not the wrapper's own tallies: with --workers
        # the faults are drawn inside the worker processes.
        print(
            f"flaky scorer: {snapshot['counters'].get('retries', 0)} batch "
            f"calls retried (fault rate {args.flaky_rate})"
        )
    payload = {"load": report.as_dict(), "stats": snapshot}
    if registry is not None:
        # The process-wide view: simulator ticks and engine counters from
        # the scorer's runs land next to the serve metrics and spans.
        payload["metrics"] = registry.snapshot()
        exposition = registry.render_prometheus()
        if args.metrics_output:
            with open(args.metrics_output, "w") as handle:
                handle.write(exposition)
            print(f"wrote exposition to {args.metrics_output}")
    print(json.dumps(payload, indent=2))
    if registry is not None and not args.metrics_output:
        print(exposition, end="")
    if args.flight_dump:
        from repro.obs import flight_recorder

        retained = flight_recorder().dump(args.flight_dump, reason="serve_exit")
        print(f"wrote flight dump ({retained} events) to {args.flight_dump}")
    if not report.accounted:
        print("FAIL: requests lost or failed", file=sys.stderr)
        return 1
    return 0


def _video(args) -> int:
    """Stream a synthetic video sequence (exit 0 = every frame scored)."""
    from repro.serve import InferenceService, ShardedInferenceService
    from repro.video import (
        VideoConfig,
        VideoPipeline,
        VideoPipelineConfig,
        build_video_workload,
        synthesize_sequence,
    )

    try:
        height, width = (int(v) for v in args.video_shape.lower().split("x"))
    except ValueError:
        print(f"bad --video-shape {args.video_shape!r}, want HxW", file=sys.stderr)
        return 2
    if args.small:
        height, width = min(height, 160), min(width, 224)
    engine = args.engine or "batch"
    workload_kwargs = {"engine": engine, "ticks": 6, "hidden": 16}
    if args.small:
        workload_kwargs.update(n_train=24, epochs=8)
    workload = build_video_workload(**workload_kwargs)
    sequence = synthesize_sequence(
        VideoConfig(
            shape=(height, width), n_frames=args.frames, motion=args.motion
        ),
        rng=3,
    )

    registry = None
    if args.metrics:
        from repro.obs import get_registry

        registry = get_registry()
    service_class, mode_options = (
        (ShardedInferenceService, {"workers": args.workers})
        if args.workers > 0
        else (InferenceService, {})
    )
    service = service_class(
        workload.scorer,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        queue_capacity=args.queue_capacity,
        cache_capacity=args.cache_capacity,
        registry=registry,
        **mode_options,
    )
    with service:
        pipeline = VideoPipeline(
            workload.extractor,
            service,
            VideoPipelineConfig(
                feature_scale=workload.feature_scale,
                deadline_ms=args.deadline_ms,
            ),
            registry=registry,
        )
        report = pipeline.run(sequence)

    print(
        f"streamed {len(report.frames)} {height}x{width} frames "
        f"({args.motion} motion, {engine} engine"
        + (f", {args.workers} workers" if args.workers else "")
        + f"): {report.fps:.2f} fps"
    )
    print(
        f"joules/frame {report.joules_per_frame * 1e6:.1f} uJ, "
        f"cache hit rate {report.cache_hit_rate:.1%}, "
        f"windows scored {report.windows_scored}, "
        f"degraded frames {report.degraded_frames}"
    )
    if report.curve is not None:
        print(
            f"log-average miss rate {report.curve.log_average_miss_rate():.3f} "
            f"over {report.curve.n_ground_truth} ground-truth boxes"
        )
    if args.output:
        payload = {
            "engine": engine,
            "workers": args.workers,
            "motion": args.motion,
            "shape": [height, width],
            "deadline_ms": args.deadline_ms,
            **report.as_dict(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.output}")
    incomplete = [f.index for f in report.frames if f.levels_scored == 0]
    if incomplete:
        print(f"FAIL: frames {incomplete} scored no levels", file=sys.stderr)
        return 1
    return 0


def _trace(argv) -> int:
    """Run ``argv`` as a normal command, then print the span summary.

    ``--export PATH`` additionally assembles the run's spans and flight
    events into per-request traces and writes them as Chrome
    trace-event JSON (open in ``chrome://tracing`` or Perfetto); for
    video runs the per-stage/per-level latency breakdown from the
    ``video_stage_seconds`` histograms is printed too.
    """
    from repro.obs import summarize_spans, trace_log
    from repro.obs.traces import (
        assemble_traces,
        export_chrome_trace,
        frame_stage_breakdown,
    )

    argv = list(argv)
    export = None
    while argv and argv[0] == "--export":
        argv.pop(0)
        if not argv:
            print("trace: --export needs a value", file=sys.stderr)
            return 2
        export = argv.pop(0)
    if not argv:
        print(
            "usage: python -m repro trace [--export PATH] <command> "
            "[options]",
            file=sys.stderr,
        )
        return 2
    code = main(argv)
    spans = summarize_spans()
    print("\n== span timings (process-wide registry) ==")
    if not spans:
        print("no spans recorded")
    for name, data in sorted(spans.items()):
        print(
            f"{name:48s} count={data['count']:6d} "
            f"total={data['sum']:8.3f}s mean={data['mean'] * 1e3:8.2f}ms "
            f"p99={data['p99'] * 1e3:8.2f}ms"
        )
    tail = trace_log().entries()[-20:]
    if tail:
        print("== last spans (ring buffer tail) ==")
        for record in tail:
            indent = "  " * record.depth
            print(
                f"{indent}{record.path} {record.duration_s * 1e3:.2f}ms "
                f"[{record.thread}]"
            )
    breakdown = frame_stage_breakdown()
    if breakdown:
        print("== frame stage breakdown (video_stage_seconds) ==")
        for stage in sorted(breakdown):
            for level in sorted(breakdown[stage]):
                data = breakdown[stage][level]
                print(
                    f"{stage:>8s} level={level:>5s} "
                    f"count={data['count']:6d} "
                    f"mean={data['mean'] * 1e3:8.2f}ms "
                    f"p99={data['p99'] * 1e3:8.2f}ms"
                )
    if export:
        traces = assemble_traces()
        events = export_chrome_trace(export, traces)
        print(
            f"wrote {len(traces)} traces ({events} trace events) to {export}"
        )
    return code


def _slo(argv) -> int:
    """Run ``argv`` with metrics on, then judge the run against SLOs.

    The wrapped command is forced onto the process-wide registry
    (``--metrics`` is appended when absent), then each declared
    objective — latency and joules-per-request alike — is evaluated
    from the run's histograms: compliance, error-budget burn rate, and
    a met/violated verdict. The verdicts are published back into the
    registry (``slo_burn_rate{slo=...}`` et al. — a ``--metrics-output``
    exposition file is rewritten to include them), printed as a table,
    and emitted as schema-validated JSON (``--output PATH`` writes it;
    ``--objectives PATH`` loads custom objectives; ``--check`` exits
    nonzero when any objective is violated).
    """
    from repro.obs import get_registry
    from repro.obs.slo import (
        default_objectives,
        evaluate_objectives,
        format_report,
        load_objectives,
        publish_results,
        report_json,
        validate_report,
    )

    argv = list(argv)
    objectives_path, output, check = None, None, False
    while argv and argv[0] in ("--objectives", "--output", "--check"):
        flag = argv.pop(0)
        if flag == "--check":
            check = True
            continue
        if not argv:
            print(f"slo: {flag} needs a value", file=sys.stderr)
            return 2
        if flag == "--objectives":
            objectives_path = argv.pop(0)
        else:
            output = argv.pop(0)
    if not argv:
        print(
            "usage: python -m repro slo [--objectives PATH] [--output PATH] "
            "[--check] <command> [options]",
            file=sys.stderr,
        )
        return 2
    try:
        objectives = (
            load_objectives(objectives_path)
            if objectives_path
            else default_objectives()
        )
    except (OSError, ValueError) as exc:
        print(f"slo: {exc}", file=sys.stderr)
        return 2
    if "--metrics" not in argv and "--metrics-output" not in argv:
        argv.append("--metrics")

    code = main(argv)

    registry = get_registry()
    results = evaluate_objectives(registry, objectives)
    publish_results(results, registry)
    if "--metrics-output" in argv:
        # The wrapped command wrote its exposition before the verdicts
        # existed; rewrite it so the scraped file carries the
        # slo_burn_rate / slo_*_total series alongside the run metrics.
        index = argv.index("--metrics-output") + 1
        if index < len(argv):
            try:
                with open(argv[index], "w") as handle:
                    handle.write(registry.render_prometheus())
            except OSError as exc:
                print(f"slo: could not rewrite {argv[index]}: {exc}",
                      file=sys.stderr)
    report = report_json(results)
    validate_report(report)
    print("\n" + format_report(results))
    if output:
        with open(output, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote SLO report to {output}")
    else:
        print(json.dumps(report, indent=2))
    if check and not report["met_all"] and code == 0:
        print("FAIL: at least one objective violated", file=sys.stderr)
        return 1
    return code


def _profile(argv) -> int:
    """Run ``argv`` inside a hw-counter scope, then emit the profile.

    The profile JSON carries the whole-run hardware counters, the
    attributed energy (via ``repro.truenorth.energy``), and the top-N
    hot-core table; the per-core rollup is also published as labeled
    ``hw_core_spikes_total{core="..."}`` registry counters.
    """
    from repro.obs import get_registry, hwcounters

    argv = list(argv)
    output, top_n = None, 10
    while argv and argv[0] in ("--output", "--top"):
        flag = argv.pop(0)
        if not argv:
            print(f"profile: {flag} needs a value", file=sys.stderr)
            return 2
        if flag == "--output":
            output = argv.pop(0)
        else:
            top_n = int(argv.pop(0))
    if not argv:
        print(
            "usage: python -m repro profile [--output PATH] [--top N] "
            "<command> [options]",
            file=sys.stderr,
        )
        return 2

    with hwcounters.collect() as collector:
        code = main(argv)

    totals = collector.totals()
    registry = get_registry()
    top_cores = []
    if collector.runs:
        ranked = sorted(
            collector.core_totals().items(),
            key=lambda kv: (-kv[1]["spikes"], -kv[1]["synaptic_events"], kv[0]),
        )
        for core_id, entry in ranked:
            registry.counter(
                "hw_core_spikes_total",
                help="neuron firings per core (profile rollup)",
                labels={"core": str(core_id)},
            ).inc(entry["spikes"])
            registry.counter(
                "hw_core_synaptic_events_total",
                help="synaptic events per core (profile rollup)",
                labels={"core": str(core_id)},
            ).inc(entry["synaptic_events"])
        top_cores = [
            {"core": core_id, **entry} for core_id, entry in ranked[:top_n]
        ]

    lane_energy = collector.lane_energy_joules()
    total_joules = float(lane_energy.sum())
    energy = {
        "total_joules": total_joules,
        "mean_nj_per_lane": (
            total_joules / lane_energy.size * 1e9 if lane_energy.size else 0.0
        ),
    }
    if totals["lane_ticks"]:
        from repro.truenorth.power import TICK_SECONDS

        # Sustained power while a lane is on the substrate: the exact
        # attributed energy over the total simulated lane-time.
        energy["sustained_milliwatts"] = (
            total_joules / (totals["lane_ticks"] * TICK_SECONDS) * 1e3
        )

    profile = {
        "command": argv,
        "exit_code": code,
        "runs": len(collector.runs),
        "lanes": collector.lanes,
        "hw": totals,
        "energy": energy,
        "top_cores": top_cores,
    }

    print("\n== hardware-counter profile ==")
    if not collector.runs:
        print("no engine runs recorded (software-only command?)")
    for name in ("spikes", "synaptic_events", "membrane_updates",
                 "router_hops", "dropped_spikes", "duplicated_spikes",
                 "active_core_ticks"):
        print(f"{name:24s} {totals[name]:>14,d}")
    print(f"{'lanes':24s} {collector.lanes:>14,d}  "
          f"({len(collector.runs)} engine runs)")
    if lane_energy.size:
        print(f"energy: {total_joules * 1e9:,.1f} nJ total, "
              f"{energy['mean_nj_per_lane']:,.1f} nJ/lane, "
              f"{energy.get('sustained_milliwatts', 0.0):.3f} mW sustained")
    if top_cores:
        print(f"top {len(top_cores)} cores by spikes:")
        print(f"{'core':>8s} {'spikes':>12s} {'syn.events':>12s}")
        for row in top_cores:
            print(f"{row['core']:>8d} {row['spikes']:>12,d} "
                  f"{row['synaptic_events']:>12,d}")
    if output:
        with open(output, "w") as handle:
            json.dump(profile, handle, indent=2)
            handle.write("\n")
        print(f"wrote profile to {output}")
    else:
        print(json.dumps(profile, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())

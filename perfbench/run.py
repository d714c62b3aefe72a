"""Run one navpredict benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 45 --trace 0

Runs from the root of a source checkout and imports ``navpredict`` from
its ``src/``. The run pins BLAS to one thread before numpy loads, warms
up on separate tiny inputs, sets up five times (``setup_s`` is the
median), then runs measured rounds of the workload until ``--seconds``
have passed (at least two rounds). Each timing metric is the median of
its per-round values, which holds steady through the short bursts in
which a shared machine runs a third faster or slower. Each round's times
are scaled to a fixed reference speed by a kernel run between its steps
(``speed.py``), which removes the slow stretches that outlast a run.

``--trace 1`` alternates untraced and traced rounds (at most four traced)
and reports per-layer metrics from the spans instead. Every run checks
its outputs against independent oracles. The last line of standard
output is one JSON object; the exit code is 0 only when every check
passed. Reports and span dumps go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import math
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
TRACED_MODULES = ("scenario", "model", "distill", "metrics", "osm_ingest",
                  "geo", "road_graph")
SETUPS = 5
MIN_ROUNDS = 2
MAX_TRACED_ROUNDS = 4     # bounds the spans kept in memory and written out
WARM_UP_SEED = 999_999


def tail_percentile(samples):
    """Highest of p99/p95/p90/p75 with at least 10 samples beyond it."""
    n = len(samples)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 50


def environment(workload, seed, inputs):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": workload,
        "seeds": {"workload": seed, "val_scenes": inputs.val_seed,
                  "big_scenes": inputs.big_seed, "init": inputs.init_seed},
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def warm_up(workloads, outdir, run):
    """Process-level one-time costs, on separate tiny inputs, untimed."""
    sizes = workloads.WARM_UP
    inputs = workloads.make_inputs(sizes, WARM_UP_SEED, outdir, "warmup")
    ctx = workloads.setup(sizes, inputs)
    workloads.check_setup(ctx, inputs, run)
    workloads.run_round(sizes, ctx, inputs, run, workloads.Pass())


def round_checks(run, rounds):
    first = rounds[0]
    run.check("rounds.counts_repeat",
              all(r.counts == first.counts for r in rounds),
              f"per-round counts differ: {[dict(r.counts) for r in rounds]}")
    run.check("rounds.quality_repeat",
              all(r.quality == first.quality for r in rounds),
              f"per-round minFDE differ: {[r.quality for r in rounds]}")


def measure_untraced(workloads, layers, speed, sizes, inputs, run, seconds):
    setup_times, kernel_times = [], []
    for _ in range(SETUPS):
        ctx = None            # free the previous set-up before timing the next
        gc.collect()
        t0 = time.perf_counter()
        ctx = workloads.setup(sizes, inputs)
        setup_times.append(time.perf_counter() - t0)
        speed.sample(kernel_times)
    workloads.check_setup(ctx, inputs, run)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        p = workloads.Pass()
        t0 = time.perf_counter()
        workloads.run_round(sizes, ctx, inputs, run, p)
        p.wall = time.perf_counter() - t0
        rounds.append(p)
    round_checks(run, rounds)
    setup = (statistics.median(setup_times) * speed.to_reference(kernel_times),
             len(setup_times))
    scales = [speed.to_reference(p.samples["kernel_s"]) for p in rounds]
    return end_to_end(layers, rounds, scales, setup, run), rounds, scales


def per_round(p, f=1.0):
    """{name: (value, unit, note)} for the timing metrics of one round,
    with its times multiplied by ``f``."""
    out = {"wall_s": (p.wall * f, "s", ""),
           "train_steps_per_s": (
               p.sums["train_steps"] / (p.sums["train_s"] * f), "1/s",
               f"{p.sums['train_steps']:.0f} per round")}
    # Short operations: a median over many, so that a pause of the machine
    # inside a few of them does not move the value.
    rates = p.samples["eval_per_s"]
    out["eval_scenes_per_s"] = (statistics.median(rates) / f, "1/s",
                                f"median of {len(rates)} evaluate_model "
                                f"calls per round")
    ops = p.samples["graph_op_s"]
    out["graph_ops_per_s"] = (1.0 / (statistics.median(ops) * f), "1/s",
                              f"1 / median of {len(ops)} op times per round")
    for prefix in ("predict", "query"):
        samples = p.samples[f"{prefix}_ms"]
        pct = tail_percentile(samples)
        out[f"{prefix}_p50_ms"] = (statistics.median(samples) * f, "ms",
                                   f"n={len(samples)} per round")
        out[f"{prefix}_p99_ms"] = (
            (statistics.quantiles(samples, n=100)[pct - 1] if pct > 50
             else statistics.median(samples)) * f, "ms",
            f"p{pct}, the highest with >= 10 of n={len(samples)} "
            f"samples beyond it")
    return out


def end_to_end(layers, rounds, scales, setup, run):
    """{name: (value, unit, note)} for every end-to-end metric; the
    timings at the reference speed (``scales``, one per round)."""
    setup_s, n_setups = setup
    out = {"setup_s": (setup_s, "s", f"median of {n_setups} set-ups")}
    each = [per_round(p, f) for p, f in zip(rounds, scales)]
    for name, (_v, unit, note) in each[0].items():
        values = [r[name][0] for r in each]
        out[name] = (statistics.median(values), unit,
                     f"median of {len(values)} rounds; {note}".rstrip("; "))
    for variant in layers.VARIANTS:
        out[f"minFDE6.{variant}"] = (rounds[0].quality.get(variant, 0.0),
                                     "m", "validation minFDE@6")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
        "ru_maxrss")
    out["ok_ratio"] = (1.0 - run.failed / max(run.attempted, 1), "ratio",
                       f"{run.failed} failed of {run.attempted} attempted")
    return out


def measure_traced(navpredict, workloads, layers, tracing, sizes, inputs,
                   run, seconds, span_path):
    tracer = tracing.Tracer(navpredict, TRACED_MODULES)
    tracer.current_phase = layers.SETUP_PHASE
    with tracer.installed(), tracer.span("bench.setup"):
        ctx = workloads.setup(sizes, inputs, tracer.span)
    workloads.check_setup(ctx, inputs, run)
    untraced_walls, traced_walls, phases, rounds = [], [], [], []
    start = time.perf_counter()
    while (min(len(traced_walls), len(untraced_walls)) < MIN_ROUNDS
           or (time.perf_counter() - start < seconds
               and len(traced_walls) < MAX_TRACED_ROUNDS)):
        gc.collect()
        p = workloads.Pass()
        if len(rounds) % 2 == 0:
            t0 = time.perf_counter()
            workloads.run_round(sizes, ctx, inputs, run, p)
            untraced_walls.append(time.perf_counter() - t0)
        else:
            tracer.current_phase = len(traced_walls) + 1
            with tracer.installed():
                t0 = time.perf_counter()
                with tracer.span("bench.round"):
                    workloads.run_round(sizes, ctx, inputs, run, p,
                                        tracer.span)
                traced_walls.append(time.perf_counter() - t0)
            phases.append(tracer.current_phase)
        rounds.append(p)
    round_checks(run, rounds)
    frame = tracer.frame()
    found, checks = layers.per_layer(tracer, frame, phases, traced_walls,
                                     untraced_walls)
    for name, ok, detail in checks:
        run.check(name, ok, detail)
    tracer.write(span_path, frame)
    print(f"# {len(frame['dur'])} spans written to "
          f"{span_path.relative_to(ROOT)}")
    return {name: (value, unit, "traced") for name, (value, unit)
            in found.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads its thread count once, when numpy first loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import navpredict
    except ImportError as exc:
        print(f"error: cannot import navpredict from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not pathlib.Path(navpredict.__file__).resolve().is_relative_to(src):
        print(f"error: navpredict loaded from {navpredict.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    # The city's dangling-reference way is skipped with a warning each
    # ingest, by design.
    logging.getLogger("navpredict").addHandler(logging.NullHandler())

    import layers
    import speed
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    sizes = workloads.WORKLOADS[args.workload]
    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"

    warm = workloads.Run()
    warm_up(workloads, outdir, warm)
    run = workloads.Run()
    run.check("warm_up.clean", warm.all_passed and warm.failed == 0,
              f"warm-up: {warm.failed} failed, checks {warm.checks}")
    inputs = workloads.make_inputs(sizes, args.seed, outdir, tag)
    env = environment(args.workload, args.seed, inputs)

    counts, per_round_values = {}, []
    if args.trace:
        found = measure_traced(navpredict, workloads, layers, tracing,
                               sizes, inputs, run, args.seconds,
                               outdir / f"spans-{tag}.npz")
        section = "per_layer"
    else:
        found, rounds, scales = measure_untraced(
            workloads, layers, speed, sizes, inputs, run, args.seconds)
        counts = dict(rounds[0].counts)
        per_round_values = [
            {"to_reference": f,
             "scaled": {name: value for name, (value, _u, _n)
                        in per_round(p, f).items()},
             "raw": {name: value for name, (value, _u, _n)
                     in per_round(p).items()}}
            for p, f in zip(rounds, scales)]
        section = "end_to_end"

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
        declared = {m["name"]: m["unit"] for m in declared}
    except (OSError, ValueError, KeyError, TypeError):
        declared = None
    emitted = {name: unit for name, (_v, unit, _n) in found.items()}
    run.check("benchmark_json.metrics", declared == emitted,
              f"emitted {sorted(emitted.items())} but BENCHMARK.json "
              f"declares {sorted((declared or {}).items())}")
    run.check("metrics.finite",
              all(math.isfinite(v) for v, _u, _n in found.values()),
              "a metric is not finite")
    if run.failed:
        run.check("operations.none_failed", False,
                  f"{run.failed} of {run.attempted} failed: "
                  f"{'; '.join(run.errors[:5])}")

    print(f"# workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc "
          f"{env['nproc']}, cpu {env['cpu_model']}, commit "
          f"{env['git_commit']}")
    for name, (runs, fails, detail) in sorted(run.checks.items()):
        state = "ok" if not fails else f"FAIL ({fails} of {runs}): {detail}"
        print(f"check {name}: {state}")
    if counts:
        print("counts per round: " + ", ".join(
            f"{k}={v}" for k, v in sorted(counts.items())))
    for name, (value, unit, note) in found.items():
        print(f"{name} = {value:.6g} {unit}  ({note})")
    if per_round_values:
        scale = statistics.median(r["to_reference"] for r in per_round_values)
        raw = {name: statistics.median(r["raw"][name]
                                       for r in per_round_values)
               for name in per_round_values[0]["raw"]}
        print(f"# timings above are at the reference speed; this machine "
              f"ran at {1 / scale:.3f}x the reference kernel time (median "
              f"of rounds). Unscaled medians: "
              + ", ".join(f"{name} = {value:.6g}"
                          for name, value in raw.items()))

    correct = run.all_passed
    metrics = {name: {"value": float(value) if math.isfinite(value) else 0.0,
                      "unit": unit}
               for name, (value, unit, _n) in found.items()}
    report = {"environment": env, "trace": args.trace,
              "seconds": args.seconds, "correct": correct,
              "attempted": run.attempted, "failed": run.failed,
              "errors": run.errors, "counts": counts,
              "rounds": per_round_values,
              "checks": run.checks,
              "metrics": {name: {"value": value, "unit": unit, "note": note}
                          for name, (value, unit, note) in found.items()}}
    (outdir / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

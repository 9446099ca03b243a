"""Seeded benchmark of graphorder: four workloads, end to end and by module.

Run from the repository root:

    python3 perfbench/run.py --workload train-adjacency --seed 1 --seconds 22 --trace 0

`--trace 0` measures the end-to-end metrics with nothing wrapped. `--trace 1`
runs traced rounds, then the same rounds untraced, and reports per-module
figures per round plus the tracing overhead. Either way the outputs are
checked against independent computations, a result file is written under
`perfbench/out/`, and the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = "1"
SETUP_REPEATS = 7
SELF_TIME_TOLERANCE = 0.05
# a gauge reading takes about 0.25 s; short rounds share one
GAUGE_EVERY_S = 2.0
WORKLOAD_NAMES = ("train-adjacency", "train-sequence", "symmetry-enumerate", "evaluate")
UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "round_s": "s", "nats": "nats",
    "data.generate_s": "s/setup", "training.epoch_s": "s/epoch", "trace.self_share": "share",
}


def unit_of(name: str) -> str:
    """Units of the result line; per-module figures are per traced round."""
    if name in UNITS:
        return UNITS[name]
    return "s/round" if name.endswith("_s") else "count/round"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True, help="root seed of every input")
    parser.add_argument("--seconds", type=float, default=22.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the per-module run")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def measure(workload, seconds=None, rounds=None, min_rounds=1, on_round=None, gauge=None) -> list:
    """Whole rounds from round 0: until `seconds` have passed and at least
    `min_rounds` are done, or exactly `rounds` of them. A round whose program
    call raises counts as failed. With a host `gauge`, it is read before the
    first round, after the first round that ends `GAUGE_EVERY_S` after the
    last reading, and at the end; each round gets the scale of the readings
    on either side of it."""
    from graphorder.errors import GraphOrderError
    from workloads import Round

    done = []
    unscaled = []
    start = time.perf_counter()
    before = gauge.read() if gauge is not None else None
    read_at = time.perf_counter()
    while True:
        gc.collect()
        r = len(done)
        try:
            done.append(workload.run_round(r))
        except GraphOrderError as exc:
            print(f"round {r} failed: {exc}", file=sys.stderr)
            done.append(Round(0.0, 1, 0.0, 0.0, failed=1))
        unscaled.append(done[-1])
        if on_round is not None:
            on_round()
        now = time.perf_counter()
        finished = len(done) >= rounds if rounds is not None else len(done) >= min_rounds and now - start >= seconds
        if gauge is not None and (finished or now - read_at >= GAUGE_EVERY_S):
            after = gauge.read()
            for rnd in unscaled:
                rnd.scale = gauge.scale(before, after)
            unscaled, before, read_at = [], after, time.perf_counter()
        if finished:
            return done


def timed_setups(args) -> list[float]:
    """Set-up time in fresh interpreters, several times over: importing the
    program (numpy is already loaded) and building this workload's inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    return [
        float(subprocess.run(command, check=True, timeout=120, capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPEATS)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_run(workloads, tracing, args) -> tuple[list, dict, list[str], list]:
    """Traced rounds for half the time, then the same rounds untraced."""
    setup_rec = tracing.Recorder()
    with tracing.instrument(setup_rec), setup_rec.span("bench.setup"):
        workloads.WORKLOADS[args.workload]().setup(args.seed)

    workload = workloads.WORKLOADS[args.workload]()
    workload.setup(args.seed)
    rec = tracing.Recorder()
    tick = time.perf_counter()
    with tracing.instrument(rec), rec.span("bench.pass"):
        traced = measure(workload, seconds=args.seconds / 2, on_round=rec.end_round)
    traced_wall = time.perf_counter() - tick

    plain = workloads.WORKLOADS[args.workload]()
    plain.setup(args.seed)
    tick = time.perf_counter()
    untraced = measure(plain, rounds=len(traced))
    untraced_wall = time.perf_counter() - tick

    k = len(traced)
    metrics = tracing.per_layer(rec, k)
    epochs = k * workload.epochs_per_round
    metrics["training.epoch_s"] = rec.total_s["training.train_loop"] / epochs if epochs else 0.0
    metrics["data.generate_s"] = setup_rec.total_s["data.generate"]
    self_sum = sum(rec.self_s.values())
    metrics["trace.traced_s"] = traced_wall / k
    metrics["trace.untraced_s"] = untraced_wall / k
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall) / k
    metrics["trace.self_share"] = self_sum / traced_wall

    failures = []
    if abs(self_sum - traced_wall) > SELF_TIME_TOLERANCE * traced_wall:
        failures.append(f"module self times sum to {self_sum:.3f} s of {traced_wall:.3f} s traced")
    if any(a.outputs["fingerprint"] != b.outputs["fingerprint"] for a, b in zip(traced, untraced)):
        failures.append("traced rounds produced different outputs from untraced ones")
    failures += plain.check(untraced)
    return traced + untraced, metrics, failures, rec.spans


def run_all(args) -> int:
    """Each workload in its own interpreter, so caches and memory stay apart."""
    codes = [
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        for name in WORKLOAD_NAMES
    ]
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    # Other tenants slow one processor of this host at a time, so the run,
    # its set-up interpreters and the host gauge all stay on one: the gauge
    # then reads the slowdown the rounds suffer, not another processor's.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SOURCE / "graphorder" / "__init__.py").is_file():
        print(f"program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import numpy as np

    if args.setup_only:
        tick = time.perf_counter()
        import workloads

        workloads.WORKLOADS[args.workload]().setup(args.seed)
        print(time.perf_counter() - tick)
        return 0

    import hostspeed
    import tracing
    import workloads

    setups = []
    spans = []
    gauge_s = []
    if args.trace:
        rounds, metrics, failures, spans = traced_run(workloads, tracing, args)
        named = {name: (value, unit_of(name)) for name, value in metrics.items()}
    else:
        with hostspeed.Gauge() as gauge:
            setups = timed_setups(args)
            workload = workloads.WORKLOADS[args.workload]()
            workload.setup(args.seed)
            rounds = measure(workload, seconds=args.seconds, min_rounds=workloads.ROTATION, gauge=gauge)
            gauge_s = gauge.readings
        rss = peak_rss_mb()
        failures = workload.check(rounds)
        ok_rounds = [r for r in rounds if not r.failed]
        e2e, named = workload.summary(ok_rounds) if ok_rounds else ({}, {})
        # set-up samples are too short to bracket with readings of their own;
        # the median reading of the run scales them
        setup_scale = hostspeed.REFERENCE_S / statistics.median(gauge_s)
        metrics = {"setup_s": statistics.median(setups) * setup_scale, "peak_rss_mb": rss, **e2e}
        named["wall_setup_s"] = (statistics.median(setups), "s")
        named["host_gauge_s"] = (statistics.median(gauge_s), f"s, reference {hostspeed.REFERENCE_S} s")

    result = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "round_s": [r.seconds for r in rounds], "round_scale": [r.scale for r in rounds],
        "setup_samples_s": setups, "gauge_s": gauge_s,
        "blas_threads": BLAS_THREADS, "python": sys.version.split()[0], "numpy": np.__version__,
        "cpus": os.cpu_count(), "pinned_to": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "failures": failures, "named": named,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps({"result": result, "context": context}, indent=1) + "\n")
    if spans:
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    for name, (value, unit) in named.items():
        print(f"{name} = {value:.6g} {unit}".rstrip())
    print(f"rounds {len(rounds)}, BLAS threads {BLAS_THREADS}, setup samples {[round(s, 4) for s in setups]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

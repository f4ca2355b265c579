"""Benchmark of the proxymanip pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/proxymanip``. The run sets
up its workload, then runs whole rounds of every stage until ``--seconds``
have passed, and prints one JSON object as its last line: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
result (and, traced, every span) is also written under ``perfbench/out``.
"""

import os

# one BLAS thread: with a pool, idle OpenBLAS workers spin on the second core
# and double the CPU time of the small matrix products
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print the set-up seconds and stop: a cold set-up sample
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxymanip" / "__init__.py").is_file():
        print(f"perfbench: no proxymanip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    checker = checks.Checker()
    work = OUT / f"work-{os.getpid()}"
    patches = tracing.Patches(checker)
    patches.install(None)
    try:
        session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed,
                                    work, checker)
        session.setup()
        # cold set-ups: this process's own, then fresh processes of the same
        # command, each timed from its top to the end of its set-up
        setups = [time.perf_counter() - T_START]
        if args.setup_only:
            print(json.dumps(setups[0]))
            return 0
        setups += [cold_setup_s(args) for _ in range(workloads.SETUP_REPEATS - 1)]

        tracer = tracing.Tracer(checker) if args.trace else None
        traced_s, untraced_s = [], []
        index = 0
        t_end = time.perf_counter() + args.seconds
        while index == 0 or time.perf_counter() < t_end:
            if tracer is None:
                session.run_round(index)
            else:
                # the same round traced and untraced, alternating which first
                for traced in ((True, False) if index % 2 == 0 else (False, True)):
                    patches.install(tracer if traced else None)
                    seconds = session.run_round(index)
                    (traced_s if traced else untraced_s).append(seconds)
            index += 1
    finally:
        patches.restore()
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"}}
        for name, per_round in sorted(session.rates.items()):
            metrics[name] = {"value": slow_quarter(per_round), "unit": "1/s"}
    else:
        metrics = tracing.layer_metrics(tracer, len(traced_s))
        metrics["trace.overhead_pct"] = {
            "value": tracing.overhead_pct(traced_s, untraced_s), "unit": "%"}
    missing = sorted(declared_metrics(args.trace) - set(metrics))
    if missing:
        checker.errors.append(f"no value for the declared metrics {missing}")
    result = {"correct": not checker.errors,
              "attempted": session.attempted,
              "failed": min(session.failed, session.attempted),
              "metrics": metrics}
    for err in checker.errors[:20]:
        print(f"perfbench: check failed: {err}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {"setup_s": setups, "rounds": index, "per_round": session.rates,
               "traced_s": traced_s, "untraced_s": untraced_s}
    (OUT / f"{stem}.json").write_text(
        json.dumps({**result, "samples": samples}, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl.gz")
    print(json.dumps(result))
    return 0


def cold_setup_s(args) -> float:
    """Set-up seconds of a fresh process running this workload's set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def declared_metrics(trace: int) -> set[str]:
    """Names of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def slow_quarter(rates: list[float]) -> float:
    """Mean of the slowest quarter of the per-round rates.

    The shared host switches between slow and fast phases lasting seconds,
    and a run's share of fast time varies from run to run, so a run's median
    lands on either phase. Nearly every run spends a quarter of its rounds in
    the slow phase, so this reads the same phase run after run.
    """
    k = max(1, len(rates) // 4)
    return statistics.fmean(sorted(rates)[:k])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())

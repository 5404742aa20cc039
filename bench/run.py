"""tentspec benchmark: end-to-end times per command and per-layer times.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds `src/tentspec`; nothing is
installed.  Each pass of the workload runs in a fresh interpreter
(bench/workload.py), one process at a time, so every pass starts as a user's
`tentspec` command does.  Passes repeat until S seconds have gone (at least
one), and each metric is the median over every sample of every pass.

--trace 0 reports every end-to-end metric of BENCHMARK.json, its times
normalized to a nominal machine speed by bench/speed.py; set-up time is the
median of SETUP_SAMPLES fresh `import tentspec`.  --trace 1 alternates
untraced and traced passes and reports every per-layer metric; layers a
workload does not reach read 0.  The last line of stdout is the result; the
line before it is the run's context, which is also written with the raw
per-pass numbers to .bench_build/tentspec-bench/runs/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "tentspec-bench"

SETUP_SAMPLES = 11
TIME_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Prints when `import tentspec` is done, then the reference-loop time of
# bench/speed.py measured right after it, which normalizes that sample.
IMPORT_PROBE = (
    "import tentspec, time; done = time.perf_counter(); "
    "import sys; sys.path.insert(0, sys.argv[1]); import speed; "
    "print(repr(done), repr(speed.reference_median()))"
)


class BenchError(RuntimeError):
    """The benchmark could not run the program at all."""


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def setup_samples(env: dict, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to `import tentspec` done.

    The child prints time.perf_counter() once the import returns; on Linux
    that clock is system-wide, so it compares with the parent's start time.
    The first, untimed import writes the bytecode cache a user has after
    one run.  Returns the samples normalized to the nominal machine speed
    (bench/speed.py) and as read.
    """
    samples, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
        if proc.returncode != 0:
            raise BenchError(f"import tentspec failed:\n{proc.stderr[-2000:]}")
        if i:
            done, ref_loop = map(float, proc.stdout.split()[-2:])
            raw.append(done - t0)
            samples.append(raw[-1] * speed.REF_LOOP_S / ref_loop)
    return samples, raw


def run_pass(workload: str, seed: int, flags: list[str], env: dict, deadline: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "workload.py"),
        "--workload", workload, "--seed", str(seed), "--out", str(OUT), *flags,
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise BenchError(f"workload pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not Path(result["tentspec_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported tentspec from {result['tentspec_file']}, not from {SRC}")
    return result


def median_of(passes: list[dict], metric: str, key: str = "seconds") -> float:
    """Median of a time metric over every sample of every pass."""
    return statistics.median(x for p in passes for x in p[key][metric])


def measure(args, spec: dict, env: dict, nproc: int) -> tuple[dict, dict, list[dict]]:
    """Run the passes; returns (result line, context, raw per-pass records)."""
    start = time.perf_counter()
    deadline = start + TIME_LIMIT_S
    context = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "reference_loop_s_before": speed.reference_median(100),
    }
    setup, setup_raw = ([], []) if args.trace else setup_samples(env, deadline)
    plain, traced = [], []
    stop_at = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        # Untraced passes of a traced run go without the speed probe, so
        # trace.overhead_s compares two unprobed passes.
        plain_flags = [] if args.trace else ["--speed-probe"]
        plain.append(run_pass(args.workload, args.seed, plain_flags, env, deadline))
        if args.trace:
            traced.append(run_pass(args.workload, args.seed, ["--trace"], env, deadline))
        now = time.perf_counter()
        if now >= stop_at or now + 1.5 * (now - t0) > deadline:
            break
    context["reference_loop_s_after"] = speed.reference_median(100)
    context["passes"] = len(plain) + len(traced)
    context.update(plain[0]["versions"])

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    for line in failures[:10]:
        print(f"check failed: {line}", file=sys.stderr)
    correct = not failures
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = median_of(traced, "wall_s", "raw_seconds") - median_of(
                    plain, "wall_s", "raw_seconds"
                )
            else:
                values = [p["layers"][name] for p in traced]
                if name.endswith(".calls") and len(set(values)) > 1:
                    print(f"trace: {name} differs between passes: {values}", file=sys.stderr)
                    correct = False
                value = values[0] if len(set(values)) == 1 else statistics.median(values)
            metrics[name] = {"value": value, "unit": m["unit"]}
        if min(p["layers"]["trace.min_span_self_s"] for p in traced) < -1e-9:
            print("trace: a span's children outlast it", file=sys.stderr)
            correct = False
    else:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                value = statistics.median(setup)
            elif name == "peak_rss_mb":
                value = statistics.median(p["peak_rss_mb"] for p in plain)
            else:
                value = median_of(plain, name)
            metrics[name] = {"value": value, "unit": m["unit"]}
        context["setup_samples_s"] = setup
        context["setup_raw_samples_s"] = setup_raw
        context["raw_medians_s"] = {
            name: median_of(plain, name, "raw_seconds") for name in plain[0]["raw_seconds"]
        }
    result = {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, context, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads}")
    if not (SRC / "tentspec" / "__init__.py").is_file():
        print(f"error: no tentspec source under {SRC}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(nproc) for var in BLAS_THREAD_VARS})
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    # One benchmark process at a time on this checkout.
    with open(OUT / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        try:
            result, context, passes = measure(args, spec, env, nproc)
        except (BenchError, subprocess.TimeoutExpired, KeyError) as err:
            print(f"error: {err!r}", file=sys.stderr)
            return 1
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"context": context, "result": result, "passes": passes}))
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

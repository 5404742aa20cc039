"""One pass of one benchmark workload, run in a fresh interpreter.

    python3 bench/workload.py --workload NAME --seed N --out DIR [--trace] [--speed-probe]

Needs `src` on PYTHONPATH (bench/run.py sets it).  Every operation calls a
public entry point of tentspec: `cli.main([...])` in-process for the CLI
commands and the `transfer` functions for the library experiments.  Each
output is checked against the paper's contracts; a failed check or a raised
exception counts as a failed operation.  Prints one JSON line: every
sample of each time metric in seconds as read (`raw_seconds`) and, with
--speed-probe, normalized to the nominal machine speed of bench/speed.py
(`seconds`); peak RSS; attempted/failed counts and, with --trace, the
per-layer numbers of bench/trace_layers.py.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tentspec
from speed import SpeedProbe
from tentspec import cli, markov, plmap, poly, spectral, transfer

# The subject operations of each workload, at the sizes of the paper's
# experiments.  Each envelope edge is just out of reach: verify stops at 22
# (float partitions fail from n = 26), sweep at 52 (its mixing ratio is
# wrong from 53, solve_r fails from 54) and roots at 120 (residual 2.0 from
# n = 136).
SUBJECTS = {
    "identities": {"verify": 22, "detect": 12},
    "spectra": {"sweep": (6, 52), "roots": 120},
    "transport": {"simulate": (12, 20000), "mixing": ((3, 6, 10, 14), 2000), "ulam": (5, 1600)},
}

# Every other operation with a metric runs at this small size in a probe
# round before, between and after the subject operations, so every
# end-to-end metric is measured on every workload, a change that trades
# small n for large n shows, and each probe is sampled several times across
# the pass rather than once.
PROBE = {
    "verify": 8,
    "sweep": (6, 12),
    "roots": 30,
    "simulate": (6, 4000),
    "mixing": ((3, 6), 4000),
    "ulam": (5, 600),
}

VERIFY_CHECKS_PER_N = 13
RESIDUAL_LIMIT = 1e-9
MASS_TOL = 1e-10
ULAM_TOL = 1e-12


class Pass:
    """Timed intervals, checks and output sizes of one pass."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        # metric -> one list of (start, end) wall intervals per operation run
        self.samples: dict[str, list[list[tuple[float, float]]]] = {}
        self.intervals: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.bytes_written = 0

    def timed(self, fn, *args):
        """Call fn, adding its interval (and not the checks') to the operation's sample."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.intervals.append((t0, time.perf_counter()))

    def check(self, label: str, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def path(self, name: str) -> str:
        return str(self.out_dir / name)

    def cli(self, argv: list[str], outputs: tuple[str, ...] = ()):
        """Run `tentspec ARGV` in-process; returns (exit code, stdout text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.timed(cli.main, argv)
            except SystemExit as exit_:  # argparse rejects a usage error this way
                code = exit_.code
        text = buf.getvalue()
        self.bytes_written += len(text.encode()) + sum(Path(p).stat().st_size for p in outputs)
        return code, text

    def run(self, name: str, size, ref: dict):
        """One operation: one sample of `<name>_s`, one or more checks."""
        self.intervals = []
        try:
            OPERATIONS[name](self, ref, size)
        except Exception:
            self.check(f"{name} {size}", False, traceback.format_exc(limit=3))
        self.samples.setdefault(f"{name}_s", []).append(self.intervals)

    def seconds(self, span) -> dict:
        """Each metric's samples in seconds; `span(a, b)` times one interval."""
        return {
            name: [sum(span(a, b) for a, b in sample) for sample in samples]
            for name, samples in self.samples.items()
        }


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# operations: each runs the program, then checks what it returned
# ---------------------------------------------------------------------------


def op_verify(p: Pass, ref: dict, n_max: int):
    code, text = p.cli(["verify", "--n-max", str(n_max)])
    lines = text.splitlines()
    passed = Counter(line.split()[0] for line in lines[:-1] if line.split()[-1:] == ["PASS"])
    expected = {f"n={n}": VERIFY_CHECKS_PER_N for n in range(1, n_max + 1)}
    ok = (
        code == 0
        and len(lines) == VERIFY_CHECKS_PER_N * n_max + 1
        and dict(passed) == expected
        and lines[-1] == "ALL CHECKS PASS"
    )
    p.check(f"verify --n-max {n_max}", ok, f"exit {code}, last line {lines[-1:]}")


def op_detect(p: Pass, ref: dict, n_max: int):
    """Criterion 10: detected and closed-form partitions and matrices agree."""
    for n in range(1, n_max + 1):
        for kind, maker in (("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)):
            label = f"detect n={n} {kind}"

            def round_trip():
                kappa = poly.solve_kappa(n).kappa
                pmap = maker(kappa)
                detected, trace = markov.detect_markov_partition(pmap)
                closed = markov.analytic_partition(n, kind, kappa)
                return (
                    trace,
                    detected,
                    closed,
                    markov.adjacency_matrix(pmap, detected),
                    markov.adjacency_matrix(pmap, closed),
                )

            trace, detected, closed, a_det, a_closed = p.timed(round_trip)
            same_size = detected.size == closed.size
            gap = (
                max(abs(a - b) for a, b in zip(detected.breakpoints, closed.breakpoints))
                if same_size
                else math.inf
            )
            ok = trace.stabilized_at is not None and gap < 1e-9 and a_det == a_closed
            p.check(label, ok, f"sizes {detected.size}/{closed.size}, gap {gap}")


def op_sweep(p: Pass, ref: dict, span: tuple[int, int]):
    lo, hi = span
    out = p.path("sweep.csv")
    code, _ = p.cli(["sweep", "--from", str(lo), "--to", str(hi), "--csv", out], (out,))
    rows = read_csv(out) if code == 0 else []
    bad = []
    for row in rows:
        n = int(row["n"])
        r_lo = math.ldexp(1.0, -n)
        r_hi = r_lo + 2 * n * math.ldexp(1.0, -2 * n)
        if not (row["r_n"] and r_lo < float(row["r_n"]) < r_hi):
            bad.append(f"r_{n}={row['r_n']!r}")
        if n >= 15 and not 0.95 < float(row["mixing_ratio_pow2"]) < 1.05:
            bad.append(f"mixing ratio at n={n}: {row['mixing_ratio_pow2']}")
    ok = code == 0 and [int(r["n"]) for r in rows] == list(range(lo, hi + 1)) and not bad
    p.check(f"sweep {lo}..{hi}", ok, f"exit {code}, {len(rows)} rows, {bad[:3]}")


def op_roots(p: Pass, ref: dict, n: int):
    svg, table = p.path("roots.svg"), p.path("roots.csv")
    code, _ = p.cli(["roots", "--n", str(n), "--svg", svg, "--csv", table], (svg, table))
    rows = read_csv(table) if code == 0 else []
    inner, outer = 1.0 - 1.0 / n, 1.0 + 1.0 / n
    counts = {}
    for family in ("f", "g"):
        moduli = [math.hypot(float(r["re"]), float(r["im"])) for r in rows if r["family"] == family]
        counts[family] = (
            sum(m < inner for m in moduli),
            sum(inner <= m <= outer for m in moduli),
            sum(m > outer for m in moduli),
        )
    worst = max((float(r["residual"]) for r in rows), default=math.inf)
    ok = code == 0 and worst < RESIDUAL_LIMIT and all(c == (0, n, 1) for c in counts.values())
    p.check(f"roots n={n}", ok, f"exit {code}, max residual {worst}, counts {counts}")


def op_simulate(p: Pass, ref: dict, spec: tuple[int, int]):
    n, steps = spec
    out = p.path("simulate.csv")
    argv = ["simulate", "--n", str(n), "--steps", str(steps), "--csv", out]
    code, _ = p.cli(argv, (out,))
    lengths = ref["simulate_lengths"]
    drift = math.inf
    rows = 0
    if code == 0:
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            drift = 0.0
            for row in reader:
                mass = math.fsum(w * float(c) for w, c in zip(lengths, row[1:-1]))
                drift = max(drift, abs(mass - 1.0))
                rows += 1
    ok = code == 0 and rows == steps + 1 and drift <= MASS_TOL
    p.check(f"simulate n={n} steps={steps}", ok, f"exit {code}, {rows} rows, mass drift {drift}")


def op_mixing(p: Pass, ref: dict, spec: tuple[tuple[int, ...], int]):
    """Criterion 11 at larger n: decay rates from density evolution."""
    ns, steps = spec
    for n in ns:
        for kind, cut in (("full", 0.0), ("folded", 0.5)):
            weights = ref["mixing_weights"][(n, kind)]

            def experiment():
                op = transfer.markov_operator(n, kind)
                target = transfer.invariant_density(n, kind)
                coeffs = [
                    w if hi <= cut else 0.0 for w, (_, hi) in zip(weights, op.partition.intervals())
                ]
                f0 = transfer.DensityVector(op.partition, coeffs)
                f0 = transfer.DensityVector(op.partition, f0.coefficients / f0.integral())
                trajectory = transfer.evolve_density(op, f0, steps)
                rate = transfer.fit_decay_rate([f.l1_distance(target) for f in trajectory])
                return trajectory, rate

            trajectory, rate = p.timed(experiment)
            drift = max(abs(f.integral() - 1.0) for f in trajectory)
            if n >= 6:
                rate_ok = rate >= 0.90 if kind == "full" else rate <= 0.62
            elif kind == "full":
                lam2 = ref["lambda2"][n]
                rate_ok = abs(rate - lam2) / lam2 < 0.05
            else:
                rate_ok = True  # criterion 11 bounds no folded rate below n = 6
            ok = len(trajectory) == steps + 1 and drift <= MASS_TOL and rate_ok
            p.check(f"mixing n={n} {kind}", ok, f"rate {rate}, mass drift {drift}")


def op_ulam(p: Pass, ref: dict, spec: tuple[int, int]):
    n, cells = spec
    pmap, part, grid = ref["ulam_map"], ref["ulam_partition"], ref["ulam_grid"]
    U = p.timed(transfer.ulam_matrix, pmap, grid)
    row_err = float(abs(U.sum(axis=1) - 1.0).max())
    p.check(f"ulam n={n} {cells} cells", U.shape == (cells, cells) and row_err <= ULAM_TOL,
            f"shape {U.shape}, row-sum error {row_err}")

    V = p.timed(transfer.ulam_matrix, pmap, part)
    A, lengths, scale = ref["ulam_adjacency"], ref["ulam_lengths"], ref["ulam_scale"]
    m = len(lengths)
    # On the Markov partition, U[j, i] = A[i, j] |R_i| / ((2 + 2 kappa) |R_j|).
    formula_err = max(
        abs(float(V[j, i]) - A[i, j] * lengths[i] / (scale * lengths[j]))
        for i in range(m)
        for j in range(m)
    )
    row_err = float(abs(V.sum(axis=1) - 1.0).max())
    p.check(f"ulam n={n} Markov partition", formula_err <= ULAM_TOL and row_err <= ULAM_TOL,
            f"formula error {formula_err}, row-sum error {row_err}")


OPERATIONS = {
    "verify": op_verify,
    "detect": op_detect,
    "sweep": op_sweep,
    "roots": op_roots,
    "simulate": op_simulate,
    "mixing": op_mixing,
    "ulam": op_ulam,
}


def reference_data(sizes: dict, seed: int) -> dict:
    """Seeded inputs and check references, built before the timed pass.

    The seed perturbs the mixing start densities and jitters the Ulam grid;
    the other inputs are the paper's parameter sequence.
    """
    rng = random.Random(seed)
    ref: dict = {}
    n = sizes["simulate"][0]
    kappa = poly.solve_kappa(n).kappa
    part = markov.analytic_partition(n, "full", kappa)
    ref["simulate_lengths"] = [b - a for a, b in part.intervals()]

    ns, _ = sizes["mixing"]
    ref["mixing_weights"] = {}
    for n in ns:
        kappa = poly.solve_kappa(n).kappa
        for kind in ("full", "folded"):
            size = markov.analytic_partition(n, kind, kappa).size
            ref["mixing_weights"][(n, kind)] = [1.0 + 0.5 * rng.random() for _ in range(size)]
    ref["lambda2"] = {n: spectral.spectral_report(n).second_modulus_M for n in ns if n < 6}

    n, cells = sizes["ulam"]
    kappa = poly.solve_kappa(n).kappa
    pmap = plmap.make_paired_tent(kappa)
    part = markov.analytic_partition(n, "full", kappa)
    lo, hi = pmap.ambient.lo, pmap.ambient.hi
    h = (hi - lo) / cells
    grid = [lo] + [lo + h * (i + 0.3 * (2.0 * rng.random() - 1.0)) for i in range(1, cells)] + [hi]
    ref.update(
        ulam_map=pmap,
        ulam_partition=part,
        ulam_grid=grid,
        ulam_adjacency=markov.adjacency_matrix(pmap, part),
        ulam_lengths=[b - a for a, b in part.intervals()],
        ulam_scale=2.0 + 2.0 * kappa,
    )
    return ref


def run_pass(workload: str, seed: int, out_dir: Path, tracer=None, speed=None) -> dict:
    """One pass; with a SpeedProbe as `speed`, times are also reported normalized."""
    subject = SUBJECTS[workload]
    probes = {name: size for name, size in PROBE.items() if name not in subject}
    ref = reference_data({**probes, **subject}, seed)
    p = Pass(out_dir)
    with tracer or contextlib.nullcontext(), speed or contextlib.nullcontext():
        t0 = time.perf_counter()
        for name, size in subject.items():
            for probe_op, probe_size in probes.items():
                p.run(probe_op, probe_size, ref)
            p.run(name, size, ref)
        for probe_op, probe_size in probes.items():
            p.run(probe_op, probe_size, ref)
        t1 = time.perf_counter()
    result = {
        "raw_seconds": {"wall_s": [t1 - t0], **p.seconds(lambda a, b: b - a)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": p.attempted,
        "failures": p.failures,
        "bytes_written": p.bytes_written,
    }
    if speed is not None:
        result["seconds"] = {"wall_s": [speed.normalized(t0, t1)], **p.seconds(speed.normalized)}
        result["speed_samples"] = len(speed.starts)
        result["speed_probe_s"] = speed.probe_seconds()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SUBJECTS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--speed-probe", action="store_true")
    args = parser.parse_args(argv)
    tracer = speed = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer()
    if args.speed_probe:
        speed = SpeedProbe()
    result = run_pass(args.workload, args.seed, args.out, tracer, speed)
    result["tentspec_file"] = tentspec.__file__
    mpmath = sys.modules["mpmath"]
    result["versions"] = {
        "numpy": sys.modules["numpy"].__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    if tracer is not None:
        result["layers"] = tracer.summary(result["bytes_written"])
        tracer.write_spans(args.out / f"spans-{args.workload}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

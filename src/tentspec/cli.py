"""Command-line surface: per-n reports, identity verification, sweeps, and figures.

Exit codes: 0 success, 1 verification failure, 2 usage error or an output
file that cannot be written (an OSError), 3 numerical or range failure in the
library or running out of memory (MemoryError).  An OSError, a library
failure or a MemoryError prints one stderr line,
`tentspec: <Type>: <message>`, and a command that fails creates no output
file and leaves an existing one as it was.  JSON outputs carry a top-level
"schema": "tentspec/1"; reals serialize losslessly (repr round-trip for JSON
numbers, 17 significant digits for breakpoint strings).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import sys

from . import exact, markov, poly

SCHEMA = "tentspec/1"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from err
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@contextlib.contextmanager
def _output(path: str, mode: str, **kwargs):
    """A new file next to path, opened with mode ("w" or "wb") for the
    block, that replaces path only when the block succeeds: if the block
    raises, it is removed and a file already at path keeps its bytes.  A
    replaced file's permission bits carry over.  A path that exists but is
    not a regular file (a device such as /dev/null, or a directory) is
    opened as it is."""
    target = os.path.realpath(path)
    replaced = os.path.isfile(target)
    if not replaced and os.path.exists(target):
        with open(path, mode, **kwargs) as fh:
            yield fh
        return
    # os.urandom, not secrets, whose hashlib import costs about 4 MB of RSS
    tmp = f"{target}.{os.urandom(4).hex()}.tmp"
    try:
        fh = open(tmp, mode.replace("w", "x"), **kwargs)
    except OSError as err:  # name the path asked for, not the temporary one
        raise type(err)(err.errno, err.strerror, path) from None
    try:
        with fh:
            if replaced:
                os.chmod(fh.fileno(), os.stat(target).st_mode & 0o7777)
            yield fh
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _emit(payload: dict):
    payload = {"schema": SCHEMA, **payload}
    print(json.dumps(payload, indent=2))


def _cmd_kappa(args) -> int:
    _emit(dataclasses.asdict(poly.solve_kappa(args.n)))
    return 0


def _cmd_partition(args) -> int:
    kind = "folded" if args.folded else "full"
    part = markov.analytic_partition(args.n, kind, poly.solve_kappa(args.n).kappa)
    _emit({"n": args.n, "kind": kind, **part.to_dict()})
    return 0


def _cmd_adjacency(args) -> int:
    """The bytes `_emit` would write for the dense rows, written a row at a
    time from the stored columns, so the m x m entries are never held."""
    kind = "folded" if args.folded else "full"
    A = markov.tent_matrix(args.n, kind)
    head = {"schema": SCHEMA, "n": args.n, "kind": kind, "size": A.rows, "rows": []}
    nonzeros = [[] for _ in range(A.rows)]
    for j, column in enumerate(A.columns):
        for i, a in column:
            nonzeros[i].append((j, str(a)))
    write, zeros = sys.stdout.write, ["0"] * A.cols
    write(json.dumps(head, indent=2)[: -len("]\n}")])
    for i, row in enumerate(nonzeros):
        fields = zeros.copy()
        for j, a in row:
            fields[j] = a
        write(("," if i else "") + "\n    [\n      " + ",\n      ".join(fields) + "\n    ]")
    write("\n  ]\n}\n")
    return 0


def _cmd_spectrum(args) -> int:
    from . import spectral

    _emit(dataclasses.asdict(spectral.spectral_report(args.n)))
    return 0


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------


def _unit(size: int, i: int) -> list[int]:
    v = [0] * size
    v[i] = 1
    return v


def _paper_kernel_vectors_full(n: int):
    size = 2 * n + 4
    v1 = [0] * size
    for i in range(n):
        v1[i] = 1
    v1[n] = -1
    v1[n + 1] = -1
    jv1 = v1[::-1]
    return [tuple(v1), tuple(jv1)]


def _kernel_vectors_folded(n: int):
    size = n + 3
    if n == 1:
        # the n=1 partition shifts the split one piece outward
        a = [x - y for x, y in zip(_unit(size, 1), _unit(size, 2))]
        b = [x - y for x, y in zip(_unit(size, 0), _unit(size, 3))]
        return [tuple(a), tuple(b)]
    a = [x - y for x, y in zip(_unit(size, 2), _unit(size, 3))]
    b = _unit(size, 0)
    b[1] = 1
    for i in range(4, size):
        b[i] = -1
    return [tuple(a), tuple(b)]


def _spans_kernel(M: exact.ExactMatrix, vectors) -> bool:
    """M kills every vector and they are independent by `exact.triangular`."""
    return not any(any(M.apply(v)) for v in vectors) and exact.triangular(vectors)


def verification_checks(n: int) -> list[tuple[str, bool]]:
    """All exact identity checks for one n; returns (name, passed) pairs.

    Every check is proved from Krylov chains of sparse products, with no
    dense matrix and no elimination.  True means certified.  False means
    "not certified": a premise of the argument below failed, which need not
    make the identity false.  Indices are 0-based, m = 2n+4, J is the index
    map i -> m-1-i (J e_i = e_{m-1-i}), f = x^n(x-2) - 2 and
    g = x^n(x-2) + 2.  C is `symmetric_restriction(A, n)`, or None when A
    does not commute with J; the checks that need C then fail instead of
    raising.

    * commute: C exists exactly when A[i][j] = A[m-1-i][m-1-j] for every
      stored entry, which is AJ = JA.  Then A maps the flip-symmetric part
      Sym and the antisymmetric part Anti of Q^m, each of dimension n+2, into
      themselves, and every check on A below takes commute as a premise.
    * involution, flip-conjugation and minpoly-J: the index map composed
      with itself is the identity, so J^2 = I.  With J^2 = I, JAJ = A says
      the same as AJ = JA, which is commute.  J e_0 = e_{m-1} is not +-e_0,
      so J is not +-I and its minimal polynomial is x^2 - 1.
    * The chains of A: with i = max(n-1, 1), v_s = e_i + e_{m-1-i} lies in
      Sym and v_a = e_i - e_{m-1-i} in Anti.  `exact.is_local_min_poly`
      certifies that the n+2 iterates A^k v_s are independent, so they span
      Sym, and that A^{n+2} v_s - 2A^{n+1} v_s - 2A v_s = 0; then x f is the
      minimal polynomial of A on Sym.  Likewise A^{n+2} v_a - 2A^{n+1} v_a +
      2A v_a = 0 makes x g that of A on Anti.  Independence is a new support
      index at every iterate (`exact.triangular`), which holds for both
      chains at every n tested, up to 460.
    * pair-identity: L = A^{n+2} - 2A^{n+1} - 2AJ is (x f)(A) on Sym, where
      J = I, and (x g)(A) on Anti, where J = -I, so the two chains give L = 0.
    * minpoly-A: the minimal polynomial of A is lcm(x f, x g) = x f g,
      because f - g = -4 makes f and g coprime; x f g is `poly.min_poly(n)`.
      Both facts hold for every n and are tested, not recomputed here.
    * kernel-A: the images A^k v_s and A^k v_a, k = 1..n+1, of the two
      certified chains lie in Sym and Anti, so they are 2n+2 independent
      vectors of A's image, and the kernel of A has dimension at most 2 (no
      root multiplicity is needed).  The paper's two kernel vectors are
      killed by A and independent, so they span it.
    * minpoly-B and kernel-B: the n+2 iterates of B (size n+3) from
      w = e_2 (e_1 at n = 1) are independent and x f kills w, so x f is the
      minimal polynomial of B on the chain's span K, and B w, ...,
      B^{n+1} w bound B's kernel to dimension 2.  The two paper kernel
      vectors are killed by B and independent, so they span the kernel.  The
      kernel of B on K is at most a line, so one of them lies outside K;
      K and that vector span Q^{n+3}, and x f(B) kills both, so x f is the
      minimal polynomial of B.
    * minpoly-C and restricted-identity: C (size n+2) is A on Sym in the
      paired basis.  Its chain from w as for B spans Q^{n+2} and x f kills
      w, so x f is the minimal polynomial of C and
      C(C^{n+1} - 2C^n - 2I) = (x f)(C) = 0.
    * intertwine is the product iota C = B iota, and iota-rank holds because
      iota's n+2 columns are triangular.
    """
    A = markov.tent_matrix(n, "full")
    B = markov.tent_matrix(n, "folded")
    try:
        C = exact.symmetric_restriction(A, n)
    except exact.NonIntegralRestriction:
        C = None
    commute = C is not None
    size = 2 * n + 4
    flip = range(size)[::-1]
    involution = [flip[j] for j in flip] == list(range(size))
    x = exact.IntPolynomial((0, 1))
    xf = x * poly.f_poly(n)
    i = max(n - 1, 1)
    v_s, v_a = _unit(size, i), _unit(size, i)
    v_s[flip[i]], v_a[flip[i]] = 1, -1
    both_parts = (
        commute
        and exact.is_local_min_poly(A, v_s, xf)
        and exact.is_local_min_poly(A, v_a, x * poly.g_poly(n))
    )
    w = 1 if n == 1 else 2
    on_C = commute and exact.is_local_min_poly(C, _unit(n + 2, w), xf)
    on_B = exact.is_local_min_poly(B, _unit(n + 3, w), xf) and _spans_kernel(
        B, _kernel_vectors_folded(n)
    )
    iota = exact.inclusion_iota(n)
    return [
        ("pair-identity", both_parts),
        ("commute", commute),
        ("involution", involution),
        ("flip-conjugation", involution and commute),
        ("minpoly-A", both_parts),
        ("minpoly-J", involution and flip[0] != 0),
        ("minpoly-B", on_B),
        ("minpoly-C", on_C),
        ("kernel-A", both_parts and _spans_kernel(A, _paper_kernel_vectors_full(n))),
        ("kernel-B", on_B),
        ("intertwine", commute and exact.verify_intertwine(B, C, iota)),
        ("iota-rank", exact.triangular(map(iota.column, range(iota.cols)))),
        ("restricted-identity", on_C),
    ]


def _cmd_verify(args) -> int:
    failures = 0
    for n in range(1, args.n_max + 1):
        for name, passed in verification_checks(n):
            status = "PASS" if passed else "FAIL"
            if not passed:
                failures += 1
            print(f"n={n:<3d} {name:<22s} {status}")
    print(f"{'ALL CHECKS PASS' if failures == 0 else f'{failures} CHECK(S) FAILED'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# sweep / roots / simulate
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    from . import spectral

    if args.start > args.stop:
        print("empty range: --from must be <= --to", file=sys.stderr)
        return 2
    rows = []
    for n in range(args.start, args.stop + 1):
        rep = spectral.spectral_report(n)
        rows.append(
            {
                "n": rep.n,
                "kappa_n": repr(rep.kappa_n),
                "r_n": "" if rep.r_n is None else repr(rep.r_n),
                "lambda2": repr(rep.second_modulus_M),
                "mixing_time_full": repr(rep.mixing_time_full),
                "mixing_ratio_pow2": repr(rep.mixing_time_full / 2.0 ** (rep.n - 1)),
                "folded_bound": ""
                if rep.second_modulus_bound_factor is None
                else repr(rep.second_modulus_bound_factor),
                "mixing_time_folded_bound": ""
                if rep.mixing_time_folded_bound is None
                else repr(rep.mixing_time_folded_bound),
            }
        )
    with _output(args.csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def render_root_plot(roots_f, roots_g, n: int, fh):
    """Write a deterministic SVG of both root sets to the text file fh.

    Crosses mark roots of the f family, circles roots of the g family, an
    asterisk sits at the origin; the unit circle is solid, radius 2 dashed,
    and the radii 1 -+ 1/n dotted.
    """
    half = 3.0
    size = 600.0

    def sx(x: float) -> float:
        return (x + half) / (2 * half) * size

    def sy(y: float) -> float:
        return (half - y) / (2 * half) * size

    def scale(r: float) -> float:
        return r / (2 * half) * size

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size:.0f}" '
        f'height="{size:.0f}" viewBox="0 0 {size:.0f} {size:.0f}">',
        f'<rect width="{size:.0f}" height="{size:.0f}" fill="white"/>',
    ]
    circles = [
        (1.0, "none"),
        (2.0, "8 4"),
        (1.0 - 1.0 / n, "2 3"),
        (1.0 + 1.0 / n, "2 3"),
    ]
    for radius, dash in circles:
        dash_attr = "" if dash == "none" else f' stroke-dasharray="{dash}"'
        lines.append(
            f'<circle cx="{sx(0):.3f}" cy="{sy(0):.3f}" r="{scale(radius):.3f}" '
            f'fill="none" stroke="black" stroke-width="1"{dash_attr}/>'
        )
    star = 5.0
    cx, cy = sx(0.0), sy(0.0)
    lines.append(
        f'<path class="origin" stroke="black" stroke-width="1" d="'
        f"M {cx - star:.3f} {cy:.3f} L {cx + star:.3f} {cy:.3f} "
        f"M {cx:.3f} {cy - star:.3f} L {cx:.3f} {cy + star:.3f} "
        f'M {cx - 0.7 * star:.3f} {cy - 0.7 * star:.3f} L {cx + 0.7 * star:.3f} {cy + 0.7 * star:.3f} '
        f'M {cx - 0.7 * star:.3f} {cy + 0.7 * star:.3f} L {cx + 0.7 * star:.3f} {cy - 0.7 * star:.3f}"/>'
    )
    arm = 4.0
    for z in roots_f.as_complex():
        x, y = sx(z.real), sy(z.imag)
        lines.append(
            f'<path class="root-f" stroke="black" stroke-width="1.2" d="'
            f"M {x - arm:.3f} {y - arm:.3f} L {x + arm:.3f} {y + arm:.3f} "
            f'M {x - arm:.3f} {y + arm:.3f} L {x + arm:.3f} {y - arm:.3f}"/>'
        )
    for z in roots_g.as_complex():
        lines.append(
            f'<circle class="root-g" cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" '
            f'r="{arm:.3f}" fill="none" stroke="black" stroke-width="1.2"/>'
        )
    lines.append("</svg>")
    fh.write("\n".join(lines) + "\n")


def _cmd_roots(args) -> int:
    roots_f = poly.aberth_roots(poly.f_poly(args.n))
    roots_g = poly.aberth_roots(poly.g_poly(args.n))
    # every output path is opened before any is written, and a path that
    # cannot be opened removes the files opened before it, so a failure
    # leaves neither file and prints no success line
    with contextlib.ExitStack() as stack:
        table = None if args.csv is None else stack.enter_context(_output(args.csv, "w", newline=""))
        plot = stack.enter_context(_output(args.svg, "w"))
        render_root_plot(roots_f, roots_g, args.n, plot)
        if table is not None:
            writer = csv.writer(table)
            writer.writerow(["family", "re", "im", "residual"])
            for name, rs in (("f", roots_f), ("g", roots_g)):
                for re_, im_, resid in rs.to_csv_rows():
                    writer.writerow([name, re_, im_, resid])
    print(f"wrote root plot for n={args.n} to {args.svg}")
    if table is not None:
        print(f"wrote root table to {args.csv}")
    return 0


# CSV fields evolved and formatted per chunk: large enough that the
# per-call overhead is small, small enough that the formatter's temporaries
# (about 240 bytes a field) peak near 1 MB
_SIMULATE_FIELDS = 4096


def _cmd_simulate(args) -> int:
    from . import _reprs, transfer

    op = transfer.markov_operator(args.n, "full")
    target = transfer.invariant_density(args.n, "full")
    coeffs = [1.0 if hi <= 0.0 else 0.0 for _, hi in op.partition.intervals()]
    f = transfer.DensityVector(op.partition, coeffs)
    f = transfer.DensityVector(op.partition, f.coefficients / f.integral())
    columns = (f"c{i + 1}" for i in range(op.partition.size))
    k = args.steps

    # range errors (exit 3) come before the file exists, and an unwritable
    # path (exit 2) before any step; a failure after it is opened, such as a
    # target on another partition than the operator's (PartitionMismatch,
    # exit 3, before any step) or a MemoryError, leaves no new file and an
    # existing one as it was
    with _output(args.csv, "wb") as fh:
        f.l1_distance(target)  # raises PartitionMismatch before any step
        fh.write(",".join(["step", *columns, "L1_distance_to_invariant"]).encode() + b"\r\n")
        # steps start..start+rows are evolved from the previous chunk's last
        # row and steps start..start+rows-1 written, so memory stays at one
        # chunk however many steps there are
        rows = max(1, _SIMULATE_FIELDS // (op.partition.size + 2))
        start = 0
        while True:
            traj = transfer.evolve_density(op, f, min(rows, k - start))
            if traj.settled_at is not None or start + rows >= k:
                break
            # held until the next chunk's bytes replace it: freed at once,
            # glibc trims the heap top and faults the next chunk's
            # temporaries back in (35000 minor faults instead of 6200 at
            # n = 12 with 20000 steps)
            text = _reprs._csv_rows(
                start, traj.coefficients[:rows], traj.l1_distances(target)[:rows]
            )
            fh.write(text)
            f, start = traj[-1], start + rows
        # the last chunk, up to the settle row if the trajectory settled;
        # every later row repeats that row bit for bit, so it is written as
        # its step and the row's fields ",c1,...,L1\r\n"
        stop = len(traj) if traj.settled_at is None else traj.settled_at + 1
        text = _reprs._csv_rows(start, traj.coefficients[:stop], traj.l1_distances(target)[:stop])
        fh.write(text)
        tail = text[text.index(b",", text.rfind(b"\n", 0, -1) + 1) :]
        for first in range(start + stop, k + 1, rows):
            steps = range(first, min(first + rows, k + 1))
            fh.write(tail.join([b"%d" % step for step in steps]) + tail)
    print(f"wrote {k + 1} rows to {args.csv}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentspec",
        description="Paired tent maps: Markov partitions, exact identities, spectra, mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kappa", help="solve (2+2k)^n k = 1")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("partition", help="Markov partition breakpoints")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--folded", action="store_true")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("adjacency", help="0/1 adjacency matrix")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--folded", action="store_true")
    p.set_defaults(func=_cmd_adjacency)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--n-max", type=_positive_int, default=10)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="per-n spectral report")
    p.add_argument("--n", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sweep", help="CSV table over a range of n")
    p.add_argument("--from", dest="start", type=_positive_int, required=True)
    p.add_argument("--to", dest="stop", type=_positive_int, required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("roots", help="SVG scatter of both root families")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--csv", help="also write a (family, re, im, residual) table")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("simulate", help="density evolution trajectory CSV")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--steps", type=_positive_int, default=200)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=_cmd_simulate)

    return parser


# main's parser, built at its first call by the build_parser bound then
_parser = functools.cache(lambda: build_parser())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ValueError,  # includes MarkovViolation, DegenerateCell and PartitionMismatch
        poly.NoConvergence,
        MemoryError,
    ) as err:
        print(f"tentspec: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # an output path that cannot be opened for writing
        print(f"tentspec: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

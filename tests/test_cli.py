import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from tentspec import cli, exact, markov, plmap, poly, spectral, transfer
from tentspec.exact import ExactMatrix, IntPolynomial

from conftest import from_rows, x_f_g


def run_json(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


class TestKappaCommand:
    def test_n1_value_and_schema(self, capsys):
        rc, payload = run_json(capsys, ["kappa", "--n", "1"])
        assert rc == 0
        assert payload["schema"] == "tentspec/1"
        assert payload["kappa"] == pytest.approx(0.3660254037844386, abs=1e-15)

    def test_round_trip_is_lossless(self, capsys):
        rc, payload = run_json(capsys, ["kappa", "--n", "7"])
        assert payload["kappa"] == poly.solve_kappa(7).kappa


class TestPartitionCommand:
    def test_breakpoint_strings_round_trip(self, capsys):
        rc, payload = run_json(capsys, ["partition", "--n", "3"])
        assert rc == 0
        expected = markov.analytic_partition(3, "full", poly.solve_kappa(3).kappa)
        assert tuple(float(s) for s in payload["breakpoints"]) == expected.breakpoints

    def test_folded_flag(self, capsys):
        rc, payload = run_json(capsys, ["partition", "--n", "3", "--folded"])
        assert payload["kind"] == "folded"
        assert len(payload["breakpoints"]) == 3 + 4


    @pytest.mark.parametrize(
        "argv, size",
        [
            (["--n", "29"], 2 * 29 + 4),
            (["--n", "52", "--folded"], 52 + 3),
            (["--n", "52"], 2 * 52 + 4),
        ],
    )
    def test_largest_supported_n(self, capsys, argv, size):
        rc, payload = run_json(capsys, ["partition", *argv])
        assert rc == 0
        assert len(payload["breakpoints"]) == size + 1


class TestAdjacencyCommand:
    def test_matches_library(self, capsys):
        rc, payload = run_json(capsys, ["adjacency", "--n", "2"])
        kappa = poly.solve_kappa(2).kappa
        A = markov.adjacency_matrix(
            plmap.make_paired_tent(kappa), markov.analytic_partition(2, "full", kappa)
        )
        assert payload["size"] == 8
        assert payload["rows"] == [list(row) for row in A.entries]

    def test_past_the_float_edge(self, capsys):
        # the matrix comes from its column runs, so n = 26 and beyond no
        # longer exit 3
        rc, payload = run_json(capsys, ["adjacency", "--n", "100"])
        assert rc == 0
        assert payload["size"] == 204
        assert len(payload["rows"]) == 204
        assert all(len(row) == 204 for row in payload["rows"])
        assert payload["rows"] == [list(row) for row in markov.tent_matrix(100, "full").entries]

    @pytest.mark.parametrize("kind", ["full", "folded"])
    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_bytes_are_json_dumps_of_the_dense_payload(self, capsys, n, kind):
        # the command writes a row at a time; its bytes stay those of one
        # json.dumps(indent=2) of the whole payload
        assert cli.main(["adjacency", "--n", str(n), *(["--folded"] if kind == "folded" else [])]) == 0
        A = markov.tent_matrix(n, kind)
        rows = [list(row) for row in A.entries]
        payload = {"schema": cli.SCHEMA, "n": n, "kind": kind, "size": A.rows, "rows": rows}
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def test_n_2000_holds_no_dense_matrix(self):
        # the dense payload the command used to build peaked at 1.5 GB RSS at
        # this n.  The child reads its own peak, VmHWM, which belongs to its
        # address space; ru_maxrss would carry the test process's peak
        # across exec.
        proc = fresh_python(
            "import os; from tentspec.cli import main; "
            "sys.stdout = open(os.devnull, 'w'); rc = main(['adjacency', '--n', '2000']); "
            "sys.stdout = sys.__stdout__; "
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
            "print(rc, int(hwm.split()[1]) / 1024)"
        )
        assert proc.returncode == 0, proc.stderr
        rc, rss_mb = proc.stdout.split()
        assert rc == "0" and float(rss_mb) < 100, proc.stdout


class TestSpectrumCommand:
    def test_report_payload(self, capsys):
        rc, payload = run_json(capsys, ["spectrum", "--n", "6"])
        assert rc == 0
        assert payload["annulus"]["counts_f"] == [0, 6, 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_small_n_takes_the_root_path(self, capsys, monkeypatch, n):
        # below 6 the Rouche certificate fails, so both families are solved
        calls = []
        aberth_roots = spectral.aberth_roots

        def counted(p):
            calls.append(p.degree)
            return aberth_roots(p)

        monkeypatch.setattr(spectral, "aberth_roots", counted)
        rc, payload = run_json(capsys, ["spectrum", "--n", str(n)])
        assert rc == 0
        assert calls == [n + 1, n + 1]
        assert payload["second_modulus_bound_factor"] is None

    def test_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["spectrum", "--n", "0"])
        assert err.value.code == 2

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        rc = cli.main(["verify", "--n-max", "3"])
        first = capsys.readouterr().out
        assert rc == 0
        assert "ALL CHECKS PASS" in first
        assert first.count("PASS") >= 3 * 13
        rc = cli.main(["verify", "--n-max", "3"])
        assert capsys.readouterr().out == first

    def test_non_commuting_A_fails_without_raising(self, capsys, monkeypatch):
        # A[0][0] flipped breaks flip commutation, so C does not exist; the
        # table must still print every check and report failure, not exit 3
        tent_matrix = markov.tent_matrix

        def tampered(n, kind):
            A = tent_matrix(n, kind)
            if kind == "full":
                rows = [list(row) for row in A.entries]
                rows[0][0] ^= 1
                A = from_rows(rows)
            return A

        monkeypatch.setattr(markov, "tent_matrix", tampered)
        assert cli.main(["verify", "--n-max", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * 13 + 1
        status = {tuple(line.split()[:2]): line.split()[2] for line in lines[:-1]}
        on_C = ("minpoly-C", "intertwine", "restricted-identity")
        for n in (1, 2):
            for name in ("commute", "flip-conjugation") + on_C:
                assert status[(f"n={n}", name)] == "FAIL"
        failed = sum(s == "FAIL" for s in status.values())
        assert lines[-1] == f"{failed} CHECK(S) FAILED"

    def test_takes_no_float_path(self, capsys, monkeypatch):
        # the matrices come from their runs: no kappa, no float partition and
        # no breakpoint matching
        def forbidden(*args, **kwargs):
            raise AssertionError("verify took the float path")

        for owner, name in (
            (poly, "solve_kappa"),
            (markov, "analytic_partition"),
            (markov, "adjacency_matrix"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        assert cli.main(["verify", "--n-max", "30"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "ALL CHECKS PASS"


def generic_verdicts(n, A, B):
    """The identity checks by the generic echelon routines, independent of the chains."""
    size = 2 * n + 4
    J = exact.flip_matrix(size)
    try:
        C = exact.symmetric_restriction(A, n)
    except exact.NonIntegralRestriction:
        C = None
    iota = exact.inclusion_iota(n)
    xf = IntPolynomial((0, 1)) * poly.f_poly(n)
    return {
        "pair-identity": exact.verify_pair_identity(A, J, n),
        "commute": A @ J == J @ A,
        "involution": J @ J == ExactMatrix.identity(size),
        "flip-conjugation": J @ A @ J == A,
        "minpoly-A": exact.krylov_min_poly(A) == x_f_g(n),
        "minpoly-J": exact.krylov_min_poly(J) == IntPolynomial((-1, 0, 1)),
        "minpoly-B": exact.krylov_min_poly(B) == xf,
        "minpoly-C": C is not None and exact.krylov_min_poly(C) == xf,
        "kernel-A": exact.same_span(exact.kernel_basis(A), cli._paper_kernel_vectors_full(n)),
        "kernel-B": exact.same_span(exact.kernel_basis(B), cli._kernel_vectors_folded(n)),
        "intertwine": C is not None and exact.verify_intertwine(B, C, iota),
        "iota-rank": exact.rational_rank(iota) == n + 2,
        "restricted-identity": C is not None
        and exact.verify_pair_identity(C, ExactMatrix.identity(n + 2), n),
    }


def verdicts_of(monkeypatch, n, A, B):
    """cli.verification_checks(n) run on the given A and B."""
    monkeypatch.setattr(markov, "tent_matrix", lambda n_, kind: A if kind == "full" else B)
    return dict(cli.verification_checks(n))


def flipped(M, *cells):
    rows = [list(row) for row in M.entries]
    for i, j in cells:
        rows[i][j] ^= 1
    return from_rows(rows)


class TestChainCertificate:
    @pytest.mark.parametrize("n", range(1, 26))
    def test_structural_verdicts_equal_the_generic_ones(self, n, suite):
        s = suite(n)
        structural = cli.verification_checks(n)
        generic = generic_verdicts(n, s["A"], s["B"])
        assert [name for name, _ in structural] == list(generic)
        assert dict(structural) == generic
        assert all(generic.values())

    @pytest.mark.parametrize("n", [*range(1, 26), 26, 30, 50, 100, 300, 460])
    def test_no_dense_matrix_and_no_echelon(self, n, monkeypatch, suite):
        # J is an index map, iota-rank reads iota's triangular columns, and
        # both start chains of A are triangular, so the certificate alone
        # passes every check, also past the float partition's edge and up to
        # the n = 460 that README states; no matrix's dense rows are built
        calls = []
        dense = ExactMatrix.entries

        def entries(M):
            calls.append("entries")
            return dense.func(M)

        monkeypatch.setattr(ExactMatrix, "entries", property(entries))

        def recorded(owner, name):
            original = getattr(owner, name)

            def record(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, record)

        for name in ("rational_rank", "flip_matrix", "krylov_min_poly"):
            recorded(exact, name)
        for name in ("identity", "__pow__"):
            recorded(ExactMatrix, name)
        assert all(passed for _, passed in cli.verification_checks(n))
        assert calls == []
        m = 2 * n + 4
        i = max(n - 1, 1)
        for sign in (1, -1):
            v = [0] * m
            v[i], v[m - 1 - i] = 1, sign
            assert exact.triangular(exact.krylov_chain(suite(n)["A"], v, n + 2))

    @staticmethod
    def symmetric_chains(A, n):
        """Verdicts of A's chain from v_s = e_i + e_{m-1-i}, i = max(n-1, 1),
        which verification_checks does not compute, and of C's chain from
        e_w, which certifies it: v_s is 2 s_w in C's paired basis."""
        m = 2 * n + 4
        i = max(n - 1, 1)
        v_s = [0] * m
        v_s[i] = v_s[m - 1 - i] = 1
        e_w = [0] * (n + 2)
        e_w[1 if n == 1 else 2] = 1
        xf = IntPolynomial((0, 1)) * poly.f_poly(n)
        C = exact.symmetric_restriction(A, n)
        return exact.is_local_min_poly(A, v_s, xf), exact.is_local_min_poly(C, e_w, xf)

    @pytest.mark.parametrize("n", range(1, 61))
    def test_symmetric_chain_of_A_is_the_chain_of_C(self, n):
        on_A, on_C = self.symmetric_chains(markov.tent_matrix(n, "full"), n)
        assert on_A == on_C and on_C
        assert dict(cli.verification_checks(n))["minpoly-C"] == on_C

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_chain_of_A_is_the_chain_of_C_on_mirrored_tampers(self, n, suite):
        # every mirrored tamper keeps AJ = JA, so C exists, and each one
        # breaks both chains
        A = suite(n)["A"]
        m = 2 * n + 4
        mirrored = [(i, j) for i in range(m) for j in range(m) if (i, j) <= (m - 1 - i, m - 1 - j)]
        for i, j in mirrored:
            on_A, on_C = self.symmetric_chains(flipped(A, (i, j), (m - 1 - i, m - 1 - j)), n)
            assert (on_A, on_C) == (False, False), (i, j)
        assert len(mirrored) == m * m // 2

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_mirrored_tamper_of_A_is_not_certified(self, n, monkeypatch, suite):
        s = suite(n)
        m = 2 * n + 4
        A = flipped(s["A"], (0, 0), (m - 1, m - 1))
        verdicts = verdicts_of(monkeypatch, n, A, s["B"])
        assert verdicts["commute"]
        for name in ("pair-identity", "minpoly-A", "kernel-A"):
            assert not verdicts[name], name

    @pytest.mark.parametrize("n", [30, 50])
    def test_moving_a_run_endpoint_with_its_mirror_is_not_certified(self, n, monkeypatch, suite):
        # past the float edge: every single move of a run endpoint, made
        # together with its mirror, keeps commute but breaks every check
        # that reads A's chains or C
        m = 2 * n + 4
        runs = markov._full_runs(n)
        assert runs == [(col[0][0], col[-1][0] + 1) for col in suite(n)["A"].columns]
        on_A = {"pair-identity", "minpoly-A", "kernel-A", "minpoly-C", "intertwine",
                "restricted-identity"}
        moves = 0
        for j in range(n + 2):
            for d_lo, d_hi in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                lo, hi = runs[j][0] + d_lo, runs[j][1] + d_hi
                if not 0 <= lo < hi <= m:
                    continue
                moved = list(runs)
                moved[j], moved[m - 1 - j] = (lo, hi), (m - hi, m - lo)
                A = from_rows(
                    [[int(a <= i < b) for a, b in moved] for i in range(m)]
                )
                verdicts = verdicts_of(monkeypatch, n, A, suite(n)["B"])
                assert {name for name, passed in verdicts.items() if not passed} == on_A
                moves += 1
        # runs of one row cannot shrink, and none leaves [0, m)
        assert moves == {30: 68, 50: 108}[n]

    def test_dependent_kernel_vectors_span_nothing(self):
        zero = from_rows([[0, 0], [0, 0]])
        assert cli._spans_kernel(zero, [(1, 0), (0, 1)])
        assert not cli._spans_kernel(zero, [(1, 1), (2, 2)])

    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_tamper_of_B_is_not_certified(self, n, monkeypatch, suite):
        s = suite(n)
        verdicts = verdicts_of(monkeypatch, n, s["A"], flipped(s["B"], (0, 0)))
        assert not (verdicts["minpoly-B"] and verdicts["kernel-B"])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_structural_pass_is_never_a_generic_fail(self, n, monkeypatch, suite):
        # every single-entry tamper of B, every mirrored one of A, and every
        # single-entry tamper of A's first column (which breaks commute)
        s = suite(n)
        A, B = s["A"], s["B"]
        m = 2 * n + 4
        cases = [(A, flipped(B, (i, j))) for i in range(n + 3) for j in range(n + 3)]
        mirrored = [(i, j) for i in range(m) for j in range(m) if (i, j) <= (m - 1 - i, m - 1 - j)]
        cases += [(flipped(A, (i, j), (m - 1 - i, m - 1 - j)), B) for i, j in mirrored]
        cases += [(flipped(A, (i, 0)), B) for i in range(m)]
        uncertified = 0
        for A_t, B_t in cases:
            structural = verdicts_of(monkeypatch, n, A_t, B_t)
            generic = generic_verdicts(n, A_t, B_t)
            for name, passed in structural.items():
                assert generic[name] or not passed, (name, A_t, B_t)
                uncertified += generic[name] and not passed
        # FAIL means only "not certified", but on these tampers the chains
        # miss no identity that holds
        assert uncertified == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_commute_is_a_premise(self, n, monkeypatch, suite):
        # conjugating A by the transposition of n and n+1 keeps minpoly-A
        # and kernel-A (it fixes the paper's kernel vectors, and at n >= 2
        # the start vectors too), but the conjugate does not commute with J,
        # so neither is certified
        s = suite(n)
        m = 2 * n + 4
        swap = list(range(m))
        swap[n], swap[n + 1] = n + 1, n
        A = from_rows([[s["A"][swap[i], swap[j]] for j in range(m)] for i in range(m)])
        structural = verdicts_of(monkeypatch, n, A, s["B"])
        generic = generic_verdicts(n, A, s["B"])
        assert not generic["commute"] and generic["minpoly-A"] and generic["kernel-A"]
        for name, passed in structural.items():
            assert generic[name] or not passed, name
        assert not structural["minpoly-A"] and not structural["kernel-A"]


class TestSweepCommand:
    def test_csv_table(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--from", "5", "--to", "8", "--csv", str(path)])
        assert rc == 0
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["n"] for r in rows] == ["5", "6", "7", "8"]
        lam2 = float(rows[1]["lambda2"])
        assert 0 < lam2 < 1
        assert float(rows[3]["r_n"]) == pytest.approx(poly.solve_r(8), abs=1e-15)

    def test_empty_range_is_usage_error(self, tmp_path):
        rc = cli.main(["sweep", "--from", "5", "--to", "3", "--csv", str(tmp_path / "x.csv")])
        assert rc == 2


class TestRootsCommand:
    def test_mark_counts_and_determinism(self, tmp_path, capsys):
        path = tmp_path / "roots.svg"
        rc = cli.main(["roots", "--n", "6", "--svg", str(path)])
        assert rc == 0
        svg = path.read_text()
        assert svg.count('class="root-f"') == 7
        assert svg.count('class="root-g"') == 7
        assert svg.count('class="origin"') == 1
        assert svg.count("<circle") == 4 + 7  # four reference circles plus marks
        again = tmp_path / "again.svg"
        cli.main(["roots", "--n", "6", "--svg", str(again)])
        assert again.read_text() == svg

    def test_bad_csv_path_writes_no_plot(self, tmp_path, capsys):
        # every output path is opened before either is written
        svg = tmp_path / "ok.svg"
        argv = ["roots", "--n", "5", "--svg", str(svg), "--csv", str(tmp_path / "missing" / "x.csv")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tentspec: FileNotFoundError: ")
        assert not svg.exists() or "<svg" not in svg.read_text()

    def test_bad_svg_path_leaves_no_csv(self, tmp_path, capsys):
        table = tmp_path / "ok.csv"
        argv = ["roots", "--n", "8", "--csv", str(table), "--svg", str(tmp_path / "missing" / "r.svg")]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tentspec: FileNotFoundError: ")
        assert not table.exists()

    def test_svg_is_valid_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        path = tmp_path / "roots.svg"
        cli.main(["roots", "--n", "29", "--svg", str(path)])
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")

    def test_dominant_root_honest_at_136(self, tmp_path):
        path = tmp_path / "roots.csv"
        rc = cli.main(["roots", "--n", "136", "--svg", str(tmp_path / "r.svg"), "--csv", str(path)])
        assert rc == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 137
        assert max(float(row["residual"]) for row in rows) < 1e-9

    def test_first_n_past_the_kappa_edge(self, tmp_path):
        # solve_kappa overflows from 775; roots does not call it there
        path = tmp_path / "roots.csv"
        rc = cli.main(["roots", "--n", "775", "--svg", str(tmp_path / "r.svg"), "--csv", str(path)])
        assert rc == 0
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for family in "fg":
            moduli = (math.hypot(float(r["re"]), float(r["im"])) for r in rows if r["family"] == family)
            assert poly.region_counts(moduli, 775) == (0, 775, 1)
        assert max(float(row["residual"]) for row in rows) < 1e-9


class TestSimulateCommand:
    def test_trajectory_csv(self, tmp_path, capsys):
        path = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--n", "3", "--steps", "40", "--csv", str(path)])
        assert rc == 0
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 41
        assert rows[0]["step"] == "0"
        d0 = float(rows[0]["L1_distance_to_invariant"])
        d_end = float(rows[-1]["L1_distance_to_invariant"])
        assert d_end < d0
        # columns: step + one per interval + distance, all plain decimals
        assert len(rows[0]) == 1 + 10 + 1
        assert float(rows[0]["c1"]) > 0.0

    # the writer formats 4096 fields a call (512 rows at n = 1, 64 at
    # n = 29) in one workspace of one row more, and a shorter last chunk in
    # views of it, so 2500 steps cross its chunks with a short last one; at
    # 6-4000, 3710 fields are in scientific notation and the L1 column falls
    # to 5e-14, below the kernel's range, and at 29-2500 a quarter of the
    # fields are below 1e-4.  The trajectory settles at row 59 for n = 1,
    # 290 for n = 3 and 1157 for n = 6, and the rows after it are written
    # from the settle row's bytes; at n = 1 (8 fields a row) 480 fields a
    # call end a written chunk at row 59, and 472 end an evolved chunk
    # there, so the settle row would start the next.  At n = 12 a chunk is
    # 136 steps, so 272 steps leave step 272 alone in the last one, whose
    # 137 rows fill the workspace
    @pytest.mark.parametrize(
        "n, steps, fields",
        [pytest.param(n, 30, 4096, id=str(n)) for n in (1, 5, 12)]
        + [pytest.param(n, 2500, 4096, id=f"{n}-2500") for n in (1, 12, 29)]
        + [pytest.param(6, 4000, 4096, id="6-4000")]
        + [pytest.param(1, 2500, 480, id="1-2500-settle-row-ends-a-chunk")]
        + [pytest.param(1, 2500, 472, id="1-2500-settle-row-starts-a-chunk")]
        + [pytest.param(3, 290, 4096, id="3-290-steps-end-at-the-settle-row")]
        + [pytest.param(12, 272, 4096, id="12-272-last-row-alone-in-its-chunk")],
    )
    def test_bytes_match_a_csv_writer_reference(
        self, tmp_path, capsys, monkeypatch, n, steps, fields
    ):
        monkeypatch.setattr(cli, "_SIMULATE_FIELDS", fields)
        path = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--n", str(n), "--steps", str(steps), "--csv", str(path)]) == 0
        assert path.read_bytes() == self.reference(n, steps)

    # at n = 1 (m = 6) 354 fields make evolve_density's chunks 59 rows, and
    # at n = 3 (m = 10) 1450 fields make them 145; each settle row (59 and
    # 290) is the last row of one of them, inside simulate's first chunk
    @pytest.mark.parametrize("n, chunk_fields, settle", [(1, 354, 59), (3, 1450, 290)])
    def test_settle_row_ends_an_evolve_density_chunk(
        self, tmp_path, capsys, monkeypatch, n, chunk_fields, settle
    ):
        monkeypatch.setattr(transfer, "_CHUNK_FIELDS", chunk_fields)
        op = transfer.markov_operator(n, "full")
        f0 = transfer.DensityVector(
            op.partition, [1.0 if hi <= 0.0 else 0.0 for _, hi in op.partition.intervals()]
        )
        f0 = transfer.DensityVector(op.partition, f0.coefficients / f0.integral())
        assert transfer.evolve_density(op, f0, 2500).settled_at == settle
        assert settle % (chunk_fields // op.partition.size) == 0
        path = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--n", str(n), "--steps", "2500", "--csv", str(path)]) == 0
        assert path.read_bytes() == self.reference(n, 2500)

    @staticmethod
    def reference(n, steps):
        """simulate's CSV bytes by csv.writer over repeated one-step apply."""
        op = transfer.markov_operator(n, "full")
        target = transfer.invariant_density(n, "full")
        f0 = transfer.DensityVector(
            op.partition, [1.0 if hi <= 0.0 else 0.0 for _, hi in op.partition.intervals()]
        )
        f0 = transfer.DensityVector(op.partition, f0.coefficients / f0.integral())
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(
            ["step"] + [f"c{i + 1}" for i in range(op.partition.size)] + ["L1_distance_to_invariant"]
        )
        # the trajectory by repeated one-step apply, not by the block kernel
        density = f0
        for step in range(steps + 1):
            writer.writerow(
                [step]
                + [repr(float(c)) for c in density.coefficients]
                + [repr(float(density.l1_distance(target)))]
            )
            density = op.apply(density)
        return buf.getvalue().encode()

    # k steps are k + 1 rows, steps 0..k
    @pytest.mark.parametrize("steps", [1, 20000])
    def test_reports_the_rows_it_wrote(self, tmp_path, capsys, steps):
        path = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--n", "1", "--steps", str(steps), "--csv", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {steps + 1} rows to {path}\n"
        assert path.read_bytes().count(b"\r\n") == 1 + steps + 1

    def test_unwritable_csv_exits_2_before_evolving(self, tmp_path, capsys, monkeypatch):
        def evolve_density(*args):
            raise AssertionError("the trajectory was evolved before --csv was opened")

        monkeypatch.setattr(transfer, "evolve_density", evolve_density)
        path = tmp_path / "missing" / "x.csv"
        assert cli.main(["simulate", "--n", "12", "--steps", "10000000", "--csv", str(path)]) == 2
        assert capsys.readouterr().err.startswith("tentspec: FileNotFoundError: ")

    def test_memory_error_while_evolving_leaves_no_csv(self, tmp_path, capsys, monkeypatch):
        # the first chunk is evolved and written; evolving the second fails
        evolve_density, calls, written = transfer.evolve_density, [], []

        def failing(op, f0, k):
            calls.append(k)
            if len(calls) % 2:
                return evolve_density(op, f0, k)
            written.append(sum(p.stat().st_size for p in tmp_path.glob("*.tmp")))
            raise MemoryError("out of memory in the second chunk")

        monkeypatch.setattr(transfer, "evolve_density", failing)
        path = tmp_path / "out.csv"
        argv = ["simulate", "--n", "12", "--steps", "10000000000", "--csv", str(path)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            "tentspec: MemoryError: out of memory in the second chunk"
        ]
        assert not path.exists()
        # a file that was there before keeps its bytes
        path.write_text("kept")
        assert cli.main(argv) == 3
        assert path.read_text() == "kept"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        # at n = 12 a chunk is 136 steps, written as 136 rows of 30 fields;
        # the header and the first chunk, 75479 bytes, had reached the file
        assert calls == [136] * 4 and len(written) == 2 and min(written) > 70_000

    def test_peak_memory_does_not_grow_with_steps(self):
        # the trajectory is stepped and written a chunk at a time: a
        # (k+1) x m block of 200001 rows alone would be 45 MB at n = 12.  The
        # child reads its own peak, VmHWM (see
        # test_n_2000_holds_no_dense_matrix)
        proc = fresh_python(
            "import os; from tentspec.cli import main; "
            "sys.stdout = open(os.devnull, 'w'); "
            "rc = main(['simulate', '--n', '12', '--steps', '200000', '--csv', os.devnull]); "
            "sys.stdout = sys.__stdout__; "
            "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
            "print(rc, int(hwm.split()[1]) / 1024)"
        )
        assert proc.returncode == 0, proc.stderr
        rc, rss_mb = proc.stdout.split()
        assert rc == "0" and float(rss_mb) < 50, proc.stdout

    def test_success_replaces_an_existing_csv_through_a_symlink_keeping_its_mode(self, tmp_path, capsys):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_text("old")
        real.chmod(0o640)
        link.symlink_to(real)
        assert cli.main(["simulate", "--n", "1", "--steps", "3", "--csv", str(link)]) == 0
        assert link.is_symlink() and real.read_text().startswith("step,c1,")
        assert real.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_writes_to_a_device(self, capsys):
        assert cli.main(["simulate", "--n", "1", "--steps", "3", "--csv", os.devnull]) == 0
        assert not os.path.isfile(os.devnull)

    def test_target_on_another_partition_exits_3(self, tmp_path, capsys, monkeypatch):
        # full n = 1 and folded n = 3 both have 6 intervals
        folded = transfer.invariant_density(3, "folded")
        monkeypatch.setattr(transfer, "invariant_density", lambda n, kind: folded)
        path = tmp_path / "sim.csv"
        assert cli.main(["simulate", "--n", "1", "--steps", "5", "--csv", str(path)]) == 3
        assert capsys.readouterr().err.startswith("tentspec: PartitionMismatch: ")
        assert not path.exists()

    def test_range_edge(self, tmp_path, capsys):
        assert cli.main(["simulate", "--n", "52", "--steps", "10", "--csv", str(tmp_path / "a.csv")]) == 0
        capsys.readouterr()
        assert cli.main(["simulate", "--n", "53", "--csv", str(tmp_path / "b.csv")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "tentspec: MarkovViolation: n=53, kind=full: binary64 breakpoints collide past "
            "n=52, the last supported n for the full partition"
        ]
        assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["simulate", "--n", "53", "--csv", "unwritten.csv"], "MarkovViolation"),
        (["partition", "--n", "53"], "MarkovViolation"),
        (["spectrum", "--n", "53"], "NoConvergence"),
        (["spectrum", "--n", "200"], "NoConvergence"),
    ],
)
def test_library_failure_exits_3_with_one_line(capsys, monkeypatch, tmp_path, argv, error):
    monkeypatch.chdir(tmp_path)  # a relative output path would land here
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"tentspec: {error}: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--from", "6", "--to", "7", "--csv"],
        ["roots", "--n", "5", "--svg"],
        ["simulate", "--n", "3", "--steps", "5", "--csv"],
    ],
)
def test_unwritable_output_exits_2_with_one_line(capsys, tmp_path, argv):
    # exit 1 means "verification failed", so an OSError may not surface as a
    # traceback
    assert cli.main([*argv, str(tmp_path / "missing" / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("tentspec: FileNotFoundError: ")


def test_roots_postcondition_exits_3_without_warnings(capsys, monkeypatch, tmp_path):
    # 40 digits cannot hold the dominant root of f_136; the failure is the
    # typed NoConvergence line alone, with no numpy warnings
    monkeypatch.setattr(poly, "_polish_dps", lambda deg: 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["roots", "--n", "136", "--svg", str(tmp_path / "r.svg")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("tentspec: NoConvergence: polished residual ")


@pytest.mark.parametrize("command", ["kappa", "spectrum"])
def test_kappa_overflow_exits_3_naming_n(capsys, command):
    assert cli.main([command, "--n", "775"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "tentspec: NoConvergence: kappa solve at n=775: (2+2k)^n overflows binary64"
    ]


def test_memory_error_exits_3_with_one_line(capsys, monkeypatch, tmp_path):
    # exit 1 means "verification failed", so running out of memory may not
    # surface as a traceback
    def exhausted(p):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(poly, "aberth_roots", exhausted)
    assert cli.main(["roots", "--n", "1000000", "--svg", str(tmp_path / "r.svg")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "tentspec: MemoryError: Unable to allocate 7.28 TiB for an array"
    ]


def test_console_entry_point_matches_main():
    # the console script is main itself; read as text, since Python 3.10
    # has no tomllib
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["tentspec", "=", '"tentspec.cli:main"']
    # and main's parser reads every argv as a new parser does
    for argv in (
        ["kappa", "--n", "2"],
        ["partition", "--n", "4", "--folded"],
        ["verify"],
        ["sweep", "--from", "6", "--to", "9", "--csv", "s.csv"],
        ["roots", "--n", "6", "--svg", "r.svg"],
        ["simulate", "--n", "3", "--csv", "e.csv"],
    ):
        assert cli._parser().parse_args(argv) == cli.build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# one parser per process: main builds it on its first call and reuses it
# ---------------------------------------------------------------------------


COMMANDS = ["kappa", "partition", "adjacency", "verify", "spectrum", "sweep", "roots", "simulate"]


class TestParserBuiltOncePerProcess:
    def argvs(self, tmp_path):
        return [
            ["kappa", "--n", "3"],
            ["partition", "--n", "4", "--folded"],
            ["adjacency", "--n", "4"],
            ["verify", "--n-max", "4"],
            ["spectrum", "--n", "12"],
            ["sweep", "--from", "6", "--to", "8", "--csv", str(tmp_path / "sweep.csv")],
            ["roots", "--n", "6", "--svg", str(tmp_path / "r.svg"), "--csv", str(tmp_path / "r.csv")],
            ["roots", "--n", "7", "--svg", str(tmp_path / "r7.svg")],
            ["simulate", "--n", "3", "--steps", "50", "--csv", str(tmp_path / "e.csv")],
        ]

    def run_all(self, capsys, tmp_path):
        """Each command's (exit code, stdout), then the output files' bytes,
        removing them so that the next run writes them anew."""
        results = []
        for argv in self.argvs(tmp_path):
            results.append((cli.main(argv), capsys.readouterr().out))
        files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        for path in tmp_path.iterdir():
            path.unlink()
        return results, files

    def test_second_run_matches_the_first_after_usage_errors(self, capsys, tmp_path):
        first, first_files = self.run_all(capsys, tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum", "--n", "0"])
        assert exc.value.code == 2
        assert cli.main(["sweep", "--from", "5", "--to", "3", "--csv", str(tmp_path / "x")]) == 2
        capsys.readouterr()
        second, second_files = self.run_all(capsys, tmp_path)
        assert [rc for rc, _ in first] == [0] * len(first)
        assert second == first
        assert second_files == first_files
        # roots --n 7 came after a roots call with --csv, and wrote no table
        assert sorted(first_files) == ["e.csv", "r.csv", "r.svg", "r7.svg", "sweep.csv"]
        assert "root table" not in first[7][1]

    def test_build_parser_returns_a_new_parser_like_mains(self, capsys):
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()
        assert cli._parser() is cli._parser()
        assert cli.build_parser().format_help() == cli._parser().format_help()
        for command in COMMANDS:
            helps = []
            for parse in (cli.build_parser().parse_args, cli.main):
                with pytest.raises(SystemExit) as exc:
                    parse([command, "--help"])
                assert exc.value.code == 0
                helps.append(capsys.readouterr().out)
            assert helps[0] == helps[1]
            assert helps[0].startswith(f"usage: tentspec {command} [-h] ")

    def test_main_builds_one_parser_on_its_first_call(self, capsys, monkeypatch):
        import argparse

        constructed, built = [], []
        init, build = argparse.ArgumentParser.__init__, cli.build_parser

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        # main calls cli.build_parser as bound at its first call, so a
        # wrapped one (the benchmark's tracer) sees the build
        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            assert cli.main(["kappa", "--n", "2"]) == 0
            # a new parser is the top level and one subparser per command
            assert (len(built), len(constructed)) == (1, 1 + len(COMMANDS))
            constructed.clear()
            assert cli.main(["kappa", "--n", "2"]) == 0
            assert (len(built), len(constructed)) == (1, 0)
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()


# ---------------------------------------------------------------------------
# import contract: the exact commands load neither numpy nor mpmath
# ---------------------------------------------------------------------------


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a new interpreter that imports this checkout's tentspec."""
    src = str(Path(cli.__file__).resolve().parents[2])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_import_tentspec_loads_no_float_library():
    proc = fresh_python(
        "import tentspec; print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_binds_no_name_and_submodules_import_from_it():
    proc = fresh_python(
        "import tentspec; print(sorted(k for k in vars(tentspec) if not k.startswith('__'))); "
        "from tentspec import cli, markov, plmap, poly, spectral; "
        "print(sorted({'numpy', 'mpmath'} & set(sys.modules))); "
        "from tentspec import transfer; poly.aberth_roots(poly.f_poly(3)); "
        "print(sorted({'numpy', 'mpmath'} & set(sys.modules)))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]", "['mpmath', 'numpy']"]


def test_markov_transfer_and_verify_load_no_plmap():
    # markov and transfer name plmap's types only in annotations
    proc = fresh_python(
        "import tentspec.markov, tentspec.transfer; from tentspec import cli; "
        "assert cli.main(['verify', '--n-max', '3']) == 0; "
        "print('tentspec.plmap' in sys.modules)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n-max", "25"],
        ["adjacency", "--n", "30"],
        ["kappa", "--n", "7"],
        ["partition", "--n", "12", "--folded"],
        # from n = 6 the report reads kappa_n and r_n, and finds no roots
        ["spectrum", "--n", "12"],
        ["spectrum", "--n", "52"],
    ],
)
def test_exact_commands_run_with_numpy_and_mpmath_blocked(capsys, argv):
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    proc = run_blocked(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def run_blocked(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter where numpy and mpmath cannot load."""
    # None in sys.modules makes any import of the name raise ImportError
    return fresh_python(
        "sys.modules['numpy'] = sys.modules['mpmath'] = None; "
        "from tentspec.cli import main; sys.exit(main(sys.argv[1:]))",
        *argv,
    )


def test_sweep_past_5_runs_with_numpy_and_mpmath_blocked(tmp_path):
    argv = ["sweep", "--from", "6", "--to", "52", "--csv"]
    assert cli.main([*argv, str(tmp_path / "in_process.csv")]) == 0
    proc = run_blocked(*argv, str(tmp_path / "blocked.csv"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()


@pytest.mark.parametrize(
    "code",
    [
        "from tentspec.cli import main; main(['simulate', '--n', '12', '--steps', '10', "
        "'--csv', sys.argv[1]])",
        "from tentspec import transfer; transfer.invariant_density(12, 'folded')",
    ],
    ids=["simulate", "invariant_density"],
)
def test_transfer_loads_no_numpy_random(tmp_path, code):
    # numpy.random costs about 6 MiB of resident memory; the closed-form
    # density draws no random start vector
    proc = fresh_python(f"{code}; print('numpy.random' in sys.modules)", str(tmp_path / "s.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"

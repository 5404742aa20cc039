import csv
import json
import math
import warnings

import pytest

from tentspec import cli, markov, plmap, poly
from tentspec.exact import ExactMatrix


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
        "argv, size", [(["--n", "29"], 2 * 29 + 4), (["--n", "52", "--folded"], 52 + 3)]
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
        assert payload["rows"] == A.to_lists()


class TestSpectrumCommand:
    def test_report_payload(self, capsys):
        rc, payload = run_json(capsys, ["spectrum", "--n", "6"])
        assert rc == 0
        assert payload["annulus"]["counts_f"] == [0, 6, 1]

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
        tent_chain = markov.tent_chain

        def tampered(n, kind):
            kappa, part, A = tent_chain(n, kind)
            if kind == "full":
                rows = A.to_lists()
                rows[0][0] ^= 1
                A = ExactMatrix.from_rows(rows)
            return kappa, part, A

        monkeypatch.setattr(markov, "tent_chain", tampered)
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


class TestSweepCommand:
    def test_csv_table(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--from", "5", "--to", "8", "--csv", str(path)])
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
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


class TestSimulateCommand:
    def test_trajectory_csv(self, tmp_path, capsys):
        path = tmp_path / "sim.csv"
        rc = cli.main(["simulate", "--n", "3", "--steps", "40", "--csv", str(path)])
        assert rc == 0
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 41
        assert rows[0]["step"] == "0"
        d0 = float(rows[0]["L1_distance_to_invariant"])
        d_end = float(rows[-1]["L1_distance_to_invariant"])
        assert d_end < d0
        # columns: step + one per interval + distance, all plain decimals
        assert len(rows[0]) == 1 + 10 + 1
        assert float(rows[0]["c1"]) > 0.0


@pytest.mark.parametrize(
    "argv, error",
    [
        (["adjacency", "--n", "26"], "MarkovViolation"),
        (["partition", "--n", "30"], "MarkovViolation"),
        (["spectrum", "--n", "53"], "NoConvergence"),
        (["spectrum", "--n", "200"], "NoConvergence"),
    ],
)
def test_library_failure_exits_3_with_one_line(capsys, argv, error):
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"tentspec: {error}: ")


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


def test_console_entry_point_matches_main():
    from tentspec.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["kappa", "--n", "2"])
    assert args.func is not None
    assert math.isclose(poly.solve_kappa(args.n).kappa, 0.17965204298588822, abs_tol=1e-14)

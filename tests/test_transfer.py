import copy
import dataclasses
import gc
import itertools
import math
import pickle
import random
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tentspec import plmap, poly, spectral, transfer
from tentspec.markov import (
    MarkovPartition,
    MarkovViolation,
    analytic_partition,
    tent_matrix,
)
from tentspec.transfer import (
    DegenerateCell,
    DensityVector,
    MarkovOperator,
    NonPositiveNorm,
    PartitionMismatch,
    evolve_density,
    fit_decay_rate,
    invariant_density,
    markov_operator,
    ulam_matrix,
)

from conftest import oracle_eigenvalues


def indicator_density(op, predicate):
    coeffs = np.array([1.0 if predicate(lo, hi) else 0.0 for lo, hi in op.partition.intervals()])
    f = DensityVector(op.partition, coeffs)
    return DensityVector(op.partition, f.coefficients / f.integral())


def seeded_density(op, cut, seed):
    """The benchmark's mixing start: weights 1 + U[0, 0.5) on the intervals
    left of cut, normalized."""
    rng = random.Random(seed)
    weights = [1.0 + 0.5 * rng.random() for _ in range(op.partition.size)]
    coeffs = [w if hi <= cut else 0.0 for w, (_, hi) in zip(weights, op.partition.intervals())]
    f = DensityVector(op.partition, coeffs)
    return DensityVector(op.partition, f.coefficients / f.integral())


def perron_vector(M: np.ndarray) -> np.ndarray:
    """Eigenvector of M at the known eigenvalue 1 by inverse iteration, in up
    to 8 rounds: the independent cross-check of the closed-form density."""
    size = M.shape[0]
    rng = np.random.default_rng(11)
    eye = np.eye(size)
    for round_ in range(8):
        shift = 1.0 + 1e-13 * (round_ + 1)
        v = np.abs(rng.standard_normal(size)) + 1.0
        try:
            for _ in range(6):
                v = np.linalg.solve(M - shift * eye, v)
                v /= np.max(np.abs(v))
        except np.linalg.LinAlgError:
            continue
        if v.sum() < 0:
            v = -v
        residual = float(np.max(np.abs(M @ v - v)))
        if residual <= 1e-8 and np.all(v >= -1e-12):
            return v
    raise AssertionError("inverse iteration did not converge")


def supported(n_full: int, n_folded: int):
    return [("full", n) for n in range(1, n_full + 1)] + [
        ("folded", n) for n in range(1, n_folded + 1)
    ]


def reference_ulam(pmap, bps, branches=None):
    """The O(m^2) scan of every cell against every other cell, summing the
    branches in pmap's order unless another order is given."""
    cells = list(zip(bps, bps[1:]))
    lengths = [b - a for a, b in cells]
    m = len(cells)
    U = np.zeros((m, m))
    for j, (a, b) in enumerate(cells):
        for branch in branches or pmap.branches:
            lo = max(a, branch.domain.lo)
            hi = min(b, branch.domain.hi)
            if hi <= lo:
                continue
            y1, y2 = sorted((branch(lo), branch(hi)))
            inv_slope = 1.0 / abs(branch.slope)
            for i, (c, d) in enumerate(cells):
                overlap = min(y2, d) - max(y1, c)
                if overlap > 0.0:
                    U[j, i] += overlap * inv_slope / lengths[j]
    return U


def loop_ulam(pmap, bps):
    """A Python loop over every cell, branch and touched target cell, with two
    scalar searchsorted calls per piece: O(m log m), so a reference at
    thousands of cells, where the all-cells scan takes seconds."""
    bps = np.asarray(bps, dtype=float)
    edges = bps.tolist()
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    m = len(lengths)
    U = np.zeros((m, m))
    for j, length in enumerate(lengths):
        for branch in pmap.branches:
            lo = max(edges[j], branch.domain.lo)
            hi = min(edges[j + 1], branch.domain.hi)
            if hi <= lo:
                continue
            y1, y2 = sorted((branch(lo), branch(hi)))
            inv_slope = 1.0 / abs(branch.slope)
            first = max(int(np.searchsorted(bps, y1, side="right")) - 1, 0)
            for i in range(first, min(int(np.searchsorted(bps, y2)), m)):
                overlap = min(y2, edges[i + 1]) - max(y1, edges[i])
                if overlap > 0.0:
                    U[j, i] += overlap * inv_slope / length
    return U


def jittered_grid(pmap, cells: int, seed: int) -> list[float]:
    """cells near-uniform cells, each inner breakpoint moved by up to 0.3 of a cell."""
    rng = random.Random(seed)
    lo, hi = pmap.ambient.lo, pmap.ambient.hi
    h = (hi - lo) / cells
    return [lo] + [lo + h * (i + 0.3 * (2.0 * rng.random() - 1.0)) for i in range(1, cells)] + [hi]


def same_bits(U, V) -> bool:
    return U.shape == V.shape and np.array_equal(U.view(np.uint64), V.view(np.uint64))


MAKERS = {"full": plmap.make_paired_tent, "folded": plmap.make_folded_tent}

ulam_cases = st.tuples(
    st.sampled_from(sorted(MAKERS)),
    st.one_of(st.integers(1, 12).map(lambda n: poly.solve_kappa(n).kappa), st.floats(0.01, 0.5)),
    st.integers(2, 400),
    st.integers(0, 2 ** 32 - 1),
)


# (kind, n, cells, seed) of jittered grids with 2-5 cells on which the all-cells
# scan with the branches in reversed order changes at least one bit: an entry
# there sums three or more branch terms
BRANCH_ORDER_GRIDS = [
    ("full", 1, 2, 2),
    ("full", 2, 3, 25),
    ("full", 1, 4, 15),
    ("folded", 1, 2, 0),
    ("folded", 1, 3, 1),
    ("folded", 1, 4, 0),
    ("folded", 1, 5, 4),
]


# (kind, n, cells, seed) of jittered grids where an entry sums three branch
# terms a, b, c and a + (b + c), the association of np.add.reduceat, changes
# a bit of the scan's (a + b) + c
MERGE_ORDER_GRIDS = [("folded", 8, 128, 1), ("folded", 8, 190, 3)]


def with_order_examples(test):
    for kind, n, cells, seed in reversed(BRANCH_ORDER_GRIDS + MERGE_ORDER_GRIDS):
        test = example(case=(kind, poly.solve_kappa(n).kappa, cells, seed))(test)
    return test


def row_sum_bound(pmap, bps, U) -> np.ndarray:
    """`ulam_matrix`'s bound on each |sum_i U[j, i] - 1|:
    r_j eps M (1 + 1/sigma) / |R_j| + (k_j + 4) eps / 2."""
    bps = np.asarray(bps, dtype=float)
    eps = np.finfo(float).eps
    M = max(abs(pmap.ambient.lo), abs(pmap.ambient.hi))
    sigma = min(abs(branch.slope) for branch in pmap.branches)
    inner = [branch.domain.lo for branch in pmap.branches[1:]]
    # branch domains meeting each cell's interior
    r = 1 + np.searchsorted(inner, bps[1:]) - np.searchsorted(inner, bps[:-1], side="right")
    return r * eps * M * (1.0 + 1.0 / sigma) / np.diff(bps) + (np.diff(U.indptr) + 4) * eps / 2


class TestOperator:
    def test_n1_action_on_basis_vector(self):
        # the interval (-kappa_1, 0) maps onto (-1, 0), i.e. the first three
        # intervals, with one division by the slope
        op = markov_operator(1, "full")
        e3 = DensityVector(op.partition, [0, 0, 1, 0, 0, 0])
        out = op.apply(e3)
        rho = 2 + 2 * poly.solve_kappa(1).kappa
        assert np.allclose(out.coefficients, np.array([1, 1, 1, 0, 0, 0]) / rho, atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_lengths_are_left_fixed_vector(self, n, kind):
        op = markov_operator(n, kind)
        lengths = op.partition.lengths
        assert np.max(np.abs(lengths @ (op.adjacency / op.scale) - lengths)) < 1e-10

    @pytest.mark.parametrize(
        "kind, n",
        [("full", n) for n in (6, 12, 22, 25, 29, 52)] + [("folded", n) for n in (6, 12, 22, 25, 52)],
    )
    def test_every_single_interval_density_keeps_its_mass(self, kind, n):
        op = markov_operator(n, kind)
        for j, length in enumerate(op.partition.lengths):
            f = DensityVector(op.partition, np.eye(op.partition.size)[j] / length)
            assert abs(op.apply(f).integral() - f.integral()) <= 1e-15, j

    @pytest.mark.parametrize("kind, n", [("full", 29), ("folded", 52), ("full", 52)])
    def test_builds_at_the_partition_edge(self, kind, n):
        op = markov_operator(n, kind)
        assert op.scale == 2.0 + 2.0 * poly.solve_kappa(n).kappa
        assert op.partition == analytic_partition(n, kind, poly.solve_kappa(n).kappa)
        assert np.array_equal(op.adjacency, tent_matrix(n, kind).entries)

    @pytest.mark.parametrize("kind, n", [("full", 53), ("folded", 53)])
    def test_rejects_past_the_partition_edge(self, kind, n):
        for build in (markov_operator, invariant_density):
            with pytest.raises(MarkovViolation, match=rf"n={n}, kind={kind}: .* past n={n - 1}"):
                build(n, kind)

    def test_rejects_unknown_kind(self):
        for build in (markov_operator, invariant_density):
            with pytest.raises(ValueError):
                build(3, "half")

    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_one_read_only_operator_per_n_and_kind(self, kind):
        op = markov_operator(7, kind)
        assert markov_operator(7, kind) is op
        assert markov_operator(8, kind) is not op
        with pytest.raises(ValueError, match="read-only"):
            op.adjacency[0, 0] = 2.0
        assert np.array_equal(op.adjacency, tent_matrix(7, kind).entries)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_scaled_spectral_radius_is_one(self, n):
        op = markov_operator(n, "full")
        evs = oracle_eigenvalues(op.adjacency / op.scale)
        assert max(abs(z) for z in evs) == pytest.approx(1.0, abs=1e-9)


class TestInvariantDensity:
    @pytest.mark.parametrize("kind, n", supported(52, 52))
    def test_is_fixed_by_the_operator(self, kind, n):
        f = invariant_density(n, kind)
        Af = markov_operator(n, kind).apply(f)
        assert np.max(np.abs(Af.coefficients - f.coefficients) / f.coefficients) <= 1e-15

    @pytest.mark.parametrize("kind, n", supported(52, 52))
    def test_bits_equal_the_kappa_form(self, kind, n):
        # the density reads u = 1 + kappa_n as s/2 from the operator's scale;
        # halving fl(2 + 2 kappa_n) is exact, so the bits are those of the
        # form in kappa_n itself
        kappa = poly.solve_kappa(n).kappa
        s = 2.0 + 2.0 * kappa
        w = [1.0 + kappa + s**-j for j in range(n)]
        if kind == "full":
            half = [*w, w[-1], (s - 1.0) * w[0]]
            v = np.array(half + half[::-1])
        else:
            v = np.array([(s - 1.0) * w[0], w[-1], w[-1], *reversed(w)])
        lengths = analytic_partition(n, kind, kappa).lengths
        want = v / float(lengths @ v)
        assert invariant_density(n, kind).coefficients.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind, n", supported(25, 25))
    def test_agrees_with_inverse_iteration(self, kind, n):
        f = invariant_density(n, kind)
        op = markov_operator(n, kind)
        v = perron_vector(op.adjacency / op.scale)
        v /= float(f.partition.lengths @ v)
        assert np.max(np.abs(v - f.coefficients) / f.coefficients) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_full_density_palindromic(self, n):
        f = invariant_density(n, "full")
        assert np.max(np.abs(f.coefficients - f.coefficients[::-1])) < 1e-9

    @pytest.mark.parametrize("n", [1, 4, 9])
    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_normalized_and_nonnegative(self, n, kind):
        f = invariant_density(n, kind)
        assert f.integral() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.coefficients >= -1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_folded_matches_included_symmetric_perron(self, n, suite):
        # the folded fixed density is the inclusion of the symmetric-block
        # fixed vector, up to normalization
        s = suite(n)
        rho = 2 + 2 * s["kappa"]
        C = np.array(s["C"].entries, dtype=float) / rho
        w = np.ones(C.shape[0])
        for _ in range(200):
            w = C @ w
            w /= np.linalg.norm(w)
        iota = np.array(s["iota"].entries, dtype=float)
        included = iota @ w
        f = invariant_density(n, "folded").coefficients
        included /= included.sum()
        g = f / f.sum()
        assert np.max(np.abs(included - g)) < 1e-9


class TestEvolution:
    def test_fixed_point_stays_fixed(self):
        op = markov_operator(3, "full")
        f = invariant_density(3, "full")
        traj = evolve_density(op, f, 50)
        assert np.max(np.abs(traj[-1].coefficients - f.coefficients)) < 1e-9

    def test_integral_conserved_each_step(self):
        op = markov_operator(4, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0)
        traj = evolve_density(op, f0, 300)
        assert all(abs(f.integral() - 1.0) < 1e-10 for f in traj)

    @pytest.mark.parametrize("n", [12, 22, 25, 29])
    def test_simulate_start_density_conserves_mass(self, n):
        # README's conservation figure is for this density, simulate's start
        op = markov_operator(n, "full")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 200)
        assert max(abs(f.integral() - traj[0].integral()) for f in traj) < 1e-13

    def test_positivity_preserved(self):
        op = markov_operator(4, "folded")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.5)
        traj = evolve_density(op, f0, 100)
        assert all(np.all(f.coefficients >= -1e-12) for f in traj)

    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_each_step_is_integer_product_then_one_division(self, kind):
        # bitwise: a pre-scaled matrix rounds differently and would change
        # the simulate CSV
        op = markov_operator(12, kind)
        A = np.array(tent_matrix(12, kind).entries, dtype=float)
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.5), 30)
        for f, g in zip(traj, traj[1:]):
            assert np.array_equal(g.coefficients, (A @ f.coefficients) / op.scale)

    def test_trajectory_length_and_validation(self):
        op = markov_operator(2, "full")
        f0 = invariant_density(2, "full")
        assert len(evolve_density(op, f0, 7)) == 8
        with pytest.raises(ValueError):
            evolve_density(op, f0, -1)

    def test_keeps_no_per_step_objects_alive(self):
        op = markov_operator(12, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        target = invariant_density(12, "full")
        evolve_density(op, f0, 3)
        gc.collect()
        before = len(gc.get_objects())
        traj = evolve_density(op, f0, 20000)
        gc.collect()
        assert len(gc.get_objects()) - before <= 5
        assert len(traj) == 20001
        assert len([f.l1_distance(target) for f in traj]) == 20001
        gc.collect()
        assert len(gc.get_objects()) - before <= 5

    def test_dropped_trajectory_frees_its_block_at_once(self):
        # rows refer to their trajectory, never the other way round, so
        # plain reference counting frees the block
        op = markov_operator(6, "full")
        target = invariant_density(6, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        gc.disable()
        try:
            traj = evolve_density(op, f0, 2000)
            assert traj.settled_at == 1157
            rows = list(traj)
            assert len([f.l1_distance(target) for f in rows]) == len([f.integral() for f in rows])
            traj.l1_distances(target), traj.integrals()
            tail = [traj[r] for r in range(1157, 2001)] + [traj[-1]]
            assert len([f.l1_distance(target) for f in tail]) == len([f.integral() for f in tail])
            block = weakref.ref(traj.coefficients)
            del traj, rows, tail
            assert block() is None
        finally:
            gc.enable()

    def test_distances_to_its_own_row_make_no_cycle(self):
        # the remembered distances hold the target's coefficients, a view of
        # the block that refers to no trajectory
        op = markov_operator(6, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        gc.disable()
        try:
            traj = evolve_density(op, f0, 2000)
            traj.l1_distances(traj[-1])
            block = weakref.ref(traj.coefficients)
            del traj
            assert block() is None
        finally:
            gc.enable()

    def test_rows_are_read_only(self):
        op = markov_operator(5, "folded")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.5), 10)
        block = traj.coefficients
        assert block.shape == (11, op.partition.size) and block.flags.c_contiguous
        for row in (traj[0], traj[4], traj[-1], traj[2:5][1], next(iter(traj))):
            with pytest.raises(ValueError):
                row.coefficients[0] = 1.0
        with pytest.raises(ValueError):
            block[3, 0] = 1.0

    # settled at n = 3 and folded n = 6, unsettled at n = 12
    @pytest.mark.parametrize("kind, n", [("full", 3), ("folded", 6), ("full", 12)])
    def test_rows_are_views_of_the_block(self, kind, n):
        op = markov_operator(n, kind)
        target = invariant_density(n, kind)
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        traj = evolve_density(op, f0, 400)
        block, lengths = traj.coefficients, op.partition.lengths
        by_index = [traj[r] for r in range(len(traj))] + [traj[r - len(traj)] for r in range(len(traj))]
        rows = [*traj, *by_index]
        for r, f in zip(itertools.cycle(range(len(traj))), rows):
            assert isinstance(f, DensityVector) and f.partition is op.partition
            coeffs = f.coefficients
            assert coeffs is f.coefficients and np.shares_memory(coeffs, block)
            assert not coeffs.flags.writeable and same_bits(coeffs, block[r])
            answers = np.array([f.integral(), f.l1_distance(target)])
            own = [lengths.dot(block[r]), lengths.dot(np.abs(block[r] - target.coefficients))]
            assert same_bits(answers, np.array(own))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rows[0].coefficients = block[1]

    def test_replace_copy_and_pickle_of_a_row_are_standalone(self):
        op = markov_operator(6, "full")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 20)
        row, lengths = traj[5], op.partition.lengths
        replaced = dataclasses.replace(row, coefficients=traj.coefficients[6])
        assert same_bits(replaced.coefficients, traj.coefficients[6])
        copies = [dataclasses.replace(row), copy.copy(row), pickle.loads(pickle.dumps(row))]
        for g in [replaced, *copies]:
            assert type(g) is DensityVector and g.partition == op.partition
            assert not np.shares_memory(g.coefficients, traj.coefficients)
            assert not g.coefficients.flags.writeable
        for g in copies:
            assert same_bits(g.coefficients, row.coefficients)
            assert g.integral() == row.integral() == float(lengths.dot(row.coefficients))

    def test_sequence_protocol(self):
        op = markov_operator(3, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        traj = evolve_density(op, f0, 6)
        assert len(traj) == 7
        assert np.array_equal(traj[0].coefficients, f0.coefficients)
        assert traj[0].partition is op.partition
        assert np.array_equal(traj[-1].coefficients, traj[6].coefficients)
        assert np.array_equal(traj[np.int64(2)].coefficients, traj[2].coefficients)
        with pytest.raises(IndexError):
            traj[7]
        with pytest.raises(IndexError):
            traj[-8]
        tail = traj[1:]
        assert len(tail) == 6 and len(traj[::2]) == 4 and len(traj[7:]) == 0
        assert np.array_equal(traj[::2][3].coefficients, traj[6].coefficients)
        pairs = list(zip(traj, traj[1:]))
        assert len(pairs) == 6
        for f, g in pairs:
            assert np.array_equal(g.coefficients, op.apply(f).coefficients)
        assert [f.integral() for f in reversed(traj)] == [f.integral() for f in traj][::-1]

    @pytest.mark.parametrize("kind", ["full", "folded"])
    def test_rows_bit_equal_to_repeated_apply(self, kind):
        op = markov_operator(12, kind)
        f = indicator_density(op, lambda lo, hi: hi <= 0.5)
        traj = evolve_density(op, f, 5000)
        for row in traj.coefficients:
            assert same_bits(row, f.coefficients)
            f = op.apply(f)

    @staticmethod
    def applied(op, f, k):
        """Rows of repeated one-step apply, and the first row equal to the
        one before it bit for bit (None if none within k steps)."""
        rows = [f.coefficients]
        for _ in range(k):
            f = op.apply(f)
            rows.append(f.coefficients)
        bits = np.array(rows).view(np.uint64)
        same = (bits[1:] == bits[:-1]).all(axis=1)
        return np.array(rows), (int(same.argmax()) + 1 if same.any() else None)

    @pytest.mark.parametrize("kind, n", supported(8, 8))
    def test_settled_rows_bit_equal_to_repeated_apply(self, kind, n):
        # every start here settles, the latest at row 4365 (full n = 8)
        op = markov_operator(n, kind)
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        rows, first_repeat = self.applied(op, f0, 5000)
        traj = evolve_density(op, f0, 5000)
        assert first_repeat is not None and traj.settled_at == first_repeat
        assert same_bits(traj.coefficients, rows)

    # evolve_density compares the last rows of its chunks; at 144 fields a
    # chunk (16 rows at m = 9) they end at rows 16, 32, 48, ...  Starting
    # folded n = 6 (settle row 60) later along its own orbit moves the
    # settle row onto a chunk's last row (16, 48) or the next chunk's first
    # (17, 49)
    @pytest.mark.parametrize("settle", [16, 17, 48, 49])
    def test_settles_at_a_chunk_boundary(self, monkeypatch, settle):
        op = markov_operator(6, "folded")
        start = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.5), 200)
        assert start.settled_at == 60
        f0 = start[60 - settle]
        rows, first_repeat = self.applied(op, f0, 200)
        monkeypatch.setattr(transfer, "_CHUNK_FIELDS", 144)
        traj = evolve_density(op, f0, 200)
        assert first_repeat == traj.settled_at == settle
        assert same_bits(traj.coefficients, rows)

    # full n = 3 from simulate's start settles at row 290.  Chunks of 29
    # rows (290 fields at m = 10) end at row 290, and chunks of 17 (170
    # fields) end at row 289, so the settle row is the next one's first
    @pytest.mark.parametrize("k, settled_at", [(289, None), (290, 290), (291, 290)])
    def test_steps_end_before_or_at_the_settle_row(self, monkeypatch, k, settled_at):
        op = markov_operator(3, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        rows, first_repeat = self.applied(op, f0, k)
        assert first_repeat == settled_at
        for fields in (4096, 290, 170):
            monkeypatch.setattr(transfer, "_CHUNK_FIELDS", fields)
            traj = evolve_density(op, f0, k)
            assert traj.settled_at == settled_at
            assert same_bits(traj.coefficients, rows)
            assert traj[1:].settled_at is None

    # full n = 9 from these starts settles by row 8343, within 9000 steps
    @pytest.mark.parametrize(
        "kind, n", [("full", 1), ("full", 3), ("full", 6), ("full", 9), ("folded", 3), ("folded", 6)]
    )
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_settled_rows_are_one_density(self, kind, n, seed):
        op = markov_operator(n, kind)
        cut = 0.0 if kind == "full" else 0.5
        if seed is None:
            f0 = indicator_density(op, lambda lo, hi: hi <= cut)
        else:
            f0 = seeded_density(op, cut, seed)
        traj = evolve_density(op, f0, 9000)
        q = traj.settled_at
        assert q is not None
        rows = list(traj)
        assert len(rows) == len(traj)
        assert all(same_bits(f.coefficients, c) for f, c in zip(rows, traj.coefficients))
        # one iteration yields one density for the settled tail
        tail = rows[q]
        assert all(f is tail for f in rows[q:]) and all(f is not tail for f in rows[:q])
        # every settled row, read by index or by iteration, is row q and
        # answers with row q's entries of the whole-block arrays
        target = invariant_density(n, kind)
        answers = np.array([traj.integrals()[q], traj.l1_distances(target)[q]])
        row, lengths = traj.coefficients[q], op.partition.lengths
        own = [lengths.dot(row), lengths.dot(np.abs(row - target.coefficients))]
        assert same_bits(answers, np.array(own))
        by_index = [traj[r] for r in [*range(q, len(traj)), *range(q - len(traj), 0)]]
        for f in by_index + rows[q:]:
            assert same_bits(f.coefficients, traj.coefficients[q])
            assert same_bits(np.array([f.integral(), f.l1_distance(target)]), answers)

    @pytest.mark.parametrize("kind, n", [("full", 3), ("full", 6), ("folded", 6), ("full", 12)])
    def test_distances_and_integrals_keep_their_bits(self, kind, n):
        # settled at n = 3 and 6, unsettled at n = 12; each value is the
        # bound dot of its own row
        op = markov_operator(n, kind)
        target = invariant_density(n, kind)
        other = invariant_density(n, kind)
        lengths = op.partition.lengths
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        traj = evolve_density(op, f0, 3000)
        assert (traj.settled_at is None) == (n == 12)
        for _ in range(2):
            l1 = [f.l1_distance(target) for f in traj]
            assert [float(lengths.dot(np.abs(c - target.coefficients))) for c in traj.coefficients] == l1
            assert [float(lengths.dot(c)) for c in traj.coefficients] == [f.integral() for f in traj]
            # another target object with the same coefficients
            assert [f.l1_distance(other) for f in traj] == l1

    @staticmethod
    def assert_block_answers_keep_their_bits(traj, target):
        """The whole-block arrays, and every row's answers by iteration and by
        negative index, equal each row's own bound dot bit for bit."""
        lengths = traj.partition.lengths
        l1 = np.array([float(lengths.dot(np.abs(c - target.coefficients))) for c in traj.coefficients])
        integrals = np.array([float(lengths.dot(c)) for c in traj.coefficients])
        for values, reference in ((traj.l1_distances(target), l1), (traj.integrals(), integrals)):
            assert values.dtype == np.float64 and same_bits(values, reference)
            with pytest.raises(ValueError):
                values[0] = 1.0
        assert same_bits(np.array([f.l1_distance(target) for f in traj]), l1)
        assert same_bits(np.array([f.integral() for f in traj]), integrals)
        by_index = [traj[r - len(traj)] for r in range(len(traj))]
        assert same_bits(np.array([f.l1_distance(target) for f in by_index]), l1)
        assert same_bits(np.array([f.integral() for f in by_index]), integrals)

    # full n = 12 (m = 28, 146 rows a chunk at 4096 fields) does not
    # settle: 1 row, one chunk - 1, one chunk and one chunk + 1
    @pytest.mark.parametrize("k", [0, 144, 145, 146])
    def test_whole_block_answers_keep_their_bits_across_chunks(self, monkeypatch, k):
        monkeypatch.setattr(transfer, "_CHUNK_FIELDS", 4096)
        op = markov_operator(12, "full")
        assert transfer._CHUNK_FIELDS // op.partition.size == 146
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), k)
        assert len(traj) == k + 1 and traj.settled_at is None
        self.assert_block_answers_keep_their_bits(traj, invariant_density(12, "full"))

    # full n = 6 (m = 16, 256 rows a chunk at 4096 fields) from simulate's
    # start settles at row 1157, inside a chunk; started 134 rows later
    # along its orbit it settles at row 1023, a chunk's last row
    @pytest.mark.parametrize("later, settle", [(0, 1157), (134, 1023)])
    def test_whole_block_answers_keep_their_bits_when_settled(self, monkeypatch, later, settle):
        monkeypatch.setattr(transfer, "_CHUNK_FIELDS", 4096)
        op = markov_operator(6, "full")
        assert transfer._CHUNK_FIELDS // op.partition.size == 256
        start = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 2000)
        traj = evolve_density(op, start[later], 2000)
        assert traj.settled_at == settle
        target = invariant_density(6, "full")
        self.assert_block_answers_keep_their_bits(traj, target)
        for part in (traj[::3], traj[::-1], traj[settle - 5 : settle + 5], traj[-7:], traj[5:5]):
            self.assert_block_answers_keep_their_bits(part, target)

    @pytest.mark.parametrize("kind, n", [("full", 3), ("folded", 7)])
    def test_whole_block_answers_on_an_equal_partition(self, kind, n):
        op = markov_operator(n, kind)
        part = analytic_partition(n, kind, poly.solve_kappa(n).kappa)
        assert part is not op.partition and part == op.partition
        target = DensityVector(part, invariant_density(n, kind).coefficients)
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        self.assert_block_answers_keep_their_bits(evolve_density(op, f0, 500), target)

    def test_whole_block_distances_are_remembered_for_the_last_target(self):
        op = markov_operator(6, "full")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 300)
        a, b = invariant_density(6, "full"), traj[0]
        assert traj.l1_distances(a) is traj.l1_distances(a)
        assert traj.integrals() is traj.integrals()
        first = traj.l1_distances(a)
        assert traj.l1_distances(b) is not first and traj.l1_distances(b)[0] == 0.0
        assert same_bits(traj.l1_distances(a), first)

    def test_rows_against_another_target_keep_the_remembered_distances(self):
        # alternating targets row by row costs a dot a row, not a block pass
        op = markov_operator(6, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0.0)
        traj = evolve_density(op, f0, 300)
        a, b = invariant_density(6, "full"), f0
        lengths = op.partition.lengths
        remembered = traj.l1_distances(a)
        for f, c in zip(traj, traj.coefficients):
            assert f.l1_distance(b) == float(lengths.dot(np.abs(c - b.coefficients)))
            assert f.l1_distance(a) == float(lengths.dot(np.abs(c - a.coefficients)))
        assert traj.l1_distances(a) is remembered

    def test_whole_block_distances_reject_another_partition_every_time(self):
        # full n = 1 and folded n = 3 both have 6 intervals
        op = markov_operator(1, "full")
        traj = evolve_density(op, invariant_density(1, "full"), 10)
        g = invariant_density(3, "folded")
        for _ in range(2):
            with pytest.raises(PartitionMismatch):
                traj.l1_distances(g)
            with pytest.raises(PartitionMismatch):
                traj[0].l1_distance(g)
            with pytest.raises(PartitionMismatch):
                traj[1:][2].l1_distance(g)
        assert traj._l1 is None
        f = invariant_density(1, "full")
        assert traj[3].l1_distance(f) == traj.l1_distances(f)[3]
        with pytest.raises(PartitionMismatch):
            traj[3].l1_distance(g)

    def test_n12_does_not_settle(self):
        op = markov_operator(12, "full")
        traj = evolve_density(op, indicator_density(op, lambda lo, hi: hi <= 0.0), 20000)
        assert traj.settled_at is None

    @pytest.mark.parametrize("kind, n", supported(29, 52))
    def test_integral_is_the_lengths_dot(self, kind, n):
        op = markov_operator(n, kind)
        lengths = op.partition.lengths
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        traj = evolve_density(op, f0, 200)
        assert [f.integral() for f in traj] == [float(lengths @ c) for c in traj.coefficients]

    def test_n3_decay_rate_matches_second_eigenvalue(self):
        op = markov_operator(3, "full")
        target = invariant_density(3, "full")
        f0 = indicator_density(op, lambda lo, hi: hi <= 0)
        traj = evolve_density(op, f0, 200)
        dists = [f.l1_distance(target) for f in traj]
        rate = fit_decay_rate(dists)
        lam2 = spectral.spectral_report(3).second_modulus_M
        assert abs(rate - lam2) / lam2 < 0.05


class TestDensityVector:
    def test_copies_and_freezes_its_coefficients(self):
        op = markov_operator(3, "full")
        source = np.linspace(1.0, 2.0, op.partition.size)
        kept = source.copy()
        f = DensityVector(op.partition, source)
        source[:] = 0.0
        assert same_bits(f.coefficients, kept)
        with pytest.raises(ValueError):
            f.coefficients[0] = 1.0
        assert same_bits(f.coefficients, kept)
        assert f.coefficients.dtype == np.float64 and not f.coefficients.flags.writeable

    def test_remembered_distance_is_never_stale(self):
        op = markov_operator(6, "full")
        f = indicator_density(op, lambda lo, hi: hi <= 0.0)
        a = invariant_density(6, "full")
        b = indicator_density(op, lambda lo, hi: lo >= 0.0)
        assert not np.array_equal(a.coefficients, b.coefficients)
        lengths = op.partition.lengths
        for g in (a, b, a, f, b):
            assert f.l1_distance(g) == float(lengths.dot(np.abs(f.coefficients - g.coefficients)))
        assert f.l1_distance(f) == 0.0 and f.l1_distance(b) > 0.0

    def test_densities_and_operators_compare_and_hash_by_identity(self):
        # the generated field-wise == raised on the numpy arrays, and hash()
        # raised on them too
        f = invariant_density(3, "full")
        g = DensityVector(f.partition, f.coefficients)
        op = markov_operator(3, "full")
        same_op = MarkovOperator(op.adjacency, op.scale, op.partition)
        for x, twin in ((f, g), (op, same_op)):
            assert x == x and x != twin
            assert {x: 1}[x] == 1 and len({x, twin}) == 2


class TestPartitionMismatch:
    """Full n = 1 and folded n = 3 both have 6 intervals, so only the
    partition check tells their densities apart."""

    def test_l1_distance_rejects_another_partition(self):
        f, g = invariant_density(1, "full"), invariant_density(3, "folded")
        assert f.partition.size == g.partition.size == 6
        with pytest.raises(PartitionMismatch, match="different partitions"):
            f.l1_distance(g)
        with pytest.raises(PartitionMismatch):
            g.l1_distance(f)

    def test_apply_rejects_another_partition(self):
        op = markov_operator(3, "folded")
        with pytest.raises(PartitionMismatch):
            op.apply(invariant_density(1, "full"))

    def test_evolve_density_rejects_another_partition(self):
        with pytest.raises(PartitionMismatch):
            evolve_density(markov_operator(3, "folded"), invariant_density(1, "full"), 5)

    @pytest.mark.parametrize("kind, n", [("full", 3), ("folded", 7)])
    def test_operator_and_density_share_one_partition(self, kind, n):
        assert invariant_density(n, kind).partition is markov_operator(n, kind).partition

    @pytest.mark.parametrize("kind, n", [("full", 3), ("folded", 7)])
    def test_equal_partitions_are_accepted(self, kind, n):
        op = markov_operator(n, kind)
        target = invariant_density(n, kind)
        # an equal but distinct partition, straight from the closed form
        part = analytic_partition(n, kind, poly.solve_kappa(n).kappa)
        assert part is not op.partition and part == op.partition
        f0 = DensityVector(part, target.coefficients)
        assert np.array_equal(op.apply(f0).coefficients, (op.adjacency @ f0.coefficients) / op.scale)
        traj = evolve_density(op, f0, 4)
        assert [f.l1_distance(f0) for f in traj] == [
            float(op.partition.lengths @ np.abs(c - f0.coefficients))
            for c in traj.coefficients
        ]

    def test_only_equal_pairs_are_remembered(self):
        f = invariant_density(1, "full")
        f.l1_distance(invariant_density(1, "full"))
        g = invariant_density(3, "folded")
        for _ in range(2):  # a failed check is not remembered either
            with pytest.raises(PartitionMismatch):
                f.l1_distance(g)
        f.l1_distance(DensityVector(invariant_density(1, "full").partition, g.coefficients))
        with pytest.raises(PartitionMismatch):
            f.l1_distance(g)


class TestDecayFit:
    @staticmethod
    def polyfit_rate(norms) -> float:
        """The reference: fit_decay_rate's tail, its slope by np.polyfit."""
        tail = np.asarray(norms, dtype=float)[transfer._BURN_IN :]
        below = np.nonzero(tail < tail.max() * 1e-7)[0]
        if below.size:
            tail = tail[: max(int(below[0]), 2)]
        return float(np.exp(np.polyfit(np.arange(len(tail)), np.log(tail), 1)[0]))

    @staticmethod
    def assert_within_8_ulp(norms):
        rate, reference = fit_decay_rate(norms), TestDecayFit.polyfit_rate(norms)
        gap = abs(int(np.float64(rate).view(np.int64)) - int(np.float64(reference).view(np.int64)))
        assert gap <= 8, (rate, reference)

    @pytest.mark.parametrize(
        "norms",
        [
            [0.9**k for k in range(100)],
            [2.0] * 40,
            [0.5**k for k in range(60)] + [1e-19] * 60,
        ],
        ids=["geometric", "constant", "noise-floor"],
    )
    def test_closed_form_slope_matches_polyfit(self, norms):
        self.assert_within_8_ulp(norms)

    @pytest.mark.parametrize("kind", ["full", "folded"])
    @pytest.mark.parametrize("n", [3, 6, 10, 14])
    def test_closed_form_slope_matches_polyfit_on_trajectories(self, kind, n):
        op = markov_operator(n, kind)
        f0 = indicator_density(op, lambda lo, hi: hi <= (0.0 if kind == "full" else 0.5))
        traj = evolve_density(op, f0, 2000)
        self.assert_within_8_ulp(traj.l1_distances(invariant_density(n, kind)))

    def test_exact_geometric(self):
        assert fit_decay_rate([0.9 ** k for k in range(100)]) == pytest.approx(0.9, abs=1e-12)

    def test_constant_sequence(self):
        assert fit_decay_rate([2.0] * 40) == pytest.approx(1.0, abs=1e-12)

    def test_positive_norms_required(self):
        with pytest.raises(NonPositiveNorm):
            fit_decay_rate([1.0, -1.0] + [0.5] * 40)

    def test_nan_norms_rejected(self):
        with pytest.raises(NonPositiveNorm, match="norm 0 is nan"):
            fit_decay_rate([math.nan] * 40)

    def test_infinite_norms_rejected(self):
        with pytest.raises(NonPositiveNorm, match="norm 30 is inf"):
            fit_decay_rate([1.0] * 30 + [math.inf] * 10)

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            fit_decay_rate([1.0] * 25)

    def test_noise_floor_excluded(self):
        clean = [0.5 ** k for k in range(60)]
        noisy = clean + [1e-19] * 60  # converged-to-rounding tail
        assert fit_decay_rate(noisy) == pytest.approx(0.5, rel=1e-6)


class TestRateSeparation:
    @pytest.mark.parametrize("n", range(6, 11))
    def test_folded_fast_full_slow(self, n):
        rates = {}
        for kind, cut in (("full", 0.0), ("folded", 0.5)):
            op = markov_operator(n, kind)
            target = invariant_density(n, kind)
            f0 = indicator_density(op, lambda lo, hi, c=cut: hi <= c)
            traj = evolve_density(op, f0, 200)
            dists = [f.l1_distance(target) for f in traj]
            rates[kind] = fit_decay_rate(dists)
        assert rates["folded"] <= 0.62
        assert rates["full"] >= 0.90


class TestUlam:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_markov_grid_spectrum_matches_operator(self, n, multiset_match):
        kappa = poly.solve_kappa(n).kappa
        tmap = plmap.make_paired_tent(kappa)
        part = analytic_partition(n, "full", kappa)
        U = ulam_matrix(tmap, part)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12
        e_ulam = oracle_eigenvalues(U)
        op = markov_operator(n, "full")
        e_op = oracle_eigenvalues(op.adjacency / op.scale)
        assert multiset_match(e_ulam, e_op) < 1e-8

    def test_uniform_grid_rows_stochastic(self):
        tmap = plmap.make_paired_tent(0.3)
        U = ulam_matrix(tmap, np.linspace(-1, 1, 65))
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) < 1e-12

    def test_uniform_256_cells_approximates_spectrum(self):
        # empirical tolerance, recorded at build time: with 256 uniform cells
        # the second modulus came out 0.659 against lambda2(M_3) = 0.708
        # (deviation 0.049, shrinking to 0.017 at 2048 cells); the leading
        # eigenvalue is exact to rounding
        kappa = poly.solve_kappa(3).kappa
        tmap = plmap.make_paired_tent(kappa)
        U = ulam_matrix(tmap, np.linspace(-1, 1, 257))
        Ut = U.toarray().T.copy()
        x = np.full(256, 1.0 / 256)
        for _ in range(4000):
            x = Ut @ x
        leading = x @ (Ut @ x) / (x @ x)
        assert abs(leading - 1.0) < 1e-10
        star = x / x.sum()
        y = np.zeros(256)
        y[:64] = 1.0 / 64
        dists = []
        for _ in range(200):
            dists.append(np.abs(y - star).sum())
            y = Ut @ y
        rate = fit_decay_rate(dists)
        lam2 = spectral.spectral_report(3).second_modulus_M
        assert abs(rate - lam2) < 0.06

    def test_grid_must_cover_ambient(self):
        tmap = plmap.make_paired_tent(0.3)
        with pytest.raises(ValueError):
            ulam_matrix(tmap, np.linspace(-0.5, 1, 17))

    def test_degenerate_cell_rejected(self):
        tmap = plmap.make_paired_tent(0.3)
        grid = [-1.0, -0.5, -0.5 + 1e-13, 0.5, 1.0]
        with pytest.raises(DegenerateCell):
            ulam_matrix(tmap, grid)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=ulam_cases)
    def test_rows_sum_to_one_on_jittered_grids(self, case):
        kind, kappa, cells, seed = case
        pmap = MAKERS[kind](kappa)
        U = ulam_matrix(pmap, jittered_grid(pmap, cells, seed))
        assert U.shape == (cells, cells)
        assert np.max(np.abs(U.sum(axis=1) - 1.0)) <= 1e-12

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(case=ulam_cases)
    @example(case=("full", poly.solve_kappa(5).kappa, 400, 1))
    @example(case=("folded", poly.solve_kappa(5).kappa, 400, 2))
    @with_order_examples
    def test_bitwise_equal_to_all_cells_scan(self, case):
        kind, kappa, cells, seed = case
        pmap = MAKERS[kind](kappa)
        grid = jittered_grid(pmap, cells, seed)
        assert same_bits(ulam_matrix(pmap, grid).toarray(), reference_ulam(pmap, grid))

    @pytest.mark.parametrize("kind, n, cells, seed", BRANCH_ORDER_GRIDS)
    def test_branch_order_grids_tell_the_order_apart(self, kind, n, cells, seed):
        pmap = MAKERS[kind](poly.solve_kappa(n).kappa)
        grid = jittered_grid(pmap, cells, seed)
        reordered = reference_ulam(pmap, grid, pmap.branches[::-1])
        assert not same_bits(reordered, reference_ulam(pmap, grid))

    @pytest.mark.parametrize("kind, n, cells, seed", MERGE_ORDER_GRIDS)
    def test_merge_order_grids_tell_the_association_apart(self, kind, n, cells, seed):
        pmap = MAKERS[kind](poly.solve_kappa(n).kappa)
        grid = jittered_grid(pmap, cells, seed)
        a, b, c, d = (reference_ulam(pmap, grid, (branch,)) for branch in pmap.branches)
        scan = reference_ulam(pmap, grid)
        assert same_bits(((a + b) + c) + d, scan)
        assert not same_bits(a + (b + (c + d)), scan)

    @pytest.mark.parametrize(
        "kind, n, cells, seed",
        [("full", 5, 50, 1), ("folded", 8, 128, 1), ("full", 1, 2, 2), ("folded", 1, 5, 4)],
    )
    def test_csr_invariants(self, kind, n, cells, seed):
        pmap = MAKERS[kind](poly.solve_kappa(n).kappa)
        U = ulam_matrix(pmap, jittered_grid(pmap, cells, seed))
        assert U.shape == (cells, cells) and not hasattr(U, "__array__")
        assert U.indptr[0] == 0 and U.indptr[-1] == U.nnz == len(U.indices) == len(U.data)
        assert (np.diff(U.indptr) >= 0).all()
        for j in range(cells):
            row = U.indices[U.indptr[j] : U.indptr[j + 1]]
            assert (np.diff(row) > 0).all() and (row >= 0).all() and (row < cells).all()
        assert (U.data > 0.0).all()
        dense = U.toarray()
        assert np.count_nonzero(dense) == U.nnz
        reads = [[U[j, i] for i in range(cells)] for j in range(cells)]
        assert all(type(x) is float for row in reads for x in row)
        # off-pattern reads are +0.0, stored ones the stored bits
        assert same_bits(np.array(reads), dense)
        assert U[-1, -cells] == dense[-1, 0]
        with pytest.raises(IndexError):
            U[cells, 0]
        for array in (U.indptr, U.indices, U.data):
            with pytest.raises(ValueError):
                array[0] = array[0]
        with pytest.raises(AttributeError):
            U.data = U.data.copy()

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("jittered", [False, True])
    def test_row_sums_within_bound_at_2_17_cells(self, kind, jittered):
        pmap = MAKERS[kind](poly.solve_kappa(5).kappa)
        cells = 2**17
        if jittered:
            grid = jittered_grid(pmap, cells, 1)
        else:
            grid = np.linspace(pmap.ambient.lo, pmap.ambient.hi, cells + 1)
        U = ulam_matrix(pmap, grid)
        err = np.abs(U.sum(axis=1) - 1.0)
        assert (err <= row_sum_bound(pmap, grid, U)).all()

    @pytest.mark.parametrize("kind, seed", [("full", 1), ("folded", 2)])
    def test_bitwise_equal_to_per_cell_loop_at_1600_cells(self, kind, seed):
        # the transport benchmark's size
        pmap = MAKERS[kind](poly.solve_kappa(5).kappa)
        grid = jittered_grid(pmap, 1600, seed)
        assert same_bits(ulam_matrix(pmap, grid).toarray(), loop_ulam(pmap, grid))

    def test_nan_breakpoint_rejected_with_its_cell(self):
        tmap = plmap.make_paired_tent(0.3)
        with pytest.raises(DegenerateCell, match=r"grid cell 0 on \[-1.0, nan\] has length nan"):
            ulam_matrix(tmap, [-1.0, math.nan, 0.0, 1.0])

    @pytest.mark.parametrize("kind", sorted(MAKERS))
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_bitwise_equal_to_all_cells_scan_on_markov_partition(self, kind, n):
        kappa = poly.solve_kappa(n).kappa
        pmap = MAKERS[kind](kappa)
        part = analytic_partition(n, kind, kappa)
        assert same_bits(ulam_matrix(pmap, part).toarray(), reference_ulam(pmap, part.breakpoints))

    def test_accepts_markov_partition_object(self):
        part = MarkovPartition((-1.0, 0.0, 1.0))
        tmap = plmap.make_paired_tent(0.3)
        U = ulam_matrix(tmap, part)
        assert U.shape == (2, 2)

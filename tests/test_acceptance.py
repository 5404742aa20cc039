"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from tentspec import exact, markov, plmap, poly, spectral, transfer
from tentspec.exact import ExactMatrix, IntPolynomial

from conftest import match_multisets, oracle_eigenvalues, tent_suite

X = IntPolynomial((0, 1))


def report(number: int, text: str):
    print(f"[acceptance] criterion {number}: PASS ({text})")


def test_criterion_01_exact_identity_suite():
    start = time.monotonic()
    for n in range(1, 11):
        s = tent_suite(n)
        A, J = s["A"], s["J"]
        size = 2 * n + 4
        An = A ** n
        assert (A @ (An @ A - 2 * An - 2 * J)).is_zero(), f"pair identity fails at n={n}"
        assert A @ J == J @ A, f"commutation fails at n={n}"
        assert J @ J == ExactMatrix.identity(size), f"involution fails at n={n}"
        assert J @ A @ J == A, f"flip conjugation fails at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"exact identities, n=1..10, {elapsed:.1f}s")


def test_criterion_02_minimal_polynomials():
    for n in range(1, 11):
        s = tent_suite(n)
        explicit = IntPolynomial(tuple([0, -4] + [0] * (2 * n - 1) + [4, -4, 1]))
        assert exact.krylov_min_poly(s["A"]) == explicit, f"min poly of A fails at n={n}"
        assert exact.krylov_min_poly(s["J"]) == IntPolynomial((-1, 0, 1)), f"J min poly, n={n}"
        assert exact.krylov_min_poly(s["B"]) == X * poly.f_poly(n), f"B min poly, n={n}"
    report(2, "Krylov minimal polynomials, n=1..10, exact coefficients")


def test_criterion_03_kernels():
    for n in range(1, 11):
        s = tent_suite(n)
        size = 2 * n + 4
        v1 = [0] * size
        for i in range(n):
            v1[i] = 1
        v1[n] = v1[n + 1] = -1
        basis_a = exact.kernel_basis(s["A"])
        assert len(basis_a) == 2, f"nullity of A at n={n}"
        assert exact.same_span(basis_a, [tuple(v1), tuple(v1[::-1])]), f"A kernel span, n={n}"

        basis_b = exact.kernel_basis(s["B"])
        assert len(basis_b) == 2, f"nullity of B at n={n}"
        m = n + 3
        if n >= 2:
            short = [0] * m
            short[2], short[3] = 1, -1
            long_ = [1, 1] + [0] * 2 + [-1] * (m - 4)
        else:
            # the n=1 partition has its split one interval outward, so the
            # short-branch pair sits at positions 2,3 and the long pair at 1,4
            short = [0, 1, -1, 0]
            long_ = [1, 0, 0, -1]
        assert exact.same_span(basis_b, [tuple(short), tuple(long_)]), f"B kernel span, n={n}"
    report(3, "kernel bases, n=1..10, exact span equality")


def test_criterion_04_factor_intertwining():
    for n in range(1, 13):
        s = tent_suite(n)
        iota = s["iota"]
        assert iota @ s["C"] == s["B"] @ iota, f"intertwine fails at n={n}"
        assert exact.rational_rank(iota) == n + 2, f"rank of inclusion, n={n}"
        cols = [iota.column(j) for j in range(iota.cols)]
        d34 = [0] * (n + 3)
        d34[2], d34[3] = 1, -1
        assert not exact.same_span(cols, cols + [tuple(d34)]), f"split vector in image, n={n}"
    report(4, "inclusion intertwines the factor matrix, n=1..12")


def test_criterion_05_root_locations():
    start = time.monotonic()
    for n in range(6, 41):
        rf = poly.aberth_roots(poly.f_poly(n))
        rg = poly.aberth_roots(poly.g_poly(n))
        assert max(rf.residuals) < 1e-9, f"f residuals at n={n}"
        assert max(rg.residuals) < 1e-9, f"g residuals at n={n}"
        rep = poly.annulus_classify(n, rf, rg)
        assert rep.counts_f == (0, n, 1), f"f counts at n={n}: {rep.counts_f}"
        assert rep.counts_g == (0, n, 1), f"g counts at n={n}: {rep.counts_g}"
        # the root-free report (Rouche counts, 2+2*kappa_n and 2-2*r_n)
        # agrees with the roots
        cert = spectral.spectral_report(n)
        for field in ("counts_f", "counts_g", "inside_inner", "in_annulus", "outside_outer"):
            assert getattr(cert.annulus, field) == getattr(rep, field), f"{field} at n={n}"
        top = sorted(rf.moduli() + rg.moduli(), reverse=True)
        rho = 2 + 2 * cert.kappa_n
        assert abs(cert.spectral_radius_A - top[0]) <= math.ulp(top[0]), f"radius at n={n}"
        assert abs(cert.second_modulus_M * rho - top[1]) <= math.ulp(top[1]), f"second at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(5, f"annulus root counts and the Rouche-certified report agree, n=6..40, {elapsed:.1f}s")


def test_criterion_06_kappa_and_r_asymptotics():
    assert abs(poly.solve_kappa(20).kappa * 2 ** 20 - 1) < 1e-4
    for n in range(5, 31):
        r = poly.solve_r(n)
        lo = math.ldexp(1.0, -n)
        hi = lo + 2 * n * math.ldexp(1.0, -2 * n)
        assert lo < r < hi, f"r bracket violated at n={n}"
    report(6, "kappa dyadic asymptotics and strict r brackets, n=5..30")


def test_criterion_07_second_eigenvalue():
    rep1 = spectral.spectral_report(1)
    assert abs(rep1.second_modulus_M - math.sqrt(2) / (1 + math.sqrt(3))) < 1e-10
    for n in range(10, 31):
        rep = spectral.spectral_report(n)
        assert abs(rep.second_modulus_M - (1 - 2 * rep.kappa_n)) < rep.kappa_n / 10, f"n={n}"
    report(7, "second eigenvalue tracks 1-2*kappa, n=10..30, closed form at n=1")


def test_criterion_08_mixing_time_asymptotics():
    for n in range(15, 26):
        rep = spectral.spectral_report(n)
        ratio = rep.mixing_time_full / 2 ** (n - 1)
        assert 0.95 < ratio < 1.05, f"mixing ratio {ratio} at n={n}"
    for n in range(6, 26):
        rep = spectral.spectral_report(n)
        rho = 2 + 2 * rep.kappa_n
        folded_second = sorted(poly.aberth_roots(poly.f_poly(n)).moduli())[-2] / rho
        assert folded_second <= rep.second_modulus_bound_factor, f"folded bound at n={n}"
    report(8, "mixing time ~ 2^(n-1) and folded second eigenvalue within its bound")


def test_criterion_09_small_n_oracle_equivalence():
    for n in range(1, 6):
        s = tent_suite(n)
        evs = oracle_eigenvalues(s["A"])
        expected = [0.0, 0.0]
        expected += poly.aberth_roots(poly.f_poly(n)).as_complex()
        expected += poly.aberth_roots(poly.g_poly(n)).as_complex()
        assert match_multisets(evs, expected) < 1e-7, f"multiset mismatch at n={n}"
        assert sum(1 for z in evs if abs(z) >= 2.0) == 1, f"modulus count at n={n}"
    report(9, "power-iteration oracle matches root multisets, n=1..5")


def test_criterion_10_dynamics_round_trip():
    for n in range(1, 13):
        kappa = poly.solve_kappa(n).kappa
        for kind, maker in (("full", plmap.make_paired_tent), ("folded", plmap.make_folded_tent)):
            pmap = maker(kappa)
            detected, trace = markov.detect_markov_partition(pmap)
            analytic = markov.analytic_partition(n, kind, kappa)
            assert trace.stabilized_at is not None
            assert detected.size == analytic.size, f"interval count, n={n} {kind}"
            diff = max(
                abs(a - b) for a, b in zip(detected.breakpoints, analytic.breakpoints)
            )
            assert diff < 1e-9, f"breakpoints differ by {diff} at n={n} {kind}"
            assert markov.adjacency_matrix(pmap, detected) == markov.adjacency_matrix(
                pmap, analytic
            ), f"adjacency mismatch at n={n} {kind}"
    report(10, "detection reproduces analytic partitions and matrices, n=1..12")


def test_criterion_11_transfer_simulation():
    start = time.monotonic()
    op = transfer.markov_operator(3, "full")
    target = transfer.invariant_density(3, "full")
    assert np.max(np.abs(target.coefficients - target.coefficients[::-1])) < 1e-9

    coeffs = np.array([1.0 if hi <= 0 else 0.0 for _, hi in op.partition.intervals()])
    f0 = transfer.DensityVector(op.partition, coeffs)
    f0 = transfer.DensityVector(op.partition, f0.coefficients / f0.integral())
    trajectory = transfer.evolve_density(op, f0, 200)
    assert all(abs(f.integral() - 1.0) < 1e-10 for f in trajectory)

    dists = [f.l1_distance(target) for f in trajectory]
    rate = transfer.fit_decay_rate(dists)
    lam2 = spectral.spectral_report(3).second_modulus_M
    assert abs(rate - lam2) / lam2 < 0.05, f"fitted {rate} vs lambda2 {lam2}"

    for n in (6, 10):
        rates = {}
        for kind, cut in (("full", 0.0), ("folded", 0.5)):
            opn = transfer.markov_operator(n, kind)
            fstar = transfer.invariant_density(n, kind)
            cs = np.array(
                [1.0 if hi <= cut else 0.0 for _, hi in opn.partition.intervals()]
            )
            g0 = transfer.DensityVector(opn.partition, cs)
            g0 = transfer.DensityVector(opn.partition, g0.coefficients / g0.integral())
            traj = transfer.evolve_density(opn, g0, 200)
            rates[kind] = transfer.fit_decay_rate([f.l1_distance(fstar) for f in traj])
        assert rates["folded"] <= 0.62, f"folded rate {rates['folded']} at n={n}"
        assert rates["full"] >= 0.90, f"full rate {rates['full']} at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(11, f"decay rates and conservation, {elapsed:.1f}s")


def test_perron_identity_exact_rational():
    # supporting check used by criterion 7's pipeline: the dominant root of
    # the f family is 2+2*kappa_n, verified by exact rational evaluation at
    # the unrounded point
    for n in range(1, 31):
        k = Fraction(poly.solve_kappa(n).kappa)
        assert abs(poly.f_poly(n)(2 + 2 * k)) < Fraction(1, 10 ** 9)

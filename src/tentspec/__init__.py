"""Paired tent maps: Markov partitions, exact spectral identities, and mixing rates."""

from .exact import (
    ExactMatrix,
    IntPolynomial,
    flip_matrix,
    inclusion_iota,
    kernel_basis,
    krylov_min_poly,
    mat_poly_apply,
    symmetric_restriction,
    verify_intertwine,
    verify_pair_identity,
)
from .markov import (
    MarkovPartition,
    adjacency_matrix,
    analytic_partition,
    detect_markov_partition,
    interval_lengths,
)
from .plmap import Interval, PiecewiseLinearMap, make_folded_tent, make_paired_tent
from .poly import (
    aberth_roots,
    annulus_classify,
    f_poly,
    g_poly,
    min_poly,
    solve_kappa,
    solve_r,
)
from .spectral import eigvec_for_root, oracle_eigenvalues, spectral_report
from .transfer import (
    DensityVector,
    evolve_density,
    fit_decay_rate,
    invariant_density,
    markov_operator,
    ulam_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ExactMatrix",
    "IntPolynomial",
    "Interval",
    "PiecewiseLinearMap",
    "MarkovPartition",
    "DensityVector",
    "make_paired_tent",
    "make_folded_tent",
    "detect_markov_partition",
    "analytic_partition",
    "adjacency_matrix",
    "interval_lengths",
    "flip_matrix",
    "mat_poly_apply",
    "verify_pair_identity",
    "krylov_min_poly",
    "kernel_basis",
    "symmetric_restriction",
    "inclusion_iota",
    "verify_intertwine",
    "f_poly",
    "g_poly",
    "min_poly",
    "solve_kappa",
    "solve_r",
    "aberth_roots",
    "annulus_classify",
    "eigvec_for_root",
    "oracle_eigenvalues",
    "spectral_report",
    "markov_operator",
    "invariant_density",
    "evolve_density",
    "ulam_matrix",
    "fit_decay_rate",
]

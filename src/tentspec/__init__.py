"""Paired tent maps: Markov partitions, exact spectral identities, and mixing rates.

`import tentspec` loads no submodule; each public name imports its
submodule on first access (PEP 562), so the exact layers run without numpy
or mpmath.  The result is not cached here, so a function patched in its
submodule (as the benchmark tracer does) is what `tentspec.<name>` returns.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    "ExactMatrix": "exact",
    "IntPolynomial": "exact",
    "flip_matrix": "exact",
    "inclusion_iota": "exact",
    "kernel_basis": "exact",
    "krylov_min_poly": "exact",
    "mat_poly_apply": "exact",
    "symmetric_restriction": "exact",
    "verify_intertwine": "exact",
    "verify_pair_identity": "exact",
    "MarkovPartition": "markov",
    "adjacency_matrix": "markov",
    "analytic_partition": "markov",
    "detect_markov_partition": "markov",
    "interval_lengths": "markov",
    "Interval": "plmap",
    "PiecewiseLinearMap": "plmap",
    "make_folded_tent": "plmap",
    "make_paired_tent": "plmap",
    "aberth_roots": "poly",
    "annulus_classify": "poly",
    "f_poly": "poly",
    "g_poly": "poly",
    "min_poly": "poly",
    "solve_kappa": "poly",
    "solve_r": "poly",
    "eigvec_for_root": "spectral",
    "oracle_eigenvalues": "spectral",
    "spectral_report": "spectral",
    "DensityVector": "transfer",
    "evolve_density": "transfer",
    "fit_decay_rate": "transfer",
    "invariant_density": "transfer",
    "markov_operator": "transfer",
    "ulam_matrix": "transfer",
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    # a submodule itself (tentspec.poly) loads as on `import tentspec.poly`
    if name in _SUBMODULE.values():
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)

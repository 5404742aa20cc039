"""Paired tent maps: Markov partitions, exact spectral identities, and mixing rates.

`import tentspec` loads no submodule, so the exact layers run without numpy
or mpmath.  Import each name from its submodule, as in
`from tentspec.poly import aberth_roots` or `from tentspec import markov`.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

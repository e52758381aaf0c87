"""Exhaustive enumeration of complex Golay sequence pairs.

The package enumerates, for a given length n, every pair of quaternary
sequences (entries among the fourth roots of unity) whose aperiodic
autocorrelations cancel at every nonzero shift.  The search runs in
stages: exact and spectral filters cut the candidate space, a join of
the surviving candidates with their own ramps and conjugates on
autocorrelation keys finds all partners of each (checked in the tests
against a depth-first partner search, itself checked against the paper's
programmatic SAT formulation), and a postprocessing step expands the
normalized results to full counts via the pair-preserving equivalence
operations.  The package namespace re-exports core's scalar operations.
"""

from cgolay.core import (
    apply_equivalence,
    autocorr,
    from_text,
    is_golay_pair,
    normalize,
    positional_scale,
    split_even_odd,
    to_text,
)

__version__ = "0.1.0"

__all__ = [
    "apply_equivalence",
    "autocorr",
    "from_text",
    "is_golay_pair",
    "normalize",
    "positional_scale",
    "split_even_odd",
    "to_text",
    "__version__",
]

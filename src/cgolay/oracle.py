"""Brute-force ground truth for small lengths.

Everything here is deliberately independent of the production search: the
autocorrelation sum is re-implemented as a direct loop over shifts,
candidate sequences come from plain exhaustive generation, and the census
reference closes pairs under the five equivalence moves written out from
their definitions.  The only thing shared with the rest of the package is
the storage convention (entries as Z4 exponents of i).  If the filtering
pipeline, the solver or the census drifts, these functions are the referee.
"""

from __future__ import annotations

import itertools

_RE = (1, 0, -1, 0)
_IM = (0, 1, 0, -1)


def _shift_sums(seq):
    # (re, im) autocorrelation at every shift 1..n-1, computed by the
    # definition: sum_k entry[k] * conj(entry[k+s])
    n = len(seq)
    out = []
    for s in range(1, n):
        re = im = 0
        for k in range(n - s):
            e = (seq[k] - seq[k + s]) & 3
            re += _RE[e]
            im += _IM[e]
        out.append((re, im))
    return tuple(out)


def _negated(sums):
    return tuple((-re, -im) for re, im in sums)


def normalized_pairs(n):
    """Every Golay pair in normalized form, by exhaustive search.

    Normalized means a[0] = a[1] = b[0] = 1 and a[2] != -i (constraints on
    slots that exist).  Cost grows like 3 * 4**(2n-4), so lengths above 8
    are refused.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"normalized oracle supports lengths 1..8, got {n}")
    a_choices = [(0,)]
    if n >= 2:
        a_choices.append((0,))
    if n >= 3:
        a_choices.append((0, 1, 2))
    a_choices.extend((0, 1, 2, 3) for _ in range(n - 3))

    b_tails = list(itertools.product((0, 1, 2, 3), repeat=n - 1))
    b_seqs = [(0,) + tail for tail in b_tails]
    b_sums = [_shift_sums(b) for b in b_seqs]

    found = set()
    for a in itertools.product(*a_choices):
        want = _negated(_shift_sums(a))
        for b, sums in zip(b_seqs, b_sums):
            if sums == want:
                found.add((a, b))
    return found


def full_pairs(n):
    """Every Golay pair of length n with no normalization at all.

    Exhaustive over all 16**n ordered pairs; lengths above 6 are refused.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"full oracle supports lengths 1..6, got {n}")
    seqs = list(itertools.product((0, 1, 2, 3), repeat=n))
    sums = [_shift_sums(s) for s in seqs]

    found = set()
    for a, sa in zip(seqs, sums):
        want = _negated(sa)
        for b, sb in zip(seqs, sums):
            if sb == want:
                found.add((a, b))
    return found


def equivalence_closure(pairs):
    """Every pair reachable from the given ones under the five moves E1..E5."""
    # E1 reverse both, E2 conjugate-reverse A, E3 swap, E4 scale A by i, E5 ramp
    seen = {(tuple(a), tuple(b)) for a, b in pairs}
    frontier = list(seen)
    while frontier:
        a, b = frontier.pop()
        ramp_a, ramp_b = (tuple((x + k) & 3 for k, x in enumerate(s)) for s in (a, b))
        for image in (
            (a[::-1], b[::-1]),
            (tuple(-x & 3 for x in reversed(a)), b),
            (b, a),
            (tuple((x + 1) & 3 for x in a), b),
            (ramp_a, ramp_b),
        ):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return frozenset(seen)

"""Independent checkers for the benchmark's correctness gates.

Nothing here calls into cgolay: the autocorrelation, the entry-sum and
spectral tests, the equivalence moves and the Golay constructions are
written again from their definitions, so a fault in the program cannot
hide behind the same fault in its checker.  Sequences are tuples of Z4
exponents (entry k is i**seq[k]); masked half-sequence slots are None.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Census triples (distinct member sequences, ordered pairs, inequivalent
# classes) per length, as published by Craigen, Holzmann and Kharaghani,
# "Complex Golay sequences: structure and applications", Discrete
# Mathematics 252 (2002) 73-89, and tabulated again in Bright, Kotsireas,
# Heinle and Ganesh, "Enumeration of complex Golay pairs via programmatic
# SAT" (ISSAC 2018), Table 1.  Zero rows are the lengths where no complex
# Golay pair exists.
PUBLISHED_CENSUS = {
    6: (256, 2048, 3),
    7: (0, 0, 0),
    8: (768, 6656, 17),
    9: (0, 0, 0),
    10: (1536, 12288, 20),
    12: (4608, 36864, 52),
    14: (0, 0, 0),
    15: (0, 0, 0),
    16: (13312, 106496, 204),
}

# one pair per equivalence class at lengths 6, 8, 10 and 12; class_census
# checks them against PUBLISHED_CENSUS before any use
REPRESENTATIVES = Path(__file__).with_name("class_representatives.txt")

# Golay kernels: complex Golay pairs of lengths 1, 3 and 5.
KERNELS = {
    1: ((0,), (0,)),
    3: ((0, 0, 2), (0, 1, 0)),
    5: ((0, 0, 0, 1, 3), (0, 1, 3, 2, 1)),
}

EPSILON = 1e-3  # slack on the spectral bound, as the program's filters use

# exponent -> real / imaginary part of i**e; index 4 stands for a masked slot
_RE = np.array([1, 0, -1, 0, 0], dtype=np.int64)
_IM = np.array([0, 1, 0, -1, 0], dtype=np.int64)
_UNIT = np.array([1, 1j, -1, -1j, 0], dtype=np.complex128)
_MASK = 4


def as_array(seqs, n):
    """Exponent matrix of a list of sequences; masked slots become 4."""
    out = np.empty((len(seqs), n), dtype=np.int64)
    for r, seq in enumerate(seqs):
        if len(seq) != n:
            raise ValueError(f"sequence of length {len(seq)} where {n} expected")
        out[r] = [_MASK if c is None else c for c in seq]
    return out


# ---------------------------------------------------------------------------
# complementarity


def autocorrelations(arr):
    """Exact aperiodic autocorrelations, shape (rows, n-1, 2) as (re, im).

    Row r, shift s holds sum_k x[k] * conj(x[k+s]); the exponent of one
    product is x[k] - x[k+s] (mod 4).  Full sequences only.
    """
    rows, n = arr.shape
    out = np.zeros((rows, max(n - 1, 0), 2), dtype=np.int64)
    for s in range(1, n):
        e = (arr[:, : n - s] - arr[:, s:]) & 3
        out[:, s - 1, 0] = _RE[e].sum(axis=1)
        out[:, s - 1, 1] = _IM[e].sum(axis=1)
    return out


def golay_mask(firsts, seconds, n):
    """Per pair: True iff the autocorrelations cancel at every shift."""
    if not firsts:
        return np.zeros(0, dtype=bool)
    total = autocorrelations(as_array(firsts, n)) + autocorrelations(as_array(seconds, n))
    return ~total.any(axis=(1, 2))


def is_golay(pair):
    a, b = pair
    return len(a) == len(b) and bool(golay_mask([a], [b], len(a))[0])


# ---------------------------------------------------------------------------
# necessary conditions on a single member


def _two_square_sums(limit):
    return {x * x + y * y for x in range(math.isqrt(limit) + 1) for y in range(x + 1)}


def scaled_sums(arr):
    """Exact (re, im) entry sums of the four ramp-scaled variants: (rows, 4, 2).

    Variant k multiplies entry j by i**(k*j); its entry sum is h(i**k).
    """
    rows, n = arr.shape
    masked = arr == _MASK
    ramp = np.arange(n)
    out = np.empty((rows, 4, 2), dtype=np.int64)
    for k in range(4):
        e = np.where(masked, _MASK, (arr + k * ramp) & 3)
        out[:, k, 0] = _RE[e].sum(axis=1)
        out[:, k, 1] = _IM[e].sum(axis=1)
    return out


def four_squares_mask(seqs, n):
    """Per sequence: every scaled sum (R, I) extends to R^2+I^2+x^2+y^2 = 2n.

    A member A of a pair (A, B) has |h_A(z)|^2 + |h_B(z)|^2 = 2n, and at
    z = i**k both values are Gaussian integers, so 2n - R^2 - I^2 must be
    a sum of two squares.  Full sequences only.
    """
    if not seqs:
        return np.zeros(0, dtype=bool)
    sums = scaled_sums(as_array(seqs, n))
    rem = 2 * n - sums[:, :, 0] ** 2 - sums[:, :, 1] ** 2
    ok = _two_square_sums(2 * n)
    return np.vectorize(lambda r: r in ok, otypes=[bool])(rem).all(axis=1)


def entry_sum_bound_mask(seqs, n):
    """Per half-sequence: every scaled sum has R^2 + I^2 <= 2n.

    The spectral bound at the four points i**k, exactly: the weaker
    condition that halves (which are not pair members) must meet.
    """
    if not seqs:
        return np.zeros(0, dtype=bool)
    sums = scaled_sums(as_array(seqs, n))
    return ((sums[:, :, 0] ** 2 + sums[:, :, 1] ** 2) <= 2 * n).all(axis=1)


def spectral_mask(seqs, n, points):
    """Per sequence: |h(z)|^2 <= 2n + EPSILON at every z = exp(2*pi*i*t).

    h is evaluated directly as sum_k x[k] * z**k (no FFT); points holds the
    turn fractions t.  Masked slots contribute nothing.
    """
    if not seqs:
        return np.zeros(0, dtype=bool)
    vals = _UNIT[as_array(seqs, n)]
    z = np.exp(2j * np.pi * np.asarray(points, dtype=np.float64))
    powers = z[np.newaxis, :] ** np.arange(n)[:, np.newaxis]  # (n, points)
    h = vals @ powers
    return ((h.real**2 + h.imag**2) <= 2 * n + EPSILON).all(axis=1)


def roots_of_unity(count):
    """Turn fractions of all count-th roots of unity."""
    return [j / count for j in range(count)]


# ---------------------------------------------------------------------------
# equivalence moves and constructions


def _conj(seq):
    return tuple((-c) & 3 for c in seq)


def _ramp(seq):
    return tuple((c + k) & 3 for k, c in enumerate(seq))


MOVES = {
    "reverse_both": lambda a, b: (a[::-1], b[::-1]),
    "conj_reverse_first": lambda a, b: (_conj(a[::-1]), b),
    "swap": lambda a, b: (b, a),
    "scale_first": lambda a, b: (tuple((c + 1) & 3 for c in a), b),
    "ramp_both": lambda a, b: (_ramp(a), _ramp(b)),
}


def closure(pairs):
    """Every pair reachable from the given ones under the five moves."""
    seen = set(pairs)
    frontier = list(seen)
    while frontier:
        a, b = frontier.pop()
        for move in MOVES.values():
            image = move(a, b)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def class_census(pairs):
    """(sequences, pairs, classes) of the closure, and the closure itself.

    Classes are counted as the distinct closures of the given pairs.
    """
    classes = []
    for pair in pairs:
        if not any(pair in cls for cls in classes):
            classes.append(closure({pair}))
    closed = set().union(*classes)
    return (len({s for p in closed for s in p}), len(closed), len(classes)), closed


def random_moves(pair, rng, count=16):
    for _ in range(count):
        pair = MOVES[rng.choice(sorted(MOVES))](*pair)
    return pair


def golay_concatenate(pair):
    """Golay's concatenation: (A|B, A|-B) is a pair of twice the length."""
    a, b = pair
    return (a + b, a + tuple((c + 2) & 3 for c in b))


def golay_interleave(pair):
    """Golay's interleaving: (a0 b0 a1 b1 ..., a0 -b0 a1 -b1 ...)."""
    a, b = pair
    neg = tuple((c + 2) & 3 for c in b)
    return (
        tuple(c for ab in zip(a, b) for c in ab),
        tuple(c for ab in zip(a, neg) for c in ab),
    )


def constructions(n, interleave=True):
    """Pairs of length n = k * 2**m doubled up from the length-k kernel, one
    per sequence of concatenations (and interleavings, if asked)."""
    steps = (golay_concatenate, golay_interleave) if interleave else (golay_concatenate,)
    for k in (5, 3, 1):
        m = n // k
        if n % k == 0 and m & (m - 1) == 0:
            pairs = [KERNELS[k]]
            while len(pairs[0][0]) < n:
                pairs = [step(p) for p in pairs for step in steps]
            return pairs
    raise ValueError(f"no kernel doubles up to length {n}")


def is_normalized_first(seq):
    """The program's normal form of a first member: x0 = x1 = 1, x2 != -i."""
    return seq[0] == 0 and (len(seq) < 2 or seq[1] == 0) and (len(seq) < 3 or seq[2] != 3)


def halves(seq):
    even = tuple(c if k % 2 == 0 else None for k, c in enumerate(seq))
    odd = tuple(c if k % 2 == 1 else None for k, c in enumerate(seq))
    return even, odd


def rescale_leading_one(seq):
    return tuple((c - seq[0]) & 3 for c in seq)


# ---------------------------------------------------------------------------
# artifact text form ('+ i - j' for 1, i, -1, -i; '0' for a masked slot)

_FROM_CHAR = {"+": 0, "i": 1, "-": 2, "j": 3, "0": None}


def parse_seq(text):
    return tuple(_FROM_CHAR[ch] for ch in text)


def representatives(n):
    out = []
    for line in REPRESENTATIVES.read_text().splitlines():
        length, a, b = line.split("\t")
        if int(length) == n:
            out.append((parse_seq(a), parse_seq(b)))
    return out


def read_seq_file(path):
    return [parse_seq(line) for line in path.read_text().splitlines()]

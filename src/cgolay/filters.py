"""Candidate filters for the staged pair search.

Any member of a Golay pair of length n satisfies |h(z)|^2 <= 2n at every
point of the unit circle, where h is the sequence's generating polynomial;
the same bound holds separately for its even-index and odd-index halves,
and the halves' values add: h = h_even + h_odd.  Sampling z over roots of
unity turns the bound into a rejection test.

Inside this module a half of parity p is its slot row g, the entries of
its own slots p, p+2, ...; masked length-n tuples appear only in what
enumerate_half_candidates returns and HalfJoin takes.  The half is
h(z) = z^p * g(z^2), so |h(z)|^2 = |g(w)|^2 at w = z^2, and as z runs over
the N-th roots of unity, w runs over the N / gcd(N, 2)-th roots: the half
filter checks that many points of g for each sample count N.  It
evaluates |g|^2 from g's aperiodic autocorrelations c_s, not from a
transform of the entries: at w = e^(it),

    |g(w)|^2 = c_0 + 2 * sum_s (Re c_s * cos(s*t) + Im c_s * sin(s*t)).

The c_s come exact, in integers, from core.autocorrelations of the slot
rows, and c_0 = m for a slot row of m entries.  Every c_s is a small
Gaussian integer, so float64 holds it exactly; one real matrix product
with a cos/sin table evaluates a whole batch of rows.  The float error is
about 1e-14, far below the EPSILON added to the bound, so rejection is
always sound.

A second, fully exact test works on entry sums: for a pair member, the
real and imaginary parts (R, I) of the entry sum -- and of the entry sum
of every ramp-scaled variant -- must extend to an integer solution of
R^2 + I^2 + x^2 + y^2 = 2n.  build_squares_table precomputes solvability
as a bool array indexed [|R|, |I|].

The sample points are fixed, as module constants.  The half filter checks
every root of unity at the coarse count n, then at FINE_SAMPLES = 2^14.
It keeps exactly the halves that stay in bound at both counts, but it
settles most rows of the fine count by a certificate, not by sampling all
of its 8192 points w.  For a slot row of m entries, T(t) = |g(e^(it))|^2
is a nonnegative trigonometric polynomial of degree d = m - 1.
Bernstein's inequality, applied twice, gives |T''| <= d^2 * max T, and
T' = 0 at the maximum, so with B the bound and M equispaced samples,

    max T <= (max over the M samples) / (1 - d^2 * pi^2 / (2 * M^2)).

M is a power of two derived from m: the least M >= 64 with
d^2 * pi^2 / (2 * M^2) <= 0.01.  It divides 8192, so every sample is also
a fine point.  Each row gets one of three verdicts:

* certain pass: no sample exceeds B * (1 - d^2 * pi^2 / (2 * M^2)) less
  delta, so every fine point is in bound;
* certain fail: some sample exceeds B + delta, and that sample is a fine
  point;
* undecided: the row is sampled at all 8192 points, as without the
  certificate.

The margin delta = 1e-9 lies far above the float error of a sample and
far below EPSILON; it covers the M-point and the 8192-point products
rounding differently.  At n=17, 603 of the 49,668 rows alive after the
count n are undecided.

The stage-1 join checks the PROGRESSIVE_POINTS: the odd-numbered points of
the counts 8, 16, 32, 64 and 128, coarsest first, 124 in all.  Every even
point of one count already appeared at a coarser count, and the four
points z = i^k are covered exactly by the entry-sum test, so the join
skips nothing of value on the 128-point grid.  Both filters reject only
above 2n + EPSILON, EPSILON = 1e-3.

HalfJoin tabulates the halves' polynomials at the progressive points once
per run, as one product of the slot rows' entry values with a table of
z^k, k over the slots, stored in single precision.  float32 rounding
moves a tabulated |h|^2 by a relative 2^-23 at most; with the join's sum
and square also in float32 the error stays near 1e-5 at the bound
2n = 64, far below EPSILON.  It groups the halves by their four scaled
entry sums and decides the entry-sum test once per pair of classes, so
each join costs a table lookup before the spectral slices; sweeps then
run over spans of odd halves against every even half, and the pipeline
only hands out the spans.  The tests hold both filters to perfbench/checks.py
and numpy: the module keeps no reference implementation of its own.
"""

from __future__ import annotations

import math

import numpy as np

from cgolay import core

# both filters reject only where the sampled |h|^2 exceeds 2n + EPSILON
EPSILON = 1e-3

# the half filter checks every point at the coarse count n, then at this count
FINE_SAMPLES = 2**14

# the stage-1 join's points (m, j), z = e^(2*pi*i*j/m): the odd points of
# each doubling count, coarsest first
PROGRESSIVE_POINTS = tuple((m, j) for m in (8, 16, 32, 64, 128) for j in range(1, m, 2))


# ---------------------------------------------------------------------------
# spectra


def _power_table(length, sample_count):
    """cos/sin rows, one per shift s = 1..length-1, at every point of a sample count.

    Point j stands for w = e^(2*pi*i*j/N).
    """
    s, j = np.arange(1, length)[:, None], np.arange(sample_count)
    # reduce s*j mod N in integers so every angle lies in [0, 2*pi)
    angle = (2 * np.pi / sample_count) * ((s * j) % sample_count)
    return np.concatenate([np.cos(angle), np.sin(angle)])


def _sampled_peaks(coef, sample_count):
    """Each row's largest sampled |h|^2, from its coef.

    coef holds Re c_s for the shifts s = 1..m-1 of a row of m entries, then
    Im c_s, in float64: core.autocorrelations, flattened per row.  With
    c_0 = m, |h|^2 = m + 2 * (coef @ table) at every point of the sample
    count.
    """
    length = coef.shape[1] // 2 + 1
    table = _power_table(length, sample_count)
    out = np.empty(coef.shape[0])
    # chunk the rows so the product stays inside 2^21 elements (~16MB)
    step = max(1, (1 << 21) // table.shape[1])
    for lo in range(0, coef.shape[0], step):
        out[lo : lo + step] = length + 2 * (coef[lo : lo + step] @ table).max(axis=1)
    return out


def _stage_pass_mask(coef, bound, sample_count):
    """Row mask of candidates whose sampled |h|^2 never exceeds bound."""
    return _sampled_peaks(coef, sample_count) <= bound


# the certificate's float margin: far above the rounding of a sampled
# |h|^2 (about 1e-14), far below EPSILON
_MARGIN = 1e-9


def _certificate(coef, bound):
    """The certificate's verdicts on slot rows, given their _sampled_peaks coef.

    Returns the masks (certain pass, undecided); every other row fails for
    certain.  The rows are sampled at M points, the least power of two
    M >= 64 with d^2 * pi^2 / (2 * M^2) <= 0.01, d = m - 1 for rows of m
    entries, and at most FINE_SAMPLES / 2.
    """
    fine = FINE_SAMPLES // 2
    degree = coef.shape[1] // 2
    count = 64
    while count < fine and (degree * math.pi / count) ** 2 / 2 > 0.01:
        count *= 2
    factor = 1 - (degree * math.pi / count) ** 2 / 2
    peaks = _sampled_peaks(coef, count)
    passed = peaks <= bound * factor - _MARGIN
    return passed, ~passed & (peaks <= bound + _MARGIN)


def _fine_pass_mask(coef, bound):
    """_stage_pass_mask at the FINE_SAMPLES / 2 points w, from the certificate
    where it decides and from every point where it does not."""
    passed, undecided = _certificate(coef, bound)
    passed[undecided] = _stage_pass_mask(coef[undecided], bound, FINE_SAMPLES // 2)
    return passed


def _hall_survivors(exps, n):
    """Indices of the slot rows of exps whose half keeps |h|^2 within 2n + EPSILON.

    All N / gcd(N, 2) points w = z^2 are checked at the coarse count N = n.
    The rows still alive then face the FINE_SAMPLES / 2 points w of
    N = FINE_SAMPLES through the certificate (_certificate): from M points,
    M derived from the rows' length, a row passes for certain, fails for
    certain, or is undecided and sampled at every fine point.  Both
    certain verdicts keep _MARGIN from their bounds, so the survivors are
    exactly those of sampling every fine point.
    """
    coef = core.autocorrelations(exps).reshape(len(exps), -1).astype(np.float64)
    bound = 2 * n + EPSILON
    alive = np.flatnonzero(_stage_pass_mask(coef, bound, n // math.gcd(n, 2)))
    if FINE_SAMPLES > n:
        alive = alive[_fine_pass_mask(coef[alive], bound)]
    return alive


# ---------------------------------------------------------------------------
# sum-of-squares solvability


def build_squares_table(length):
    """Bool array [|R|, |I|]: whether R^2 + I^2 + x^2 + y^2 = 2*length has an
    integer solution, for |R|, |I| <= length; exact integer precomputation."""
    target = 2 * length
    squares = {x * x for x in range(math.isqrt(target) + 1)}
    tab = np.zeros((length + 1, length + 1), dtype=bool)
    for re in range(length + 1):
        for im in range(length + 1):
            rem = target - re * re - im * im
            if rem < 0:
                continue
            tab[re, im] = any(rem - x * x in squares for x in range(math.isqrt(rem) + 1))
    return tab


# ---------------------------------------------------------------------------
# candidate generation


def _mixed_radix_matrix(radices):
    """Every row of digits, digit k below radices[k], in lexicographic order."""
    total = math.prod(radices)
    cols = []
    rep = total
    for r in radices:
        rep //= r
        block = np.repeat(np.arange(r, dtype=np.int8), rep)
        cols.append(np.tile(block, total // (rep * r)))
    return np.stack(cols, axis=1)


def enumerate_half_candidates(n, parity):
    """Masked half-sequences of one parity surviving the half filter.

    Returns masked sequences of full length n whose nonzero slots sit at
    even (or odd) indices, leading nonzero entry 1, in lexicographic
    exponent order.  Length 1 has no odd slots, so parity='odd' yields [].
    """
    if n < 1:
        raise ValueError("length must be positive")
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    p = 0 if parity == "even" else 1
    m = len(range(p, n, 2))
    if not m:
        return []
    # leading entry pinned to 1; for the even half the next entry (slot 2)
    # additionally avoids -i, mirroring pair normalization
    exps = _mixed_radix_matrix(([1, 3 if p == 0 else 4] + [4] * m)[:m])
    alive = _hall_survivors(exps, n)
    out = []
    for entries in exps[alive].tolist():
        row = [None] * n
        row[p::2] = entries
        out.append(tuple(row))
    return out


# ---------------------------------------------------------------------------
# stage-1 join filter


def half_hall_columns(exps, slots):
    """Polynomials at the PROGRESSIVE_POINTS of rows whose column k is entry slots[k], as complex64.

    A full sequence's slots are range(n).  One product of each chunk's
    entry values with a table of z^k, k in slots, evaluates the chunk; z^k's
    angle is reduced modulo the point's sample count in integers, so a
    length above the count needs no fold.  The product runs in double
    precision and is rounded once on storing, so an entry is off by at
    most 2^-24 * |h|.  Returns shape (points, rows), in PROGRESSIVE_POINTS order.
    """
    m, j = np.array(PROGRESSIVE_POINTS).T[:, :, None]
    powers = np.exp((2j * np.pi / m) * ((j * np.asarray(slots)) % m))
    values = np.array(core.ENTRY_VALUES)
    out = np.empty((powers.shape[0], len(exps)), dtype=np.complex64)
    # chunk the rows so the product stays near 2^21 elements
    step = 1 << 14
    for lo in range(0, len(exps), step):
        out[:, lo : lo + step] = powers @ values[exps[lo : lo + step]].T
    return out


def half_scaled_sums(exps, slots):
    """Exact (re, im) entry sums h(i**k), k = 0..3, of rows of entry exponents,
    column k at index slots[k]: the four ramp-scaled variants' sums, shape (rows, 4, 2)."""
    exps = exps.astype(np.int16)
    ramp = np.asarray(slots, dtype=np.int16)
    entry_re, entry_im = np.array(core.ENTRY_RE), np.array(core.ENTRY_IM)
    out = np.empty((len(exps), 4, 2), dtype=np.int16)
    for k in range(4):
        e = (exps + k * ramp) & 3
        out[:, k, 0] = entry_re[e].sum(axis=1)
        out[:, k, 1] = entry_im[e].sum(axis=1)
    return out


def _count_slices():
    """One slice of the PROGRESSIVE_POINTS axis per sample count, coarsest first."""
    counts = [m for m, _ in PROGRESSIVE_POINTS]
    starts = [k for k in range(len(counts)) if k == 0 or counts[k] != counts[k - 1]]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(counts)])]


# joins per spectral batch of one sum class: even the 64-point slice of
# 2^14 joins keeps its temporaries near 16MB
_JOIN_BATCH = 1 << 14


def join_odds(n, odds):
    """The odd axis of the stage-1 join: length 1 has one blank odd half."""
    return [(None,)] if n == 1 else odds


def _sum_classes(exps, slots):
    """Distinct scaled entry sums of the rows, shape (classes, 4, 2), and each row's class."""
    sums = half_scaled_sums(exps, slots).astype(np.int32).reshape(len(exps), 8)
    keys, inverse = np.unique(sums, axis=0, return_inverse=True)
    return keys.reshape(-1, 4, 2), inverse.reshape(-1)


class HalfJoin:
    """The stage-1 join of every even half with the given odd halves.

    Construction computes both halves' spectra at the PROGRESSIVE_POINTS,
    once.  It also groups each side by its four scaled entry sums and
    decides the squares-table test once per (odd class, even class) pair:
    a join's scaled sums are the sum of its halves', so the verdict depends
    on the classes alone.  sweep() then tests joins one span of odd halves
    at a time.  A joined candidate survives when its four scaled entry sums
    pass the squares table and its sampled |h|^2 stays within 2n + EPSILON
    at every one of those points.  Halves' values add, so a join's
    spectrum is the sum of two table columns.

    odds may be any span of join_odds(n, all_odds), such as one shard's;
    only that span is tabulated.
    """

    def __init__(self, n, evens, odds):
        self._n = n
        self._bound = 2 * n + EPSILON
        self._slices = _count_slices()
        # each side is converted once: a half h of parity p becomes its slot row h[p::2]
        e_slots, o_slots = range(0, n, 2), range(1, n, 2)
        self._e_rows = np.array([h[0::2] for h in evens], np.int8).reshape(len(evens), len(e_slots))
        self._o_rows = np.array([h[1::2] for h in odds], np.int8).reshape(len(odds), len(o_slots))
        self._e_cols = half_hall_columns(self._e_rows, e_slots)
        self._o_cols = half_hall_columns(self._o_rows, o_slots)
        e_keys, self._e_class = _sum_classes(self._e_rows, e_slots)
        o_keys, self._o_class = _sum_classes(self._o_rows, o_slots)
        sums = np.abs(o_keys[:, None] + e_keys[None, :])
        solvable = build_squares_table(n)
        self._sums_ok = solvable[sums[..., 0], sums[..., 1]].all(axis=2)

    @property
    def odd_count(self):
        """Length of the odd axis that sweep() spans index."""
        return len(self._o_rows)

    def _within_bound(self, sl, e, o):
        """Whether joins of evens e with odds o keep |h|^2 in bound on slice sl.

        e and o are index arrays that broadcast against each other.
        """
        h = self._e_cols[sl][:, e] + self._o_cols[sl][:, o]
        return (h.real**2 + h.imag**2 <= self._bound).all(axis=0)

    def sweep(self, lo, hi):
        """Surviving joined candidates for odds[lo:hi], sorted.

        The span's odds are grouped by entry-sum class.  Each class gathers
        the evens its squares-table row admits once; the first spectral
        slice tests all of the class's joins as an evens x odds grid, in
        batches, and the later slices test the joins still alive.
        """
        span = np.arange(lo, hi)
        span = span[np.argsort(self._o_class[span], kind="stable")]
        cuts = np.flatnonzero(np.diff(self._o_class[span])) + 1
        first, rest = self._slices[0], self._slices[1:]
        survivors = []
        for group in np.split(span, cuts):
            if not group.size:
                continue
            evens = np.flatnonzero(self._sums_ok[self._o_class[group[0]]][self._e_class])
            if not evens.size:
                continue
            step = max(1, _JOIN_BATCH // evens.size)
            for k in range(0, group.size, step):
                odds = group[k : k + step]
                ei, oi = np.nonzero(self._within_bound(first, evens[:, None], odds[None, :]))
                e, o = evens[ei], odds[oi]
                for sl in rest:
                    if not e.size:
                        break
                    keep = self._within_bound(sl, e, o)
                    e, o = e[keep], o[keep]
                rows = np.empty((e.size, self._n), dtype=np.int8)
                rows[:, 0::2] = self._e_rows[e]
                rows[:, 1::2] = self._o_rows[o]
                survivors.extend(map(tuple, rows.tolist()))
        survivors.sort()
        return survivors

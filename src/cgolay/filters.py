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
z^k, k over the slots, stored as float32 planes of real and imaginary
parts.  float32 rounding moves a tabulated |h|^2 by a relative 2^-23 at
most; with the join's sums and squares also in float32 the error stays
near 1e-5 at the bound 2n = 64, far below EPSILON.  It groups the halves
by their four scaled entry sums and decides the entry-sum test once per
pair of classes, so each join costs a table lookup before the spectral
slices.  The odd halves are held in class order, and sweeps run over
spans of that axis: each odd class tests its admitted evens on the 8-
and 16-point counts as one odds x evens grid, and the survivors face
the later counts.  The pipeline only hands out the spans.  The tests
hold both filters to perfbench/checks.py and numpy: the module keeps no
reference implementation of its own.
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
    """Polynomials at the PROGRESSIVE_POINTS of rows whose column k is entry slots[k], as planes.

    A full sequence's slots are range(n).  One product of each chunk's
    entry values with a table of z^k, k in slots, evaluates the chunk; z^k's
    angle is reduced modulo the point's sample count in integers, so a
    length above the count needs no fold.  The product runs in double
    precision and each part is rounded once on storing, so an entry is off
    by at most 2^-24 * |h|.  Returns shape (points, 2, rows), in
    PROGRESSIVE_POINTS order: plane 0 holds the real parts, plane 1 the
    imaginary parts.
    """
    m, j = np.array(PROGRESSIVE_POINTS).T[:, :, None]
    powers = np.exp((2j * np.pi / m) * ((j * np.asarray(slots)) % m))
    values = np.array(core.ENTRY_VALUES)
    out = np.empty((powers.shape[0], 2, len(exps)), dtype=np.float32)
    # chunk the rows so the product stays near 2^21 elements
    step = 1 << 14
    for lo in range(0, len(exps), step):
        h = powers @ values[exps[lo : lo + step]].T
        out[:, 0, lo : lo + step] = h.real
        out[:, 1, lo : lo + step] = h.imag
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


# float32 elements per temporary of the grid test: a batch of one odd
# class's joins at the grid's 12 points keeps each temporary near 256KB
_JOIN_BATCH = 1 << 16


def join_odds(n, odds):
    """The odd axis of the stage-1 join: length 1 has one blank odd half."""
    return [(None,)] if n == 1 else odds


def _sum_classes(exps, slots):
    """Distinct scaled entry sums of the rows, shape (classes, 4, 2), and each row's class.

    A row of m entries has its eight sums in [-m, m]; they are packed as
    digits of radix 2m + 1 into one int64 key per row, first sum most
    significant, so the classes come in the lexicographic order of their
    sums.  The radix stays below 2^(63/8) for every m up to 116.
    """
    sums = half_scaled_sums(exps, slots).reshape(len(exps), 8)
    keys = np.zeros(len(exps), dtype=np.int64)
    for digits in sums.T + len(slots):
        keys = keys * (2 * len(slots) + 1) + digits
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return sums[first].reshape(-1, 4, 2), inverse.reshape(-1)


def _peaks(e_planes, o_planes):
    """Largest float32 |h|^2 of joins over the points.

    e_planes and o_planes are (points, 2, ...) planes of the evens and odds
    that broadcast against each other; per point, h = e + o and
    |h|^2 = re^2 + im^2, all in float32, and the max runs over the points.
    """
    re = e_planes[:, 0] + o_planes[:, 0]
    im = e_planes[:, 1] + o_planes[:, 1]
    re *= re
    im *= im
    re += im
    return re.max(axis=0)


class HalfJoin:
    """The stage-1 join of every even half with the given odd halves.

    Construction holds each side's polynomials at the PROGRESSIVE_POINTS
    once, as the float32 planes of half_hall_columns.  It also groups each
    side by its four scaled entry sums and decides the squares-table test
    once per (odd class, even class) pair: a join's scaled sums are the
    sum of its halves', so the verdict depends on the classes alone.  The
    odd axis is put in class order (rows, planes and classes together), so
    a span of it meets each class in one run.  sweep() then tests joins
    one span of odd halves at a time.  A joined candidate survives when
    its four scaled entry sums pass the squares table and its sampled
    |h|^2 stays within 2n + EPSILON, in float32, at every one of those
    points.  Halves' values add, so a join's value at a point is the sum
    of two table entries.

    odds may be any span of join_odds(n, all_odds), such as one shard's;
    only that span is tabulated.
    """

    def __init__(self, n, evens, odds):
        self._n = n
        self._bound = np.float32(2 * n + EPSILON)
        slices = _count_slices()
        # the 8- and 16-point counts go on the grid, the later ones on survivors
        self._grid, self._rest = slice(slices[0].start, slices[1].stop), slices[2:]
        # each side is converted once: a half h of parity p becomes its slot row h[p::2]
        e_slots, o_slots = range(0, n, 2), range(1, n, 2)
        self._e_rows = np.array([h[0::2] for h in evens], np.int8).reshape(len(evens), len(e_slots))
        o_rows = np.array([h[1::2] for h in odds], np.int8).reshape(len(odds), len(o_slots))
        e_keys, self._e_class = _sum_classes(self._e_rows, e_slots)
        o_keys, o_class = _sum_classes(o_rows, o_slots)
        order = np.argsort(o_class, kind="stable")
        self._o_rows, self._o_class = o_rows[order], o_class[order]
        # class c holds the odds _o_starts[c] .. _o_starts[c + 1] - 1
        self._o_starts = np.searchsorted(self._o_class, np.arange(len(o_keys) + 1))
        self._e_planes = half_hall_columns(self._e_rows, e_slots)
        self._o_planes = half_hall_columns(self._o_rows, o_slots)
        sums = np.abs(o_keys[:, None] + e_keys[None, :])
        solvable = build_squares_table(n)
        self._sums_ok = solvable[sums[..., 0], sums[..., 1]].all(axis=2)

    @property
    def odd_count(self):
        """Length of the odd axis that sweep() spans index, in class order."""
        return len(self._o_rows)

    def sweep(self, lo, hi):
        """Surviving joined candidates for odds lo..hi-1 of the class-ordered axis, sorted.

        Each odd class in the span gathers the planes of the evens its
        squares-table row admits once.  The 8- and 16-point counts test the
        class's joins as an odds x evens grid, evens on the contiguous axis,
        in batches of about _JOIN_BATCH point-joins; the later counts test
        the joins still alive, one count at a time.
        """
        if lo >= hi:
            return []
        survivors = []
        for c in range(self._o_class[lo], self._o_class[hi - 1] + 1):
            evens = np.flatnonzero(self._sums_ok[c][self._e_class])
            if not evens.size:
                continue
            e_grid = self._e_planes[self._grid].take(evens, axis=2)[:, :, None]
            start, stop = max(lo, self._o_starts[c]), min(hi, self._o_starts[c + 1])
            step = max(1, _JOIN_BATCH // (len(e_grid) * evens.size))
            for k in range(start, stop, step):
                o_grid = self._o_planes[self._grid, :, k : min(k + step, stop), None]
                oi, ei = np.nonzero(_peaks(e_grid, o_grid) <= self._bound)
                e, o = evens[ei], oi + k
                for sl in self._rest:
                    if not e.size:
                        break
                    e_sl = self._e_planes[sl].take(e, axis=2)
                    keep = _peaks(e_sl, self._o_planes[sl].take(o, axis=2)) <= self._bound
                    e, o = e[keep], o[keep]
                rows = np.empty((e.size, self._n), dtype=np.int8)
                rows[:, 0::2] = self._e_rows[e]
                rows[:, 1::2] = self._o_rows[o]
                survivors.extend(map(tuple, rows.tolist()))
        survivors.sort()
        return survivors

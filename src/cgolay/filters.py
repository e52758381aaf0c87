"""Candidate filters for the staged pair search.

Any member of a Golay pair of length n satisfies |h(z)|^2 <= 2n at every
point of the unit circle, where h is the sequence's generating polynomial;
the same bound holds separately for its even-index and odd-index halves,
and the halves' values add: h = h_even + h_odd.  Sampling z over roots of
unity turns the bound into a cheap batched-FFT rejection test, with a
small epsilon absorbing float error so rejection is always sound.

A second, fully exact test works on entry sums: for a pair member, the
real and imaginary parts (R, I) of the entry sum -- and of the entry sum
of every ramp-scaled variant -- must extend to an integer solution of
R^2 + I^2 + x^2 + y^2 = 2n.  Solvability is precomputed in a boolean
table per |R|, |I|.

Filter schedules list the sample counts to sweep, cheapest first.  The
preprocessing schedule checks every root of unity at a coarse count n,
then at a fine power of two.  The stage-1 schedule doubles from 8 up to
the configured limit, checking only odd-numbered sample points: every
even point of one level already appeared at a coarser level, and the four
points z = i^k are covered exactly by the entry-sum test, so nothing of
value is skipped.

This module owns the stage-1 join and its layout of sample points
(progressive_points).  HalfJoin builds the halves' spectra at those points
and their scaled entry sums once per run, then sweeps spans of odd halves
against every even half; the pipeline only hands out the spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cgolay import core

# stage-1 half-spectrum caches switch to single precision above this row
# count to bound memory; the epsilon guard dwarfs fp32 rounding (~1e-5)
_COMPLEX64_THRESHOLD = 200_000


@dataclass(frozen=True)
class FilterSchedule:
    """Ordered spectral sweeps: (sample_count, odd_points_only) stages."""

    stages: tuple
    epsilon: float = 1e-3

    def __post_init__(self):
        if not self.stages:
            raise ValueError("schedule needs at least one stage")
        counts = [n for n, _ in self.stages]
        if any(c < 1 for c in counts):
            raise ValueError("sample counts must be positive")
        if any(b >= a for a, b in zip(counts[1:], counts)):
            raise ValueError("sample counts must be strictly increasing")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


def preprocessing_schedule(n, dft_samples=2**14, epsilon=1e-3):
    """Half-candidate schedule: all points at count n, then at dft_samples."""
    if dft_samples > n:
        stages = ((n, False), (dft_samples, False))
    else:
        stages = ((n, False),)
    return FilterSchedule(stages, epsilon)


def stage1_schedule(dft_samples=2**7, epsilon=1e-3):
    """Joined-candidate schedule: odd points only, doubling 8..dft_samples."""
    if dft_samples < 8 or dft_samples & (dft_samples - 1):
        raise ValueError("stage-1 sample count must be a power of two >= 8")
    counts = []
    m = 8
    while m <= dft_samples:
        counts.append(m)
        m *= 2
    return FilterSchedule(tuple((c, True) for c in counts), epsilon)


def progressive_points(dft_samples):
    """The (sample_count, j) pairs a stage-1 schedule visits, in order."""
    return [(m, j) for m, _ in stage1_schedule(dft_samples).stages for j in range(1, m, 2)]


def progressive_columns(dft_samples):
    """Finest-grid column index of every progressive point, in sweep order."""
    return np.array([j * (dft_samples // m) for m, j in progressive_points(dft_samples)])


# ---------------------------------------------------------------------------
# spectra


@dataclass(frozen=True)
class SpectrumProfile:
    """|h|^2 sampled at sample_count equally spaced points of the unit circle."""

    sample_count: int
    values: np.ndarray = field(repr=False)


def _values_matrix(cands, n):
    """Complex entry values of a list of (possibly masked) sequences."""
    out = np.zeros((len(cands), n), dtype=np.complex128)
    unit = np.array(core.ENTRY_VALUES)
    for r, s in enumerate(cands):
        for k, c in enumerate(s):
            if c is not None:
                out[r, k] = unit[c]
    return out


def _hall_matrix(vals, sample_count):
    # rows of h(e^(2*pi*i*j/N)) for j = 0..N-1: the inverse FFT times N
    # evaluates the polynomial with the +i sign convention
    return np.fft.ifft(vals, n=sample_count, axis=1) * sample_count


def spectrum(seq, sample_count):
    """Sample |h|^2 for one sequence at sample_count roots of unity."""
    if sample_count < len(seq):
        raise ValueError("sample count must be at least the sequence length")
    row = _hall_matrix(_values_matrix([seq], len(seq)), sample_count)[0]
    return SpectrumProfile(sample_count, row.real**2 + row.imag**2)


def _stage_pass_mask(vals, bound, sample_count, odd_only):
    """Row mask of candidates whose sampled |h|^2 never exceeds bound."""
    rows = vals.shape[0]
    out = np.ones(rows, dtype=bool)
    # chunk the transform so huge sample counts stay inside ~32MB
    step = max(1, (1 << 21) // sample_count)
    for lo in range(0, rows, step):
        spec = _hall_matrix(vals[lo : lo + step], sample_count)
        mag = spec.real**2 + spec.imag**2
        if odd_only:
            mag = mag[:, 1::2]
        out[lo : lo + step] = mag.max(axis=1) <= bound
    return out


def passes_hall_filter(seq, n, schedule):
    """True iff the sampled spectral bound 2n + epsilon is never exceeded.

    Sound for pair membership: a rejected sequence can belong to no Golay
    pair of length n, whether seq is a full sequence or a masked half.
    """
    vals = _values_matrix([seq], len(seq))
    bound = 2 * n + schedule.epsilon
    for sample_count, odd_only in schedule.stages:
        if not _stage_pass_mask(vals, bound, sample_count, odd_only)[0]:
            return False
    return True


# ---------------------------------------------------------------------------
# sum-of-squares solvability


@dataclass(frozen=True)
class SquaresTable:
    """Which (|R|, |I|) extend to R^2 + I^2 + x^2 + y^2 = 2*length."""

    length: int
    solvable: np.ndarray = field(repr=False)

    def ok(self, re, im):
        re, im = abs(re), abs(im)
        if re > self.length or im > self.length:
            return False
        return bool(self.solvable[re, im])


def build_squares_table(length):
    """Exact integer precomputation of the solvability table."""
    target = 2 * length
    squares = {x * x for x in range(math.isqrt(target) + 1)}
    tab = np.zeros((length + 1, length + 1), dtype=bool)
    for re in range(length + 1):
        for im in range(length + 1):
            rem = target - re * re - im * im
            if rem < 0:
                continue
            tab[re, im] = any(rem - x * x in squares for x in range(math.isqrt(rem) + 1))
    return SquaresTable(length, tab)


def scaled_entry_sums(seq):
    """Exact (re, im) entry sums of the four ramp-scaled variants of seq."""
    out = []
    for k in range(4):
        re = im = 0
        for j, c in enumerate(seq):
            if c is None:
                continue
            e = (c + k * j) & 3
            re += core.ENTRY_RE[e]
            im += core.ENTRY_IM[e]
        out.append((re, im))
    return tuple(out)


def sos_filter(seq, table):
    """True iff all four scaled entry sums pass the solvability table."""
    if len(seq) != table.length:
        raise ValueError("squares table built for a different length")
    return all(table.ok(re, im) for re, im in scaled_entry_sums(seq))


# ---------------------------------------------------------------------------
# candidate generation


def _half_slots(n, parity):
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    return list(range(0 if parity == "even" else 1, n, 2))


def _slot_choices(slots, parity):
    # leading nonzero entry pinned to 1; for the even half the next nonzero
    # entry (slot 2) additionally avoids -i, mirroring pair normalization
    choices = []
    for pos, _ in enumerate(slots):
        if pos == 0:
            choices.append((0,))
        elif pos == 1 and parity == "even":
            choices.append((0, 1, 2))
        else:
            choices.append((0, 1, 2, 3))
    return choices


def _mixed_radix_matrix(choices):
    """All combinations in lexicographic order, one row per combination."""
    total = 1
    for c in choices:
        total *= len(c)
    cols = []
    rep = total
    for c in choices:
        rep //= len(c)
        block = np.repeat(np.array(c, dtype=np.int8), rep)
        cols.append(np.tile(block, total // (rep * len(c))))
    return np.stack(cols, axis=1)


def _half_value_matrix(exps, slots, n):
    vals = np.zeros((exps.shape[0], n), dtype=np.complex128)
    unit = np.array(core.ENTRY_VALUES)
    vals[:, slots] = unit[exps]
    return vals


def enumerate_half_candidates(n, parity, schedule):
    """Masked half-sequences of one parity surviving the spectral sweeps.

    Returns masked sequences of full length n whose nonzero slots sit at
    even (or odd) indices, leading nonzero entry 1, in lexicographic
    exponent order.  Length 1 has no odd slots, so parity='odd' yields [].
    """
    if n < 1:
        raise ValueError("length must be positive")
    slots = _half_slots(n, parity)
    if not slots:
        return []
    exps = _mixed_radix_matrix(_slot_choices(slots, parity))
    vals = _half_value_matrix(exps, slots, n)
    bound = 2 * n + schedule.epsilon
    alive = np.arange(exps.shape[0])
    for sample_count, odd_only in schedule.stages:
        keep = _stage_pass_mask(vals[alive], bound, sample_count, odd_only)
        alive = alive[keep]
        if alive.size == 0:
            break
    out = []
    for r in alive:
        row = [None] * n
        for k, slot in enumerate(slots):
            row[slot] = int(exps[r, k])
        out.append(tuple(row))
    return out


# ---------------------------------------------------------------------------
# stage-1 join filter


def half_hall_columns(cands, n, dft_samples):
    """Half spectra at the progressive points, from the finest grid.

    Every coarser stage's points are index-subsampled from the dft_samples
    grid, so all stages share one transform.  Returns a complex array of
    shape (points, candidates), points in progressive_points order.
    """
    cols = progressive_columns(dft_samples)
    rows = len(cands)
    dtype = np.complex64 if rows > _COMPLEX64_THRESHOLD else np.complex128
    out = np.empty((cols.size, rows), dtype=dtype)
    step = max(1, (1 << 21) // dft_samples)
    for lo in range(0, rows, step):
        vals = _values_matrix(cands[lo : lo + step], n)
        out[:, lo : lo + step] = _hall_matrix(vals, dft_samples)[:, cols].T
    return out


def half_scaled_sums(cands):
    """scaled_entry_sums for a whole candidate list, as an int array."""
    out = np.empty((len(cands), 4, 2), dtype=np.int16)
    for r, s in enumerate(cands):
        for k, (re, im) in enumerate(scaled_entry_sums(s)):
            out[r, k, 0] = re
            out[r, k, 1] = im
    return out


def _count_slices(dft_samples):
    """One slice of the progressive point axis per sample count, coarsest first."""
    counts = [m for m, _ in progressive_points(dft_samples)]
    starts = [k for k in range(len(counts)) if k == 0 or counts[k] != counts[k - 1]]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [len(counts)])]


class HalfJoin:
    """The stage-1 join of every even half with every odd half.

    Construction computes both halves' spectra at the progressive points and
    their scaled entry sums, once; sweep() then tests joins against them,
    one span of odd halves at a time.  A joined candidate survives when its
    four scaled entry sums pass the squares table and its sampled |h|^2
    stays within 2n + epsilon at every point of the schedule.  Halves' values
    add, so a join's spectrum is the sum of two table columns.
    """

    def __init__(self, n, evens, odds, schedule):
        if n == 1:
            # no odd slots: the lone candidate is all even half
            odds = [(None,)]
        dft_samples = schedule.stages[-1][0]
        self._evens = evens
        self._odds = odds
        self._solvable = build_squares_table(n).solvable
        self._bound = 2 * n + schedule.epsilon
        self._slices = _count_slices(dft_samples)
        self._e_cols = half_hall_columns(evens, n, dft_samples)
        self._e_sums = half_scaled_sums(evens).astype(np.int32)
        self._o_cols = half_hall_columns(odds, n, dft_samples)
        self._o_sums = half_scaled_sums(odds).astype(np.int32)

    @property
    def odd_count(self):
        """Length of the odd axis that sweep() spans index."""
        return len(self._odds)

    def sweep(self, lo, hi):
        """Surviving joined candidates for odds[lo:hi], sorted."""
        e_cols, o_cols = self._e_cols, self._o_cols
        survivors = []
        for o in range(lo, hi):
            sums = self._e_sums + self._o_sums[o]
            alive = np.nonzero(
                self._solvable[np.abs(sums[:, :, 0]), np.abs(sums[:, :, 1])].all(axis=1)
            )[0]
            for sl in self._slices:
                if not alive.size:
                    break
                h = e_cols[sl, alive] + o_cols[sl, o : o + 1]
                mag = h.real**2 + h.imag**2
                alive = alive[(mag <= self._bound).all(axis=0)]
            odd_half = self._odds[o]
            for e in alive:
                survivors.append(
                    tuple(a if a is not None else b for a, b in zip(self._evens[e], odd_half))
                )
        survivors.sort()
        return survivors

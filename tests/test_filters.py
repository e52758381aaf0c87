import collections
import itertools
import math
import random

import numpy as np
import pytest

from cgolay import core, filters, oracle, pipeline
from expected_counts import CANDIDATE_COUNTS


# ---------------------------------------------------------------------------
# sample points


def _grid_columns():
    """Index of each progressive point on the 128-point grid, in sweep order."""
    return [j * (128 // m) for m, j in filters.PROGRESSIVE_POINTS]


def test_progressive_points_cover_all_but_quarter_points():
    pts = filters.PROGRESSIVE_POINTS
    assert len(pts) == 4 + 8 + 16 + 32 + 64
    cols = _grid_columns()
    assert len(set(cols)) == len(pts)
    # the four unit-circle points z = i^k sit at multiples of 128/4 = 32
    # and are exactly the ones the sweep leaves to the entry-sum test
    assert all(c % 32 != 0 for c in cols)
    assert set(cols) | {0, 32, 64, 96} == set(range(128))


# ---------------------------------------------------------------------------
# spectral filter


def _fft_mags(seqs, count):
    """|h|^2 of each sequence at z = e^(2*pi*i*j/count), j = 0..count-1, by numpy's FFT."""
    values = np.array([[0 if c is None else 1j**c for c in s] for s in seqs]).reshape(len(seqs), -1)
    h = np.fft.ifft(values, n=count, axis=1) * count  # the inverse FFT has the +i sign
    return h.real**2 + h.imag**2


def _hall_points(checks, n):
    """The half filter's sample points as turn fractions: all roots at the counts n and FINE_SAMPLES."""
    return checks.roots_of_unity(n) + checks.roots_of_unity(filters.FINE_SAMPLES)


def test_hall_filter_accepts_pair_members(checks, tmp_path):
    # length 10 exceeds the join's first count of 8 points
    pairs = {n: oracle.normalized_pairs(n) for n in range(1, 6)}
    pairs[10] = pipeline.enumerate_pairs(pipeline.RunConfig(n=10, out_dir=tmp_path))
    assert len(pairs[10]) == 152
    for n, found in pairs.items():
        points = _hall_points(checks, n)
        for a, b in found:
            for s in (a, b):
                halves = core.split_even_odd(s)
                assert checks.spectral_mask([s, *halves], n, points).all(), s
                assert _passes_progressive_points(checks, [s], n).all(), s


def _coef(exps):
    """The half filter's coef of the rows of an exponent matrix."""
    return core.autocorrelations(exps).reshape(len(exps), -1).astype(np.float64)


def _random_halves(rng, n, p, count):
    """Random halves of parity p as (slot rows of their entries at p, p+2, ..., masked rows)."""
    slot_rows, masked = [], []
    for _ in range(count):
        row = [None] * n
        for k in range(p, n, 2):
            row[k] = rng.randrange(4)
        slot_rows.append([row[k] for k in range(p, n, 2)])
        masked.append(tuple(row))
    return slot_rows, masked


def test_stage_pass_mask_matches_fft_reference():
    rng = random.Random(20180515)
    half_rng = random.Random(20180516)
    verdicts, half_verdicts = set(), set()
    for n in range(1, 17):
        rows = [tuple(rng.randrange(4) for _ in range(n)) for _ in range(40)]
        coef = _coef(np.array(rows))
        # the half filter's identity: a half's slot row g at the N / gcd(N, 2)
        # points w = z^2 gives the verdict of the masked half at N points
        halves = []
        for p in range(min(n, 2)):
            slot_rows, masked = _random_halves(half_rng, n, p, 40)
            halves.append((_coef(np.array(slot_rows)), masked))
        for count in (n, 2**14):
            for bound in (2 * n + 1e-3, n + 1e-3):
                got = filters._stage_pass_mask(coef, bound, count)
                want = _fft_mags(rows, count).max(axis=1) <= bound
                assert np.array_equal(got, want), (n, count, bound)
                verdicts.update(want.tolist())
                for half_coef, masked in halves:
                    got = filters._stage_pass_mask(half_coef, bound, count // math.gcd(count, 2))
                    want = _fft_mags(masked, count).max(axis=1) <= bound
                    assert np.array_equal(got, want), (n, count, bound, masked[0])
                    half_verdicts.update(want.tolist())
    assert verdicts == half_verdicts == {True, False}


def _slot_rows(n, p):
    """Every slot row of parity p that the half enumeration screens, as exponents."""
    m = len(range(p, n, 2))
    return filters._mixed_radix_matrix(([1, 3 if p == 0 else 4] + [4] * m)[:m])


def _two_pass_reference(coef, n):
    """The half filter without its certificate: every point at the counts n, then FINE_SAMPLES."""
    alive = np.arange(len(coef))
    for count in (n, filters.FINE_SAMPLES):
        points = count // math.gcd(count, 2)
        alive = alive[filters._stage_pass_mask(coef[alive], 2 * n + filters.EPSILON, points)]
    return alive


def _verdicts(coef, bound):
    """How many rows the certificate passes, leaves undecided and fails."""
    passed, undecided = filters._certificate(coef, bound)
    return {
        "pass": int(passed.sum()),
        "undecided": int(undecided.sum()),
        "fail": int((~passed & ~undecided).sum()),
    }


def test_certificate_keeps_every_fine_verdict_at_n17():
    # every slot row of both parities: 49,152 even and 16,384 odd rows
    n = 17
    verdicts = collections.Counter()
    for p in (0, 1):
        exps = _slot_rows(n, p)
        coef = _coef(exps)
        want = _two_pass_reference(coef, n)
        assert np.array_equal(filters._hall_survivors(exps, n), want), p
        assert len(want) == CANDIDATE_COUNTS[n][p]
        alive = filters._stage_pass_mask(coef, 2 * n + filters.EPSILON, n)
        verdicts.update(_verdicts(coef[alive], 2 * n + filters.EPSILON))
    # the fine grid still decides a few hundred rows, no more
    assert min(verdicts.values()) > 0 and verdicts["undecided"] < 1000, verdicts


def test_certificate_matches_the_fine_grid_on_random_rows():
    rng = np.random.default_rng(20180517)
    fine = filters.FINE_SAMPLES // 2
    verdicts = collections.Counter()
    for m in range(1, 13):
        coef = _coef(rng.integers(0, 4, (300, m)))
        n = 2 * m
        for bound in (2 * n + filters.EPSILON, n + filters.EPSILON):
            want = filters._stage_pass_mask(coef, bound, fine)
            assert np.array_equal(filters._fine_pass_mask(coef, bound), want), (m, bound)
            verdicts.update(_verdicts(coef, bound))
    assert min(verdicts.values()) > 0, verdicts


# ---------------------------------------------------------------------------
# squares table


def test_squares_table_frozen_values():
    tab = filters.build_squares_table(23)
    assert tab.shape == (24, 24)
    assert not tab[0, 5]
    assert tab[1, 2]


def test_squares_table_against_quadruple_loop():
    for n in (1, 2, 3, 7, 12, 23, 30):
        tab = filters.build_squares_table(n)
        target = 2 * n
        lim = math.isqrt(target)
        truth = np.zeros((n + 1, n + 1), dtype=bool)
        for r in range(n + 1):
            for i in range(n + 1):
                for x in range(lim + 1):
                    for y in range(lim + 1):
                        if r * r + i * i + x * x + y * y == target:
                            truth[r, i] = True
        assert np.array_equal(tab, truth), f"n={n}"


# ---------------------------------------------------------------------------
# half-candidate enumeration


HALF_COUNTS = {
    # length: (even survivors, odd survivors) after preprocessing; the even
    # count at length 2 is 1 because the lone even slot is pinned to 1
    1: (1, 0),
    2: (1, 1),
    3: (3, 1),
    4: (3, 4),
    5: (12, 4),
    6: (12, 16),
    7: (39, 16),
    8: (48, 64),
    **{n: CANDIDATE_COUNTS[n][:2] for n in range(9, 19)},
}


def test_half_candidate_counts_frozen():
    for n, (n_even, n_odd) in HALF_COUNTS.items():
        assert len(filters.enumerate_half_candidates(n, "even")) == n_even
        assert len(filters.enumerate_half_candidates(n, "odd")) == n_odd


def test_length_two_candidate_counts_by_brute_force():
    # each count is at most the number of length-2 shapes the normal form
    # allows, and at least 1 because the one normalized first member has a
    # partner, so no sound filter drops it or either of its halves
    seqs = list(itertools.product(range(4), repeat=2))
    evens = {(s[0], None) for s in seqs if s[0] == 0}
    odds = {(None, s[1]) for s in seqs if s[1] == 0}
    firsts = {s for s in seqs if s[0] == s[1] == 0}
    assert firsts <= {a for a, _ in oracle.full_pairs(2)}
    assert (len(evens), len(odds), len(firsts)) == CANDIDATE_COUNTS[2] == (1, 1, 1)


def test_half_candidates_are_well_formed():
    for parity, off in (("even", 0), ("odd", 1)):
        cands = filters.enumerate_half_candidates(7, parity)
        for c in cands:
            slots = [k for k, x in enumerate(c) if x is not None]
            assert slots == list(range(off, 7, 2))
            assert c[slots[0]] == 0  # leading nonzero entry is 1
            if parity == "even":
                assert c[slots[1]] in (0, 1, 2)
        keys = [tuple(x for x in c if x is not None) for c in cands]
        assert keys == sorted(keys)  # lexicographic output order


def test_half_candidates_respect_the_filter(checks):
    # every screened half, kept or rejected, against the checker's direct
    # evaluation at every point of both counts
    rejected = 0
    for n in range(1, 9):
        points = _hall_points(checks, n)
        for p, parity in enumerate(("even", "odd")[:n]):  # length 1 has no odd slots
            screened = []
            for entries in _slot_rows(n, p).tolist():
                row = [None] * n
                row[p::2] = entries
                screened.append(tuple(row))
            keep = checks.spectral_mask(screened, n, points)
            assert filters.enumerate_half_candidates(n, parity) == list(itertools.compress(screened, keep))
            rejected += int((~keep).sum())
    assert rejected > 0


def test_half_candidates_edge_cases():
    assert filters.enumerate_half_candidates(1, "odd") == []
    assert filters.enumerate_half_candidates(1, "even") == [(0,)]
    with pytest.raises(ValueError):
        filters.enumerate_half_candidates(0, "even")
    with pytest.raises(ValueError):
        filters.enumerate_half_candidates(3, "sideways")


# ---------------------------------------------------------------------------
# stage-1 join filter


JOINED_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 14, 7: 12, 8: 36,
    **{n: CANDIDATE_COUNTS[n][2] for n in range(9, 15)},
}


def _halves(n):
    evens = filters.enumerate_half_candidates(n, "even")
    odds = filters.enumerate_half_candidates(n, "odd")
    return evens, filters.join_odds(n, odds)


def _join_all(n):
    """Every stage-1 survivor of length n: all odd halves swept at once."""
    evens, odds = _halves(n)
    join = filters.HalfJoin(n, evens, odds)
    return join.sweep(0, join.odd_count)


def _passes_progressive_points(checks, seqs, n):
    """The join's spectral test by the independent checker, the reference for HalfJoin.

    The PROGRESSIVE_POINTS are the points of the 128-point grid whose index
    is not divisible by 32; |h|^2 must stay within 2n + EPSILON at each.
    """
    return checks.spectral_mask(seqs, n, [j / 128 for j in range(128) if j % 32])


def test_stage1_survivor_counts_frozen():
    for n, expect in JOINED_COUNTS.items():
        assert len(_join_all(n)) == expect, f"n={n}"


def test_stage1_filter_accepts_pair_members():
    for n in range(1, 6):
        survivors = set(_join_all(n))
        for a, _ in oracle.normalized_pairs(n):
            assert a in survivors


def test_half_join_equals_brute_force_composition(checks):
    for n in range(1, 11):
        evens, odds = _halves(n)
        # each slot is filled by exactly one half
        joins = [tuple(o[k] if x is None else x for k, x in enumerate(e)) for e in evens for o in odds]
        sums_ok = list(itertools.compress(joins, checks.four_squares_mask(joins, n)))
        brute = sorted(itertools.compress(sums_ok, _passes_progressive_points(checks, sums_ok, n)))
        assert _join_all(n) == brute, f"n={n}"


@pytest.mark.parametrize("n", [11, 12])
def test_half_join_keeps_the_complex64_arithmetic(checks, n):
    # the join's float32 verdicts bit for bit: every join the entry-sum test
    # admits, kept by a complex64 sum of the two halves' tables at all 124
    # points.  At n=12 an odd class's joins fill more than one grid batch,
    # and most class runs start inside the odd axis.
    evens, odds = _halves(n)
    joins = [tuple(o[k] if x is None else x for k, x in enumerate(e)) for e in evens for o in odds]
    e_at, o_at = np.divmod(np.flatnonzero(checks.four_squares_mask(joins, n)), len(odds))
    tables = [
        _complex64(filters.half_hall_columns(_entries(side, range(p, n, 2)), range(p, n, 2)))
        for p, side in enumerate((evens, odds))
    ]
    kept = []
    for lo in range(0, len(e_at), 1 << 14):
        e, o = e_at[lo : lo + (1 << 14)], o_at[lo : lo + (1 << 14)]
        h = tables[0][:, e] + tables[1][:, o]
        ok = (h.real**2 + h.imag**2 <= 2 * n + filters.EPSILON).all(axis=0)
        kept.extend(joins[len(odds) * a + b] for a, b in zip(e[ok], o[ok]))
    assert _join_all(n) == sorted(kept)
    assert len(kept) == CANDIDATE_COUNTS[n][2]


# float32 planes round the real and imaginary parts of h to 24-bit mantissas,
# so a table entry is off by at most 2^-24 * |h| and its |h|^2 by at most
# (2 + 2^-24) * 2^-24 * |h|^2; the float64 references add about 1e-14
F32_ROUND = 2.0**-24
F32_SQUARE_RTOL = (2 + F32_ROUND) * F32_ROUND
REFERENCE_ATOL = 1e-12


def _table_mags(planes):
    """|h|^2 of float32 table entries, (points, 2, ...) planes, squared in float64."""
    return planes[:, 0].astype(np.float64) ** 2 + planes[:, 1].astype(np.float64) ** 2


def _complex64(planes):
    """A table's (points, 2, ...) float32 planes as complex64 values, exactly."""
    return (planes[:, 0] + 1j * planes[:, 1]).astype(np.complex64)


def _entries(seqs, slots):
    """int8 rows of the seqs' entries at the given slots, as half_hall_columns takes them."""
    rows = np.array([[s[k] for k in slots] for s in seqs], dtype=np.int8)
    return rows.reshape(len(seqs), len(slots))


def test_half_hall_columns_on_a_grid_coarser_than_n():
    # at the 8-point rows a length-10 polynomial wraps around (z^8 = 1)
    n = 10
    evens, _ = _halves(n)
    slots = range(0, n, 2)
    mat = filters.half_hall_columns(_entries(evens, slots), slots)
    assert mat.dtype == np.float32
    assert mat.shape == (len(filters.PROGRESSIVE_POINTS), 2, len(evens))
    mat = _complex64(mat)
    rows = [(p, j) for p, (m, j) in enumerate(filters.PROGRESSIVE_POINTS) if m == 8]
    assert len(rows) == 4
    for p, j in rows:
        z = complex(math.cos(2 * math.pi * j / 8), math.sin(2 * math.pi * j / 8))
        coeffs = [[0 if c is None else 1j**c for c in e] for e in evens]
        direct = np.array([np.polynomial.polynomial.polyval(z, c) for c in coeffs])
        assert (np.abs(mat[p] - direct) <= F32_ROUND * np.abs(direct) + REFERENCE_ATOL).all()


def test_half_hall_columns_match_single_spectra():
    n = 6
    cands = filters.enumerate_half_candidates(n, "even")
    cols = _grid_columns()
    slots = range(0, n, 2)
    mat = filters.half_hall_columns(_entries(cands, slots), slots)  # (points, 2, candidates)
    assert mat.shape == (len(cols), 2, len(cands))
    assert mat.dtype == np.float32
    for r, want in enumerate(_fft_mags(cands, 128)[:, cols]):
        assert np.allclose(_table_mags(mat[:, :, r]), want, rtol=F32_SQUARE_RTOL, atol=REFERENCE_ATOL)


def _largest_square_error(cands, slots):
    """Largest | |h|^2 of the table - |h|^2 by FFT | over cands' points, tabulated at slots."""
    cols = _grid_columns()
    mags = _table_mags(filters.half_hall_columns(_entries(cands, slots), slots))
    return np.abs(mags - _fft_mags(cands, 128)[:, cols].T).max()


def test_single_precision_tables_stay_far_inside_epsilon(checks):
    # soundness rests on this: rounding must move |h|^2 by much less than
    # the epsilon added to the bound 2n, or it could reject a true member
    epsilon = filters.EPSILON
    evens, odds = _halves(16)
    assert (len(evens), len(odds)) == CANDIDATE_COUNTS[16][:2]
    assert _largest_square_error(evens, range(0, 16, 2)) < epsilon / 10
    assert _largest_square_error(odds, range(1, 16, 2)) < epsilon / 10
    members = [s for pair in checks.constructions(32) for s in pair]
    halves = [core.split_even_odd(s) for s in members]
    assert _largest_square_error(members, range(32)) < epsilon / 10
    for p, side in enumerate(zip(*halves)):
        assert _largest_square_error(side, range(p, 32, 2)) < epsilon / 10
    # a join adds two tables' planes and squares them in float32, as
    # HalfJoin does; that too stays far inside epsilon
    e_cols, o_cols = (
        filters.half_hall_columns(_entries(side, range(p, 32, 2)), range(p, 32, 2))
        for p, side in enumerate(zip(*halves))
    )
    h = e_cols + o_cols
    cols = _grid_columns()
    want = _fft_mags(members, 128)[:, cols].T
    assert np.abs((h[:, 0] ** 2 + h[:, 1] ** 2) - want).max() < epsilon / 10


@pytest.mark.parametrize("n", [20, 24, 32])
def test_constructed_first_members_survive_both_filters(checks, n):
    # the fail-able soundness checks above stop at n=10; these pairs exist
    # at every length the constructions reach, moved or not
    rng = random.Random(n)
    pairs = checks.constructions(n)
    pairs += [checks.random_moves(p, rng) for p in pairs for _ in range(2)]
    points = _hall_points(checks, n)
    for pair in pairs:
        a, b = core.normalize(pair)
        halves = core.split_even_odd(a) + core.split_even_odd(b)
        assert checks.spectral_mask(halves, n, points).all(), pair
        for k, half in enumerate(halves):
            assert filters._hall_survivors(np.array([half[k % 2 :: 2]]), n).size == 1, (half, pair)
        even, odd = core.split_even_odd(a)
        assert filters.HalfJoin(n, [even], [odd]).sweep(0, 1) == [a], pair


def test_half_scaled_sums_match_scalar_path(checks):
    n = 7
    cands = filters.enumerate_half_candidates(n, "odd")
    slots = range(1, n, 2)
    arr = filters.half_scaled_sums(_entries(cands, slots), slots)
    assert np.array_equal(arr, checks.scaled_sums(checks.as_array(cands, n)))

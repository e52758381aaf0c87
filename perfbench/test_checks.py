"""Tests of the benchmark's own checkers against cgolay's brute-force oracle.

Run with `python3 -m pytest perfbench/test_checks.py`; `run.py --smoke`
runs them too.
"""

import itertools
import random
import sys
from pathlib import Path

import numpy as np

import checks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cgolay import oracle  # noqa: E402


def _all_sequences(n):
    return list(itertools.product(range(4), repeat=n))


def _brute_pairs(n, firsts):
    """Every (A, B) with A in firsts whose autocorrelations cancel, by table lookup."""
    seqs = _all_sequences(n)
    corr = checks.autocorrelations(checks.as_array(seqs, n)).reshape(len(seqs), -1)
    by_corr = {}
    for seq, row in zip(seqs, corr):
        by_corr.setdefault(row.tobytes(), []).append(seq)
    want = -checks.autocorrelations(checks.as_array(firsts, n)).reshape(len(firsts), -1)
    return {(a, b) for a, row in zip(firsts, want) for b in by_corr.get(row.tobytes(), [])}


def test_autocorrelation_agrees_with_oracle():
    for n in range(1, 5):
        assert _brute_pairs(n, _all_sequences(n)) == oracle.full_pairs(n)
    for n in range(5, 7):
        normalized = oracle.normalized_pairs(n)
        firsts = sorted({a for a, _ in normalized})
        found = {(a, b) for a, b in _brute_pairs(n, firsts) if b[0] == 0}
        assert found == normalized


def test_closure_of_normalized_pairs_is_every_pair():
    for n in range(1, 6):
        assert checks.closure(oracle.normalized_pairs(n)) == oracle.full_pairs(n)
    closed = checks.closure(oracle.normalized_pairs(6))
    assert len(closed) == checks.PUBLISHED_CENSUS[6][1]
    assert len({s for pair in closed for s in pair}) == checks.PUBLISHED_CENSUS[6][0]


def test_members_pass_the_necessary_conditions():
    for n in range(2, 7):
        members = sorted({s for pair in oracle.normalized_pairs(n) for s in pair})
        assert checks.four_squares_mask(members, n).all()
        assert checks.spectral_mask(members, n, checks.roots_of_unity(256)).all()
        halves = [h for s in members for h in checks.halves(s)]
        assert checks.entry_sum_bound_mask(halves, n).all()
        assert checks.spectral_mask(halves, n, checks.roots_of_unity(256)).all()


def test_necessary_conditions_reject_something():
    n = 6
    members = {s for pair in oracle.full_pairs(4) for s in pair}
    others = [s for s in _all_sequences(4) if s not in members]
    assert not checks.four_squares_mask(others, 4).all()
    assert not checks.spectral_mask(others, 4, checks.roots_of_unity(64)).all()
    assert not checks.four_squares_mask([(0,) * n], n)[0]  # entry sum 6: 36 > 12


def test_one_corrupted_entry_is_rejected():
    # changing entry k keeps complementarity possible only at the exact
    # middle of an odd length (the two length-3 partners differ there)
    rng = random.Random(7)
    for n in range(2, 7):
        for a, b in sorted(oracle.normalized_pairs(n)):
            k = rng.choice([k for k in range(n) if 2 * k != n - 1])
            for delta in (1, 2, 3):
                bad = a[:k] + ((a[k] + delta) & 3,) + a[k + 1 :]
                assert checks.is_golay((a, b))
                assert not checks.is_golay((bad, b))
                assert not checks.is_golay((b, bad))


def test_moves_preserve_pairs_and_reach_the_normal_form():
    rng = random.Random(3)
    for n in (2, 3, 4, 5, 6):
        for pair in sorted(oracle.normalized_pairs(n)):
            moved = checks.random_moves(pair, rng)
            assert checks.is_golay(moved)
            assert pair in checks.closure({moved})


def test_constructions():
    for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32):
        for pair in checks.constructions(n):
            assert len(pair[0]) == len(pair[1]) == n
            assert checks.is_golay(pair)
    for n in (2, 3, 4, 5, 6):
        cls = checks.closure(set(checks.constructions(n)))
        normal = {(a, b) for a, b in cls if checks.is_normalized_first(a) and b[0] == 0}
        assert normal and normal <= oracle.normalized_pairs(n)


def test_published_counts_at_small_lengths():
    for n in (6, 7):
        closed = checks.closure(oracle.normalized_pairs(n))
        seqs = {s for pair in closed for s in pair}
        assert (len(seqs), len(closed)) == checks.PUBLISHED_CENSUS[n][:2]


def test_text_form_round_trip():
    assert checks.parse_seq("+i-j0") == (0, 1, 2, 3, None)
    assert np.array_equal(checks.as_array([(0, None)], 2), [[0, 4]])


def test_recorded_representatives_reproduce_the_census():
    counts, closed = checks.class_census(checks.representatives(6))
    assert counts == checks.PUBLISHED_CENSUS[6]
    assert closed == checks.closure(oracle.normalized_pairs(6))
    for n in (8, 10):
        counts, _ = checks.class_census(checks.representatives(n))
        assert counts == checks.PUBLISHED_CENSUS[n]

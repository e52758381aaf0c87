import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cgolay import core, oracle, pipeline

full_seqs = st.lists(st.integers(0, 3), min_size=1, max_size=12).map(tuple)
masked_seqs = st.lists(
    st.one_of(st.none(), st.integers(0, 3)), min_size=1, max_size=12
).map(tuple)


def seq(text):
    return core.from_text(text)


# ---------------------------------------------------------------------------
# autocorrelation


def test_autocorr_frozen_values():
    assert core.autocorr(seq("++-"), 0) == (3, 0)
    assert core.autocorr(seq("++-"), 2) == (-1, 0)
    assert core.autocorr(seq("+i+"), 1) == (0, 0)


def test_autocorr_shift_out_of_range():
    with pytest.raises(ValueError):
        core.autocorr(seq("++-"), 3)
    with pytest.raises(ValueError):
        core.autocorr(seq("++-"), -1)


@given(full_seqs)
def test_autocorr_zero_shift_is_length(a):
    assert core.autocorr(a, 0) == (len(a), 0)


@given(full_seqs, st.data())
def test_autocorr_matches_complex_arithmetic(a, data):
    # independent check against plain complex-number arithmetic
    s = data.draw(st.integers(0, len(a) - 1))
    vals = [1j**c for c in a]
    ref = sum(vals[k] * vals[k + s].conjugate() for k in range(len(a) - s))
    re, im = core.autocorr(a, s)
    assert complex(re, im) == ref


@given(full_seqs)
def test_autocorr_of_conjugate_is_conjugate(a):
    ac = tuple(-c & 3 for c in a)
    for s in range(len(a)):
        re, im = core.autocorr(a, s)
        assert core.autocorr(ac, s) == (re, -im)


def test_autocorrelations_match_autocorr_row_by_row():
    # golay_mask, the half filter and the self-join are all blind to a kernel
    # that conjugates every c_s; only a comparison with autocorr sees it
    rng = np.random.default_rng(20180518)
    shapes = [(60, n) for n in range(1, 25)] + [(0, 1), (0, 5), (20000, 4)]
    for rows, n in shapes:
        x = rng.integers(0, 4, (rows, n)).astype(np.int8)
        got = core.autocorrelations(x)
        assert got.dtype == np.int16 and got.shape == (rows, 2, n - 1)
        for row, c in zip(x.tolist(), got.tolist()):
            assert [core.autocorr(tuple(row), s) for s in range(1, n)] == list(zip(*c)), row


# ---------------------------------------------------------------------------
# pair membership


def test_is_golay_pair_frozen_values():
    assert core.is_golay_pair((seq("++-"), seq("+i+")))
    assert core.is_golay_pair((seq("+"), seq("+")))
    assert not core.is_golay_pair((seq("++"), seq("++")))


def test_is_golay_pair_length_mismatch():
    with pytest.raises(ValueError):
        core.is_golay_pair((seq("++"), seq("+")))


def test_is_golay_pair_agrees_with_oracle_exhaustively():
    for n in (1, 2, 3):
        truth = oracle.full_pairs(n)
        univ = list(itertools.product((0, 1, 2, 3), repeat=n))
        for a in univ:
            for b in univ:
                assert core.is_golay_pair((a, b)) == ((a, b) in truth)


def _golay_rows(pairs, n):
    x = np.array(pairs, dtype=np.int8).reshape(-1, 2, n)
    return core.golay_mask(x[:, 0], x[:, 1])


@pytest.mark.parametrize("n", range(1, 5))
def test_golay_mask_equals_is_golay_pair_exhaustively(n):
    univ = list(itertools.product((0, 1, 2, 3), repeat=n))
    pairs = [(a, b) for a in univ for b in univ]
    assert _golay_rows(pairs, n).tolist() == [core.is_golay_pair(p) for p in pairs]


@pytest.mark.parametrize("n", range(1, 11))
def test_golay_mask_equals_is_golay_pair_near_normalized_pairs(n, tmp_path):
    # every normalized pair and each change of one of its entries; the
    # oracle stops at length 8, the pipeline (held to it) goes on
    if n <= 8:
        found = oracle.normalized_pairs(n)
    else:
        found = pipeline.enumerate_pairs(pipeline.RunConfig(n=n, out_dir=tmp_path))
    pairs = []
    for a, b in sorted(found):
        pairs.append((a, b))
        for k in range(2 * n):
            for c in (1, 2, 3):
                flat = list(a + b)
                flat[k] = (flat[k] + c) & 3
                pairs.append((tuple(flat[:n]), tuple(flat[n:])))
    assert _golay_rows(pairs, n).tolist() == [core.is_golay_pair(p) for p in pairs]


# ---------------------------------------------------------------------------
# text form


@given(masked_seqs)
def test_text_roundtrip(a):
    assert core.from_text(core.to_text(a)) == a


def test_text_frozen_example():
    assert core.to_text((0, 1, 2)) == "+i-"
    assert core.from_text("+i-") == (0, 1, 2)


def test_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        core.from_text("+x-")


# ---------------------------------------------------------------------------
# splitting


@given(full_seqs)
def test_split_join_roundtrip(checks, a):
    even, odd = core.split_even_odd(a)
    assert (even, odd) == checks.halves(a)
    assert all(c is None for k, c in enumerate(even) if k % 2 == 1)
    assert all(c is None for k, c in enumerate(odd) if k % 2 == 0)

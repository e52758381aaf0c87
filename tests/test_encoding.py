"""Partner search: the mirror-pair search, its programmatic-SAT reference
(clause skeleton and callbacks), and agreement with the oracle."""

import itertools
import random

import pytest

from cgolay import core, encoding, oracle, pipeline, progsat
from cgolay.encoding import (
    PartnerChecker,
    build_instance,
    decode_assignment,
    decode_entry,
    find_partners,
    golay_callback,
)


def all_normalized_firsts(n):
    """Every sequence that can open a normalized pair, partnered or not."""
    if n == 1:
        return [(0,)]
    heads = [(0, 0)] if n == 2 else [(0, 0) + (a2,) for a2 in (0, 2, 1)]
    tails = itertools.product(range(4), repeat=max(0, n - 3))
    return [h + t for h, t in itertools.product(heads, list(tails))]


def oracle_partner_map(n):
    out = {}
    for a, b in oracle.normalized_pairs(n):
        out.setdefault(a, []).append(b)
    return {a: sorted(bs) for a, bs in out.items()}


def test_decode_entry_table():
    assert decode_entry(False, False) == 0
    assert decode_entry(True, False) == 1
    assert decode_entry(False, True) == 2
    assert decode_entry(True, True) == 3


def test_support_windows():
    assert encoding._support(8, 7) == [0, 7]
    assert encoding._support(8, 5) == [0, 1, 2, 5, 6, 7]
    assert encoding._support(8, 4) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert encoding._support(8, 3) == list(range(8))
    assert encoding._support(3, 1) == [0, 1, 2]


def test_instance_skeleton_small():
    solver, enc = build_instance((0, 0, 2))
    assert enc.length == 3 and enc.num_vars == 6
    assert enc.targets == ((0, 0), (1, 0))
    # leading-entry units, then the one mirror pair in the same parity class
    assert solver.static_clauses() == ((-1,), (-2,), (1, -5), (-1, 5))
    assert solver._order == [0, 1, 4, 5, 2, 3]


def test_instance_skeleton_counts():
    solver, _ = build_instance((0,) * 8)
    clauses = solver.static_clauses()
    assert solver.num_vars == 16
    assert sum(1 for c in clauses if len(c) == 1) == 2
    assert sum(1 for c in clauses if len(c) == 2) == 8

    solver, _ = build_instance((0,))
    assert solver.static_clauses() == ((-1,), (-2,))

    solver, _ = build_instance((0, 1))
    clauses = solver.static_clauses()
    assert sum(1 for c in clauses if len(c) == 1) == 2
    # entries at 0 and 1 differ in parity, so the bits must differ too
    assert (1, 3) in clauses and (-1, -3) in clauses


def test_empty_first_sequence_rejected():
    with pytest.raises(ValueError):
        build_instance(())


def test_reference_callback_verdicts():
    _, enc = build_instance((0, 0, 2))
    partial = [False, False, None, None, False, True]
    verdict = golay_callback(enc, partial)
    assert isinstance(verdict, progsat.Conflict)
    assert verdict.clause == (1, 2, 5, -6)

    consistent = [False, False, None, None, False, False]
    assert golay_callback(enc, consistent) is progsat.NO_CONFLICT

    full = [False, False, True, False, False, False]  # partner i at position 1
    assert golay_callback(enc, full) is progsat.SOLUTION
    assert decode_assignment(enc, full) == (0, 1, 0)


def test_find_partners_small_known_sets():
    assert find_partners((0, 0, 2)) == [(0, 1, 0), (0, 3, 0)]
    assert find_partners((0, 0, 0)) == []  # all-ones length 3 has no partner
    assert find_partners((0,)) == [(0,)]
    assert find_partners((0, 0)) == [(0, 2)]


@pytest.mark.parametrize("n", range(1, 7))
def test_find_partners_matches_oracle(n):
    expected = oracle_partner_map(n)
    for a in all_normalized_firsts(n):
        assert find_partners(a) == expected.get(a, [])


def _solve(solver, enc, callback):
    return sorted(decode_assignment(enc, s) for s in solver.solve_all(callback))


@pytest.mark.parametrize("n", range(1, 6))
def test_sat_reference_matches_search(n):
    for a in all_normalized_firsts(n):
        solver, enc = build_instance(a)
        stateless = lambda s: golay_callback(enc, s.assignment())
        assert _solve(solver, enc, stateless) == find_partners(a)


@pytest.mark.parametrize("n", range(1, 6))
def test_parity_clauses_only_prune(n):
    # the same instance with only the leading-entry units kept
    for a in all_normalized_firsts(n):
        full, enc = build_instance(a)
        bare = progsat.Solver(full.num_vars)
        for clause in full.static_clauses():
            if len(clause) == 1:
                bare.add_clause(clause)
        bare.set_branch_order(full._order)
        assert _solve(bare, enc, PartnerChecker(enc)) == find_partners(a)


@pytest.mark.parametrize("n", range(1, 7))
def test_reference_matches_oracle(n):
    expected = oracle_partner_map(n)
    for a in all_normalized_firsts(n):
        solver, enc = build_instance(a)
        assert _solve(solver, enc, PartnerChecker(enc)) == expected.get(a, [])


def test_partners_are_exact_pairs():
    for a in all_normalized_firsts(5):
        for b in find_partners(a):
            assert core.is_golay_pair((a, b))
            assert b[0] == 0  # leading entry pinned to 1


# -- the mirror-pair search against its programmatic-SAT reference ----------


def _reference(a):
    solver, enc = build_instance(a)
    return _solve(solver, enc, PartnerChecker(enc))


@pytest.mark.parametrize("n", range(8, 13))
def test_search_matches_reference_on_first_members(tmp_path, n):
    cfg = pipeline.RunConfig(n=n, out_dir=tmp_path)
    survivors = pipeline.run_stage1(cfg, *pipeline.run_preprocessing(cfg))
    assert survivors
    for a in survivors:
        assert find_partners(a) == _reference(a), a


@pytest.mark.parametrize("n", range(13, 17))
def test_search_matches_reference_on_random_sequences(n):
    rng = random.Random(1000 + n)
    for _ in range(40):
        a = tuple(rng.randrange(4) for _ in range(n))
        assert find_partners(a) == _reference(a), a


@pytest.mark.parametrize("n", [16, 20, 24])
def test_search_matches_reference_on_moved_constructions(checks, n):
    # random sequences almost never have a partner; these always do
    rng = random.Random(n)
    for pair in checks.constructions(n):
        a, _ = checks.random_moves(pair, rng)
        partners = find_partners(a)
        assert partners and partners == _reference(a), a


def test_search_returns_the_known_partner_of_constructed_members(checks):
    pairs = checks.constructions(32)
    assert len(pairs) == 32
    for a, b in pairs:
        partners = find_partners(a)
        assert checks.rescale_leading_one(b) in partners, a
        assert len(partners) == 2, a

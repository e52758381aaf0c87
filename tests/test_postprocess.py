"""Closure, classification, and the crossover diagnostic."""

import random

import numpy as np
import pytest

from cgolay import cli, core, oracle, pipeline
from cgolay.oracle import equivalence_closure
from cgolay.postprocess import build_omegas, census_rows, crossover_check
from expected_counts import PAIR_COUNTS

# the single known class violating the crossover relation, at length 8
CROSSOVER_EXCEPTION = ((0, 0, 0, 2, 0, 0, 2, 0), (0, 1, 1, 2, 0, 3, 3, 2))


def text_key(pair):
    return (core.to_text(pair[0]), core.to_text(pair[1]))


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Per length: the enumerated pairs and the census by whole-class closure.

    The reference closes every class with the oracle's five moves and takes
    the least pair of each class by text key.
    """
    base = tmp_path_factory.mktemp("census")
    cache = {}

    def get(n):
        if n not in cache:
            cfg = pipeline.RunConfig(n=n, out_dir=base / f"n{n}")
            pairs = pipeline.enumerate_pairs(cfg)
            closure = equivalence_closure(pairs)
            classes, absorbed = [], set()
            for pair in sorted(closure):
                if pair not in absorbed:
                    cls = equivalence_closure([pair])
                    absorbed |= cls
                    classes.append(cls)
            cache[n] = {
                "cfg": cfg,
                "pairs": pairs,
                "classes": classes,
                "census": (
                    closure,
                    frozenset(s for p in closure for s in p),
                    tuple(sorted((min(c, key=text_key) for c in classes), key=text_key)),
                ),
            }
        return cache[n]

    return get


def census_fields(omegas):
    return (omegas.all_pairs, omegas.sequences, omegas.representatives)


def census_sizes(omegas):
    """counts as read off the tuple views, in counts' order."""
    return (len(omegas.sequences), len(omegas.all_pairs), len(omegas.representatives))


@pytest.mark.parametrize("n", range(1, 13))
def test_census_equals_closure_reference_on_unnormalized_inputs(reference, n):
    ref = reference(n)
    closure = sorted(ref["census"][0])
    rng = random.Random(1000 + n)
    sample = rng.sample(closure, min(len(closure), 300))
    sample += [rng.choice(sorted(cls)) for cls in ref["classes"]]
    rng.shuffle(sample)
    for pairs in (ref["pairs"][::-1], sample, closure):
        omegas = build_omegas(n, pairs)
        assert census_fields(omegas) == ref["census"]
        assert omegas.counts == census_sizes(omegas)


# at length 1 the ramp offsets fix every pair, so the closure must drop repeats
@pytest.mark.parametrize("n", [1, 10, 12])
def test_postprocess_files_equal_closure_reference(reference, tmp_path, capsys, n):
    ref = reference(n)
    closure, _, reps = ref["census"]
    out = tmp_path / "census"
    assert cli.main(["postprocess", "--in", str(ref["cfg"].path_pairs()), "--out", str(out)]) == 0
    capsys.readouterr()
    # the reference text comes from pair_line, not from write_pairs' byte lookup
    for name, pairs in (("pairs_all", sorted(closure)), ("reps", reps)):
        text = "".join(pipeline.pair_line(n, p) + "\n" for p in pairs)
        assert (out / f"{name}_n{n}.txt").read_text() == text


@pytest.mark.parametrize("seed", [((0, 0), (0, 2)), ((0, 0, 1, 3), (0, 0, 3, 1))])
def test_census_of_a_length_64_pair_equals_its_closure(seed):
    # Golay concatenation (A, B) -> (AB, A(-B)) from (++, +-), and from
    # (++ij, ++ji), where reversing A alone breaks the pair; a length-64 pair
    # takes two key words per member and four per pair
    a, b = seed
    while len(a) < 64:
        a, b = a + b, a + tuple((x + 2) & 3 for x in b)
    closure = equivalence_closure([(a, b)])
    omegas = build_omegas(64, [(a, b)])
    assert omegas.all_pairs == closure
    rows = omegas.closure.tolist()
    assert [(tuple(ra), tuple(rb)) for ra, rb in rows] == sorted(closure)
    assert omegas.sequences == frozenset(s for p in closure for s in p)
    assert omegas.representatives == (min(closure, key=text_key),)
    assert omegas.counts == census_sizes(omegas)


def test_closure_sizes_of_single_pairs():
    assert len(equivalence_closure([((0,), (0,))])) == 16
    assert len(equivalence_closure([((0, 0, 2), (0, 1, 0))])) == 128
    five = sorted(oracle.normalized_pairs(5))[0]
    assert len(equivalence_closure([five])) == 512


def test_closure_is_closed_and_contains_seed():
    seed = ((0, 0, 2), (0, 1, 0))
    closure = equivalence_closure([seed])
    assert seed in closure
    for pair in closure:
        assert core.is_golay_pair(pair)
        for tag in core.EQUIV_OPS:
            assert core.apply_equivalence(tag, pair) in closure


@pytest.mark.parametrize("n", range(1, 7))
def test_census_counts_match_known_table(n):
    omegas = build_omegas(n, oracle.normalized_pairs(n))
    assert omegas.counts == PAIR_COUNTS[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_closure_recovers_brute_force_enumeration(n):
    omegas = build_omegas(n, oracle.normalized_pairs(n))
    assert set(omegas.all_pairs) == set(oracle.full_pairs(n))


def test_census_is_input_order_independent():
    pairs = list(oracle.normalized_pairs(6))
    reference = build_omegas(6, pairs)
    shuffled = pairs[:]
    random.Random(7).shuffle(shuffled)
    again = build_omegas(6, shuffled)
    assert census_fields(again) == census_fields(reference)
    assert np.array_equal(again.closure, reference.closure)


def test_representatives_are_sorted_class_minima():
    omegas = build_omegas(4, oracle.normalized_pairs(4))
    keys = [(core.to_text(a), core.to_text(b)) for a, b in omegas.representatives]
    assert keys == sorted(keys)
    for rep in omegas.representatives:
        cls = equivalence_closure([rep])
        assert rep == min(cls, key=lambda p: (core.to_text(p[0]), core.to_text(p[1])))


def test_build_omegas_validates_input():
    with pytest.raises(ValueError):
        build_omegas(3, [((0, 0, 0), (0, 0, 0))])  # not a pair
    with pytest.raises(ValueError):
        build_omegas(4, [((0, 0, 2), (0, 1, 0))])  # wrong length


def test_crossover_holds_at_small_lengths():
    for n in range(1, 6):
        omegas = build_omegas(n, oracle.normalized_pairs(n))
        assert all(crossover_check(p) for p in omegas.representatives)


def test_crossover_exception_at_length_eight():
    assert core.is_golay_pair(CROSSOVER_EXCEPTION)
    assert not crossover_check(CROSSOVER_EXCEPTION)
    # the violation is a class property: every equivalent pair also fails
    # or the class contains both verdicts -- record what actually happens
    closure = equivalence_closure([CROSSOVER_EXCEPTION])
    assert any(not crossover_check(p) for p in closure)


def test_census_rows_shape():
    rows = census_rows({n: oracle.normalized_pairs(n) for n in (1, 2, 3)})
    assert rows == [(1, 4, 16, 1), (2, 16, 64, 1), (3, 16, 128, 1)]

"""Acceptance criteria, one test per criterion.

Each test records a PASS/FAIL line that pytest prints in its terminal
summary.  The expensive artifact -- a complete pipeline run for every
length 1..16 -- is computed once per session and shared.
"""

import os
import random
import time
import warnings

import numpy as np
import pytest

from cgolay import core, encoding, oracle, pipeline, postprocess
from cgolay.progsat import Solver
from conftest import record_criterion
from expected_counts import CANDIDATE_COUNTS, PAIR_COUNTS

FULL_RANGE = range(1, 17)
STRETCH_RANGE = range(17, 22)
FULL_BUDGET_SECONDS = 600.0
ORACLE_BUDGET_SECONDS = 120.0
STRETCH_BUDGET_SECONDS = 4.5 * 3600.0


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    per_n = {}
    t0 = time.process_time()
    for n in FULL_RANGE:
        cfg = pipeline.RunConfig(n=n, out_dir=base / f"n{n}")
        pairs = pipeline.enumerate_pairs(cfg)
        per_n[n] = {"cfg": cfg, "pairs": pairs, "census": postprocess.build_omegas(n, pairs)}
    return {"per_n": per_n, "cpu_seconds": time.process_time() - t0, "base": base}


def test_criterion_1_exact_pair_counts(runs):
    mismatches = {
        n: (runs["per_n"][n]["census"].counts, PAIR_COUNTS[n])
        for n in FULL_RANGE
        if runs["per_n"][n]["census"].counts != PAIR_COUNTS[n]
    }
    cpu = runs["cpu_seconds"]
    ok = not mismatches and cpu < FULL_BUDGET_SECONDS
    record_criterion(
        1,
        "PASS" if ok else "FAIL",
        f"census for n=1..16 exact in {cpu:.0f} CPU s (budget {FULL_BUDGET_SECONDS:.0f})"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )
    assert not mismatches
    assert cpu < FULL_BUDGET_SECONDS


def test_criterion_2_stretch_lengths(tmp_path_factory):
    if os.environ.get("CGOLAY_STRETCH") != "1":
        record_criterion(
            2, "SKIP", "stretch lengths 17..21 not run (set CGOLAY_STRETCH=1)"
        )
        pytest.skip("stretch run is opt-in: set CGOLAY_STRETCH=1")
    base = tmp_path_factory.mktemp("stretch")
    t0 = time.process_time()
    mismatches = {}
    for n in STRETCH_RANGE:
        cfg = pipeline.RunConfig(n=n, out_dir=base / f"n{n}")
        census = postprocess.build_omegas(n, pipeline.enumerate_pairs(cfg))
        if census.counts != PAIR_COUNTS[n]:
            mismatches[n] = (census.counts, PAIR_COUNTS[n])
    cpu = time.process_time() - t0
    ok = not mismatches and cpu < STRETCH_BUDGET_SECONDS
    record_criterion(
        2,
        "PASS" if ok else "FAIL",
        f"census for n=17..21 exact in {cpu:.0f} CPU s (budget {STRETCH_BUDGET_SECONDS:.0f})"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )
    assert not mismatches
    assert cpu < STRETCH_BUDGET_SECONDS


def test_criterion_3_oracle_agreement(runs):
    t0 = time.process_time()
    pair_mismatch = [
        n
        for n in range(1, 8)
        if runs["per_n"][n]["pairs"] != sorted(oracle.normalized_pairs(n))
    ]
    closure_mismatch = [
        n
        for n in range(1, 7)
        if set(runs["per_n"][n]["census"].all_pairs) != set(oracle.full_pairs(n))
    ]
    cpu = time.process_time() - t0
    ok = not pair_mismatch and not closure_mismatch and cpu < ORACLE_BUDGET_SECONDS
    record_criterion(
        3,
        "PASS" if ok else "FAIL",
        f"pipeline equals brute force (normalized n=1..7, closure n=1..6) "
        f"in {cpu:.0f} CPU s (budget {ORACLE_BUDGET_SECONDS:.0f})",
    )
    assert pair_mismatch == [] and closure_mismatch == []
    assert cpu < ORACLE_BUDGET_SECONDS


def test_self_join_equals_the_partner_search(runs):
    # stage 2 finds partners among L_A's ramps and conjugates; the reference
    # searches each member's partners directly, so it also finds a pair
    # whose partner's normal form is missing from L_A
    mismatches = []
    for n in FULL_RANGE:
        cfg = runs["per_n"][n]["cfg"]
        survivors = pipeline.read_candidates(cfg.path_survivors(), n)
        expected = [(a, b) for a in survivors for b in encoding.find_partners(a)]
        if runs["per_n"][n]["pairs"] != expected:
            mismatches.append(n)
    assert mismatches == []


def _soundness_gaps(n, evens, odds, survivors, truth):
    evens, odds, survivors = set(evens), set(odds), set(survivors)
    gaps = []
    for a in truth:
        even_half, odd_half = core.split_even_odd(a)
        half_ok = even_half in evens and (n == 1 or odd_half in odds)
        if a not in survivors or not half_ok:
            gaps.append(core.to_text(a))
    return gaps


def test_criterion_4_filters_never_drop_a_true_candidate(runs):
    dropped = {}
    for n in range(1, 8):
        truth = {a for a, _ in oracle.normalized_pairs(n)}
        cfg = runs["per_n"][n]["cfg"]
        lists = [
            pipeline.read_candidates(cfg.path_even(), n, "even"),
            pipeline.read_candidates(cfg.path_odd(), n, "odd"),
            pipeline.read_candidates(cfg.path_survivors(), n),
        ]
        gaps = _soundness_gaps(n, *lists, truth)
        if gaps:
            dropped[n] = gaps
    record_criterion(
        4,
        "PASS" if not dropped else "FAIL",
        "every partnered first member survives both filter stages (n=1..7)"
        + (f"; dropped {dropped}" if dropped else ""),
    )
    assert not dropped


def _member_matrix(seqs, n, grid):
    exps = np.array(seqs, dtype=np.int8)
    values = np.array(core.ENTRY_VALUES)[exps]
    transforms = np.fft.ifft(values, n=grid, axis=1) * grid
    even_part = np.fft.ifft(values * (np.arange(n) % 2 == 0), n=grid, axis=1) * grid
    odd_part = transforms - even_part
    mags = transforms.real**2 + transforms.imag**2
    half_mags = (
        even_part.real**2
        + even_part.imag**2
        + odd_part.real**2
        + odd_part.imag**2
    )
    re = np.array(core.ENTRY_RE)[exps].sum(axis=1)
    im = np.array(core.ENTRY_IM)[exps].sum(axis=1)
    return mags, half_mags, re.astype(np.int64), im.astype(np.int64)


def test_criterion_5_pair_invariants(runs):
    grid = 64
    tolerance = 1e-9
    worst = 0.0
    worst_halves = 0.0
    checked = 0
    exact_failures = 0
    for n in FULL_RANGE:
        pairs = sorted(runs["per_n"][n]["census"].all_pairs)
        for lo in range(0, len(pairs), 20000):
            chunk = pairs[lo : lo + 20000]
            mags_a, half_a, re_a, im_a = _member_matrix(
                [p[0] for p in chunk], n, grid
            )
            mags_b, half_b, re_b, im_b = _member_matrix(
                [p[1] for p in chunk], n, grid
            )
            deviation = np.abs(mags_a + mags_b - 2 * n).max()
            worst = max(worst, float(deviation))
            half_deviation = np.abs(half_a + half_b - 2 * n).max()
            worst_halves = max(worst_halves, float(half_deviation))
            exact_failures += int(
                np.count_nonzero(re_a**2 + im_a**2 + re_b**2 + im_b**2 != 2 * n)
            )
            checked += len(chunk)
    ok = worst <= tolerance and worst_halves <= tolerance and exact_failures == 0
    record_criterion(
        5,
        "PASS" if ok else "FAIL",
        f"pair flatness within {worst:.2e}, even/odd-half flatness within "
        f"{worst_halves:.2e} (tol {tolerance:.0e}), and exact entry-sum "
        f"identity on {checked} pairs across n=1..16",
    )
    assert worst <= tolerance
    assert worst_halves <= tolerance
    assert exact_failures == 0


def _truth_table(num_vars, clauses):
    count = 1 << num_vars
    bits = (
        np.arange(count, dtype=np.uint32)[:, None]
        >> np.arange(num_vars, dtype=np.uint32)[None, :]
    ) & 1
    ok = np.ones(count, dtype=bool)
    for cl in clauses:
        sat = np.zeros(count, dtype=bool)
        for lit in cl:
            sat |= bits[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        ok &= sat
    return {tuple(bool(b) for b in bits[i]) for i in np.nonzero(ok)[0]}


def test_criterion_6_kernel_matches_truth_tables():
    rng = random.Random(0xACCE97)
    t0 = time.process_time()
    failures = 0
    for _ in range(1000):
        num_vars = rng.randint(1, 16)
        num_clauses = max(0, int(2.2 * num_vars) + rng.randint(-2, 2))
        clauses = []
        for _ in range(num_clauses):
            width = rng.randint(1, min(3, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), width)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in chosen))
        solver = Solver(num_vars)
        for cl in clauses:
            solver.add_clause(cl)
        if set(solver.solve_all()) != _truth_table(num_vars, clauses):
            failures += 1
    cpu = time.process_time() - t0
    record_criterion(
        6,
        "PASS" if failures == 0 else "FAIL",
        f"solver agrees with truth tables on 1000 random instances "
        f"(up to 16 variables) in {cpu:.0f} CPU s; {failures} mismatches",
    )
    assert failures == 0


def test_criterion_7_candidate_counts_replicated(runs):
    deviations = []
    for n in FULL_RANGE:
        report = dict(
            line.split("=", 1)
            for line in runs["per_n"][n]["cfg"].path_report().read_text().splitlines()
        )
        got = (int(report["L_even"]), int(report["L_odd"]), int(report["L_A"]))
        want = tuple(0 if v is None else v for v in CANDIDATE_COUNTS[n])
        if got != want:
            deviations.append((n, got, want))
            warnings.warn(
                f"candidate counts at n={n} differ from the published tabulation: "
                f"ours {got}, published {want}",
                stacklevel=1,
            )
    record_criterion(
        7,
        "PASS",
        f"candidate counts compared for n=1..16; {len(deviations)} deviation(s) "
        f"from the published tabulation (soft criterion, reported as warnings)"
        + (f": {deviations}" if deviations else ""),
    )


def test_criterion_8_determinism_and_shards(runs, tmp_path_factory):
    n = 12
    fresh_dir = tmp_path_factory.mktemp("determinism")
    reference = runs["per_n"][n]["cfg"]
    repeat = pipeline.RunConfig(n=n, out_dir=fresh_dir / "repeat")
    pipeline.enumerate_pairs(repeat)
    byte_identical = all(
        getattr(repeat, name)().read_bytes() == getattr(reference, name)().read_bytes()
        for name in ("path_even", "path_odd", "path_survivors", "path_pairs")
    )

    union_pairs = []
    union_survivors = []
    shards = [
        pipeline.RunConfig(n=n, out_dir=fresh_dir / "shards", shards=4, shard_index=k)
        for k in range(1, 5)
    ]
    waiting = []
    for cfg in shards:
        try:
            union_pairs.extend(pipeline.enumerate_pairs(cfg))
        except pipeline.ShardWaiting:
            waiting.append(cfg)
    # the shards that waited for a sibling's first members run stage 2 now
    for cfg in waiting:
        union_pairs.extend(pipeline.enumerate_pairs(cfg))
    for cfg in shards:
        union_survivors.extend(pipeline.read_candidates(cfg.path_survivors(), n))
    shard_union_ok = sorted(union_pairs) == runs["per_n"][n]["pairs"] and sorted(
        union_survivors
    ) == pipeline.read_candidates(reference.path_survivors(), n)

    ok = byte_identical and shard_union_ok
    record_criterion(
        8,
        "PASS" if ok else "FAIL",
        f"length-12 rerun byte-identical: {byte_identical}; "
        f"4-shard union equals the unsharded run: {shard_union_ok}",
    )
    assert byte_identical
    assert shard_union_ok

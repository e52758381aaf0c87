"""Kernel checks: propagation, enumeration order, callbacks, random CNF sweeps."""

import random

import numpy as np
import pytest

from cgolay import progsat
from cgolay.progsat import CallbackContractError, Conflict, NO_CONFLICT, SOLUTION, Solver


def truth_table_solutions(num_vars, clauses):
    """All satisfying assignments of a CNF, by brute force over 2**V rows."""
    count = 1 << num_vars
    idx = np.arange(count, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(num_vars, dtype=np.uint32)[None, :]) & 1
    ok = np.ones(count, dtype=bool)
    for cl in clauses:
        sat = np.zeros(count, dtype=bool)
        for lit in cl:
            sat |= bits[:, abs(lit) - 1] == (1 if lit > 0 else 0)
        ok &= sat
    return {tuple(bool(b) for b in bits[i]) for i in np.nonzero(ok)[0]}


def random_cnf(rng, num_vars, num_clauses, max_width=3):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(max_width, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return clauses


def run(num_vars, clauses, callback=None, order=None):
    solver = Solver(num_vars)
    for cl in clauses:
        solver.add_clause(cl)
    if order is not None:
        solver.set_branch_order(order)
    return list(solver.solve_all(callback))


def test_free_variables_enumerate_lexicographically():
    sols = run(2, [])
    assert sols == [
        (False, False),
        (False, True),
        (True, False),
        (True, True),
    ]


def test_unit_clauses_fix_the_unique_solution():
    assert run(2, [(1,), (-2,)]) == [(True, False)]


def test_contradictory_units_give_nothing():
    assert run(1, [(1,), (-1,)]) == []


def test_unsatisfiable_core_gives_nothing():
    clauses = [(1, 2), (1, -2), (-1, 2), (-1, -2)]
    assert run(2, clauses) == []


def test_root_fixed_variables_do_not_block_free_ones():
    sols = run(3, [(1,)])
    assert len(sols) == 4
    assert all(s[0] for s in sols)


def test_solution_only_callback_changes_nothing():
    def cb(solver):
        if len(solver.trail) == solver.num_vars:
            return SOLUTION
        return NO_CONFLICT

    assert run(2, [], cb) == run(2, [])


def test_zero_variables_yield_the_empty_assignment():
    assert run(0, []) == [()]


def test_callback_conflicts_prune_assignments():
    # forbid var0 and var1 agreeing, purely programmatically
    def cb(solver):
        a, b = solver.value(0), solver.value(1)
        if a is None or b is None:
            return NO_CONFLICT
        if a == b:
            return Conflict(((-1 if a else 1), (-2 if b else 2)))
        return NO_CONFLICT

    assert set(run(2, [], cb)) == {(False, True), (True, False)}
    # and combined with clauses
    assert run(2, [(1,)], cb) == [(True, False)]


def test_callback_matches_equivalent_clauses():
    clauses = [(1, 2, 3), (-1, -3)]
    extra = (2, -3)

    def cb(solver):
        vals = [solver.value(abs(l) - 1) for l in extra]
        if all(v is not None for v in vals) and not any(
            v == (l > 0) for v, l in zip(vals, extra)
        ):
            return Conflict(extra)
        return NO_CONFLICT

    assert set(run(3, clauses, cb)) == truth_table_solutions(3, clauses + [extra])


def test_conflict_clause_must_be_falsified():
    def cb(solver):
        return Conflict((1, 2))  # nothing is assigned yet at the root

    solver = Solver(2)
    with pytest.raises(CallbackContractError):
        list(solver.solve_all(cb))


def test_unexpected_callback_result_is_rejected():
    solver = Solver(1)
    with pytest.raises(CallbackContractError):
        list(solver.solve_all(lambda s: "maybe"))


def test_conflict_is_raised_again_in_every_branch_it_covers():
    # the conflict fires deep in the first subtree and no clause is kept
    # from it, so the callback must veto the pair again wherever it
    # recurs; otherwise the pair would reappear among the solutions
    seen = []

    def cb(solver):
        a, b = solver.value(0), solver.value(2)
        if a is True and b is True:
            return Conflict((-1, -3))
        if len(solver.trail) == solver.num_vars:
            seen.append(tuple(solver.assignment()))
        return NO_CONFLICT

    sols = set(run(3, [], cb))
    assert sols == {s for s in truth_table_solutions(3, []) if not (s[0] and s[2])}
    assert sols == set(seen)


def test_only_static_clauses_are_watched():
    clauses = [(1, 2, 3), (-1, -3), (2, -4, 5), (5,)]

    def cb(solver):
        a, b = solver.value(1), solver.value(2)
        if a is True and b is False:
            return Conflict((-2, 3))
        return NO_CONFLICT

    solver = Solver(5)
    for cl in clauses:
        solver.add_clause(cl)
    sols = list(solver.solve_all(cb))
    assert len(sols) > 1
    assert set(sols) == truth_table_solutions(5, clauses + [(-2, 3)])
    non_unit = sum(1 for cl in clauses if len(cl) > 1)
    assert sum(len(ws) for ws in solver._watch) == 2 * non_unit


def test_branch_order_changes_order_not_set():
    clauses = [(1, -2), (2, 3), (-1, -3)]
    base = run(3, clauses)
    permuted = run(3, clauses, order=[2, 0, 1])
    assert base != permuted  # different visit order...
    assert set(base) == set(permuted)  # ...same solutions
    assert set(base) == truth_table_solutions(3, clauses)


def test_branch_order_validation():
    solver = Solver(3)
    with pytest.raises(ValueError):
        solver.set_branch_order([0, 1])
    with pytest.raises(ValueError):
        solver.set_branch_order([0, 1, 1])


def test_clause_validation():
    solver = Solver(2)
    with pytest.raises(ValueError):
        solver.add_clause(())
    with pytest.raises(ValueError):
        solver.add_clause((0,))
    with pytest.raises(ValueError):
        solver.add_clause((3,))
    with pytest.raises(ValueError):
        solver.add_clause((1, -1))
    with pytest.raises(ValueError):
        solver.add_clause((2, 2))


def test_solver_is_single_shot():
    solver = Solver(1)
    list(solver.solve_all())
    with pytest.raises(RuntimeError):
        list(solver.solve_all())
    with pytest.raises(RuntimeError):
        solver.add_clause((1,))


def test_to_dimacs_format():
    solver = Solver(3)
    solver.add_clause((1, -3))
    solver.add_clause((2,))
    assert solver.static_clauses() == ((1, -3), (2,))


def test_assignment_snapshot_mid_search():
    states = []

    def cb(solver):
        states.append(tuple(solver.assignment()))
        return NO_CONFLICT

    run(2, [(1, 2)], cb)
    assert states[0] == (None, None)  # root consult, nothing forced
    assert (False, True) in states  # var0=False propagates var1=True


def test_random_instances_match_truth_tables():
    rng = random.Random(0xC0FFEE)
    for _ in range(250):
        num_vars = rng.randint(1, 9)
        num_clauses = rng.randint(0, int(2.6 * num_vars) + 1)
        clauses = random_cnf(rng, num_vars, num_clauses)
        assert set(run(num_vars, clauses)) == truth_table_solutions(num_vars, clauses)


def test_random_instances_with_shuffled_orders():
    rng = random.Random(1234)
    for _ in range(60):
        num_vars = rng.randint(2, 8)
        clauses = random_cnf(rng, num_vars, rng.randint(1, 2 * num_vars))
        order = list(range(num_vars))
        rng.shuffle(order)
        assert set(run(num_vars, clauses, order=order)) == truth_table_solutions(
            num_vars, clauses
        )


def test_solutions_are_emitted_without_duplicates():
    rng = random.Random(99)
    for _ in range(40):
        num_vars = rng.randint(1, 7)
        clauses = random_cnf(rng, num_vars, rng.randint(0, num_vars))
        sols = run(num_vars, clauses)
        assert len(sols) == len(set(sols))


def test_random_instances_split_between_clauses_and_callback():
    rng = random.Random(2024)
    for _ in range(200):
        num_vars = rng.randint(1, 9)
        clauses = random_cnf(rng, num_vars, rng.randint(0, int(2.6 * num_vars) + 1))
        static = [cl for cl in clauses if rng.random() < 0.5]
        enforced = [cl for cl in clauses if cl not in static]

        def cb(solver):
            # stateless: report the first enforced clause the assignment falsifies
            for cl in enforced:
                if all(solver.value(abs(l) - 1) is (l < 0) for l in cl):
                    return Conflict(cl)
            return NO_CONFLICT

        order = list(range(num_vars))
        rng.shuffle(order)
        sols = run(num_vars, static, cb, order)
        assert len(sols) == len(set(sols))
        assert set(sols) == truth_table_solutions(num_vars, clauses)

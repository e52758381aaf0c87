"""A small complete SAT kernel with a programmatic constraint callback.

The solver enumerates every satisfying assignment of a static CNF formula
that a user callback also accepts.  It is a chronological-backtracking
DPLL: decisions follow a fixed variable order trying False before True,
unit propagation runs to fixpoint over two-watched-literal lists, and the
callback is consulted after every propagation fixpoint (including once at
the root, before any decision).

The callback receives the solver and answers one of three ways:

* NO_CONFLICT -- nothing wrong with the current partial assignment;
* SOLUTION   -- the assignment is complete and acceptable;
* Conflict(clause) -- the current state is dead.  The clause (DIMACS-signed
  ints) must be falsified by the current assignment, and must not exclude
  any full assignment the callback would accept; the solver checks the
  first condition and backtracks.

A verdict must be a function of the current assignment alone: no clause is
kept from a conflict, so a later state the clause covers is vetoed only if
the callback vetoes it again.

A full assignment is emitted iff propagation and callback both pass.  The
depth-first search visits each partial assignment at most once, so every
solution appears exactly once and nothing needs to be learned; the watch
lists hold only the static clauses, each watching its first two literals.

Variables are 0-based; clause literals are DIMACS-style nonzero ints, +v
for variable v-1 true, -v for false.  A Solver instance is single-shot:
build, add clauses, optionally set a branch order, then run solve_all
once.
"""

from __future__ import annotations

from dataclasses import dataclass


class CallbackContractError(RuntimeError):
    """The callback broke its contract (e.g. a non-falsified conflict clause)."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name):
        self._name = name

    def __repr__(self):
        return self._name


NO_CONFLICT = _Sentinel("NO_CONFLICT")
SOLUTION = _Sentinel("SOLUTION")


@dataclass(frozen=True)
class Conflict:
    """Callback verdict: current state is impossible, witnessed by clause."""

    clause: tuple


class Solver:
    def __init__(self, num_vars):
        if num_vars < 0:
            raise ValueError("variable count must be non-negative")
        self.num_vars = num_vars
        self.trail = []  # assigned variables, oldest first
        self._val = [-1] * num_vars  # -1 unassigned, 0 false, 1 true
        self._watch = [[] for _ in range(2 * num_vars)]
        self._static = []  # DIMACS tuples as added, for inspection
        self._units = []  # internal literals of width-1 static clauses
        self._order = list(range(num_vars))
        self._qhead = 0
        self._started = False

    # -- construction ------------------------------------------------------

    def _to_internal(self, clause):
        if not clause:
            raise ValueError("empty clause")
        lits = []
        seen = set()
        for lit in clause:
            if not isinstance(lit, int) or lit == 0:
                raise ValueError(f"bad literal {lit!r}")
            var = abs(lit) - 1
            if var >= self.num_vars:
                raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")
            if var in seen:
                raise ValueError(f"variable {var} repeated in clause {clause!r}")
            seen.add(var)
            lits.append(var << 1 | (lit < 0))
        return lits

    def add_clause(self, clause):
        """Add a static clause (DIMACS-signed ints) before solving starts."""
        if self._started:
            raise RuntimeError("clauses must be added before solve_all runs")
        lits = self._to_internal(clause)
        self._static.append(tuple(clause))
        if len(lits) == 1:
            self._units.append(lits[0])
        else:
            self._watch[lits[0]].append(lits)
            self._watch[lits[1]].append(lits)

    def set_branch_order(self, order):
        """Fix the decision order: a permutation of all variable indices."""
        if self._started:
            raise RuntimeError("branch order must be set before solve_all runs")
        if sorted(order) != list(range(self.num_vars)):
            raise ValueError("branch order must be a permutation of all variables")
        self._order = list(order)

    def static_clauses(self):
        return tuple(self._static)

    # -- state inspection (used by callbacks and tests) ---------------------

    def value(self, var):
        """Current value of a variable: True, False, or None."""
        v = self._val[var]
        return None if v < 0 else bool(v)

    def assignment(self):
        """The whole partial assignment as a list of True/False/None."""
        return [None if v < 0 else bool(v) for v in self._val]

    # -- kernel --------------------------------------------------------------

    def _assign(self, var, value):
        self._val[var] = value
        self.trail.append(var)

    def _cancel_to(self, mark):
        val, trail = self._val, self.trail
        for k in range(len(trail) - 1, mark - 1, -1):
            val[trail[k]] = -1
        del trail[mark:]
        self._qhead = mark

    def _propagate(self):
        # returns a falsified clause, or None at fixpoint
        val = self._val
        watch = self._watch
        trail = self.trail
        while self._qhead < len(trail):
            var = trail[self._qhead]
            self._qhead += 1
            false_lit = var << 1 | val[var]
            ws = watch[false_lit]
            keep = []
            i = 0
            while i < len(ws):
                cl = ws[i]
                i += 1
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                w0 = cl[0]
                v0 = val[w0 >> 1]
                if v0 == (w0 & 1) ^ 1:
                    keep.append(cl)  # satisfied via the other watch
                    continue
                for k in range(2, len(cl)):
                    lk = cl[k]
                    vk = val[lk >> 1]
                    if vk < 0 or vk == (lk & 1) ^ 1:
                        cl[1], cl[k] = lk, cl[1]
                        watch[lk].append(cl)
                        break
                else:
                    keep.append(cl)
                    if v0 < 0:
                        self._assign(w0 >> 1, (w0 & 1) ^ 1)
                    else:
                        keep.extend(ws[i:])
                        ws[:] = keep
                        return cl
            ws[:] = keep
        return None

    def _consult(self, callback):
        # True to keep descending, False on a conflict
        if callback is None:
            return True
        res = callback(self)
        if res is NO_CONFLICT or res is SOLUTION:
            return True
        if isinstance(res, Conflict):
            # the contract: every literal of the clause is currently false
            for l in self._to_internal(res.clause):
                if self._val[l >> 1] != (l & 1):
                    raise CallbackContractError(
                        f"conflict clause {res.clause!r} is not falsified"
                        " by the current assignment"
                    )
            return False
        raise CallbackContractError(f"callback returned unexpected {res!r}")

    def _backtrack_and_flip(self, stack):
        # pop exhausted decisions, flip the deepest half-tried one to True
        while stack:
            mark, var, flipped, oi = stack[-1]
            self._cancel_to(mark)
            if flipped:
                stack.pop()
                continue
            stack[-1][2] = True
            self._assign(var, 1)
            return oi
        return None

    def solve_all(self, callback=None):
        """Yield every accepted full assignment as a tuple of bools."""
        if self._started:
            raise RuntimeError("solver instances are single-shot")
        self._started = True

        for lit in self._units:
            var, want = lit >> 1, (lit & 1) ^ 1
            cur = self._val[var]
            if cur < 0:
                self._assign(var, want)
            elif cur != want:
                return  # contradictory unit clauses
        if self._propagate() is not None:
            return
        if not self._consult(callback):
            return  # impossible already at the root

        order = self._order
        stack = []  # [trail mark, decided var, flipped?, order pointer]
        oi = 0
        while True:
            var = -1
            while oi < len(order):
                if self._val[order[oi]] < 0:
                    var = order[oi]
                    break
                oi += 1
            if var < 0:
                yield tuple(v == 1 for v in self._val)
                oi = self._backtrack_and_flip(stack)
                if oi is None:
                    return
            else:
                stack.append([len(self.trail), var, False, oi])
                self._assign(var, 0)
            # every new assignment -- decision or flip -- must reach a
            # propagation fixpoint the callback accepts before descending
            while True:
                if self._propagate() is None and self._consult(callback):
                    break
                oi = self._backtrack_and_flip(stack)
                if oi is None:
                    return

"""Partner search for a fixed first sequence, and its SAT reference.

Given a first sequence A over the fourth roots of unity, the partner B must
cancel A's aperiodic autocorrelation at every nonzero shift.  The largest
shift constrains only the outermost entries: the real part of A's
shift-(n-1) correlation forces b_0 * conj(b_{n-1}) into a known parity
class, and the same applies inward to every mirror pair (k, n-1-k).

find_partners, the production search, is a depth-first search over entry
exponents.  It pins b_0 = 1 and places one mirror pair at a time: b_k
takes any value, b_{n-1-k} only the two of the right parity.  Once pair k
is placed, the window of shift n-1-k is complete, so that shift is checked
at once and a mismatch prunes the subtree.  The middle entry of odd n and
the shifts below n/2 are checked on the full assignment.

The rest of the module is the paper's programmatic-SAT formulation of the
same search.  No production path runs it; it is the independent reference
the tests hold find_partners to.  Each entry of B is two Boolean
variables: for position k, variable 2k is the "imaginary" bit and variable
2k+1 the "negation" bit, decoding as

    (False, False) -> 1       (True, False) -> i
    (False, True)  -> -1      (True, True)  -> -i

i.e. the entry exponent is bit0 + 2*bit1.  build_instance pins the leading
entry to 1 (two unit clauses), gives each mirror pair two binary clauses
tying the imaginary bits together (the parity rule above), and interleaves
the two ends in the decision order (positions 0, n-1, 1, n-2, ...).
Everything finer-grained than parity lives in a callback, which recomputes
a shift's correlation sum the moment all entries it touches become known
and vetoes the subtree on a mismatch.  golay_callback is the stateless
reading of that rule, rescanning the full assignment every time;
PartnerChecker is its incremental form, synchronized with the solver
trail.  The two must agree move for move.  A veto only makes the solver
backtrack; nothing is learned from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core, progsat

_RE = core.ENTRY_RE
_IM = core.ENTRY_IM


@dataclass(frozen=True)
class PartnerEncoding:
    """Instance data tying solver variables back to sequence entries."""

    length: int
    first: tuple  # entry exponents of the fixed first sequence
    targets: tuple  # required (re, im) correlation of the partner per shift

    @property
    def num_vars(self):
        return 2 * self.length


def decode_entry(imag_bit, negate_bit):
    """Exponent of the entry encoded by one variable pair."""
    return (1 if imag_bit else 0) + (2 if negate_bit else 0)


def decode_assignment(enc, assignment):
    """Entry exponents of the partner under a full assignment."""
    return tuple(
        decode_entry(assignment[2 * k], assignment[2 * k + 1]) for k in range(enc.length)
    )


def _support(n, shift):
    """Positions whose entries feed the correlation at the given shift."""
    if 2 * shift >= n:
        return list(range(n - shift)) + list(range(shift, n))
    return list(range(n))


def build_instance(first):
    """Solver plus encoding for all partners of the given first sequence.

    The parity clauses are redundant with the callback and exist to prune.
    """
    a = tuple(e & 3 for e in first)
    n = len(a)
    if n == 0:
        raise ValueError("first sequence must be non-empty")
    targets = tuple(
        (-re, -im) for re, im in (core.autocorr(a, s) for s in range(1, n))
    )
    enc = PartnerEncoding(length=n, first=a, targets=targets)

    solver = progsat.Solver(2 * n)
    solver.add_clause((-1,))  # leading entry pinned to 1
    solver.add_clause((-2,))
    # shift n-1 fixes whether b_0 and b_{n-1} lie in the same parity
    # class; shrinking the shift walks the same constraint inward
    for k in range(n // 2):
        j = n - 1 - k
        p, q = 2 * k + 1, 2 * j + 1  # DIMACS vars of the imaginary bits
        if (a[k] ^ a[j]) & 1:
            solver.add_clause((p, q))
            solver.add_clause((-p, -q))
        else:
            solver.add_clause((p, -q))
            solver.add_clause((-p, q))

    order = []
    lo, hi = 0, n - 1
    while lo <= hi:
        order.extend((2 * lo, 2 * lo + 1))
        if hi != lo:
            order.extend((2 * hi, 2 * hi + 1))
        lo += 1
        hi -= 1
    solver.set_branch_order(order)
    return solver, enc


def _veto_clause(n, shift, values):
    """Block the current values of every variable in the shift's support."""
    lits = []
    for k in _support(n, shift):
        for var in (2 * k, 2 * k + 1):
            lits.append(-(var + 1) if values[var] else var + 1)
    return tuple(lits)


def golay_callback(enc, assignment):
    """Reference verdict for a partial partner assignment.

    Checks every shift whose support is fully assigned, scanning the whole
    assignment from scratch.  Returns one of the kernel's three verdicts.
    """
    n = enc.length
    exps = [None] * n
    assigned = 0
    for k in range(n):
        b0, b1 = assignment[2 * k], assignment[2 * k + 1]
        if b0 is None or b1 is None:
            continue
        exps[k] = decode_entry(b0, b1)
        assigned += 1
    for shift in range(n - 1, 0, -1):
        sup = _support(n, shift)
        if any(exps[k] is None for k in sup):
            continue
        re = im = 0
        for k in range(n - shift):
            e = (exps[k] - exps[k + shift]) & 3
            re += _RE[e]
            im += _IM[e]
        if (re, im) != enc.targets[shift - 1]:
            return progsat.Conflict(_veto_clause(n, shift, assignment))
    if assigned == n:
        return progsat.SOLUTION
    return progsat.NO_CONFLICT


class PartnerChecker:
    """Incremental form of golay_callback, synchronized with the trail.

    Completion counts per shift are maintained as entries become known; the
    supports are nested (shrinking the shift only adds positions), so the
    scan from the largest shift stops at the first incomplete one.  A shift
    already verified on this branch is skipped via a memo flag -- set only
    after a successful check, never on a veto, since a veto unwinds the
    trail and the same shift must be re-examined on the next branch.

    Values are read from the solver.  The checker keeps the trail prefix it
    has absorbed, as (variable, value) pairs, and reads the ones
    on_backtrack undoes from that copy.  Each call compares the copy with
    the solver's trail, so an unwind it was not told of is an error even
    when the trail has since grown back to the same length.
    """

    def __init__(self, enc):
        n = enc.length
        self._n = n
        self._targets = enc.targets
        self._exps = [0] * n
        self._known = [False] * n
        # shift s touches position k iff s <= max(k, n-1-k)
        self._max_shift = [max(k, n - 1 - k) for k in range(n)]
        self._complete = [0] * n  # known positions in support(s), index s
        self._size = [0] + [min(n, 2 * (n - s)) for s in range(1, n)]
        self._checked = [False] * n
        self._absorbed = []  # (var, value) of every trail entry absorbed

    def on_backtrack(self, mark):
        known = self._known
        for var, _ in self._absorbed[mark:]:
            k = var >> 1
            if known[k]:
                known[k] = False
                for s in range(1, self._max_shift[k] + 1):
                    self._complete[s] -= 1
                    self._checked[s] = False
        del self._absorbed[mark:]

    def _sync(self, solver):
        trail, val = solver.trail, solver._val
        absorbed = self._absorbed
        synced = len(absorbed)
        if [(var, val[var]) for var in trail[:synced]] != absorbed:
            raise RuntimeError("trail unwound without an on_backtrack notification")
        known = self._known
        for var in trail[synced:]:
            absorbed.append((var, val[var]))
            k = var >> 1
            if not known[k] and val[2 * k] >= 0 and val[2 * k + 1] >= 0:
                known[k] = True
                self._exps[k] = val[2 * k] + 2 * val[2 * k + 1]
                for s in range(1, self._max_shift[k] + 1):
                    self._complete[s] += 1

    def __call__(self, solver):
        self._sync(solver)
        n = self._n
        exps = self._exps
        shift = n - 1
        while shift >= 1 and self._complete[shift] == self._size[shift]:
            if not self._checked[shift]:
                re = im = 0
                for k in range(n - shift):
                    e = (exps[k] - exps[k + shift]) & 3
                    re += _RE[e]
                    im += _IM[e]
                if (re, im) != self._targets[shift - 1]:
                    return progsat.Conflict(
                        _veto_clause(n, shift, solver.assignment())
                    )
                self._checked[shift] = True
            shift -= 1
        if len(solver.trail) == 2 * n:
            return progsat.SOLUTION
        return progsat.NO_CONFLICT


def find_partners(first):
    """All partner sequences of the given first member, sorted by exponents.

    A depth-first search over entry exponents, one mirror pair (k, n-1-k)
    at a time.  b[0] is pinned to 1; b[n-1-k] takes only the two values
    the parity rule of build_instance allows; shift n-1-k is checked as
    soon as both entries are placed, the lower shifts once B is full.
    Every reported partner is re-verified against the full pair condition
    with exact arithmetic before being returned.
    """
    a = tuple(e & 3 for e in first)
    n = len(a)
    if n == 0:
        raise ValueError("first sequence must be non-empty")
    targets = [None] + [
        (-re, -im) for re, im in (core.autocorr(a, s) for s in range(1, n))
    ]
    half = n // 2
    b = [0] * n
    partners = []

    def matches(shift):
        re = im = 0
        for k in range(n - shift):
            e = (b[k] - b[k + shift]) & 3
            re += _RE[e]
            im += _IM[e]
        return (re, im) == targets[shift]

    def place(k):
        if k == half:
            # odd n leaves its middle entry to place (at n=1 it is the pinned
            # b[0]); for even n the loop runs once and changes nothing
            for c in range(4) if n & 1 and n > 1 else (b[k],):
                b[k] = c
                if all(matches(s) for s in range(n - half - 1, 0, -1)):
                    partner = tuple(b)
                    if not core.is_golay_pair((a, partner)):
                        raise RuntimeError(
                            f"search produced a non-partner {partner!r} for {a!r}"
                        )
                    partners.append(partner)
            return
        j = n - 1 - k
        flip = (a[k] ^ a[j]) & 1
        for x in range(4) if k else (0,):
            b[k] = x
            low = (x ^ flip) & 1
            for y in (low, low + 2):
                b[j] = y
                if matches(j):  # shift n-1-k spans exactly the placed entries
                    place(k + 1)

    place(0)
    return sorted(partners)

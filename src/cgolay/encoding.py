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
Everything finer-grained than parity lives in one callback, golay_callback:
a shift's correlation sum must cancel A's as soon as every entry it
touches is known, and a mismatch vetoes the subtree.  It reads the whole
assignment on every consult.  PartnerChecker only binds an encoding to it
in the solver's callback form, so perfbench's tracer has one method to
patch.  A veto only makes the solver backtrack; nothing is learned from
it.
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
    """The kernel's verdict on a partial partner assignment.

    Checks shifts from n-1 downward while their supports are fully
    assigned; the supports are nested, so the first incomplete shift ends
    the scan.  A conflict names the largest failing shift.
    """
    n = enc.length
    exps = [
        None if b0 is None or b1 is None else decode_entry(b0, b1)
        for b0, b1 in zip(assignment[::2], assignment[1::2])
    ]
    for shift in range(n - 1, 0, -1):
        if any(exps[k] is None for k in _support(n, shift)):
            return progsat.NO_CONFLICT
        if core.autocorr(exps, shift) != enc.targets[shift - 1]:
            return progsat.Conflict(_veto_clause(n, shift, assignment))
    if None in exps:
        return progsat.NO_CONFLICT
    return progsat.SOLUTION


class PartnerChecker:
    """golay_callback bound to one encoding, in the solver's callback form.

    A thin adapter on purpose: perfbench's tracer patches __call__ to
    count callback consults and conflicts, and that is its only reason to
    exist apart from golay_callback.
    """

    def __init__(self, enc):
        self._enc = enc

    def __call__(self, solver):
        return golay_callback(self._enc, solver.assignment())


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

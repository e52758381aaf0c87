"""Exact arithmetic for quaternary sequences and Golay complementarity.

A quaternary sequence has entries drawn from the fourth roots of unity
{1, i, -1, -i}.  Every entry is stored as its exponent c in Z4 (the value
is i**c), so multiplication is exponent addition mod 4 and conjugation is
exponent negation mod 4.  Complementarity checks are exact: aperiodic
autocorrelations are Gaussian integers held as plain (re, im) int pairs,
never floats.  autocorrelations is the one vectorized form: exact int16
(re, im) of every shift of every row of an exponent matrix.  The half
filter, stage 2's self-join and golay_mask, which checks pairs for the
pipeline and the census, all take their autocorrelations from it.
autocorr and is_golay_pair stay scalar Python: the partner search checks
one candidate at a time, and they are the kernel's reference.  pin works
on (rows, 2, n) pair arrays too; it serves the census and normalize.

Half-sequences produced by the even/odd split keep their original length
and carry None in the vacated slots.  A None slot behaves like the value
0: it conjugates to itself and kills any product or sum term it appears
in.

Sequences also have a compact text form used by the pair files: '+' for
1, '-' for -1, 'i' for i, 'j' for -i, and '0' for a masked slot.
"""

from __future__ import annotations

import numpy as np

QuatSeq = tuple  # entries: int exponents 0..3, or None for masked slots
GaussInt = tuple  # (re, im) with int components
Pair = tuple  # (A, B), two full QuatSeq of equal length

# value of i**c, split into real/imag integer parts, indexed by exponent
ENTRY_RE = (1, 0, -1, 0)
ENTRY_IM = (0, 1, 0, -1)
ENTRY_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)

_CHAR_FOR_EXP = {0: "+", 1: "i", 2: "-", 3: "j", None: "0"}
_EXP_FOR_CHAR = {"+": 0, "i": 1, "-": 2, "j": 3, "0": None}


def conj_exp(c):
    """Exponent of the complex conjugate; None (zero) is self-conjugate."""
    return c if c is None else (-c) & 3


def to_text(seq):
    """Render a sequence in the '+i-j' text form ('0' marks masked slots)."""
    return "".join(_CHAR_FOR_EXP[c] for c in seq)


def from_text(text):
    """Parse the text form back into an exponent tuple."""
    try:
        return tuple(_EXP_FOR_CHAR[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"bad sequence character {exc.args[0]!r} in {text!r}") from None


def conj_seq(seq):
    return tuple(conj_exp(c) for c in seq)


def scale_seq(c, seq):
    """Multiply every entry by i**c (masked slots stay masked)."""
    return tuple(x if x is None else (x + c) & 3 for x in seq)


def positional_scale(c, seq):
    """Entry-wise product with the geometric ramp (i**c)**k.

    Entry k is multiplied by i**(c*k); slot 0 is never changed.  Applying
    with c=1 four times is the identity.
    """
    return tuple(x if x is None else (x + c * k) & 3 for k, x in enumerate(seq))


def autocorr(seq, shift):
    """Aperiodic autocorrelation at the given shift, as an exact (re, im).

    Sums entry[k] * conj(entry[k + shift]) over all k where both slots
    exist; masked slots contribute nothing.  shift must lie in 0..n-1.
    """
    n = len(seq)
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range for length {n}")
    re = im = 0
    for k in range(n - shift):
        a = seq[k]
        b = seq[k + shift]
        if a is None or b is None:
            continue
        e = (a - b) & 3
        re += ENTRY_RE[e]
        im += ENTRY_IM[e]
    return (re, im)


def is_golay_pair(pair):
    """True iff the two sequences have cancelling autocorrelations.

    The defining property: for every shift s = 1..n-1 the autocorrelation
    of A plus the autocorrelation of B is exactly zero.  Length-1 pairs
    satisfy it vacuously.
    """
    a, b = pair
    if len(a) != len(b):
        raise ValueError("pair members must have equal length")
    for s in range(1, len(a)):
        ra, ia = autocorr(a, s)
        rb, ib = autocorr(b, s)
        if ra + rb or ia + ib:
            return False
    return True


def autocorrelations(x):
    """Exact c_s, s = 1..n-1, of every row of a (rows, n) exponent matrix.

    Returns int16 of shape (rows, 2, n - 1): [r, 0, s - 1] is Re c_s of row
    r and [r, 1, s - 1] is Im c_s, with autocorr's c_s = sum_k x_k *
    conj(x_(k+s)).  Length 1 has no shifts.
    """
    t = np.ascontiguousarray(np.asarray(x, dtype=np.int8).T)  # a shift slices whole rows
    n, rows = t.shape
    out = np.empty((2, n - 1, rows), dtype=np.int16)
    # chunk the rows so the temporaries stay small
    step = 1 << 14
    for lo in range(0, rows, step):
        chunk, part = t[:, lo : lo + step], out[..., lo : lo + step]
        for s in range(1, n):
            e = (chunk[: n - s] - chunk[s:]) & 3  # exponent of x_k * conj(x_(k+s))
            odd = e & 1
            # i^e is 1 - e for even e and (2 - e) * i for odd e
            np.sum((1 - e) * (1 - odd), axis=0, dtype=np.int16, out=part[0, s - 1])
            np.sum((2 - e) * odd, axis=0, dtype=np.int16, out=part[1, s - 1])
    return out.transpose(2, 0, 1)


def golay_mask(a, b):
    """Per row r of two (rows, n) exponent matrices: is (a[r], b[r]) a Golay
    pair, by is_golay_pair's integer (re, im) sums at every shift."""
    return ~(autocorrelations(a) + autocorrelations(b)).any(axis=(1, 2))


def entry_sum(seq):
    """Sum of all entry values as an exact Gaussian integer (re, im)."""
    re = im = 0
    for c in seq:
        if c is None:
            continue
        re += ENTRY_RE[c]
        im += ENTRY_IM[c]
    return (re, im)


def hall_eval(seq, z):
    """Evaluate the generating polynomial sum(entry[k] * z**k) at complex z."""
    acc = 0j
    zp = 1 + 0j
    for c in seq:
        if c is not None:
            acc += ENTRY_VALUES[c] * zp
        zp *= z
    return acc


# ---------------------------------------------------------------------------
# pair-preserving equivalence operations

EQUIV_OPS = {
    "E1": lambda p: (p[0][::-1], p[1][::-1]),
    "E2": lambda p: (conj_seq(p[0][::-1]), p[1]),
    "E3": lambda p: (p[1], p[0]),
    "E4": lambda p: (scale_seq(1, p[0]), p[1]),
    "E5": lambda p: (positional_scale(1, p[0]), positional_scale(1, p[1])),
}


def apply_equivalence(op, pair):
    """Apply one of the five pair-preserving operations E1..E5.

    E1 reverses both members, E2 conjugate-reverses the first member only,
    E3 swaps the members, E4 multiplies every first-member entry by i, and
    E5 multiplies entry k of both members by i**k.
    """
    try:
        fn = EQUIV_OPS[op]
    except KeyError:
        raise ValueError(f"unknown operation {op!r}; expected one of E1..E5") from None
    return fn(pair)


def pin(x):
    """Pin every pair (a, b) of a (rows, 2, n) exponent array: scale and ramp
    it (E3, E4, E5) to a[0] = a[1] = b[0] = 1.  Returns int8 of the same shape."""
    t = (x[:, 0, :1] - x[:, 0, 1:2]) & 3 if x.shape[-1] >= 2 else 0
    ramp = (t * np.arange(x.shape[-1])).reshape(-1, 1, x.shape[-1])
    return ((x - x[:, :, :1] + ramp) & 3).astype(np.int8)


def normalize(pair):
    """Canonical representative of a pair under repeated E-operations.

    Brings the pair to the form with a[0] = a[1] = b[0] = 1 and a[2] one
    of 1, -1, i, applying only E1..E5 compositions so the result stays in
    the input's equivalence class.  Constraints on slots a sequence does
    not have (lengths 1 and 2) are skipped.  Idempotent.
    """
    a, b = pair
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValueError("pair members must be nonempty and of equal length")
    x = pin(np.array([pair], dtype=np.int8))
    if n >= 3 and x[0, 0, 2] == 3:
        # E1 then E2 conjugates A in place and reverses B; turns a[2] = -i
        # into i while keeping a[0] = a[1] = 1, and B is pinned again
        x = pin(np.stack([-x[:, 0] & 3, x[:, 1, ::-1]], axis=1))
    return tuple(map(tuple, x[0].tolist()))


def is_normalized(pair):
    """True iff the pair already has the normalize() output shape."""
    a, b = pair
    n = len(a)
    if a[0] != 0 or b[0] != 0:
        return False
    if n >= 2 and a[1] != 0:
        return False
    if n >= 3 and a[2] == 3:
        return False
    return True


def split_even_odd(seq):
    """Split into the even-index and odd-index halves, masking vacated slots.

    Both outputs keep the original length; the even half holds the entries
    at indices 0, 2, 4, ... and None elsewhere, the odd half vice versa.
    """
    even = tuple(c if k % 2 == 0 else None for k, c in enumerate(seq))
    odd = tuple(c if k % 2 == 1 else None for k, c in enumerate(seq))
    return even, odd


def join_halves(even, odd):
    """Inverse of split_even_odd: merge two disjoint masked halves.

    Every slot must be filled by exactly one of the halves; overlapping
    entries or a slot left empty by both raise ValueError.
    """
    if len(even) != len(odd):
        raise ValueError("halves must have equal length")
    out = []
    for k, (x, y) in enumerate(zip(even, odd)):
        if x is None and y is None:
            raise ValueError(f"slot {k} filled by neither half")
        if x is not None and y is not None:
            raise ValueError(f"slot {k} filled by both halves")
        out.append(x if x is not None else y)
    return tuple(out)

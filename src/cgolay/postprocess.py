"""Census, classification, and diagnostics over enumerated pairs.

The enumeration emits normalized pairs.  This module expands them into
every pair of their classes under the five equivalence moves E1..E5
(core.apply_equivalence) and counts, per length, the distinct member
sequences, the pairs and the classes.  Scaling A, scaling B and the ramp
generate 64 offsets (A + p, B + q, both + r*k, mod 4), a normal subgroup
acting freely from length 2 on, so each pair is one offset of exactly one
pinned pair, with a[0] = a[1] = b[0] = 1 (core.pin).  Modulo the offsets,
E1, E2 and E3 act as a group of order 16: identity, reversal R,
conjugation C or CR on each member, with an even count of R and C over
both, then maybe a swap.  So a class is the 16 pinned images of any of its
pairs, expanded by the 64 offsets.  Keys hold 2 bits per entry in text
order ('+' < '-' < 'i' < 'j'), 32 per uint64 word; pinning never raises a
text key, so the least key of a class's images is its least pair.  The
census files list the closure in exponent order, as tuples sort: the same
packing with exponents ranked 0..3 (sorted_closure).

The crossover test is a structural diagnostic relating mirrored entries of
the two members; it holds for every class at small lengths except a single
length-8 class, and is reported, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import core

_TEXT_RANK = np.array([0, 2, 1, 3], dtype=np.uint64)  # text order of exponents 0..3
_EXPONENT_RANK = np.arange(4, dtype=np.uint64)  # exponent order, as tuples sort


@dataclass(frozen=True)
class OmegaSets:
    """Closure census of an enumeration run at one length."""

    length: int
    all_pairs: frozenset  # every pair in any class
    sequences: frozenset  # every sequence appearing as a member
    representatives: tuple  # lexicographically least pair per class
    # all_pairs as (rows, 2, n) exponents, unordered; length 1 repeats pairs
    closure: np.ndarray = field(repr=False, compare=False)

    @property
    def counts(self):
        """(sequences, pairs, classes) -- the headline census triple."""
        return (len(self.sequences), len(self.all_pairs), len(self.representatives))


def _pin(x):
    """core.pin over a (rows, 2, n) exponent array; a change to one goes in both."""
    t = (x[:, 0, :1] - x[:, 0, 1:2]) & 3 if x.shape[-1] >= 2 else 0
    ramp = (t * np.arange(x.shape[-1])).reshape(-1, 1, x.shape[-1])
    return ((x - x[:, :, :1] + ramp) & 3).astype(np.int8)


def _keys(rows, rank=_TEXT_RANK):
    """(rows, words) keys of (rows, m) exponents, first entry highest; rank
    orders the exponents, text order by default."""
    keys = np.zeros((len(rows), -(-rows.shape[1] // 32)), dtype=np.uint64)
    for k in range(rows.shape[1]):
        keys[:, k // 32] |= rank[rows[:, k]] << np.uint64(62 - 2 * (k % 32))
    return keys


def _unique(keys):
    """(one row per distinct key, by ascending key; each row's place in that order)."""
    order = np.lexsort(keys.T[::-1])
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (np.diff(keys[order], axis=0) != 0).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def _expand(n, pinned):
    """(all pairs, sequences, closure) from every offset of every (rows, 2, n)
    pinned pair; each distinct sequence is one tuple, shared by all pairs
    holding it, and the closure holds the pairs as OmegaSets.closure."""
    p, q, r = np.indices((4, 4, 4), dtype=np.int8).reshape(3, 64, 1)
    ramp = r * (np.arange(n) & 3).astype(np.int8)
    offsets = np.stack([p + ramp, q + ramp], axis=1)  # (64, 2, n)
    rows = ((pinned[:, None] + offsets) & 3).reshape(-1, n)
    first, inverse = _unique(_keys(rows))
    seqs = np.fromiter(map(tuple, rows[first].tolist()), dtype=object, count=len(first))
    members = seqs[inverse]
    closure = rows.reshape(-1, 2, n)
    return frozenset(zip(members[0::2], members[1::2])), frozenset(seqs), closure


def build_omegas(n, pairs):
    """Group pairs into equivalence classes and collect the closure census.

    Input order and form do not matter; every input pair is checked against
    the defining correlation condition before anything else touches it.
    """
    pairs = list(pairs)
    for pair in pairs:
        if len(pair[0]) != n or len(pair[1]) != n:
            raise ValueError(f"pair {pair!r} does not have length {n}")
    x = np.array(pairs, dtype=np.int8).reshape(-1, 2, n)
    ok = core.golay_mask(x[:, 0], x[:, 1])
    if not ok.all():
        raise ValueError(f"pair {pairs[ok.argmin()]!r} fails the correlation condition")
    # per member: identity, R, C and CR; the 8 even choices, then each swapped
    a, b = (np.stack([y, y[:, ::-1], -y & 3, -y[:, ::-1] & 3]) for y in _pin(x).transpose(1, 0, 2))
    even = [(g, h) for g in range(4) for h in range(4) if (g in (0, 3)) == (h in (0, 3))]
    images = np.concatenate([np.stack([a[g], b[h]], axis=1) for g, h in even])
    images = _pin(np.concatenate([images, images[:, ::-1]]))
    closed, inverse = _unique(_keys(images.reshape(len(images), 2 * n)))
    # each input pair's class is its 16 images; the least key represents it
    reps = images[closed[np.unique(inverse.reshape(16, -1).min(axis=0))]].tolist()
    representatives = tuple((tuple(ra), tuple(rb)) for ra, rb in reps)
    all_pairs, sequences, closure = _expand(n, images[closed])
    return OmegaSets(n, all_pairs, sequences, representatives, closure)


def sorted_closure(omegas):
    """omegas.all_pairs as one (pairs, 2, n) exponent array, in the order of
    sorted(omegas.all_pairs), from packed exponent-order keys."""
    rows = omegas.closure
    first, _ = _unique(_keys(rows.reshape(len(rows), -1), _EXPONENT_RANK))
    return rows[first]


def crossover_check(pair):
    """Whether mirrored interior entries of the two members stay in step.

    Compares the exponent difference across each mirrored position pair of
    the first member with the corresponding difference of the second, up to
    the sign forced by the length's parity.  Vacuously true below length 3.
    """
    a, b = pair
    n = len(a)
    offset = 2 if n % 2 == 0 else 0
    for k in range(1, n - 1):
        lhs = (a[k] - a[n - 1 - k]) & 3
        rhs = (offset + b[k] - b[n - 1 - k]) & 3
        if lhs != rhs:
            return False
    return True


def census_rows(pairs_by_length):
    """counts-CSV rows (n, sequences, pairs, classes), sorted by length."""
    rows = []
    for n in sorted(pairs_by_length):
        omegas = build_omegas(n, pairs_by_length[n])
        rows.append((n,) + omegas.counts)
    return rows

"""Census, classification, and diagnostics over enumerated pairs.

The enumeration emits normalized pairs.  This module expands them into
every pair of their classes under the five equivalence moves: E1
reverses both members, E2 conjugate-reverses the first, E3 swaps them,
E4 multiplies the first by i and E5 multiplies entry k of both by i**k.
It counts, per length, the distinct member sequences, the pairs and the
classes, applying the moves to whole pair arrays.  Scaling A, scaling B
and the ramp generate 64 offsets (A + p, B + q, both + r*k, mod 4), a normal subgroup
acting freely from length 2 on, so each pair is one offset of exactly one
pinned pair, with a[0] = a[1] = b[0] = 1 (core.pin).  Modulo the offsets,
E1, E2 and E3 act as a group of order 16: identity, reversal R,
conjugation C or CR on each member, with an even count of R and C over
both, then maybe a swap.  So a class is the 16 pinned images of any of its
pairs, expanded by the 64 offsets.  Keys hold 2 bits per entry in text
order ('+' < '-' < 'i' < 'j'), 32 per uint64 word; pinning never raises a
text key, so the least key of a class's images is its least pair.  The
closure is held once, as one (pairs, 2, n) exponent array in the order the
census files list it, exponent order as tuples sort: the same packing with
exponents ranked 0..3, a pair's key being its members' keys.  Tuple sets
of the closure are built only when read (OmegaSets).

The crossover test is a structural diagnostic relating mirrored entries of
the two members; it holds for every class at small lengths except a single
length-8 class, and is reported, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import core

_TEXT_RANK = np.array([0, 2, 1, 3], dtype=np.uint64)  # text order of exponents 0..3
_EXPONENT_RANK = np.arange(4, dtype=np.uint64)  # exponent order, as tuples sort


@dataclass(frozen=True)
class OmegaSets:
    """Closure census of an enumeration run at one length.

    closure holds every pair in any class once, as a (pairs, 2, n) exponent
    array in the order of sorted tuples, which is the order of the
    pairs_all_n*.txt file.  all_pairs and sequences are tuple views of it,
    built on first read; counts reads the array and the member count.
    """

    length: int
    closure: np.ndarray = field(repr=False, compare=False)
    representatives: tuple  # lexicographically least pair per class
    members: int  # distinct sequences appearing as a member

    @property
    def counts(self):
        """(sequences, pairs, classes) -- the headline census triple."""
        return (self.members, len(self.closure), len(self.representatives))

    @cached_property
    def all_pairs(self):
        """Every pair in any class, as a frozenset of tuple pairs."""
        return frozenset((tuple(a), tuple(b)) for a, b in self.closure.tolist())

    @cached_property
    def sequences(self):
        """Every sequence appearing as a member, as a frozenset of tuples."""
        return frozenset(map(tuple, self.closure.reshape(-1, self.length).tolist()))


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
    """(closure, member count) of every offset of every (rows, 2, n) pinned
    pair: the distinct pairs, as tuples sort, and their distinct members."""
    p, q, r = np.indices((4, 4, 4), dtype=np.int8).reshape(3, 64, 1)
    ramp = r * (np.arange(n) & 3).astype(np.int8)
    offsets = np.stack([p + ramp, q + ramp], axis=1)  # (64, 2, n)
    rows = ((pinned[:, None] + offsets) & 3).reshape(-1, n)
    # a pair's key is its members' keys, so one packing serves both counts
    keys = _keys(rows, _EXPONENT_RANK)
    pairs, _ = _unique(keys.reshape(-1, 2 * keys.shape[1]))
    members, _ = _unique(keys)
    return rows.reshape(-1, 2, n)[pairs], len(members)


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
    pinned = core.pin(x)  # one row per distinct pinned pair: repeats form no images
    pinned = pinned[_unique(_keys(pinned.reshape(len(pinned), 2 * n)))[0]]
    # per member: identity, R, C and CR; the 8 even choices, then each swapped
    a, b = (np.stack([y, y[:, ::-1], -y & 3, -y[:, ::-1] & 3]) for y in pinned.swapaxes(0, 1))
    even = [(g, h) for g in range(4) for h in range(4) if (g in (0, 3)) == (h in (0, 3))]
    images = np.concatenate([np.stack([a[g], b[h]], axis=1) for g, h in even])
    images = core.pin(np.concatenate([images, images[:, ::-1]]))
    closed, inverse = _unique(_keys(images.reshape(len(images), 2 * n)))
    # each input pair's class is its 16 images; the least key represents it
    reps = images[closed[np.unique(inverse.reshape(16, -1).min(axis=0))]].tolist()
    representatives = tuple((tuple(ra), tuple(rb)) for ra, rb in reps)
    closure, members = _expand(n, images[closed])
    return OmegaSets(n, closure, representatives, members)


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

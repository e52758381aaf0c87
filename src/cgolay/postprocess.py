"""Census, classification, and diagnostics over enumerated pairs.

The enumeration emits normalized pairs.  This module expands them into
every pair of their classes under the five equivalence moves E1..E5
(core.apply_equivalence) and counts, per length, the distinct member
sequences, the pairs and the classes.  Scaling A, scaling B and the ramp
generate 64 offsets (A + p, B + q, both + r*k, mod 4), a normal subgroup
acting freely from length 2 on, so each pair is one offset of exactly one
pinned pair, with a[0] = a[1] = b[0] = 1 (core.pin).  Classes are closed
over pinned pairs under the residual moves E1, E2 and E3, each followed by
a re-pin, then expanded by all 64 offsets at once in numpy.  Pinning never
raises a text key, so each class's least pair is pinned too.

The crossover test is a structural diagnostic relating mirrored entries of
the two members; it holds for every class at small lengths except a single
length-8 class, and is reported, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core

RESIDUAL_OPS = ("E1", "E2", "E3")


def _text_key(pair):
    return (core.to_text(pair[0]), core.to_text(pair[1]))


@dataclass(frozen=True)
class OmegaSets:
    """Closure census of an enumeration run at one length."""

    length: int
    all_pairs: frozenset  # every pair in any class
    sequences: frozenset  # every sequence appearing as a member
    representatives: tuple  # lexicographically least pair per class

    @property
    def counts(self):
        """(sequences, pairs, classes) -- the headline census triple."""
        return (len(self.sequences), len(self.all_pairs), len(self.representatives))


def _expand(n, pinned):
    """(all pairs, sequences) from every offset of every pinned pair.

    Each distinct sequence is one tuple, shared by all pairs holding it.
    """
    p, q, r = np.indices((4, 4, 4), dtype=np.uint8).reshape(3, 64, 1)
    ramp = r * np.arange(n, dtype=np.uint8)
    offsets = np.stack([p + ramp, q + ramp], axis=1)  # (64, 2, n)
    # uint8 wraps mod 256, a multiple of 4, so masking afterwards is exact
    base = np.array(pinned, dtype=np.uint8).reshape(-1, 1, 2, n)
    rows = ((base + offsets) & 3).reshape(-1, n)
    keys = rows.view(np.dtype((np.void, n))).ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    rows = distinct.view(np.uint8).reshape(-1, n).tolist()
    seqs = np.fromiter(map(tuple, rows), dtype=object, count=len(rows))
    members = seqs[inverse.ravel()]
    return frozenset(zip(members[0::2], members[1::2])), frozenset(seqs)


def build_omegas(n, pairs):
    """Group pairs into equivalence classes and collect the closure census.

    Input order and form do not matter; every input pair is checked against
    the defining correlation condition before anything else touches it.
    """
    pinned = set()
    for pair in pairs:
        a, b = pair
        if len(a) != n or len(b) != n:
            raise ValueError(f"pair {pair!r} does not have length {n}")
        if not core.is_golay_pair(pair):
            raise ValueError(f"pair {pair!r} fails the correlation condition")
        pinned.add(core.pin(pair))

    closed = set()
    classes = []
    for pair in pinned:
        if pair in closed:
            continue
        cls = {pair}
        frontier = [pair]
        while frontier:
            current = frontier.pop()
            for tag in RESIDUAL_OPS:
                image = core.pin(core.apply_equivalence(tag, current))
                if image not in cls:
                    cls.add(image)
                    frontier.append(image)
        closed |= cls
        classes.append(min(cls, key=_text_key))
    classes.sort(key=_text_key)

    return OmegaSets(n, *_expand(n, list(closed)), tuple(classes))


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

"""The four workloads: inputs, one round of operations, and output checks.

An operation is one length enumerated or one partner query; a round is a
fixed set of operations (every length of the workload, or one block of
queries), and a run repeats whole rounds.  Each round of an enumeration
workload starts from an empty artifact directory.

The enumeration inputs are fixed by their lengths; the seed chooses the
equivalence moves applied to the constructed pairs the checks look for.
The query stream is drawn from the seed.  Checks use only the
independent code in checks.py and published counts.
"""

from __future__ import annotations

import math
import random
import resource
import time
import traceback
from dataclasses import dataclass, field

import checks

# lengths per enumeration workload; the paper-scale lengths (16 for census
# and lists, 15 for refute) take 25-75 s per round on one core, too long
# for a run of a few tens of seconds
LENGTHS = {"census": (10, 12), "refute": (9, 14), "lists": (12, 14)}
SMOKE_LENGTHS = {"census": (6, 8), "refute": (7, 9), "lists": (6, 8)}
WORKERS = {"census": 1, "refute": 2, "lists": 1}

# one block of queries: a member of a pair built by Golay's concatenation at
# each length, then a uniformly random sequence at each length.  Members of
# interleaved constructions and random length-32 sequences are left out:
# their search times range from 0.05 s to minutes, which no run of a few
# hundred queries averages out.
CONSTRUCTED_LENGTHS = (20, 24, 32)
RANDOM_LENGTHS = (16, 18, 20)
SMOKE_CONSTRUCTED_LENGTHS = (8, 10, 12)
SMOKE_RANDOM_LENGTHS = (8, 10, 12)
TAIL_PERCENTILE = 90
MIN_QUERIES = 100  # ten beyond the 90th percentile

SPECTRAL_HALF_POINTS = 256  # sampled points of the 2**14-point half grid


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    key: object
    seconds: float
    cpu: float
    output: object  # None when the operation raised


@dataclass
class Round:
    ops: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # per-layer counts the benchmark computes

    @property
    def wall(self):
        return sum(op.seconds for op in self.ops)

    @property
    def cpu(self):
        return sum(op.cpu for op in self.ops)

    @property
    def failed(self):
        return sum(op.output is None for op in self.ops)


def _cpu_now():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def timed_op(key, fn):
    """Run one operation; a raised exception counts it as failed."""
    c0, t0 = _cpu_now(), time.perf_counter()
    try:
        output = fn()
    except Exception:
        traceback.print_exc()
        output = None
    return Op(key, time.perf_counter() - t0, _cpu_now() - c0, output)


def halves_screened(n):
    """Masked halves the preprocessing screens: the product of slot choices.

    The leading slot of each half is pinned to 1, and the even half's
    second slot avoids -i.
    """
    total = 0
    for slots, second in ((len(range(0, n, 2)), 3), (len(range(1, n, 2)), 4)):
        if slots:
            total += (second if slots >= 2 else 1) * 4 ** max(slots - 2, 0)
    return total


# ---------------------------------------------------------------------------
# enumeration workloads


class Enumeration:
    def __init__(self, name, seed, smoke=False, workers=None):
        self.name = name
        self.seed = seed
        self.lengths = (SMOKE_LENGTHS if smoke else LENGTHS)[name]
        self.workers = workers or WORKERS[name]
        self.min_rounds = 1 if smoke else 2
        self.setup_length = self.lengths[-1]
        self._digest = None

    def describe(self):
        return f"lengths {list(self.lengths)}, workers={self.workers}"

    def run_round(self, cg, work_dir, tracer):
        rnd = Round(extra={"halves_screened": 0, "bytes_written": 0})
        for n in self.lengths:
            cfg = cg.pipeline.RunConfig(n=n, out_dir=work_dir / f"n{n}", workers=self.workers)
            with tracer.span("bench.op", n=n):
                op = timed_op(n, lambda: self._operate(cg, cfg, tracer))
            rnd.ops.append(op)
            rnd.extra["halves_screened"] += halves_screened(n)
            if op.output is None:
                continue
            rnd.extra["bytes_written"] += sum(
                p.stat().st_size for p in cfg.out_dir.iterdir() if p.is_file()
            )
            if self.name == "refute":
                op.output["survivors"] = checks.read_seq_file(cfg.path_survivors())
        return rnd

    def _operate(self, cg, cfg, tracer):
        n = cfg.n
        if self.name == "lists":
            with tracer.span("bench.cold", n=n):
                evens, odds = cg.pipeline.run_preprocessing(cfg)
                survivors = cg.pipeline.run_stage1(cfg, evens, odds)
            return {"evens": evens, "odds": odds, "survivors": survivors}
        with tracer.span("bench.cold", n=n):
            pairs = cg.pipeline.enumerate_pairs(cfg)
        if self.name == "refute":
            return {"pairs": pairs}
        with tracer.span("bench.census", n=n):
            omegas = cg.postprocess.build_omegas(n, pairs)
        with tracer.span("bench.resume", n=n):
            again = cg.pipeline.enumerate_pairs(cfg)
        return {"pairs": pairs, "omegas": omegas, "again": again}

    def check(self, rnd):
        """Full checks on the first round; later rounds must repeat it exactly."""
        digest = {}
        for op in rnd.ops:
            if op.output is None:
                continue
            out = op.output
            key = "pairs" if self.name == "census" else "survivors"
            digest[op.key] = tuple(out[key])
            if self._digest is None:
                getattr(self, "_check_" + self.name)(op.key, out, random.Random(self.seed))
        if self._digest is None:
            self._digest = digest
        for n, value in digest.items():
            require(value == self._digest.get(n, value), f"n={n}: output differs from the first round")

    def _check_census(self, n, out, rng):
        counts = out["omegas"].counts
        require(counts == checks.PUBLISHED_CENSUS[n],
                f"n={n}: census {counts} != published {checks.PUBLISHED_CENSUS[n]}")
        require(out["again"] == out["pairs"], f"n={n}: resumed call returned different pairs")
        closed = out["omegas"].all_pairs
        firsts, seconds = zip(*closed)
        require(checks.golay_mask(list(firsts), list(seconds), n).all(),
                f"n={n}: a closure pair fails the autocorrelation check")
        require(checks.closure(set(out["pairs"])) == set(closed),
                f"n={n}: closure differs from the benchmark's own closure")
        for pair in checks.constructions(n):
            built = checks.random_moves(pair, rng)
            require(built in closed, f"n={n}: constructed pair {built} missing from the closure")

    def _check_refute(self, n, out, rng):
        require(checks.PUBLISHED_CENSUS[n] == (0, 0, 0) and out["pairs"] == [],
                f"n={n}: {len(out['pairs'])} pairs where none exist")
        _check_first_members(n, out["survivors"])

    def _check_lists(self, n, out, rng):
        evens, odds, survivors = out["evens"], out["odds"], out["survivors"]
        _check_first_members(n, survivors)
        hs = evens + odds
        points = checks.roots_of_unity(n) + [
            rng.randrange(2**14) / 2**14 for _ in range(SPECTRAL_HALF_POINTS)
        ]
        require(checks.spectral_mask(hs, n, points).all(), f"n={n}: a half fails the spectral test")
        require(checks.entry_sum_bound_mask(hs, n).all(), f"n={n}: a half fails the entry-sum bound")
        if checks.PUBLISHED_CENSUS[n][0]:
            # every normalized first member of every pair, from the recorded
            # class representatives, once they reproduce the published census
            counts, closed = checks.class_census(checks.representatives(n) + checks.constructions(n))
            require(counts == checks.PUBLISHED_CENSUS[n], f"n={n}: representatives give census {counts}")
            firsts, seconds = zip(*closed)
            require(checks.golay_mask(list(firsts), list(seconds), n).all(),
                    f"n={n}: a representative's class has a non-pair")
            wanted = {a for a in firsts if checks.is_normalized_first(a)}
            require(wanted <= set(survivors), f"n={n}: a first member of a pair is missing from L_A")
            even_set, odd_set = set(evens), set(odds)
            for a in wanted:
                e, o = checks.halves(a)
                require(e in even_set and o in odd_set, f"n={n}: halves of {a} missing")


def _check_first_members(n, survivors):
    require(checks.four_squares_mask(survivors, n).all(), f"n={n}: an L_A member fails four squares")
    require(checks.spectral_mask(survivors, n, checks.roots_of_unity(128)).all(),
            f"n={n}: an L_A member fails the spectral test")


# ---------------------------------------------------------------------------
# partner queries


@dataclass(frozen=True)
class Query:
    kind: str  # "constructed" or "random"
    seq: tuple
    partner: tuple = None  # known partner of a constructed member


class Queries:
    """A closed loop: one client sends the next query when the last returns."""

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.constructed = SMOKE_CONSTRUCTED_LENGTHS if smoke else CONSTRUCTED_LENGTHS
        self.random = SMOKE_RANDOM_LENGTHS if smoke else RANDOM_LENGTHS
        self.min_rounds = 2 if smoke else math.ceil(MIN_QUERIES / self.block_size)
        self.setup_length = self.constructed[-1]
        self._rng = random.Random(seed)

    @property
    def block_size(self):
        return len(self.constructed) + len(self.random)

    def describe(self):
        return f"blocks of constructed {list(self.constructed)} + random {list(self.random)}"

    def _block(self):
        rng = self._rng
        block = []
        for n in self.constructed:
            (pair,) = checks.constructions(n, interleave=False)
            a, b = checks.random_moves(pair, rng)
            block.append(Query("constructed", a, b))
        for n in self.random:
            block.append(Query("random", tuple(rng.randrange(4) for _ in range(n))))
        return block

    def run_round(self, cg, work_dir, tracer):
        rnd = Round()
        for q in self._block():
            with tracer.span("bench.op", n=len(q.seq), kind=q.kind):
                op = timed_op(q, lambda: cg.encoding.find_partners(q.seq))
            rnd.ops.append(op)
        return rnd

    def check(self, rnd):
        for op in rnd.ops:
            if op.output is None:
                continue
            q, partners = op.key, op.output
            n = len(q.seq)
            require(checks.golay_mask([q.seq] * len(partners), partners, n).all(),
                    f"query {q.seq}: a returned partner fails the autocorrelation check")
            if q.partner is not None:
                require(checks.rescale_leading_one(q.partner) in partners,
                        f"query {q.seq}: known partner not returned")
            if not checks.four_squares_mask([q.seq], n)[0]:
                require(partners == [], f"query {q.seq}: partners despite failing four squares")


def make(name, seed, smoke=False, workers=None):
    if name == "queries":
        return Queries(seed, smoke)
    if name in LENGTHS:
        return Enumeration(name, seed, smoke, workers)
    raise ValueError(f"unknown workload {name!r}")

"""End-to-end enumeration: half candidates, join filtering, partner join.

A run for length n proceeds in three stages, each persisted to disk so an
interrupted or repeated invocation picks up whatever already exists:

1. preprocessing -- enumerate the even-index and odd-index half candidates
   that survive the spectral bound on their own (files L_even/L_odd).  The
   lists are the same for every shard, so shards sharing a directory
   compute them once;
2. stage 1 -- join every even half with every odd half and keep joins that
   pass the exact entry-sum solvability test and the progressive spectral
   sweep (file L_A).  The odd axis is the work loop: a shard takes one
   contiguous span of it, filters.HalfJoin builds the half tables for that
   span once, before any worker forks, and worker chunks only sweep;
3. stage 2 -- join L_A with itself on exact integer autocorrelations
   (partner_join, core.autocorrelations; file pairs), in the calling
   process.  The pairs stay one (pairs, 2, n) exponent array from the
   join to the file; run_stage2 returns them as tuple pairs.  A shard
   joins its own L_A with every shard's L_A file in the directory; until
   all of them exist it stops after stage 1 (ShardWaiting), and a rerun
   runs stage 2 alone.

All persisted lists are sorted, so outputs are byte-reproducible and the
union of shard outputs equals the unsharded output.  Each write goes
through a temp file of its own and os.replace, so an artifact is either
absent or complete, and writers sharing an output directory never move
each other's files.  A stage is therefore done exactly when its artifact
exists: both half lists for preprocessing, L_A for stage 1, pairs for
stage 2.  The filter settings are fixed in filters, and n and the shard
are in every file name, so an existing artifact is always the one this
run would write; deleting a file (or the directory) recomputes it.  A
reloaded candidate list must still have the shape and order this run
would write (read_candidates), and every L_A file's members must have
their halves in this run's half lists.  Reloaded pairs must be sorted,
of length n and start in this run's L_A; read_pairs then checks the
parsed lines are Golay pairs (golay_rows, one golay_mask per length) and
names the first bad line.  An artifact path that cannot be read or
written raises ArtifactError naming it, as a bad line does.
No artifact records timings, so a rerun reproduces every file byte for byte.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import core, filters


@dataclass(frozen=True)
class RunConfig:
    n: int
    out_dir: Path
    shards: int = 1
    shard_index: int = 1  # 1-based
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.n < 1:
            raise ValueError("length must be at least 1")
        if self.shards < 1:
            raise ValueError("shard count must be at least 1")
        if not 1 <= self.shard_index <= self.shards:
            raise ValueError("shard index must lie in 1..shards")
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")

    def _suffix(self):
        if self.shards == 1:
            return ""
        return f".shard{self.shard_index}of{self.shards}"

    def path_even(self):
        return self.out_dir / f"L_even_n{self.n}.txt"

    def path_odd(self):
        return self.out_dir / f"L_odd_n{self.n}.txt"

    def path_survivors(self):
        return self.out_dir / f"L_A_n{self.n}{self._suffix()}.txt"

    def path_pairs(self):
        return self.out_dir / f"pairs_n{self.n}{self._suffix()}.txt"

    def path_report(self):
        return self.out_dir / f"report_n{self.n}{self._suffix()}.txt"


# ---------------------------------------------------------------------------
# artifact I/O


def _umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path, text):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                # mkstemp creates the file private; artifacts get the usual mode
                os.fchmod(f.fileno(), 0o666 & ~_umask())
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise ArtifactError(f"cannot write {path}: {exc.strerror}") from None


class ArtifactError(ValueError):
    """An artifact that cannot be read or written, or does not decode, parse or
    check; the message names path[:line]."""


def _read_lines(path, parse, check=None):
    """parse(line) per line up to a failure; check(rows) may name a row as (index, reason).
    Only LF ends a line, as the writers end them; CR LF, CR or U+2028 do not."""
    try:
        *lines, last = path.read_bytes().decode().split("\n")
    except OSError as exc:
        raise ArtifactError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ArtifactError(f"{path}: {exc}") from None
    out, error = [], None
    for lineno, line in enumerate(lines, start=1):
        try:
            out.append(parse(line))
        except ValueError as exc:
            error = f"{path}:{lineno}: {exc}"
            break
    if last and not error:
        error = f"{path}:{len(lines) + 1}: no newline at the end of the line: {last!r}"
    if check and (bad := check(out)):
        error = f"{path}:{bad[0] + 1}: {bad[1]}: {lines[bad[0]]!r}"
    if error:
        raise ArtifactError(error)
    return out


def write_candidates(path, cands):
    _write_atomic(path, "".join(core.to_text(c) + "\n" for c in cands))


def read_candidates(path, n, parity=None, halves=None):
    """Reload a candidate list of length n, checking each line's shape and order.

    A half list (parity 'even' or 'odd') must be masked exactly at the
    other parity's slots, a first-member list (parity None) nowhere.  The
    lines must be sorted and unique.  With a run's (evens, odds), each
    first member's even and odd halves must be among them.
    """
    masked = tuple(parity is not None and k % 2 != (parity == "odd") for k in range(n))
    kind = f"an {parity} half" if parity else "a first member"
    last = None

    def parse(line):
        nonlocal last
        seq = core.from_text(line)
        if len(seq) != n:
            raise ValueError(f"length {len(seq)}, expected {n}: {line!r}")
        if tuple(c is None for c in seq) != masked:
            raise ValueError(f"masked slots are not those of {kind}: {line!r}")
        # the shape check aligns the masked slots, so only entries are compared
        if last is not None and seq <= last:
            raise ValueError(f"not sorted after the line before, or repeated: {line!r}")
        last = seq
        return seq

    def check(seqs):
        evens, odds = set(halves[0]), set(filters.join_odds(n, halves[1]))
        for k, seq in enumerate(seqs):
            even, odd = core.split_even_odd(seq)
            if even not in evens:
                return k, "even half not in this run's L_even"
            if odd not in odds:
                return k, "odd half not in this run's L_odd"
        return None

    return _read_lines(path, parse, check if halves is not None else None)


def pair_line(n, pair):
    a, b = pair
    return f"{n}\t{core.to_text(a)}\t{core.to_text(b)}"


def parse_pair_line(line):
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected three tab-separated fields: {line!r}")
    n_text, a_text, b_text = fields
    n = int(n_text)
    if n_text != str(n):
        raise ValueError(f"length field {n_text!r} is not written as {str(n)!r}: {line!r}")
    if n < 1:
        raise ValueError(f"length field must be at least 1: {line!r}")
    a, b = core.from_text(a_text), core.from_text(b_text)
    if len(a) != n or len(b) != n:
        raise ValueError(f"length field disagrees with members: {line!r}")
    if any(e is None for e in a + b):
        raise ValueError(f"pair line contains masked entries: {line!r}")
    return a, b


def write_pairs(path, n, pairs):
    """Write pair_line(n, p) and a newline per pair p of a (pairs, 2, n)
    exponent array, rendered by one byte lookup."""
    codes = np.full((len(pairs), 2, n + 1), [[4], [5]], np.uint8)  # tab after A, newline after B
    codes[:, :, :n] = pairs
    text = np.frombuffer(b"+i-j\t\n", dtype=np.uint8)[codes].reshape(len(pairs), 2 * n + 2)
    prefix = np.tile(np.frombuffer(f"{n}\t".encode(), dtype=np.uint8), (len(pairs), 1))
    _write_atomic(path, np.hstack([prefix, text]).tobytes().decode())


def golay_rows(pairs):
    """Per tuple pair, of any mix of lengths: is it a Golay pair, by one
    core.golay_mask per length."""
    ok = np.ones(len(pairs), dtype=bool)
    for m in {len(a) for a, _ in pairs}:
        at = [k for k, (a, _) in enumerate(pairs) if len(a) == m]
        ok[at] = core.golay_mask(*np.array([pairs[k] for k in at], np.int8).swapaxes(0, 1))
    return ok


def read_pairs(path, n=None, firsts=None):
    """Reload a pair file of Golay pairs.  With a run's n and L_A (firsts),
    the lines must also be sorted, unique, of length n and start in firsts."""
    last = None

    def parse(line):
        nonlocal last
        pair = parse_pair_line(line)
        if n is not None:
            if len(pair[0]) != n:
                raise ValueError(f"length {len(pair[0])}, expected {n}: {line!r}")
            if last is not None and pair <= last:
                raise ValueError(f"not sorted after the line before, or repeated: {line!r}")
        if firsts is not None and pair[0] not in firsts:
            raise ValueError(f"first member not in this run's L_A: {line!r}")
        last = pair
        return pair

    def check(pairs):
        ok = golay_rows(pairs)
        return None if ok.all() else (int(ok.argmin()), "not a Golay pair")

    return _read_lines(path, parse, check)


# ---------------------------------------------------------------------------
# sharding


def shard_span(total, shards, shard_index):
    """Contiguous chunk of range(total) handled by a 1-based shard index."""
    lo = (shard_index - 1) * total // shards
    hi = shard_index * total // shards
    return lo, hi


# ---------------------------------------------------------------------------
# worker plumbing (fork-inherited state, deterministic chunk merge)

_WORK = {}


def _stage1_worker(span):
    return _WORK["join"].sweep(*span)


def _run_chunked(worker, total, workers):
    # more processes than the CPUs this process may run on buy nothing
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    # one worker sweeps the axis in one call; more share it in 4 spans each,
    # and a span cut inside a class run gathers that class's evens again
    pieces = workers * 4 if workers > 1 else 1
    spans = [shard_span(total, pieces, k) for k in range(1, pieces + 1)]
    spans = [(lo, hi) for lo, hi in spans if lo < hi]
    if workers <= 1 or len(spans) <= 1:
        results = [worker(s) for s in spans]
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(spans))) as pool:
            results = pool.map(worker, spans)
    merged = []
    for chunk in results:
        merged.extend(chunk)
    return merged


# ---------------------------------------------------------------------------
# the three stages


def run_preprocessing(cfg):
    """Half-candidate lists, computed or reloaded; always written to disk.

    The lists depend only on n, so every shard and the unsharded run of a
    directory share one pair of files: whichever runs first computes them,
    the others reload them.
    """
    if cfg.path_even().exists() and cfg.path_odd().exists():
        return (
            read_candidates(cfg.path_even(), cfg.n, "even"),
            read_candidates(cfg.path_odd(), cfg.n, "odd"),
        )
    evens = filters.enumerate_half_candidates(cfg.n, "even")
    odds = filters.enumerate_half_candidates(cfg.n, "odd")
    write_candidates(cfg.path_even(), evens)
    write_candidates(cfg.path_odd(), odds)
    return evens, odds


def run_stage1(cfg, evens, odds):
    """First members surviving the join filters, for this shard of the odds."""
    if cfg.path_survivors().exists():
        return read_candidates(cfg.path_survivors(), cfg.n, halves=(evens, odds))
    odds = filters.join_odds(cfg.n, odds)
    lo, hi = shard_span(len(odds), cfg.shards, cfg.shard_index)
    join = filters.HalfJoin(cfg.n, evens, odds[lo:hi])
    global _WORK
    _WORK = {"join": join}
    survivors = _run_chunked(_stage1_worker, join.odd_count, cfg.workers)
    _WORK = {}
    survivors.sort()
    write_candidates(cfg.path_survivors(), survivors)
    return survivors


def partner_join(n, firsts, members):
    """All normalized pairs (A, B) with A in firsts, as one (pairs, 2, n)
    int8 exponent array in the order of sorted tuple pairs.

    members must hold every normalized first member of length n (all of
    L_A).  Swapping a pair (E3) and normalizing it only scales, ramps and
    maybe conjugates its second member, so every partner B with b_0 = 1
    is ramp^t(X) or ramp^t(conj X) for some X in members and t in 0..3.
    The distinct candidates are keyed by their exact autocorrelations
    (core.autocorrelations), and each A looks up -c(A).  Every hit is
    re-verified exactly, in one golay_mask.
    """
    if not firsts or not members:
        return np.empty((0, 2, n), dtype=np.int8)
    exps = np.array(members, dtype=np.int8).reshape(len(members), n)
    ramp = np.arange(n, dtype=np.int8)
    rows = np.unique(
        np.concatenate([(x + t * ramp) & 3 for x in (exps, -exps) for t in range(4)]), axis=0
    )
    table = {}
    for row, key in enumerate(core.autocorrelations(rows).reshape(len(rows), -1)):
        table.setdefault(key.tobytes(), []).append(row)
    starts = np.array(firsts, dtype=np.int8).reshape(len(firsts), n)
    wanted = -core.autocorrelations(starts).reshape(len(starts), -1)
    hits = [(i, row) for i, key in enumerate(wanted) for row in table.get(key.tobytes(), ())]
    at, row = np.array(hits, dtype=np.intp).reshape(-1, 2).T
    pairs = np.stack([starts[at], rows[row]], axis=1)
    ok = core.golay_mask(pairs[:, 0], pairs[:, 1])
    if not ok.all():
        raise RuntimeError(f"self-join produced a non-pair {pairs[ok.argmin()].tolist()!r}")
    return pairs[np.lexsort(pairs.reshape(-1, 2 * n).T[::-1])]


class ShardWaiting(Exception):
    """A shard's stage 2 needs every shard's L_A; .missing lists those not yet written."""

    def __init__(self, missing):
        super().__init__("stage 2 waits for " + ", ".join(str(p) for p in missing))
        self.missing = missing


def run_stage2(cfg, survivors, evens, odds):
    """All normalized pairs whose first member is in the survivor list.

    The partners come from partner_join over all of L_A: for a shard, the
    union of every shard's L_A file in the directory, each checked against
    the half lists (evens, odds).  While one of those files is missing, a
    shard raises ShardWaiting and writes nothing.
    """
    if cfg.path_pairs().exists():
        return read_pairs(cfg.path_pairs(), cfg.n, set(survivors))
    members = survivors
    if cfg.shards > 1:
        paths = [
            replace(cfg, shard_index=k).path_survivors() for k in range(1, cfg.shards + 1)
        ]
        missing = [p for p in paths if not p.exists()]
        if missing:
            raise ShardWaiting(missing)
        members = [m for p in paths for m in read_candidates(p, cfg.n, halves=(evens, odds))]
    pairs = partner_join(cfg.n, survivors, members)
    write_pairs(cfg.path_pairs(), cfg.n, pairs)
    return [(tuple(a), tuple(b)) for a, b in pairs.tolist()]


def _render_report(cfg, counts):
    lines = [
        f"n={cfg.n}",
        f"L_even={counts['evens']}",
        f"L_odd={counts['odds']}",
        f"L_A={counts['survivors']}",
        f"pairs_normalized={counts['pairs']}",
    ]
    return "".join(line + "\n" for line in lines)


def enumerate_pairs(cfg):
    """Run (or resume) the whole pipeline; returns the normalized pairs."""
    evens, odds = run_preprocessing(cfg)
    survivors = run_stage1(cfg, evens, odds)
    pairs = run_stage2(cfg, survivors, evens, odds)
    counts = {
        "evens": len(evens),
        "odds": len(odds),
        "survivors": len(survivors),
        "pairs": len(pairs),
    }
    _write_atomic(cfg.path_report(), _render_report(cfg, counts))
    return pairs

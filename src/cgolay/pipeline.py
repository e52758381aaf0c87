"""End-to-end enumeration: half candidates, join filtering, partner search.

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
3. stage 2 -- for each surviving first member, enumerate all partners with
   encoding.find_partners, a depth-first search over mirror pairs of
   entries (file pairs).

All persisted lists are sorted, so outputs are byte-reproducible and the
union of shard outputs equals the unsharded output.  Each write goes
through a temp file of its own and os.replace, so an artifact is either
absent or complete, and writers sharing an output directory never move
each other's files.  A stage is therefore done exactly when its artifact
exists: both half lists for preprocessing, L_A for stage 1, pairs for
stage 2.  The filter settings are fixed in filters, and n and the shard
are in every file name, so an existing artifact is always the one this
run would write; deleting a file (or the directory) recomputes it.  No
artifact records timings, so a rerun reproduces every file byte for byte.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import core, encoding, filters


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


class ArtifactError(ValueError):
    """An artifact line that does not parse; the message names path:line."""


def _read_lines(path, parse):
    out = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        try:
            out.append(parse(line))
        except ValueError as exc:
            raise ArtifactError(f"{path}:{lineno}: {exc}") from None
    return out


def write_candidates(path, cands):
    _write_atomic(path, "".join(core.to_text(c) + "\n" for c in cands))


def read_candidates(path):
    return _read_lines(path, core.from_text)


def pair_line(n, pair):
    a, b = pair
    return f"{n}\t{core.to_text(a)}\t{core.to_text(b)}"


def parse_pair_line(line):
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"expected three tab-separated fields: {line!r}")
    n_text, a_text, b_text = fields
    n = int(n_text)
    if n < 1:
        raise ValueError(f"length field must be at least 1: {line!r}")
    a, b = core.from_text(a_text), core.from_text(b_text)
    if len(a) != n or len(b) != n:
        raise ValueError(f"length field disagrees with members: {line!r}")
    if any(e is None for e in a + b):
        raise ValueError(f"pair line contains masked entries: {line!r}")
    return a, b


def write_pairs(path, n, pairs):
    _write_atomic(path, "".join(pair_line(n, p) + "\n" for p in pairs))


def read_pairs(path):
    return _read_lines(path, parse_pair_line)


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


def _stage2_worker(span):
    lo, hi = span
    out = []
    for a in _WORK["survivors"][lo:hi]:
        out.extend((a, b) for b in encoding.find_partners(a))
    return out


def _run_chunked(worker, total, workers):
    pieces = workers * 4
    spans = [shard_span(total, pieces, k) for k in range(1, pieces + 1)]
    spans = [(lo, hi) for lo, hi in spans if lo < hi]
    if workers <= 1 or len(spans) <= 1:
        results = [worker(s) for s in spans]
    else:
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
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
        return read_candidates(cfg.path_even()), read_candidates(cfg.path_odd())
    schedule = filters.preprocessing_schedule(cfg.n)
    evens = filters.enumerate_half_candidates(cfg.n, "even", schedule)
    odds = filters.enumerate_half_candidates(cfg.n, "odd", schedule)
    write_candidates(cfg.path_even(), evens)
    write_candidates(cfg.path_odd(), odds)
    return evens, odds


def run_stage1(cfg, evens, odds):
    """First members surviving the join filters, for this shard of the odds."""
    if cfg.path_survivors().exists():
        return read_candidates(cfg.path_survivors())
    odds = filters.join_odds(cfg.n, odds)
    lo, hi = shard_span(len(odds), cfg.shards, cfg.shard_index)
    join = filters.HalfJoin(cfg.n, evens, odds[lo:hi], filters.stage1_schedule())
    global _WORK
    _WORK = {"join": join}
    survivors = _run_chunked(_stage1_worker, join.odd_count, cfg.workers)
    _WORK = {}
    survivors.sort()
    write_candidates(cfg.path_survivors(), survivors)
    return survivors


def run_stage2(cfg, survivors):
    """All normalized pairs whose first member is in the survivor list."""
    if cfg.path_pairs().exists():
        return read_pairs(cfg.path_pairs())
    global _WORK
    _WORK = {"survivors": survivors}
    pairs = _run_chunked(_stage2_worker, len(survivors), cfg.workers)
    _WORK = {}
    pairs.sort()
    write_pairs(cfg.path_pairs(), cfg.n, pairs)
    return pairs


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
    pairs = run_stage2(cfg, survivors)
    counts = {
        "evens": len(evens),
        "odds": len(odds),
        "survivors": len(survivors),
        "pairs": len(pairs),
    }
    _write_atomic(cfg.path_report(), _render_report(cfg, counts))
    return pairs

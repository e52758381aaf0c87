"""Pipeline artifacts: correctness vs the oracle, resume, shards, formats."""

import multiprocessing
import os
import re
import time

import numpy as np
import pytest

from cgolay import filters, oracle, pipeline
from cgolay.pipeline import RunConfig, shard_span


def run_dir(tmp_path, name):
    d = tmp_path / name
    d.mkdir(parents=True, exist_ok=True)
    return d


def artifact_bytes(cfg):
    out = {}
    for path in sorted(cfg.out_dir.iterdir()):
        out[path.name] = path.read_bytes()
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_oracle(n, tmp_path):
    cfg = RunConfig(n=n, out_dir=run_dir(tmp_path, f"n{n}"))
    assert pipeline.enumerate_pairs(cfg) == sorted(oracle.normalized_pairs(n))


def test_known_pair_file_for_length_three(tmp_path):
    cfg = RunConfig(n=3, out_dir=run_dir(tmp_path, "n3"))
    pipeline.enumerate_pairs(cfg)
    assert cfg.path_pairs().read_text() == "3\t++-\t+i+\n3\t++-\t+j+\n"


def test_length_one_has_no_odd_half(tmp_path):
    cfg = RunConfig(n=1, out_dir=run_dir(tmp_path, "n1"))
    pairs = pipeline.enumerate_pairs(cfg)
    assert pairs == [((0,), (0,))]
    assert cfg.path_odd().read_text() == ""
    assert cfg.path_even().read_text() == "+\n"


def count_calls(monkeypatch, module, name, calls):
    """Record name in calls whenever module.name is called."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_rerun_is_resumed_and_byte_identical(tmp_path, monkeypatch):
    calls = []
    count_calls(monkeypatch, filters, "enumerate_half_candidates", calls)
    count_calls(monkeypatch, filters, "half_hall_columns", calls)
    count_calls(monkeypatch, pipeline, "partner_join", calls)
    cfg = RunConfig(n=4, out_dir=run_dir(tmp_path, "n4"))
    pipeline.enumerate_pairs(cfg)
    first = artifact_bytes(cfg)
    assert sorted(first) == [
        "L_A_n4.txt", "L_even_n4.txt", "L_odd_n4.txt", "pairs_n4.txt", "report_n4.txt",
    ]
    assert set(calls) == {"enumerate_half_candidates", "half_hall_columns", "partner_join"}

    # a stage is done when its artifact exists: a rerun recomputes nothing
    calls.clear()
    pipeline.enumerate_pairs(cfg)
    assert calls == []
    assert artifact_bytes(cfg) == first

    # deleting one artifact recomputes its stage only
    cfg.path_survivors().unlink()
    pipeline.enumerate_pairs(cfg)
    assert calls == ["half_hall_columns"] * 2
    assert artifact_bytes(cfg) == first
    calls.clear()
    cfg.path_pairs().unlink()
    pipeline.enumerate_pairs(cfg)
    assert calls == ["partner_join"]
    assert artifact_bytes(cfg) == first


def test_fresh_runs_are_byte_identical(tmp_path):
    a = RunConfig(n=5, out_dir=run_dir(tmp_path, "a"))
    b = RunConfig(n=5, out_dir=run_dir(tmp_path, "b"))
    pipeline.enumerate_pairs(a)
    pipeline.enumerate_pairs(b)
    assert artifact_bytes(a) == artifact_bytes(b)


def run_shards(n, out_dir, shards):
    """Run every shard in turn, then rerun those that waited for a sibling's L_A.

    Returns the pairs of each shard, by shard index."""
    pairs = {}
    for k in list(range(1, shards + 1)) * 2:
        if k not in pairs:
            cfg = RunConfig(n=n, out_dir=out_dir, shards=shards, shard_index=k)
            try:
                pairs[k] = pipeline.enumerate_pairs(cfg)
            except pipeline.ShardWaiting:
                pass
    return pairs


def test_shard_union_equals_full_run(tmp_path):
    full = RunConfig(n=6, out_dir=run_dir(tmp_path, "full"))
    pipeline.enumerate_pairs(full)
    union = []
    survivors = []
    for k, pairs in run_shards(6, run_dir(tmp_path, "shards"), 3).items():
        cfg = RunConfig(n=6, out_dir=tmp_path / "shards", shards=3, shard_index=k)
        union.extend(pairs)
        survivors.extend(pipeline.read_candidates(cfg.path_survivors(), 6))
    assert sorted(union) == pipeline.read_pairs(full.path_pairs())
    assert sorted(survivors) == pipeline.read_candidates(full.path_survivors(), 6)
    # shard artifacts carry the shard tag and do not collide
    names = {p.name for p in (tmp_path / "shards").iterdir()}
    assert "pairs_n6.shard2of3.txt" in names


def test_worker_processes_do_not_change_output(tmp_path):
    # at n=12 two workers cut the 860 class-ordered odds into 8 spans,
    # and the spans cut class runs
    for n in (4, 12):
        serial = RunConfig(n=n, out_dir=run_dir(tmp_path, f"serial{n}"))
        forked = RunConfig(n=n, out_dir=run_dir(tmp_path, f"forked{n}"), workers=2)
        assert pipeline.enumerate_pairs(serial) == pipeline.enumerate_pairs(forked)
        assert serial.path_survivors().read_bytes() == forked.path_survivors().read_bytes()
        assert serial.path_pairs().read_bytes() == forked.path_pairs().read_bytes()


def test_report_contents(tmp_path):
    cfg = RunConfig(n=4, out_dir=run_dir(tmp_path, "n4"))
    pipeline.enumerate_pairs(cfg)
    report = dict(
        line.split("=", 1) for line in cfg.path_report().read_text().splitlines()
    )
    assert report["n"] == "4"
    assert report["L_even"] == "3"
    assert report["L_odd"] == "4"
    assert report["L_A"] == "3"
    assert report["pairs_normalized"] == "6"


def test_stage1_builds_the_half_tables_once(tmp_path, monkeypatch):
    calls = []
    original = filters.half_hall_columns

    def counting(cands, n):
        calls.append(len(cands))
        return original(cands, n)

    monkeypatch.setattr(filters, "half_hall_columns", counting)
    cfg = RunConfig(n=6, out_dir=run_dir(tmp_path, "n6"))
    evens, odds = pipeline.run_preprocessing(cfg)
    survivors = pipeline.run_stage1(cfg, evens, odds)
    # one table per half, however many chunks the odd axis is cut into
    assert calls == [len(evens), len(odds)]
    assert len(survivors) == 14


def test_shards_of_one_directory_share_the_half_lists(tmp_path, monkeypatch):
    calls = []
    original = filters.enumerate_half_candidates

    def counting(n, parity):
        calls.append(parity)
        return original(n, parity)

    monkeypatch.setattr(filters, "enumerate_half_candidates", counting)
    out = run_dir(tmp_path, "n8")
    assert sorted(run_shards(8, out, 3)) == [1, 2, 3]
    pipeline.enumerate_pairs(RunConfig(n=8, out_dir=out))
    assert calls == ["even", "odd"]


def test_shards_tabulate_only_their_odd_span(tmp_path, monkeypatch):
    rows = []
    original = filters.half_hall_columns

    def counting(cands, n):
        rows.append(len(cands))
        return original(cands, n)

    monkeypatch.setattr(filters, "half_hall_columns", counting)
    survivors = []
    for k in (1, 2, 3):
        cfg = RunConfig(n=8, out_dir=run_dir(tmp_path, "n8"), shards=3, shard_index=k)
        evens, odds = pipeline.run_preprocessing(cfg)
        survivors.extend(pipeline.run_stage1(cfg, evens, odds))
    # calls alternate evens, odds; the odd spans partition the 64 odd halves
    assert rows[0::2] == [48] * 3
    assert sum(rows[1::2]) == 64
    assert len(survivors) == 36


def test_a_shard_waits_for_its_siblings_first_members(tmp_path, monkeypatch):
    calls = []
    count_calls(monkeypatch, filters, "half_hall_columns", calls)
    count_calls(monkeypatch, pipeline, "partner_join", calls)
    out = run_dir(tmp_path, "n6")
    shard = {k: RunConfig(n=6, out_dir=out, shards=3, shard_index=k) for k in (1, 2, 3)}
    with pytest.raises(pipeline.ShardWaiting):
        pipeline.enumerate_pairs(shard[1])
    calls.clear()
    with pytest.raises(pipeline.ShardWaiting) as exc:
        pipeline.enumerate_pairs(shard[2])
    # stage 1 ran; stage 2 names the one missing sibling and writes nothing
    assert calls == ["half_hall_columns"] * 2
    assert exc.value.missing == [shard[3].path_survivors()]
    assert str(exc.value) == f"stage 2 waits for {shard[3].path_survivors()}"
    assert shard[2].path_survivors().exists()
    assert not shard[2].path_pairs().exists() and not shard[2].path_report().exists()
    pipeline.enumerate_pairs(shard[3])
    # the rerun of a waiting shard runs stage 2 only
    calls.clear()
    pipeline.enumerate_pairs(shard[2])
    assert calls == ["partner_join"]
    assert shard[2].path_pairs().exists() and shard[2].path_report().exists()


def test_a_shard_reloads_only_pairs_of_its_own_first_members(tmp_path):
    out = run_dir(tmp_path, "n6")
    pairs = run_shards(6, out, 3)
    assert all(pairs.values())
    # shard 1's pair file, replaced by shard 2's well-formed, sorted Golay pairs
    shard = RunConfig(n=6, out_dir=out, shards=3, shard_index=1)
    other = RunConfig(n=6, out_dir=out, shards=3, shard_index=2)
    shard.path_pairs().write_bytes(other.path_pairs().read_bytes())
    line = other.path_pairs().read_text().splitlines()[0]
    with pytest.raises(pipeline.ArtifactError) as exc:
        pipeline.enumerate_pairs(shard)
    assert str(exc.value) == (
        f"{shard.path_pairs()}:1: first member not in this run's L_A: {line!r}"
    )


def test_a_shard_checks_its_siblings_first_members_against_the_half_lists(tmp_path):
    out = run_dir(tmp_path, "n6")
    shard = {k: RunConfig(n=6, out_dir=out, shards=3, shard_index=k) for k in (1, 2, 3)}
    for k in (1, 2):
        with pytest.raises(pipeline.ShardWaiting):
            pipeline.enumerate_pairs(shard[k])
    # a sibling's L_A of the right shape whose even half is not in L_even
    shard[3].path_survivors().write_text("++++++\n-+++++\n")
    with pytest.raises(pipeline.ArtifactError) as exc:
        pipeline.enumerate_pairs(shard[1])
    assert str(exc.value) == (
        f"{shard[3].path_survivors()}:2: even half not in this run's L_even: '-+++++'"
    )
    assert not shard[1].path_pairs().exists()


def test_length_one_blank_odd_half_is_one_item_across_shards(tmp_path):
    survivors = []
    for k in (1, 2):
        cfg = RunConfig(n=1, out_dir=run_dir(tmp_path, "n1"), shards=2, shard_index=k)
        evens, odds = pipeline.run_preprocessing(cfg)
        survivors.extend(pipeline.run_stage1(cfg, evens, odds))
    assert survivors == [(0,)]


def _write_repeatedly(path, text, seconds):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        pipeline._write_atomic(path, text)


def test_concurrent_writers_of_one_path_never_fail(tmp_path):
    # shards started in one directory all write the unsuffixed half lists
    path = tmp_path / "L_even_n9.txt"
    texts = ["+" * 4000 + "\n", "-" * 3000 + "\n"]
    ctx = multiprocessing.get_context("fork")
    procs = [ctx.Process(target=_write_repeatedly, args=(path, t, 1.0)) for t in texts]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=30)
    assert not any(p.is_alive() for p in procs)
    assert [p.exitcode for p in procs] == [0, 0]
    assert path.read_text() in texts
    assert os.listdir(tmp_path) == [path.name]


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", src, None, dst)

    monkeypatch.setattr(pipeline.os, "replace", refuse)
    path = tmp_path / "cands.txt"
    # the error names the artifact, not the temp file os.replace failed on
    with pytest.raises(pipeline.ArtifactError) as exc:
        pipeline.write_candidates(path, [(0, 0)])
    assert str(exc.value) == f"cannot write {path}: Permission denied"
    assert os.listdir(tmp_path) == []


def test_a_killed_writers_temp_files_are_never_read(tmp_path):
    clean = RunConfig(n=4, out_dir=run_dir(tmp_path, "clean"))
    pipeline.enumerate_pairs(clean)
    dirty = RunConfig(n=4, out_dir=run_dir(tmp_path, "dirty"))
    # what _write_atomic leaves behind when its writer dies before os.replace
    garbage = {"pairs_n4.txt.k1ll3d.tmp": "garbage\n", "L_A_n4.txt.k1ll3d.tmp": "++x+\n"}
    for name, text in garbage.items():
        (dirty.out_dir / name).write_text(text)
    pipeline.enumerate_pairs(dirty)
    names = ["L_A_n4.txt", "L_even_n4.txt", "L_odd_n4.txt", "pairs_n4.txt", "report_n4.txt"]
    for name in names:
        assert (dirty.out_dir / name).read_bytes() == (clean.out_dir / name).read_bytes()
    assert sorted(os.listdir(dirty.out_dir)) == sorted(names + list(garbage))


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n=0, out_dir="x")
    with pytest.raises(ValueError):
        RunConfig(n=3, out_dir="x", shards=0)
    with pytest.raises(ValueError):
        RunConfig(n=3, out_dir="x", shards=2, shard_index=3)
    with pytest.raises(ValueError):
        RunConfig(n=3, out_dir="x", shard_index=0)
    with pytest.raises(ValueError):
        RunConfig(n=3, out_dir="x", workers=0)


def test_shard_spans_partition_everything():
    for total in (0, 1, 7, 100):
        for shards in (1, 2, 3, 7):
            spans = [shard_span(total, shards, k) for k in range(1, shards + 1)]
            assert spans[0][0] == 0 and spans[-1][1] == total
            for (a, b), (c, d) in zip(spans, spans[1:]):
                assert b == c and a <= b and c <= d


def test_candidate_file_roundtrip(tmp_path):
    path = tmp_path / "cands.txt"
    for parity, cands, text in (
        ("even", [(0, None, 1), (0, None, 2)], "+0i\n+0-\n"),
        ("odd", [(None, 3, None)], "0j0\n"),
        (None, [(0, 0, 2)], "++-\n"),
    ):
        pipeline.write_candidates(path, cands)
        assert path.read_text() == text
        assert pipeline.read_candidates(path, 3, parity) == cands
    assert path.stat().st_mode & 0o777 == 0o666 & ~pipeline._umask()


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("L_even_n3.txt", "+0+0", "length 4, expected 3: '+0+0'"),
        ("L_even_n3.txt", "++0", "masked slots are not those of an even half: '++0'"),
        ("L_odd_n3.txt", "+0+", "masked slots are not those of an odd half: '+0+'"),
        ("L_odd_n3.txt", "0+", "length 2, expected 3: '0+'"),
        ("L_A_n3.txt", "++-+", "length 4, expected 3: '++-+'"),
        ("L_A_n3.txt", "+0-", "masked slots are not those of a first member: '+0-'"),
    ],
    ids=["even-long", "even-mask", "odd-mask", "odd-short", "first-long", "first-mask"],
)
def test_reload_rejects_a_candidate_of_the_wrong_shape(tmp_path, name, line, message):
    cfg = RunConfig(n=3, out_dir=run_dir(tmp_path, "n3"))
    pipeline.enumerate_pairs(cfg)
    path = cfg.out_dir / name
    text = path.read_text() + line + "\n"
    path.write_text(text)
    with pytest.raises(pipeline.ArtifactError) as exc:
        pipeline.enumerate_pairs(cfg)
    assert str(exc.value) == f"{path}:{len(text.splitlines())}: {message}"


def test_worker_pool_is_no_larger_than_the_chunk_count(monkeypatch):
    sizes = []

    class SerialPool:
        """Stands in for a fork pool: records its size, maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    class Context:
        Pool = SerialPool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    # the pool is capped at the CPUs this process may run on; 3 leave 3 workers alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    # 3 workers cut 2 items into 12 spans, only 2 of them non-empty
    assert pipeline._run_chunked(lambda span: [span], 2, 3) == [(0, 1), (1, 2)]
    assert pipeline._run_chunked(lambda span: [span], 9, 3) == [(k, k + 1) for k in range(9)]
    assert sizes == [2, 3]
    # one worker sweeps the whole axis in one call, in this process
    assert pipeline._run_chunked(lambda span: [span], 9, 1) == [(0, 9)]
    assert sizes == [2, 3]
    # more workers than CPUs fork one process per CPU, over 4 spans each
    cpus = len(os.sched_getaffinity(0))
    assert len(pipeline._run_chunked(lambda span: [span], 100, cpus + 5)) == 12
    assert sizes == [2, 3, 3]


def test_reload_names_the_first_non_pair(tmp_path):
    pairs = sorted(oracle.normalized_pairs(6))[:5]
    for k in (2, 4):  # lines 3 and 5: negate A's last entry
        a, b = pairs[k]
        pairs[k] = (a[:-1] + ((a[-1] + 2) & 3,), b)
    lines = [pipeline.pair_line(6, p) for p in pairs]
    path = tmp_path / "pairs_n6.txt"
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(pipeline.ArtifactError) as exc:
        pipeline.read_pairs(path)
    assert str(exc.value) == f"{path}:3: not a Golay pair: {lines[2]!r}"
    # a non-pair is named before a later line that fails to parse or is out
    # of order, and after an earlier one
    for later, first in ((4, 3), (1, 2)):
        bad = lines[:later] + [lines[later - 1]] + lines[later:]  # a repeated line
        path.write_text("".join(line + "\n" for line in bad))
        with pytest.raises(pipeline.ArtifactError, match=f":{first}: "):
            pipeline.read_pairs(path, 6)


def test_write_pairs_renders_pair_lines(tmp_path):
    pairs = sorted(oracle.normalized_pairs(8))[:3]
    long = [((0,) * 10, (0,) * 9 + (1,))]  # a two-digit length, not a pair
    for n, rows in ((8, pairs), (10, long), (8, [])):
        pipeline.write_pairs(tmp_path / "p.txt", n, np.array(rows, np.int8).reshape(-1, 2, n))
        text = "".join(pipeline.pair_line(n, p) + "\n" for p in rows)
        assert (tmp_path / "p.txt").read_text() == text


def test_pair_line_roundtrip_and_validation(tmp_path):
    line = pipeline.pair_line(3, ((0, 0, 2), (0, 1, 0)))
    assert line == "3\t++-\t+i+"
    assert pipeline.parse_pair_line(line) == ((0, 0, 2), (0, 1, 0))
    with pytest.raises(ValueError):
        pipeline.parse_pair_line("2\t++-\t+i+")  # length field disagrees
    with pytest.raises(ValueError):
        pipeline.parse_pair_line("3\t+0-\t+i+")  # masked entry
    with pytest.raises(ValueError):
        pipeline.parse_pair_line("3\t++x\t+i+")  # unknown character
    with pytest.raises(ValueError, match="length field must be at least 1"):
        pipeline.parse_pair_line("0\t\t")  # empty members agree with length 0
    six = pipeline.pair_line(6, sorted(oracle.normalized_pairs(6))[0])
    assert len(pipeline.parse_pair_line(six)[0]) == 6
    # int() reads each of these as 6, but write_pairs only ever writes "6"
    for field in ("06", " 6", "+6", "0_6", "\u0666"):
        with pytest.raises(ValueError, match=re.escape(f"length field {field!r} is not")):
            pipeline.parse_pair_line(field + six[1:])
    path = tmp_path / "pairs_n0.txt"
    path.write_text("0\t\t\n")
    with pytest.raises(pipeline.ArtifactError, match=":1: length field"):
        pipeline.read_pairs(path)

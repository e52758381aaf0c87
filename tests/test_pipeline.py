"""Pipeline artifacts: correctness vs the oracle, resume, shards, formats."""

import multiprocessing
import os
import time

import pytest

from cgolay import encoding, filters, oracle, pipeline
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
    count_calls(monkeypatch, encoding, "find_partners", calls)
    cfg = RunConfig(n=4, out_dir=run_dir(tmp_path, "n4"))
    pipeline.enumerate_pairs(cfg)
    first = artifact_bytes(cfg)
    assert sorted(first) == [
        "L_A_n4.txt", "L_even_n4.txt", "L_odd_n4.txt", "pairs_n4.txt", "report_n4.txt",
    ]
    assert set(calls) == {"enumerate_half_candidates", "half_hall_columns", "find_partners"}

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
    assert calls and set(calls) == {"find_partners"}
    assert artifact_bytes(cfg) == first


def test_fresh_runs_are_byte_identical(tmp_path):
    a = RunConfig(n=5, out_dir=run_dir(tmp_path, "a"))
    b = RunConfig(n=5, out_dir=run_dir(tmp_path, "b"))
    pipeline.enumerate_pairs(a)
    pipeline.enumerate_pairs(b)
    assert artifact_bytes(a) == artifact_bytes(b)


def test_shard_union_equals_full_run(tmp_path):
    full = RunConfig(n=6, out_dir=run_dir(tmp_path, "full"))
    pipeline.enumerate_pairs(full)
    union = []
    survivors = []
    for k in (1, 2, 3):
        cfg = RunConfig(n=6, out_dir=run_dir(tmp_path, "shards"), shards=3, shard_index=k)
        union.extend(pipeline.enumerate_pairs(cfg))
        survivors.extend(pipeline.read_candidates(cfg.path_survivors()))
    assert sorted(union) == pipeline.read_pairs(full.path_pairs())
    assert sorted(survivors) == pipeline.read_candidates(full.path_survivors())
    # shard artifacts carry the shard tag and do not collide
    names = {p.name for p in (tmp_path / "shards").iterdir()}
    assert "pairs_n6.shard2of3.txt" in names


def test_worker_processes_do_not_change_output(tmp_path):
    serial = RunConfig(n=4, out_dir=run_dir(tmp_path, "serial"))
    forked = RunConfig(n=4, out_dir=run_dir(tmp_path, "forked"), workers=2)
    assert pipeline.enumerate_pairs(serial) == pipeline.enumerate_pairs(forked)
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

    def counting(cands, n, dft_samples):
        calls.append(len(cands))
        return original(cands, n, dft_samples)

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

    def counting(n, parity, schedule):
        calls.append(parity)
        return original(n, parity, schedule)

    monkeypatch.setattr(filters, "enumerate_half_candidates", counting)
    out = run_dir(tmp_path, "n8")
    for k in (1, 2, 3):
        pipeline.enumerate_pairs(RunConfig(n=8, out_dir=out, shards=3, shard_index=k))
    pipeline.enumerate_pairs(RunConfig(n=8, out_dir=out))
    assert calls == ["even", "odd"]


def test_shards_tabulate_only_their_odd_span(tmp_path, monkeypatch):
    rows = []
    original = filters.half_hall_columns

    def counting(cands, n, dft_samples):
        rows.append(len(cands))
        return original(cands, n, dft_samples)

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
        raise OSError("replace refused")

    monkeypatch.setattr(pipeline.os, "replace", refuse)
    with pytest.raises(OSError):
        pipeline.write_candidates(tmp_path / "cands.txt", [(0, 0)])
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
    cands = [(0, None, 2), (1, None, None)]
    path = tmp_path / "cands.txt"
    pipeline.write_candidates(path, cands)
    assert path.read_text() == "+0-\ni00\n"
    assert pipeline.read_candidates(path) == cands
    assert path.stat().st_mode & 0o777 == 0o666 & ~pipeline._umask()


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
    path = tmp_path / "pairs_n0.txt"
    path.write_text("0\t\t\n")
    with pytest.raises(pipeline.ArtifactError, match=":1: length field"):
        pipeline.read_pairs(path)

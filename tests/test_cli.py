"""Command-line behavior: exit codes, artifact layout, printed output."""

import pytest

from cgolay import cli


def run_cli(*argv):
    return cli.main(list(argv))


def test_enumerate_writes_and_prints_report(tmp_path, capsys):
    out = tmp_path / "runs"
    assert run_cli("enumerate", "--n", "3", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "n=3\n" in printed
    assert "pairs_normalized=2" in printed
    # the report holds counts only; the run's CPU time is printed after it
    last = printed.splitlines()[-1]
    assert last.startswith("cpu_seconds=")
    assert float(last.split("=", 1)[1]) >= 0.0
    assert "cpu_seconds" not in (out / "report_n3.txt").read_text()
    assert (out / "pairs_n3.txt").read_text() == "3\t++-\t+i+\n3\t++-\t+j+\n"


def test_enumerate_sharded(tmp_path, capsys):
    out = tmp_path / "runs"
    argv = ["enumerate", "--n", "4", "--out", str(out), "--shards", "2", "--shard-index"]
    # shard 1 finishes stage 1 and waits for shard 2's first members
    assert run_cli(*argv, "1") == 0
    assert capsys.readouterr().out == (
        f"shard 1 of 2: stage 2 waits for {out / 'L_A_n4.shard2of2.txt'}; "
        "rerun this shard once they exist\n"
    )
    assert not (out / "pairs_n4.shard1of2.txt").exists()
    assert not (out / "report_n4.shard1of2.txt").exists()
    assert run_cli(*argv, "2") == 0
    assert "pairs_normalized=" in capsys.readouterr().out
    assert run_cli(*argv, "1") == 0
    assert "pairs_normalized=" in capsys.readouterr().out
    lines = []
    for k in ("1", "2"):
        lines.extend((out / f"pairs_n4.shard{k}of2.txt").read_text().splitlines())
    run_cli("enumerate", "--n", "4", "--out", str(tmp_path / "full"))
    assert sorted(lines) == sorted((tmp_path / "full" / "pairs_n4.txt").read_text().splitlines())
    assert len(lines) == 6


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "length must be at least 1"),
        (["--n", "3", "--shards", "0"], "shard count must be at least 1"),
        (["--n", "3", "--shards", "2", "--shard-index", "3"], "shard index must lie in 1..shards"),
        (["--n", "3", "--workers", "0"], "worker count must be at least 1"),
    ],
)
def test_enumerate_rejects_invalid_settings(tmp_path, capsys, flags, message):
    out = tmp_path / "runs"
    with pytest.raises(SystemExit) as exc:
        run_cli("enumerate", "--out", str(out), *flags)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"cgolay enumerate: error: {message}"
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_infeasible_length_is_a_usage_error(tmp_path, capsys):
    # numpy refuses the half table's 3 EiB request without allocating it;
    # a length that fits in the address space (n <~ 30) would really allocate
    with pytest.raises(SystemExit) as exc:
        run_cli("enumerate", "--n", "64", "--out", str(tmp_path / "runs"))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "cgolay enumerate: error: length 64 needs more memory than this machine has"
    )
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oracle", "--n", "0"], "normalized oracle supports lengths 1..8, got 0"),
        (["oracle", "--n", "9"], "normalized oracle supports lengths 1..8, got 9"),
        (["verify", "--pairs", "{missing}"], "cannot read {missing}: No such file or directory"),
        (["counts", "--in", "{missing}"], "cannot read {missing}: No such file or directory"),
        (
            ["postprocess", "--in", "{missing}", "--out", "{census}"],
            "cannot read {missing}: No such file or directory",
        ),
        (["counts", "--in", "{junk}"], "{junk}:2: expected three tab-separated fields: 'junk'"),
        (
            ["postprocess", "--in", "{junk}", "--out", "{census}"],
            "{junk}:2: expected three tab-separated fields: 'junk'",
        ),
        (["counts", "--in", "{empty}"], "{empty}:1: length field must be at least 1: '0\\t\\t'"),
        (["counts", "--in", "{nonpair}"], "{nonpair}:2: not a Golay pair: '3\\t+++\\t+++'"),
        (
            ["postprocess", "--in", "{nonpair}", "--out", "{census}"],
            "{nonpair}:2: not a Golay pair: '3\\t+++\\t+++'",
        ),
        (
            ["enumerate", "--n", "2", "--out", "{junk}"],
            "cannot create directory {junk}: File exists",
        ),
    ],
    ids=[
        "oracle-n0", "oracle-n9", "verify-missing", "counts-missing",
        "postprocess-missing", "counts-junk", "postprocess-junk", "counts-zero-length",
        "counts-non-pair", "postprocess-non-pair",
        "enumerate-out-is-a-file",
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, message):
    names = {
        "missing": tmp_path / "missing.txt",
        "junk": tmp_path / "junk.txt",
        "census": tmp_path / "census",
        "empty": tmp_path / "empty.txt",
        "nonpair": tmp_path / "nonpair.txt",
    }
    names["junk"].write_text("3\t++-\t+i+\njunk\n")
    names["empty"].write_text("0\t\t\n")
    names["nonpair"].write_text("3\t++-\t+i+\n3\t+++\t+++\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(*(arg.format(**names) for arg in argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"cgolay {argv[0]}: error: " + message.format(**names)
    assert "Traceback" not in captured.err
    assert not names["census"].exists()


@pytest.mark.parametrize(
    "n, name, text, message",
    [
        (3, "pairs_n3.txt", "garbage\n", "expected three tab-separated fields: 'garbage'"),
        (4, "L_A_n4.txt", "++-+\n++x+\n", "bad sequence character 'x' in '++x+'"),
        (3, "L_A_n3.txt", "++-\n++-+\n", "length 4, expected 3: '++-+'"),
        (3, "L_A_n3.txt", "+0-\n", "masked slots are not those of a first member: '+0-'"),
        (4, "L_A_n4.txt", "+++-\n+++-\n", "not sorted after the line before, or repeated: '+++-'"),
        (4, "L_A_n4.txt", "++-+\n+++-\n", "not sorted after the line before, or repeated: '+++-'"),
        (
            4, "L_A_n4.txt", "+++-\n++ij\n++-+\n+j+-\n",
            "odd half not in this run's L_odd: '+j+-'",
        ),
        (3, "pairs_n3.txt", "4\t+++-\t++-+\n", "length 4, expected 3: '4\\t+++-\\t++-+'"),
        (
            3, "pairs_n3.txt", "03\t++-\t+i+\n",
            "length field '03' is not written as '3': '03\\t++-\\t+i+'",
        ),
        (
            3, "pairs_n3.txt", "3\t++-\t+j+\n3\t++-\t+i+\n",
            "not sorted after the line before, or repeated: '3\\t++-\\t+i+'",
        ),
        (
            3, "pairs_n3.txt", "3\t++-\t+i+\n3\t++-\t+i+\n",
            "not sorted after the line before, or repeated: '3\\t++-\\t+i+'",
        ),
        (3, "pairs_n3.txt", "3\t+i+\t++-\n", "first member not in this run's L_A: '3\\t+i+\\t++-'"),
        (3, "pairs_n3.txt", "3\t++-\t+++\n", "not a Golay pair: '3\\t++-\\t+++'"),
    ],
    ids=["pairs-garbage", "first-members-bad-character", "first-members-too-long",
         "first-members-masked", "first-members-repeated", "first-members-unsorted",
         "first-members-half-not-listed",
         "pairs-other-length", "pairs-length-field-not-canonical", "pairs-unsorted",
         "pairs-repeated",
         "pairs-first-member-not-in-L_A", "pairs-non-pair"],
)
def test_malformed_artifact_is_a_usage_error(tmp_path, capsys, n, name, text, message):
    out = tmp_path / "runs"
    out.mkdir()
    bad = out / name
    bad.write_text(text)
    line = text.count("\n")
    with pytest.raises(SystemExit) as exc:
        run_cli("enumerate", "--n", str(n), "--out", str(out))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"cgolay enumerate: error: {bad}:{line}: {message}"
    assert "Traceback" not in captured.err
    assert not (out / f"report_n{n}.txt").exists()


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["counts", "--in", "{bad}"], "{bad}: "),
        (["postprocess", "--in", "{bad}", "--out", "{census}"], "{bad}: "),
        (["verify", "--pairs", "{bad}"], "cannot read {bad}: "),
        (["enumerate", "--n", "3", "--out", "{runs}"], "{bad}: "),
    ],
    ids=["counts", "postprocess", "verify", "enumerate-reload"],
)
def test_undecodable_pair_file_is_a_usage_error(tmp_path, capsys, argv, prefix):
    runs = tmp_path / "runs"
    runs.mkdir()
    names = {"bad": runs / "pairs_n3.txt", "census": tmp_path / "census", "runs": runs}
    names["bad"].write_bytes(b"3\t++-\t+i+\n\xff\xfe")
    with pytest.raises(SystemExit) as exc:
        run_cli(*(arg.format(**names) for arg in argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"cgolay {argv[0]}: error: " + prefix.format(**names))
    assert "can't decode" in last
    assert "Traceback" not in captured.err
    assert not names["census"].exists()
    assert not (runs / "report_n3.txt").exists()


def test_oracle_subcommand(capsys):
    assert run_cli("oracle", "--n", "2") == 0
    assert capsys.readouterr().out == "2\t++\t+-\n"
    assert run_cli("oracle", "--n", "3") == 0
    assert capsys.readouterr().out == "3\t++-\t+i+\n3\t++-\t+j+\n"


def test_verify_accepts_enumerated_pairs(tmp_path, capsys):
    out = tmp_path / "runs"
    run_cli("enumerate", "--n", "4", "--out", str(out))
    assert run_cli("verify", "--pairs", str(out / "pairs_n4.txt")) == 0
    assert "verified 6/6 pairs" in capsys.readouterr().out


def test_verify_rejects_tampering(tmp_path, capsys):
    good = "3\t++-\t+i+\n"
    bad = good + "3\t+++\t+i+\n" + "3\tmalformed\n"
    path = tmp_path / "pairs.txt"
    path.write_text(bad)
    assert run_cli("verify", "--pairs", str(path)) == 1
    printed = capsys.readouterr().out
    assert "correlation condition fails" in printed
    assert "unreadable" in printed
    assert "verified 1/3 pairs" in printed


def test_counts_subcommand(tmp_path, capsys):
    out = tmp_path / "runs"
    run_cli("enumerate", "--n", "4", "--out", str(out))
    capsys.readouterr()
    assert run_cli("counts", "--in", str(out / "pairs_n4.txt")) == 0
    assert capsys.readouterr().out == "n,seqs,all,inequiv\n4,64,512,2\n"


def test_postprocess_writes_census(tmp_path, capsys):
    runs = tmp_path / "runs"
    census = tmp_path / "census"
    for n in ("3", "4"):
        run_cli("enumerate", "--n", n, "--out", str(runs))
    capsys.readouterr()
    assert (
        run_cli(
            "postprocess",
            "--in", str(runs / "pairs_n3.txt"), str(runs / "pairs_n4.txt"),
            "--out", str(census),
        )
        == 0
    )
    printed = capsys.readouterr().out
    assert "crossover n=3: 1/1 classes pass" in printed
    assert "crossover n=4: 2/2 classes pass" in printed
    assert (census / "counts.csv").read_text() == (
        "n,seqs,all,inequiv\n3,16,128,1\n4,64,512,2\n"
    )
    assert len((census / "pairs_all_n3.txt").read_text().splitlines()) == 128
    assert len((census / "reps_n4.txt").read_text().splitlines()) == 2


def test_postprocess_accepts_shard_files(tmp_path, capsys):
    runs = tmp_path / "runs"
    # shard 1 waits for shard 2's first members, so it runs again after it
    for k in ("1", "2", "1"):
        run_cli(
            "enumerate", "--n", "4", "--out", str(runs),
            "--shards", "2", "--shard-index", k,
        )
    capsys.readouterr()
    shard_files = [str(runs / f"pairs_n4.shard{k}of2.txt") for k in ("1", "2")]
    assert run_cli("counts", "--in", *shard_files) == 0
    assert capsys.readouterr().out == "n,seqs,all,inequiv\n4,64,512,2\n"


def test_unknown_command_is_an_error(capsys):
    with pytest.raises(SystemExit):
        run_cli("frobnicate")

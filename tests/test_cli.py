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
    for k in ("1", "2"):
        assert (
            run_cli(
                "enumerate", "--n", "4", "--out", str(out),
                "--shards", "2", "--shard-index", k,
            )
            == 0
        )
    lines = []
    for k in ("1", "2"):
        lines.extend((out / f"pairs_n4.shard{k}of2.txt").read_text().splitlines())
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
        (
            ["enumerate", "--n", "2", "--out", "{junk}"],
            "cannot create directory {junk}: File exists",
        ),
    ],
    ids=[
        "oracle-n0", "oracle-n9", "verify-missing", "counts-missing",
        "postprocess-missing", "counts-junk", "postprocess-junk", "counts-zero-length",
        "enumerate-out-is-a-file",
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, capsys, argv, message):
    names = {
        "missing": tmp_path / "missing.txt",
        "junk": tmp_path / "junk.txt",
        "census": tmp_path / "census",
        "empty": tmp_path / "empty.txt",
    }
    names["junk"].write_text("3\t++-\t+i+\njunk\n")
    names["empty"].write_text("0\t\t\n")
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
    ],
    ids=["pairs-garbage", "first-members-bad-character"],
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
    for k in ("1", "2"):
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

"""Command-line front end.

Subcommands:

* enumerate    -- run the pipeline for one length (optionally one shard),
                  print its report and the CPU seconds the run took
* postprocess  -- closure census over pair files: counts, classes, closure
* verify       -- recheck every pair in a file with exact arithmetic
* oracle       -- print the brute-force normalized pairs for a small length
* counts       -- print the census CSV for pair files without writing files
"""

from __future__ import annotations

import argparse
import resource
import sys
from pathlib import Path

import numpy as np

from . import core, oracle, pipeline, postprocess


def _add_enumerate(sub):
    p = sub.add_parser("enumerate", help="enumerate normalized pairs of one length")
    p.add_argument("--n", type=int, required=True, help="sequence length")
    p.add_argument("--out", type=Path, default=Path("runs"), help="artifact directory")
    p.add_argument("--shards", type=int, default=1, help="total shard count")
    p.add_argument("--shard-index", type=int, default=1, help="1-based shard to run")
    p.add_argument("--workers", type=int, default=1, help="worker processes for stage 1")


def _add_inputs(p):
    p.add_argument(
        "--in",
        dest="inputs",
        type=Path,
        nargs="+",
        required=True,
        metavar="PAIRS",
        help="pair files produced by enumerate (shards may be mixed in)",
    )


def _read_text(args, path):
    try:
        return path.read_bytes().decode()  # no newline translation
    except OSError as exc:
        args.parser.error(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        args.parser.error(f"cannot read {path}: {exc}")


def _make_out_dir(args):
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        args.parser.error(f"cannot create directory {args.out}: {exc.strerror}")


def _read_by_length(args):
    by_length = {}
    for path in args.inputs:
        try:
            pairs = pipeline.read_pairs(path)
        except OSError as exc:
            args.parser.error(f"cannot read {path}: {exc.strerror}")
        except pipeline.ArtifactError as exc:
            args.parser.error(str(exc))
        for a, b in pairs:
            by_length.setdefault(len(a), set()).add((a, b))
    return by_length


def _census_csv(rows):
    return "n,seqs,all,inequiv\n" + "".join(
        ",".join(str(v) for v in row) + "\n" for row in rows
    )


def _cpu_seconds():
    """CPU time of this process and of its reaped children, forked workers included."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cmd_enumerate(args):
    try:
        cfg = pipeline.RunConfig(
            n=args.n,
            out_dir=args.out,
            shards=args.shards,
            shard_index=args.shard_index,
            workers=args.workers,
        )
    except ValueError as exc:
        args.parser.error(str(exc))
    _make_out_dir(args)
    t0 = _cpu_seconds()
    try:
        pipeline.enumerate_pairs(cfg)
    except pipeline.ShardWaiting as exc:
        print(f"shard {cfg.shard_index} of {cfg.shards}: {exc}; rerun this shard once they exist")
        return 0
    except pipeline.ArtifactError as exc:
        args.parser.error(str(exc))
    except MemoryError:
        args.parser.error(f"length {args.n} needs more memory than this machine has")
    cpu = _cpu_seconds() - t0
    sys.stdout.write(cfg.path_report().read_text())
    print(f"cpu_seconds={cpu:.3f}")
    return 0


def _cmd_postprocess(args):
    by_length = _read_by_length(args)
    _make_out_dir(args)
    rows = []
    for n in sorted(by_length):
        omegas = postprocess.build_omegas(n, by_length[n])
        rows.append((n,) + omegas.counts)
        pipeline.write_pairs(args.out / f"pairs_all_n{n}.txt", n, omegas.closure)
        reps = np.array(omegas.representatives, dtype=np.int8)
        pipeline.write_pairs(args.out / f"reps_n{n}.txt", n, reps)
        failing = [p for p in omegas.representatives if not postprocess.crossover_check(p)]
        passing = len(omegas.representatives) - len(failing)
        print(f"crossover n={n}: {passing}/{len(omegas.representatives)} classes pass")
        for pair in failing:
            print(f"  violates: {pipeline.pair_line(n, pair)}")
    csv_text = _census_csv(rows)
    (args.out / "counts.csv").write_text(csv_text)
    sys.stdout.write(csv_text)
    return 0


def _cmd_verify(args):
    texts = [(path, _read_text(args, path)) for path in args.inputs]
    bad = total = 0
    for path, text in texts:
        *lines, last = text.split("\n")  # only "\n" ends a line, as write_pairs ends them
        for lineno, line in enumerate(lines + [last] if last else lines, start=1):
            try:
                if lineno > len(lines):
                    raise ValueError(f"no newline at the end of the line: {line!r}")
                pair = pipeline.parse_pair_line(line)
            except ValueError as exc:
                print(f"{path}:{lineno}: unreadable: {exc}")
                bad += 1
                continue
            if not core.is_golay_pair(pair):
                print(f"{path}:{lineno}: correlation condition fails: {line}")
                bad += 1
        total += len(lines) + bool(last)
    print(f"verified {total - bad}/{total} pairs")
    return 1 if bad else 0


def _cmd_oracle(args):
    try:
        pairs = oracle.normalized_pairs(args.n)
    except ValueError as exc:
        args.parser.error(str(exc))
    for a, b in sorted(pairs):
        print(pipeline.pair_line(args.n, (a, b)))
    return 0


def _cmd_counts(args):
    by_length = _read_by_length(args)
    rows = postprocess.census_rows(by_length)
    sys.stdout.write(_census_csv(rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="cgolay",
        description="enumerate and classify quaternary complementary pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_enumerate(sub)

    p = sub.add_parser("postprocess", help="closure census over pair files")
    _add_inputs(p)
    p.add_argument("--out", type=Path, required=True, help="census output directory")

    p = sub.add_parser("verify", help="recheck pair files exactly")
    p.add_argument(
        "--pairs", dest="inputs", type=Path, nargs="+", required=True, metavar="PAIRS"
    )

    p = sub.add_parser("oracle", help="brute-force normalized pairs (small lengths)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("counts", help="census CSV for pair files")
    _add_inputs(p)

    # handlers report bad input through their own subparser's error()
    for p in sub.choices.values():
        p.set_defaults(parser=p)

    args = parser.parse_args(argv)
    handler = {
        "enumerate": _cmd_enumerate,
        "postprocess": _cmd_postprocess,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "counts": _cmd_counts,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points.

``bench`` runs the experiments::

    bench throughput --sizes 15,255,4095,65535,1048575 --precision single \\
        --algos classic,bitset1,bitset2,bitset3,offset,eytzinger,direct,direct-gap2,direct-cache \\
        --lanes 1,4,8 --queries 1048576 --seed 42 --reps 5 --format csv
    bench setup-stats --sizes 15,255,4095,65535 --samples 1000 \\
        --precision single --seed 42 --format md

``index`` persists direct indices::

    index save --path table.idx --partition knots.csv --gap 1
    index load --path table.idx [--partition knots.csv]

Partition files hold one value per line (blank lines and ``#`` comments
ignored) and are validated on ingestion.  ``index load --partition``
proves the index exact for the partition with ``direct.verify_index``: a
partition that is not the index's is a usage error, and an index that
fails the proof a bad index file.

Exit codes: 0 success, 1 usage error, 2 infeasible-only sweep, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ..batch import ALGORITHMS
from ..direct import build, verify_index
from ..errors import IndexFileError, PartitionError
from ..partition import PRECISIONS, validate_partition
from . import persist
from .harness import run_setup_stats, run_throughput
from .report import emit_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _csv_names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def read_partition_file(path: str, precision: str):
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise PartitionError(f"{path}:{lineno}: not a number: {text!r}")
    return validate_partition(np.array(values, dtype=np.float64), precision)


def _build_bench_parser() -> _Parser:
    parser = _Parser(prog="bench", description="Sorted-array search benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", choices=PRECISIONS, default="single")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--format", choices=("csv", "md"), default="csv")
    common.add_argument("--gap-lo", type=float, default=1.0)
    common.add_argument("--gap-hi", type=float, default=5.0)

    tp = sub.add_parser("throughput", parents=[common], help="time search kernels")
    tp.add_argument("--sizes", type=_csv_ints, default=[15, 255, 4095, 65535, 1048575])
    tp.add_argument("--algos", type=_csv_names, default=list(ALGORITHMS))
    tp.add_argument("--lanes", type=_csv_ints, default=[1, 4, 8])
    tp.add_argument("--queries", type=int, default=1 << 20)
    tp.add_argument("--reps", type=int, default=5)
    tp.add_argument("--threads", type=int, default=1,
                    help="batch worker threads, capped at the CPU count (default: 1)")
    tp.add_argument("--min-time", type=float, default=0.1,
                    help="minimum seconds of work per measurement")

    st = sub.add_parser("setup-stats", parents=[common],
                        help="direct-index construction statistics")
    st.add_argument("--sizes", type=_csv_ints, default=[15, 255, 4095, 65535])
    st.add_argument("--samples", type=int, default=1000)
    return parser


def bench_main(argv=None) -> int:
    args = _build_bench_parser().parse_args(argv)
    try:
        if args.command == "throughput":
            report = run_throughput(
                sizes=args.sizes,
                precisions=[args.precision],
                algorithms=args.algos,
                d_widths=args.lanes,
                queries=args.queries,
                seed=args.seed,
                repetitions=args.reps,
                gap_lo=args.gap_lo,
                gap_hi=args.gap_hi,
                threads=args.threads,
                min_time=args.min_time,
            )
            for skip in report.skipped:
                print(
                    f"skipped {skip.algorithm} size={skip.size} "
                    f"({skip.precision}): {skip.cause}",
                    file=sys.stderr,
                )
            sys.stdout.write(emit_report(report.rows, args.format, kind="throughput"))
            if not report.rows and report.skipped:
                return EXIT_INFEASIBLE
            return EXIT_OK
        report = run_setup_stats(
            sizes=args.sizes,
            samples=args.samples,
            precision=args.precision,
            seed=args.seed,
            gap_lo=args.gap_lo,
            gap_hi=args.gap_hi,
        )
        for size, count in report.infeasible.items():
            print(f"size {size}: {count} infeasible samples", file=sys.stderr)
        sys.stdout.write(emit_report(report.rows, args.format, kind="setup"))
        return EXIT_OK
    except ValueError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"bench: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def _build_index_parser() -> _Parser:
    parser = _Parser(prog="index", description="Persist and inspect direct indices.")
    sub = parser.add_subparsers(dest="command", required=True)

    sv = sub.add_parser("save", help="build an index from a partition file and save it")
    sv.add_argument("--path", required=True)
    sv.add_argument("--partition", required=True, help="file with one knot per line")
    sv.add_argument("--precision", choices=PRECISIONS, default="double")
    sv.add_argument("--gap", type=int, default=1)

    ld = sub.add_parser("load", help="load an index, print a summary, optionally verify")
    ld.add_argument("--path", required=True)
    ld.add_argument("--partition", default=None,
                    help="partition file to verify against: the index's H must "
                         "separate its knots and its K be the table built from H")
    return parser


def _summarize(idx) -> str:
    return (
        f"precision={idx.precision} gap={idx.q} "
        f"n={idx.n} r={idx.r} h={float(idx.h)!r} x0={float(idx.x0)!r} "
        f"table_bytes={idx.k.nbytes}"
    )


def index_main(argv=None) -> int:
    args = _build_index_parser().parse_args(argv)
    try:
        if args.command == "save":
            p = read_partition_file(args.partition, args.precision)
            idx, stats = build(p, q=args.gap)
            written = persist.save_index(idx, args.path)
            print(f"wrote {written} bytes to {args.path}")
            print(_summarize(idx))
            print(f"h_updates={stats.increments}")
            return EXIT_OK

        idx = persist.load_index(args.path)
        print(_summarize(idx))
        if args.partition:
            verify_index(idx, read_partition_file(args.partition, idx.precision))
            print("verified: h separates the knots and K is the table built from h")
        return EXIT_OK
    except PartitionError as exc:
        print(f"index: invalid partition: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"index: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IndexFileError as exc:
        print(f"index: bad index file: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"index: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(bench_main())

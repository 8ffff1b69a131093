import dataclasses
import json
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fastsearch import batch
from fastsearch.bench.cli import bench_main, index_main, read_partition_file
from fastsearch.bench.harness import (
    SetupStatsRow,
    ThroughputRow,
    run_setup_stats,
    run_throughput,
)
from fastsearch.bench.persist import load_index, save_index
from fastsearch.bench.report import emit_report
from fastsearch.direct import build, direct_search
from fastsearch.errors import (
    BadMagic,
    ChecksumMismatch,
    IndexFileError,
    TruncatedFile,
    VersionMismatch,
)
from fastsearch.partition import gen_uniform_gap_partition

from helpers import random_queries
from reference import separates_seq


def tiny_throughput(**overrides):
    kwargs = dict(
        sizes=[15],
        precisions=["double"],
        algorithms=["classic", "direct"],
        d_widths=[1, 4],
        queries=500,
        seed=42,
        repetitions=2,
        min_time=0.001,
    )
    kwargs.update(overrides)
    return run_throughput(**kwargs)


class TestReport:
    def rows(self):
        return [
            ThroughputRow("direct", "single", 4, 255, 120.5, 1000, 5),
            ThroughputRow("classic", "single", 1, 15, 48.25, 1000, 5),
            ThroughputRow("classic", "single", 1, 255, 20.0, 1000, 5),
        ]

    def test_csv_header_and_order(self):
        text = emit_report(self.rows(), "csv", kind="throughput")
        lines = text.strip().split("\n")
        assert lines[0] == (
            "algorithm,precision,lane_width,size,throughput_msps,queries,repetitions"
        )
        assert lines[1].startswith("classic,single,1,15")
        assert lines[2].startswith("classic,single,1,255")
        assert lines[3].startswith("direct,single,4,255,120.50")

    def test_markdown_escapes_pipes(self):
        row = ThroughputRow("weird|name", "single", 1, 15, 1.0, 10, 1)
        text = emit_report([row], "md", kind="throughput")
        assert r"weird\|name" in text
        assert text.startswith("| algorithm |")

    def test_empty_rows_emit_header_only(self):
        assert emit_report([], "csv", kind="throughput").strip().count("\n") == 0
        md = emit_report([], "md", kind="setup")
        assert md.strip().split("\n")[0].startswith("| size |")

    def test_setup_rows(self):
        """h_updates_* cells carry 4 digits, setup_ns_per_elem_* cells 2, in
        both formats."""
        row = SetupStatsRow(255, 100, 0.01, 0.0, 1.0, 0.0995, 150.0, 120.0, 900.0, 40.0)
        cells = ["255", "100", "0.0100", "0.0000", "1.0000", "0.0995",
                 "150.00", "120.00", "900.00", "40.00"]
        text = emit_report([row], "csv", kind="setup")
        assert text.split("\n")[1] == ",".join(cells)
        text = emit_report([row], "md", kind="setup")
        assert text.split("\n")[2] == "| " + " | ".join(cells) + " |"

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report([], "html", kind="throughput")
        with pytest.raises(ValueError, match="unknown report kind"):
            emit_report(self.rows(), "csv", kind="latency")
        with pytest.raises(TypeError):  # the kind is never guessed from the rows
            emit_report(self.rows(), "csv")

    def test_readme_columns_are_row_fields(self):
        """README's "Report columns" lines name the row types' fields, in
        order, once ``name_{a,b}`` is expanded to ``name_a,name_b``."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Report columns", 1)[1].split("\n#", 1)[0]
        listed = dict(re.findall(r"^\* ([\w-]+): `([^`]+)`", section, re.M))
        expand = lambda m: ",".join(m[1] + s for s in m[2].split(","))
        columns = {
            kind: re.sub(r"(\w+)\{([\w,]+)\}", expand, text).split(",")
            for kind, text in listed.items()
        }
        assert columns == {
            "throughput": [f.name for f in fields(ThroughputRow)],
            "setup-stats": [f.name for f in fields(SetupStatsRow)],
        }


class TestPersistence:
    def make_index(self, precision="double", q=1, size=100):
        p = gen_uniform_gap_partition(size, 1, 5, seed=31, precision=precision)
        idx, _ = build(p, q=q)
        return p, idx

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_round_trip_bit_exact(self, tmp_path, precision):
        p, idx = self.make_index(precision)
        path = tmp_path / "table.idx"
        written = save_index(idx, path)
        assert written == path.stat().st_size
        back = load_index(path)
        assert back.precision == idx.precision
        assert back.h == idx.h and back.h.dtype == idx.h.dtype
        assert back.x0 == idx.x0
        assert (back.r, back.n, back.q) == (idx.r, idx.n, idx.q)
        assert np.array_equal(back.k, idx.k)

    def test_worked_index_round_trip(self, tmp_path):
        """The four-knot reference index survives a round trip exactly."""
        from fastsearch.partition import validate_partition

        p = validate_partition([0.0, 0.5, 0.7, 1.1])
        idx, _ = build(p)
        path = tmp_path / "worked.idx"
        save_index(idx, path)
        back = load_index(path)
        assert back.k.tolist() == [0, 1, 1, 2, 3, 3]
        assert back.h == idx.h
        assert back.r == 5

    def test_round_trip_search_identical(self, tmp_path):
        p, idx = self.make_index()
        path = tmp_path / "t.idx"
        save_index(idx, path)
        back = load_index(path)
        z = random_queries(p, 2000, seed=4)
        a = [direct_search(idx, p, v) for v in z.tolist()]
        b = [direct_search(back, p, v) for v in z.tolist()]
        assert a == b

    def test_gap2_round_trip(self, tmp_path):
        p, idx = self.make_index(q=2)
        path = tmp_path / "g2.idx"
        save_index(idx, path)
        back = load_index(path)
        assert back.q == 2 and back.fused is None
        assert np.array_equal(back.k, idx.k)
        z = random_queries(p, 500, seed=5)
        assert [direct_search(back, p, v) for v in z.tolist()] == [
            direct_search(idx, p, v) for v in z.tolist()
        ]

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_fused_index_refused(self, tmp_path, precision):
        """A fused index keeps K only in its records; saving it raises
        ValueError naming build(p) before any file exists, and its plain
        twin writes the file, whose K is the records' idx field."""
        p = gen_uniform_gap_partition(3000, 1, 5, seed=33, precision=precision)
        plain, _ = build(p)
        fused, _ = build(p, fused=True)
        a, b = tmp_path / "plain.idx", tmp_path / "fused.idx"
        with pytest.raises(ValueError, match=r"build\(p\)"):
            save_index(fused, b)
        assert not b.exists()
        assert save_index(plain, a) == a.stat().st_size
        assert np.array_equal(load_index(a).k, fused.fused["idx"])

    def test_round_trip_copies_no_payload(self, tmp_path):
        """save_index writes K from its own buffer and load_index reads the
        payload straight into the returned K, so neither makes a file-sized
        copy (which made each large buffer fault in fresh pages)."""
        p, idx = self.make_index(size=1 << 14)
        path = tmp_path / "big.idx"
        tracemalloc.start()
        try:
            save_index(idx, path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_index(path)
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saved < idx.k.nbytes // 4, (saved, idx.k.nbytes)
        assert loaded < idx.k.nbytes * 5 // 4, (loaded, idx.k.nbytes)
        assert np.array_equal(back.k, idx.k)

    @pytest.mark.parametrize("q", [256, 1000])
    def test_gap_past_header_byte_rejected(self, tmp_path, q):
        """The header stores the gap as a u8: a wider gap raises ValueError
        naming it, and no file is written."""
        _, idx = self.make_index(q=q)
        path = tmp_path / "table.idx"
        with pytest.raises(ValueError, match=f"gap {q} "):
            save_index(idx, path)
        assert not path.exists()

    def test_corrupt_payload_byte(self, tmp_path):
        p, idx = self.make_index()
        path = tmp_path / "c.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        raw[60] ^= 0xFF  # inside the K payload
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatch):
            load_index(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.idx"
        path.write_bytes(b"NOTANIDX" + b"\0" * 64)
        with pytest.raises(BadMagic):
            load_index(path)

    def test_truncated(self, tmp_path):
        p, idx = self.make_index()
        path = tmp_path / "t.idx"
        save_index(idx, path)
        raw = path.read_bytes()
        for cut in (4, 20, len(raw) - 3):
            path.write_bytes(raw[:cut])
            with pytest.raises(TruncatedFile):
                load_index(path)

    @pytest.mark.parametrize("precision", ["single", "double"])
    def test_header_qbits_byte(self, tmp_path, precision):
        """Byte 11 is written as 32.  A file declaring 64, as older writers
        could, loads bit-identically, since the CRC covers only K; any
        other width is refused."""
        p, idx = self.make_index(precision)
        path = tmp_path / "q.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        assert raw[11] == 32
        raw[11] = 64
        path.write_bytes(bytes(raw))
        back = load_index(path)
        assert back.h.tobytes() == idx.h.tobytes() and back.h.dtype == idx.h.dtype
        assert back.x0.tobytes() == idx.x0.tobytes()
        assert (back.r, back.n, back.q, back.precision) == (idx.r, idx.n, idx.q, idx.precision)
        assert back.k.tobytes() == idx.k.tobytes()
        z = random_queries(p, 500, seed=6).tolist()
        assert [direct_search(back, p, v) for v in z] == [direct_search(idx, p, v) for v in z]
        raw[11] = 16
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_index(path)

    def test_k_entry_past_n_rejected(self, tmp_path):
        """The CRC covers K but not its meaning: a K entry past N under a
        recomputed CRC fails on load, naming the entry and N, instead of
        sending direct_search to a knot the partition does not have."""
        p, idx = self.make_index(size=256)
        path = tmp_path / "k.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        k = np.frombuffer(raw, dtype="<u4", offset=48, count=idx.r + 1).copy()
        k[len(k) // 2] = 10**6
        raw[48:-4] = k.tobytes()
        raw[-4:] = struct.pack("<I", zlib.crc32(k.tobytes()))
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFileError, match="1000000, past N = 255"):
            load_index(path)

    @pytest.mark.parametrize(
        "precision,field,value",
        [(prec, "H", v) for prec in ("single", "double")
         for v in ("negated", 0.0, float("nan"), float("inf"))]
        + [("single", "H", 1e300), ("single", "H", "inexact")]
        + [(prec, "X0", v) for prec in ("single", "double")
           for v in (float("nan"), float("-inf"))]
        + [("single", "X0", "inexact")],
    )
    def test_bad_header_scalars_rejected(self, tmp_path, precision, field, value):
        """The CRC covers only K, so load_index checks the header's H (finite,
        positive) and X0 (finite), each exact in the file's precision,
        before it allocates the payload.  A negated H used to load, and
        its negative buckets wrapped around K."""
        p, idx = self.make_index(precision, size=1 << 14)
        path = tmp_path / "h.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        at = 32 if field == "H" else 40
        if value == "negated":
            value = -float(idx.h)
        elif value == "inexact":  # between two float32 values
            value = float(np.nextafter(struct.unpack_from("<d", raw, at)[0], np.inf))
        struct.pack_into("<d", raw, at, value)
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(IndexFileError, match=f": {field} = "):
                load_index(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < idx.k.nbytes // 4, (peak, idx.k.nbytes)

    def test_version_mismatch(self, tmp_path):
        p, idx = self.make_index()
        path = tmp_path / "v.idx"
        save_index(idx, path)
        raw = bytearray(path.read_bytes())
        raw[8] = 99  # version field
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            load_index(path)


class TestHarness:
    def test_throughput_rows_well_formed(self):
        rep = tiny_throughput()
        combos = {(r.algorithm, r.lane_width) for r in rep.rows}
        assert combos == {("classic", 1), ("classic", 4), ("direct", 1), ("direct", 4)}
        for r in rep.rows:
            assert r.throughput_msps > 0
            assert r.queries == 500 and r.repetitions == 2 and r.size == 15
        assert rep.skipped == []

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            tiny_throughput(repetitions=0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            tiny_throughput(algorithms=["quantum"])

    def test_oracle_gate_names_first_mismatch(self, monkeypatch):
        """A kernel whose lanes answer one too high fails the gate, which
        names the count, the first wrong query, its z and both answers."""
        build_direct = batch._BUILDERS["direct"]

        def off_by_one(p):
            structure, scalar, lanes = build_direct(p)

            def wrong_lanes(z, out=None):
                out = lanes(z, out)
                out += 1
                return out

            return structure, scalar, wrong_lanes

        monkeypatch.setitem(batch._BUILDERS, "direct", off_by_one)
        with pytest.raises(RuntimeError) as exc:
            tiny_throughput(algorithms=["direct"], d_widths=[4])
        found = re.fullmatch(
            r"direct d=4 size=15 double: 500 outputs disagree with the oracle, "
            r"first query 0 \(z=(\S+)\): got (\d+), want (\d+)",
            str(exc.value),
        )
        assert found, str(exc.value)
        z, got, want = found.groups()
        assert 0 <= float(z) and int(got) == int(want) + 1

    def test_infeasible_configs_recorded_not_fatal(self):
        # 2**18 knots with gaps up to 1e9 push span/min-gap past 2**32, so
        # the gap-1 bucket count overflows; the comparison searches still run.
        rep = tiny_throughput(
            sizes=[262144],
            algorithms=["classic", "direct", "direct-cache"],
            d_widths=[1],
            gap_hi=1e9,
            queries=200,
        )
        assert {r.algorithm for r in rep.rows} == {"classic"}
        assert {s.algorithm for s in rep.skipped} == {"direct", "direct-cache"}
        assert all("Overflow" in s.cause for s in rep.skipped)

    def test_config_columns_deterministic(self):
        a = tiny_throughput()
        b = tiny_throughput()
        key = lambda rep: [
            (r.algorithm, r.precision, r.lane_width, r.size, r.queries, r.repetitions)
            for r in rep.rows
        ]
        assert key(a) == key(b)

    def test_setup_stats_shape(self):
        rep = run_setup_stats(sizes=[15, 255], precision="single", samples=40, seed=42)
        assert rep.infeasible == {}
        assert [r.size for r in rep.rows] == [15, 255]
        for r in rep.rows:
            assert r.samples == 40
            assert r.h_updates_min <= r.h_updates_mean <= r.h_updates_max
            assert r.h_updates_stdev >= 0
            assert 0 < r.setup_ns_per_elem_min <= r.setup_ns_per_elem_mean
            assert r.setup_ns_per_elem_mean <= r.setup_ns_per_elem_max

    def test_setup_stats_validation(self):
        with pytest.raises(ValueError):
            run_setup_stats(sizes=[15], precision="single", samples=0, seed=1)


class TestBenchCli:
    def test_throughput_csv(self, capsys):
        code = bench_main(
            [
                "throughput",
                "--sizes", "257",
                "--precision", "double",
                "--lanes", "1,8",
                "--queries", "300",
                "--reps", "2",
                "--min-time", "0.001",
                "--format", "csv",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        header, *body = out.strip().split("\n")
        assert header.startswith("algorithm,precision")
        assert len(body) == 18  # nine kernels at two lane widths

    def test_setup_stats_md(self, capsys):
        code = bench_main(
            [
                "setup-stats",
                "--sizes", "15",
                "--samples", "5",
                "--precision", "double",
                "--format", "md",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("| size |")

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            bench_main(["throughput", "--format", "yaml"])
        assert exc.value.code == 1

    def test_infeasible_only_sweep_exit_code(self, capsys):
        code = bench_main(
            [
                "throughput",
                "--sizes", "262144",
                "--precision", "double",
                "--algos", "direct",
                "--lanes", "1",
                "--queries", "100",
                "--reps", "1",
                "--min-time", "0.001",
                "--gap-hi", "1e9",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "skipped direct" in captured.err
        assert captured.out.startswith("algorithm,")  # header-only report

    @pytest.mark.parametrize("option", [["--queries", "0"], ["--lanes", "0"]])
    def test_empty_request_is_usage_error(self, capsys, option):
        """No queries, or a lane width of 0, exits 1 naming the cause."""
        base = ["throughput", "--sizes", "15", "--algos", "classic",
                "--queries", "10", "--reps", "1", "--min-time", "0.001"]
        assert bench_main(base + option) == 1
        assert "bench: error:" in capsys.readouterr().err

    def test_bad_sizes_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bench_main(["throughput", "--sizes", "1,x"])
        assert exc.value.code == 1
        assert "not a comma-separated int list: '1,x'" in capsys.readouterr().err

    def test_setup_stats_infeasible_samples(self, capsys):
        """Samples whose table is past the limit are counted on stderr; the
        report is header-only and the exit code 0."""
        code = bench_main(
            [
                "setup-stats",
                "--sizes", "262144",
                "--gap-hi", "1e9",
                "--samples", "2",
                "--precision", "double",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "size 262144: 2 infeasible samples" in captured.err
        assert captured.out.strip().splitlines() == [
            ",".join(f.name for f in fields(SetupStatsRow))
        ]


VERIFIED = "verified: h separates the knots and K is the table built from h"


class TestIndexCli:
    def write_partition(self, tmp_path, values):
        path = tmp_path / "knots.csv"
        path.write_text("\n".join(str(v) for v in values) + "\n")
        return path

    def test_save_then_load_with_verification(self, tmp_path, capsys):
        knots = self.write_partition(tmp_path, [0.0, 0.5, 0.7, 1.1])
        out = tmp_path / "t.idx"
        code = index_main(["save", "--path", str(out), "--partition", str(knots)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out

        code = index_main(["load", "--path", str(out), "--partition", str(knots)])
        printed = capsys.readouterr().out
        assert code == 0
        assert VERIFIED in printed
        assert "n=3 r=5" in printed

    def test_load_bad_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "junk.idx"
        path.write_bytes(b"garbage!")
        assert index_main(["load", "--path", str(path)]) == 3

    def test_missing_file_is_io_error(self, tmp_path):
        assert index_main(["load", "--path", str(tmp_path / "absent.idx")]) == 3

    def test_partition_file_skips_blank_and_comment_lines(self, tmp_path, capsys):
        path = tmp_path / "knots.csv"
        path.write_text("# knots\n0.0\n\n  # a comment\n0.5\n   \n0.7\n1.1\n")
        p = read_partition_file(str(path), "double")
        assert p.values.tolist() == [0.0, 0.5, 0.7, 1.1]
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(path)]) == 0
        assert index_main(["load", "--path", str(out), "--partition", str(path)]) == 0
        assert VERIFIED in capsys.readouterr().out

    def test_r_past_f_xn_is_bad_index(self, tmp_path, capsys):
        """A file with one more K entry of N, R raised by 1 and the CRC
        recomputed loads, but its R is not f(X_N) for its H: exit 3."""
        knots = self.write_partition(tmp_path, [0.0, 0.5, 0.7, 1.1])
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        raw = bytearray(out.read_bytes()[:-4])
        r = struct.unpack_from("<Q", raw, 24)[0]
        struct.pack_into("<Q", raw, 24, r + 1)
        raw += struct.pack("<I", 3)  # K_{R+1} = N
        raw += struct.pack("<I", zlib.crc32(bytes(raw[48:])))
        out.write_bytes(bytes(raw))
        assert load_index(out).r == r + 1
        capsys.readouterr()
        assert index_main(["load", "--path", str(out), "--partition", str(knots)]) == 3
        assert f"bad index file: R = {r + 1} is not f(X_N) = {r}" in capsys.readouterr().err

    def test_invalid_partition_is_usage_error(self, tmp_path, capsys):
        knots = self.write_partition(tmp_path, [0.0, 1.0, 1.0, 2.0])
        out = tmp_path / "t.idx"
        code = index_main(["save", "--path", str(out), "--partition", str(knots)])
        assert code == 1
        assert "invalid partition" in capsys.readouterr().err

    def test_non_numeric_partition_line(self, tmp_path, capsys):
        path = tmp_path / "knots.csv"
        path.write_text("0.0\nbanana\n2.0\n")
        out = tmp_path / "t.idx"
        code = index_main(["save", "--path", str(out), "--partition", str(path)])
        assert code == 1
        assert "banana" in capsys.readouterr().err

    def test_mismatched_partition_rejected(self, tmp_path, capsys):
        knots = self.write_partition(tmp_path, [0.0, 0.5, 0.7, 1.1])
        other = tmp_path / "other.csv"
        other.write_text("0.0\n1.0\n2.0\n3.0\n4.0\n")
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        capsys.readouterr()
        code = index_main(["load", "--path", str(out), "--partition", str(other)])
        assert code == 1
        assert "does not match" in capsys.readouterr().err

    def test_gap2_save(self, tmp_path, capsys):
        knots = self.write_partition(tmp_path, [0.0, 1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "g2.idx"
        code = index_main(
            ["save", "--path", str(out), "--partition", str(knots), "--gap", "2"]
        )
        assert code == 0
        code = index_main(["load", "--path", str(out), "--partition", str(knots)])
        assert code == 0
        assert "gap=2" in capsys.readouterr().out

    def test_gap_past_header_byte_is_usage_error(self, tmp_path, capsys):
        knots = self.write_partition(tmp_path, [0.0, 1.0, 2.0, 3.0, 4.0])
        out = tmp_path / "g256.idx"
        code = index_main(
            ["save", "--path", str(out), "--partition", str(knots), "--gap", "256"]
        )
        assert code == 1
        assert "gap 256" in capsys.readouterr().err
        assert not out.exists()

    def test_tampered_k_entry_is_bad_index(self, tmp_path, capsys):
        """A K entry past N under a recomputed CRC is reported as a bad
        index file, not a traceback."""
        p = gen_uniform_gap_partition(256, 1, 5, seed=86)
        knots = self.write_partition(tmp_path, p.values.tolist())
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        raw = bytearray(out.read_bytes())
        k = np.frombuffer(raw, dtype="<u4", offset=48, count=(len(raw) - 52) // 4).copy()
        k[len(k) // 2] = 10**6
        raw[48:-4] = k.tobytes()
        raw[-4:] = struct.pack("<I", zlib.crc32(k.tobytes()))
        out.write_bytes(bytes(raw))
        capsys.readouterr()
        code = index_main(["load", "--path", str(out), "--partition", str(knots)])
        assert code == 3
        assert "bad index file" in capsys.readouterr().err

    def test_negated_h_is_bad_index(self, tmp_path, capsys):
        """A header whose H was negated under a valid CRC exits 3."""
        knots = self.write_partition(tmp_path, [0.0, 0.5, 0.7, 1.1])
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        raw = bytearray(out.read_bytes())
        struct.pack_into("<d", raw, 32, -struct.unpack_from("<d", raw, 32)[0])
        out.write_bytes(bytes(raw))
        capsys.readouterr()
        assert index_main(["load", "--path", str(out)]) == 3
        assert "bad index file" in capsys.readouterr().err

    def test_one_bucket_raised_is_rejected(self, tmp_path, capsys):
        """One K entry raised by 1, kept at or below N under a recomputed
        CRC, is named by its bucket: queries in that bucket would get wrong
        answers, and a query sample would rarely land there."""
        p = gen_uniform_gap_partition(2**16 + 1, 1, 5, seed=5)
        knots = self.write_partition(tmp_path, p.values.tolist())
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        raw = bytearray(out.read_bytes())
        k = np.frombuffer(raw, dtype="<u4", offset=48, count=(len(raw) - 52) // 4).copy()
        j = len(k) // 2
        assert k[j] < p.n_intervals
        k[j] += 1
        raw[48:-4] = k.tobytes()
        raw[-4:] = struct.pack("<I", zlib.crc32(k.tobytes()))
        out.write_bytes(bytes(raw))
        capsys.readouterr()
        assert index_main(["load", "--path", str(out), "--partition", str(knots)]) == 3
        err = capsys.readouterr().err
        assert f"bad index file: K[{j}] = {k[j]} is not the table built from h" in err

    def test_non_separating_h_is_rejected(self, tmp_path, capsys):
        """A file holding H / 1.5, its own consistent R and that H's table,
        K_j = #{i : f(X_i) < j}, written here from the floors because
        build_index returns no K for an H that puts two knots in one
        bucket."""
        p = gen_uniform_gap_partition(1025, 1, 5, seed=5)
        idx, _ = build(p)
        h = idx.h / 1.5
        f = np.floor(h * (p.values - p.values[0]))
        r = int(f[-1])
        assert not separates_seq(p.values, h, 1)
        k = np.searchsorted(f, np.arange(r + 1), side="left").astype(np.uint32)
        assert k[0] == 0 and k[-1] == p.n_intervals
        out = tmp_path / "t.idx"
        save_index(dataclasses.replace(idx, h=h, r=r, k=k), out)
        knots = self.write_partition(tmp_path, p.values.tolist())
        assert index_main(["load", "--path", str(out), "--partition", str(knots)]) == 3
        err = capsys.readouterr().err
        assert "bad index file: h does not separate the knots at gap 1" in err

    @pytest.mark.parametrize("precision", ["single", "double"])
    @pytest.mark.parametrize("gap", [1, 2, 3])
    def test_saved_files_verify(self, tmp_path, capsys, gap, precision):
        """Every file ``index save`` writes verifies against its partition,
        and so does the same file with H one ulp up or down: that H still
        separates the knots and builds the same K."""
        p = gen_uniform_gap_partition(1000, 1, 5, seed=gap, precision=precision)
        knots = self.write_partition(tmp_path, p.values.tolist())
        out = tmp_path / "t.idx"
        save = ["save", "--path", str(out), "--partition", str(knots)]
        assert index_main(save + ["--gap", str(gap), "--precision", precision]) == 0
        idx = load_index(out)
        for h in (idx.h, np.nextafter(idx.h, idx.h.dtype.type(np.inf)),
                  np.nextafter(idx.h, idx.h.dtype.type(-np.inf))):
            save_index(dataclasses.replace(idx, h=h), out)
            capsys.readouterr()
            assert index_main(["load", "--path", str(out), "--partition", str(knots)]) == 0
            assert VERIFIED in capsys.readouterr().out

    def test_no_sampling_options(self, tmp_path, capsys):
        """``index load`` takes no sampling options."""
        knots = self.write_partition(tmp_path, [0.0, 0.5, 0.7, 1.1])
        out = tmp_path / "t.idx"
        assert index_main(["save", "--path", str(out), "--partition", str(knots)]) == 0
        for option in (["--verify-queries", "500"], ["--seed", "1"]):
            load = ["load", "--path", str(out), "--partition", str(knots)]
            with pytest.raises(SystemExit) as exc:
                index_main(load + option)
            assert exc.value.code == 1


def test_perfbench_rebuild_smoke():
    """One short traced run of the rebuild workload calls every library
    entry the benchmark uses, and its answers pass the benchmark's gate."""
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rebuild",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last

"""Spans, memory readings, statistics and the recorded environment."""

from __future__ import annotations

import os
import platform
import statistics
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Spans:
    """Spans kept in memory around calls into the program.

    Each record is (name, cycle, parent, start_ns, end_ns, items): the
    workload cycle it belongs to, the enclosing span's id (or None) and
    how many queries or bytes it handled.  While ``enabled`` is false a
    span records nothing.
    """

    def __init__(self):
        self.enabled = False
        self.records: list = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str, cycle: int, items: int = 0):
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        sid = len(self.records)
        self.records.append(None)
        self._open.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._open.pop()
            self.records[sid] = (name, cycle, parent, start, end, items)

    def seconds(self, name: str) -> list[float]:
        return [(r[4] - r[3]) / 1e9 for r in self.records if r[0] == name]

    def self_seconds(self, name: str) -> list[float]:
        """Duration of each ``name`` span minus the time its children cover."""
        child = defaultdict(int)
        for r in self.records:
            if r[2] is not None:
                child[r[2]] += r[4] - r[3]
        return [
            (r[4] - r[3] - child[sid]) / 1e9
            for sid, r in enumerate(self.records)
            if r[0] == name
        ]

    def as_json(self) -> list[dict]:
        keys = ("name", "cycle", "parent", "start_ns", "end_ns", "items")
        return [dict(zip(keys, r)) for r in self.records]


#: Call latencies are summarised per round of consecutive calls, at most
#: this many rounds of at least ROUND_CALLS calls each, and the median over
#: rounds is reported, so that a stall confined to one round moves no figure.
MAX_ROUNDS, ROUND_CALLS = 10, 100


def median(values) -> float:
    return float(statistics.median(values))


def call_stats(latencies: list[float], queries_per_call: int) -> tuple[float, float, float]:
    """(queries per second in millions, p50 s, p90 s), each a median over rounds."""
    rounds = max(1, min(MAX_ROUNDS, len(latencies) // ROUND_CALLS))
    size = len(latencies) // rounds
    msps, p50, p90 = [], [], []
    for r in range(rounds):
        lat = latencies[r * size : (r + 1) * size]
        msps.append(queries_per_call * len(lat) / sum(lat) / 1e6)
        p50.append(statistics.median(lat))
        p90.append(statistics.quantiles(lat, n=10)[8])
    return median(msps), median(p50), median(p90)


def memory_bytes() -> tuple[int, int]:
    """(current, peak) resident set of this process, from /proc/self/status."""
    fields = {}
    with open("/proc/self/status") as f:
        for line in f:
            key, _, rest = line.partition(":")
            if key in ("VmRSS", "VmHWM"):
                fields[key] = int(rest.split()[0]) * 1024
    return fields["VmRSS"], fields["VmHWM"]


def array_bytes(objects) -> int:
    """Summed nbytes of the distinct numpy arrays held by ``objects``' fields."""
    seen = {}
    for obj in objects:
        for attr in ("values", "k", "left_pad", "fused", "tree"):
            arr = getattr(obj, attr, None)
            if isinstance(arr, np.ndarray):
                seen[id(arr)] = arr.nbytes
    return sum(seen.values())


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_caches() -> dict[str, str]:
    """Cache sizes of CPU 0 as sysfs reports them, e.g. {"L2": "2048K"}."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = (index / "type").read_text().strip()
        if kind in ("Data", "Unified"):
            level = (index / "level").read_text().strip()
            caches[f"L{level}"] = (index / "size").read_text().strip()
    return caches


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "caches": cpu_caches(),
        "machine": platform.machine(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "commit": git_commit(root),
        "seed": seed,
    }

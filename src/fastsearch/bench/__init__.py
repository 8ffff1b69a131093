"""Benchmark harness: throughput and setup-cost experiments (``harness``),
index persistence (``persist``), delimited report emission (``report``),
and the two CLI entry points ``bench`` and ``index`` (``cli``)."""

"""Benchmark harnesses measuring the simulator itself (DESIGN.md §9).

Unlike :mod:`repro.experiments` (which measures *simulated* makespans),
this package measures *host wall-clock* performance of the reproduction's
hot paths — scheduler decisions per second and end-to-end simulation
throughput — and emits the machine-readable ``BENCH_hotpath.json`` the
perf trajectory is tracked with.
"""

from .history import (
    CompareReport,
    MetricRow,
    append_history,
    compare_bench_files,
    derive_metrics,
    load_bench_file,
    load_history,
)
from .hotpath import (
    BENCH_SCHEMA_KEYS,
    bench_decision_rate,
    bench_end_to_end,
    build_bench_program,
    check_cache_equivalence,
    headline_speedup,
    run_hotpath_bench,
    validate_entries,
    write_entries,
)

__all__ = [
    "BENCH_SCHEMA_KEYS",
    "CompareReport",
    "MetricRow",
    "append_history",
    "bench_decision_rate",
    "bench_end_to_end",
    "build_bench_program",
    "check_cache_equivalence",
    "compare_bench_files",
    "derive_metrics",
    "headline_speedup",
    "load_bench_file",
    "load_history",
    "run_hotpath_bench",
    "validate_entries",
    "write_entries",
]

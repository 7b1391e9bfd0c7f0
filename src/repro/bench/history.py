"""Perf-regression observatory: bench history and noise-aware comparison.

Two pieces (DESIGN.md §13):

* **History** — every real bench run appends one JSONL record to
  ``BENCH_history.jsonl`` (append-only; one line per run, never
  rewritten), so the perf trajectory of the reproduction is a queryable
  artifact rather than a pile of overwritten JSON files.

* **Comparison** — :func:`compare_bench_files` diffs two schema-validated
  bench files (hotpath or service, auto-detected) with noise-aware
  thresholds and returns a :class:`CompareReport`; the CLI maps a failed
  report to :class:`~repro.errors.BenchmarkError` (exit code 6) so CI can
  gate on it.

Wall-clock benchmarks are noisy and machine-dependent, so the *default*
comparison mode is **ratio mode**: instead of comparing raw
``decisions_per_s`` / ``jobs_per_s`` across files (meaningless between a
laptop and a CI runner), it derives machine-portable ratios —
cached-vs-uncached decision speedup, end-to-end caching speedup, service
warm-vs-cold speedup, cache hit rates, lost-result counts — and compares
*those*.  ``absolute=True`` opts into raw-throughput comparison for
same-machine A/B runs, with a wider default tolerance.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import BenchmarkError
from .hotpath import validate_entries as validate_hotpath_entries

__all__ = [
    "CompareReport",
    "MetricRow",
    "append_history",
    "compare_bench_files",
    "derive_metrics",
    "load_bench_file",
    "load_history",
]

HISTORY_FILE = "BENCH_history.jsonl"

#: Default relative tolerance per (kind, mode).  Ratio metrics are far
#: more stable than raw throughput, hence the tighter default.
DEFAULT_TOLERANCE = {
    ("ratio", False): 0.30,
    ("absolute", False): 0.50,
}


# ---------------------------------------------------------------------------
# Loading / kind detection


def load_bench_file(path: str | Path) -> tuple[str, list[dict[str, Any]]]:
    """Load + schema-validate a bench file; return ``(kind, entries)``.

    Kind is auto-detected from the entry schema: ``decisions_per_s``
    marks a hotpath file, ``jobs_per_s`` a service file.  Raises
    :class:`BenchmarkError` on unreadable, unparsable, undetectable (such
    as the retired ``e2e`` engine-bench kind) or schema-violating input —
    the comparison must never run on garbage.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise BenchmarkError(f"cannot read bench file {path}: {exc}") from exc
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise BenchmarkError(f"{path}: bench file must be a non-empty list")
    first = entries[0]
    if not isinstance(first, dict):
        raise BenchmarkError(f"{path}: entry 0 is not an object")
    if "decisions_per_s" in first:
        validate_hotpath_entries(entries)
        return "hotpath", entries
    if "jobs_per_s" in first:
        from ..service.loadgen import validate_service_entries

        validate_service_entries(entries)
        return "service", entries
    raise BenchmarkError(
        f"{path}: cannot detect bench kind from entry keys "
        f"{sorted(first)!r}"
    )


# ---------------------------------------------------------------------------
# Derived metrics


@dataclass(frozen=True)
class _Metric:
    value: float
    higher_is_better: bool


def _hotpath_ratio_metrics(entries: list[dict[str, Any]]) -> dict[str, _Metric]:
    """Machine-portable ratios derived from a hotpath bench file."""
    decision: dict[str, dict[str, float]] = {}
    e2e: dict[str, dict[str, float]] = {}
    for entry in entries:
        parts = entry["name"].split("/")
        if parts[0] == "decision" and len(parts) == 3:
            decision.setdefault(parts[1], {})[parts[2]] = entry["decisions_per_s"]
        elif parts[0] == "e2e" and len(parts) == 4:
            e2e.setdefault(f"{parts[1]}/{parts[2]}", {})[parts[3]] = entry["wall_s"]
    metrics: dict[str, _Metric] = {}
    for case, modes in sorted(decision.items()):
        if "cached" in modes and "uncached" in modes and modes["uncached"] > 0:
            metrics[f"decision-speedup/{case}"] = _Metric(
                modes["cached"] / modes["uncached"], True
            )
    for case, modes in sorted(e2e.items()):
        if "cached" in modes and "uncached" in modes and modes["cached"] > 0:
            metrics[f"e2e-speedup/{case}"] = _Metric(
                modes["uncached"] / modes["cached"], True
            )
    return metrics


def _hotpath_absolute_metrics(entries: list[dict[str, Any]]) -> dict[str, _Metric]:
    return {
        entry["name"]: _Metric(entry["decisions_per_s"], True)
        for entry in entries
    }


def _service_by_name(entries: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    return {entry["name"]: entry for entry in entries}


def _service_ratio_metrics(entries: list[dict[str, Any]]) -> dict[str, _Metric]:
    by_name = _service_by_name(entries)
    metrics: dict[str, _Metric] = {}
    cold = by_name.get("service/cold")
    warm = by_name.get("service/warm")
    if cold and warm and cold["jobs_per_s"] > 0:
        metrics["service/warm-speedup"] = _Metric(
            warm["jobs_per_s"] / cold["jobs_per_s"], True
        )
        metrics["service/warm-hit-rate"] = _Metric(warm["cache_hit_rate"], True)
    for phase, entry in sorted(by_name.items()):
        if "lost_results" in entry:
            metrics[f"{phase}/lost-results"] = _Metric(
                float(entry["lost_results"]), False
            )
        if "quarantined" in entry:
            metrics[f"{phase}/quarantined"] = _Metric(
                float(entry["quarantined"]), False
            )
    return metrics


def _service_absolute_metrics(entries: list[dict[str, Any]]) -> dict[str, _Metric]:
    metrics: dict[str, _Metric] = {}
    for entry in entries:
        metrics[f"{entry['name']}/jobs_per_s"] = _Metric(entry["jobs_per_s"], True)
        metrics[f"{entry['name']}/p99_ms"] = _Metric(entry["p99_ms"], False)
    return metrics


def derive_metrics(
    kind: str, entries: list[dict[str, Any]], *, absolute: bool = False
) -> dict[str, Any]:
    """Comparable metrics for a bench file; see the module docstring."""
    if kind == "hotpath":
        fn = _hotpath_absolute_metrics if absolute else _hotpath_ratio_metrics
    elif kind == "service":
        fn = _service_absolute_metrics if absolute else _service_ratio_metrics
    else:
        raise BenchmarkError(f"unknown bench kind {kind!r}")
    return fn(entries)


# ---------------------------------------------------------------------------
# Comparison


@dataclass(frozen=True)
class MetricRow:
    """One compared metric: baseline vs current and the verdict."""

    name: str
    baseline: float
    current: float
    higher_is_better: bool
    #: "ok" | "regression" | "improvement"
    status: str

    @property
    def change(self) -> float:
        """Signed relative change of ``current`` vs ``baseline``."""
        if self.baseline == 0.0:
            return 0.0 if self.current == 0.0 else float("inf")
        return self.current / self.baseline - 1.0


@dataclass
class CompareReport:
    """Outcome of a noise-aware baseline-vs-current bench comparison."""

    kind: str
    mode: str  # "ratio" | "absolute"
    tolerance: float
    baseline_path: str
    current_path: str
    rows: list[MetricRow] = field(default_factory=list)
    #: Metrics present in only one file (never a failure: bench shape may
    #: legitimately grow; it is surfaced so silent coverage loss is visible).
    only_baseline: list[str] = field(default_factory=list)
    only_current: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricRow]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "baseline": self.baseline_path,
            "current": self.current_path,
            "ok": self.ok,
            "rows": [
                {
                    "name": r.name,
                    "baseline": r.baseline,
                    "current": r.current,
                    "higher_is_better": r.higher_is_better,
                    "status": r.status,
                }
                for r in self.rows
            ],
            "only_baseline": list(self.only_baseline),
            "only_current": list(self.only_current),
        }

    def render(self) -> str:
        lines = [
            f"bench compare [{self.kind}, {self.mode} mode, "
            f"tolerance {self.tolerance:.0%}]",
            f"  baseline: {self.baseline_path}",
            f"  current:  {self.current_path}",
        ]
        arrow = {"regression": "!!", "improvement": "++", "ok": "  "}
        for row in self.rows:
            change = row.change
            pct = "n/a" if change == float("inf") else f"{change:+.1%}"
            lines.append(
                f"  {arrow[row.status]} {row.name:<40s} "
                f"{row.baseline:>12.4g} -> {row.current:>12.4g}  ({pct})"
            )
        for name in self.only_baseline:
            lines.append(f"  ?? {name:<40s} missing from current run")
        for name in self.only_current:
            lines.append(f"  ++ {name:<40s} new in current run")
        n_reg = len(self.regressions)
        lines.append(
            "PASS: no regressions" if self.ok
            else f"FAIL: {n_reg} regression{'s' if n_reg != 1 else ''}"
        )
        return "\n".join(lines)


def _judge(base: _Metric, cur: _Metric, tolerance: float) -> str:
    """Verdict for one metric under a relative tolerance band.

    Lower-is-better metrics with a zero baseline (e.g. ``lost_results``)
    have no meaningful relative band: any nonzero current value is a
    regression outright.
    """
    if base.higher_is_better:
        if cur.value < base.value * (1.0 - tolerance):
            return "regression"
        if cur.value > base.value * (1.0 + tolerance):
            return "improvement"
        return "ok"
    if base.value == 0.0:
        return "ok" if cur.value == 0.0 else "regression"
    if cur.value > base.value * (1.0 + tolerance):
        return "regression"
    if cur.value < base.value * (1.0 - tolerance):
        return "improvement"
    return "ok"


def compare_bench_files(
    baseline: str | Path,
    current: str | Path,
    *,
    tolerance: float | None = None,
    absolute: bool = False,
) -> CompareReport:
    """Compare two bench files of the same kind; never raises on a mere
    regression (inspect ``report.ok``) but does raise
    :class:`BenchmarkError` on malformed input or mismatched kinds."""
    kind_b, entries_b = load_bench_file(baseline)
    kind_c, entries_c = load_bench_file(current)
    if kind_b != kind_c:
        raise BenchmarkError(
            f"cannot compare {kind_b} bench {baseline} against "
            f"{kind_c} bench {current}"
        )
    mode = "absolute" if absolute else "ratio"
    if tolerance is None:
        tolerance = DEFAULT_TOLERANCE[(mode, False)]
    if tolerance < 0:
        raise BenchmarkError(f"negative tolerance {tolerance!r}")

    base = derive_metrics(kind_b, entries_b, absolute=absolute)
    cur = derive_metrics(kind_c, entries_c, absolute=absolute)
    report = CompareReport(
        kind=kind_b,
        mode=mode,
        tolerance=tolerance,
        baseline_path=str(baseline),
        current_path=str(current),
    )
    for name in sorted(base):
        if name not in cur:
            report.only_baseline.append(name)
            continue
        status = _judge(base[name], cur[name], tolerance)
        report.rows.append(
            MetricRow(
                name=name,
                baseline=base[name].value,
                current=cur[name].value,
                higher_is_better=base[name].higher_is_better,
                status=status,
            )
        )
    report.only_current = sorted(set(cur) - set(base))
    return report


# ---------------------------------------------------------------------------
# History


def append_history(
    path: str | Path,
    kind: str,
    entries: list[dict[str, Any]],
    *,
    headline: dict[str, Any] | None = None,
    written_at: float | None = None,
) -> dict[str, Any]:
    """Append one run record to the append-only JSONL bench history.

    The record carries the full entry list plus the derived ratio metrics
    (so trend queries never need to re-derive them) and a wall-clock
    timestamp.  Returns the record written.
    """
    record = {
        "schema": 1,
        "kind": kind,
        "written_at": float(written_at if written_at is not None else time.time()),
        "metrics": {
            name: metric.value
            for name, metric in derive_metrics(kind, entries).items()
        },
        "entries": entries,
    }
    if headline:
        record["headline"] = headline
    line = json.dumps(record, sort_keys=True)
    with open(path, "a") as fh:
        fh.write(line + "\n")
    return record


def load_history(path: str | Path) -> list[dict[str, Any]]:
    """Load all records from a JSONL bench history (oldest first)."""
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise BenchmarkError(f"cannot read bench history {path}: {exc}") from exc
    records = []
    for i, line in enumerate(raw.splitlines()):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BenchmarkError(
                f"{path} line {i + 1} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(record, dict) or "kind" not in record:
            raise BenchmarkError(f"{path} line {i + 1}: malformed record")
        records.append(record)
    return records

"""Fault-injection campaign harness.

Runs golden and faulty executions, classifies every experiment as Correct
(bitwise equal to the golden output), SDC (terminated with a different
output) or Crash, computes an output-quality value for SDCs, and aggregates
records into the classification, per-fault-count and quality views used by
the reports.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cachesim import CacheGeometry
from .faultmap import FaultMap
from .workloads import WorkloadConfig, WorkloadResult, run_workload

HW_FI = "HW_FI"
RND_FI = "RND_FI"
METHODS = (HW_FI, RND_FI)

PSNR_DB = "psnr_db"
AVG_REL_ERR = "avg_rel_err"
CLUSTER_ACC_PCT = "cluster_acc_pct"

METRIC_BY_BENCHMARK = {
    "dct": PSNR_DB,
    "sobel": PSNR_DB,
    "jacobi": AVG_REL_ERR,
    "blackscholes": AVG_REL_ERR,
    "mc": AVG_REL_ERR,
    "kmeans": CLUSTER_ACC_PCT,
}

# Per-fault-count aggregation stops here; larger maps are too rare to bin.
FAULT_COUNT_CUTOFF = 16

RESULTS_HEADER = "benchmark,method,sram_id,voltage_mv,fault_count,outcome,metric,quality"


class Outcome(Enum):
    CORRECT = "correct"
    SDC = "sdc"
    CRASH = "crash"


@dataclass(frozen=True)
class QualityValue:
    metric: str
    value: float

    def __post_init__(self):
        if self.metric not in (PSNR_DB, AVG_REL_ERR, CLUSTER_ACC_PCT):
            raise ValueError(f"unknown quality metric {self.metric!r}")
        if not math.isfinite(self.value):
            raise ValueError(f"quality value must be finite, got {self.value}")
        if self.metric == AVG_REL_ERR and not 0.0 <= self.value <= 1.0:
            raise ValueError("relative error must be clamped to [0, 1]")
        if self.metric == CLUSTER_ACC_PCT and not 0.0 <= self.value <= 100.0:
            raise ValueError("cluster accuracy must be in [0, 100]")
        if self.metric == PSNR_DB and not self.value > 0.0:
            raise ValueError("PSNR must be positive")


@dataclass(frozen=True)
class ExperimentRecord:
    benchmark: str
    method: str
    sram_id: str
    voltage_mv: int
    fault_count: int
    outcome: Outcome
    quality: QualityValue | None = None

    def __post_init__(self):
        if (self.outcome is Outcome.SDC) != (self.quality is not None):
            raise ValueError("quality must be present exactly for SDC outcomes")


class GoldenRunError(RuntimeError):
    """A zero-fault run crashed: the configuration itself is broken."""


def golden_run(benchmark: str, config: WorkloadConfig,
               cache_geometry: CacheGeometry | None = None) -> WorkloadResult:
    """Zero-fault reference run; crashing here is a hard failure."""
    result = run_workload(config, fault_map=None, cache_geometry=cache_geometry)
    if result.is_crash:
        raise GoldenRunError(f"golden run of {benchmark} crashed: {result.crash_reason.value}")
    return result


def classify(result: WorkloadResult, golden: WorkloadResult) -> Outcome:
    if result.is_crash:
        return Outcome.CRASH
    if result.data == golden.data and result.dtype == golden.dtype and result.shape == golden.shape:
        return Outcome.CORRECT
    return Outcome.SDC


def psnr(golden_img: np.ndarray, faulty_img: np.ndarray) -> float:
    """10*log10(255^2 / MSE) for 8-bit images; undefined for identical inputs."""
    if golden_img.shape != faulty_img.shape:
        raise ValueError("image shapes differ")
    diff = golden_img.astype(np.float64) - faulty_img.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        raise ValueError("identical images have no finite PSNR")
    return 10.0 * math.log10(255.0 ** 2 / mse)


def avg_relative_error(golden_vec: np.ndarray, faulty_vec: np.ndarray) -> float:
    """Mean elementwise relative error, clamped to 1; epsilon floor 1e-12."""
    g = np.asarray(golden_vec, dtype=np.float64)
    f = np.asarray(faulty_vec, dtype=np.float64)
    if g.shape != f.shape or g.size == 0:
        raise ValueError("vectors must be non-empty and equal length")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are clamped just below
        err = np.abs(g - f) / np.maximum(np.abs(g), 1e-12)
    err = np.where(np.isfinite(err) & (err < 1.0), err, 1.0)
    return float(err.mean())


def _confusion(golden: np.ndarray, faulty: np.ndarray, k: int) -> np.ndarray:
    c = np.zeros((k, k), dtype=np.int64)
    np.add.at(c, (golden, faulty), 1)
    return c


def greedy_label_matching(confusion: np.ndarray) -> int:
    """Sum of matched points under greedy max-cell label pairing."""
    c = confusion.copy()
    k = c.shape[0]
    total = 0
    for _ in range(k):
        r, col = np.unravel_index(int(np.argmax(c)), c.shape)
        total += int(c[r, col])
        c[r, :] = -1
        c[:, col] = -1
    return total


def cluster_accuracy(golden_assign: np.ndarray, faulty_assign: np.ndarray, k: int = 4) -> float:
    """Percent of points in the right cluster under greedy label matching.

    Faulty labels outside [0, k) can never match.
    """
    g = np.asarray(golden_assign, dtype=np.int64)
    f = np.asarray(faulty_assign, dtype=np.int64)
    if g.shape != f.shape or g.size == 0:
        raise ValueError("assignment vectors must be non-empty and equal length")
    valid = (f >= 0) & (f < k)
    conf = _confusion(g[valid], f[valid], k)
    return 100.0 * greedy_label_matching(conf) / g.size


def compute_quality(benchmark: str, golden: WorkloadResult, faulty: WorkloadResult) -> QualityValue:
    metric = METRIC_BY_BENCHMARK[benchmark]
    g = golden.as_array()
    f = faulty.as_array()
    if metric == PSNR_DB:
        return QualityValue(metric, psnr(g, f))
    if metric == AVG_REL_ERR:
        return QualityValue(metric, avg_relative_error(g, f))
    return QualityValue(metric, cluster_accuracy(g, f))


def run_experiment(benchmark: str, config: WorkloadConfig, fmap: FaultMap, method: str,
                   golden: WorkloadResult,
                   cache_geometry: CacheGeometry | None = None) -> ExperimentRecord:
    """One faulty run: install the map, execute, classify, score."""
    result = run_workload(config, fault_map=fmap, cache_geometry=cache_geometry)
    outcome = classify(result, golden)
    quality = None
    if outcome is Outcome.SDC:
        quality = compute_quality(benchmark, golden, result)
    return ExperimentRecord(
        benchmark=benchmark,
        method=method,
        sram_id=fmap.sram_id,
        voltage_mv=fmap.voltage_mv,
        fault_count=fmap.fault_count,
        outcome=outcome,
        quality=quality,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeFractions:
    n: int
    correct: float
    sdc: float
    crash: float

    @classmethod
    def from_outcomes(cls, outcomes) -> "OutcomeFractions":
        outcomes = list(outcomes)
        n = len(outcomes)
        return cls(
            n=n,
            correct=sum(o is Outcome.CORRECT for o in outcomes) / n,
            sdc=sum(o is Outcome.SDC for o in outcomes) / n,
            crash=sum(o is Outcome.CRASH for o in outcomes) / n,
        )


@dataclass(frozen=True)
class AggregateReport:
    """Fig. 5/6/7-shaped views over a record set."""

    classification: dict   # (benchmark, method) -> OutcomeFractions
    by_fault_count: dict   # (method, fault_count <= cutoff) -> OutcomeFractions
    quality: dict          # (benchmark, method) -> tuple of SDC quality values


def aggregate(records) -> AggregateReport:
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    by_bm: dict = {}
    by_count: dict = {}
    quality: dict = {}
    for r in records:
        by_bm.setdefault((r.benchmark, r.method), []).append(r.outcome)
        if r.fault_count <= FAULT_COUNT_CUTOFF:
            by_count.setdefault((r.method, r.fault_count), []).append(r.outcome)
        if r.outcome is Outcome.SDC:
            quality.setdefault((r.benchmark, r.method), []).append(r.quality.value)
    return AggregateReport(
        classification={k: OutcomeFractions.from_outcomes(v) for k, v in sorted(by_bm.items())},
        by_fault_count={k: OutcomeFractions.from_outcomes(v) for k, v in sorted(by_count.items())},
        quality={k: tuple(v) for k, v in sorted(quality.items())},
    )


def quality_summary(values) -> dict:
    v = np.asarray(sorted(values), dtype=np.float64)
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    return {
        "count": int(v.size),
        "min": float(v.min()),
        "q1": float(q1),
        "median": float(med),
        "q3": float(q3),
        "max": float(v.max()),
        "mean": float(v.mean()),
    }


# ---------------------------------------------------------------------------
# Results CSV
# ---------------------------------------------------------------------------


def format_quality(value: float) -> str:
    return f"{value:.9g}"


def records_to_csv(records) -> str:
    """Canonically ordered results CSV with LF endings."""
    out = [RESULTS_HEADER]
    for r in sorted(records, key=lambda r: (r.benchmark, r.method, r.sram_id, r.voltage_mv)):
        metric = r.quality.metric if r.quality is not None else ""
        quality = format_quality(r.quality.value) if r.quality is not None else ""
        out.append(
            f"{r.benchmark},{r.method},{r.sram_id},{r.voltage_mv},"
            f"{r.fault_count},{r.outcome.value},{metric},{quality}"
        )
    return "\n".join(out) + "\n"


def records_from_csv(text: str) -> list[ExperimentRecord]:
    """Parse a results CSV; an error is a ValueError('line N: <reason>')."""
    reader = csv.reader(io.StringIO(text))
    outcomes = {o.value: o for o in Outcome}
    records, first_line = [], {}  # (benchmark, method, sram_id, voltage_mv) -> its line
    i = 1  # the line being read
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("empty results file")
        if ",".join(header) != RESULTS_HEADER:
            raise ValueError(f"bad header, expected {RESULTS_HEADER!r}")
        for i, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 8:
                raise ValueError(f"expected 8 fields, got {len(row)}")
            bench, method, sram_id, voltage, count, outcome, metric, quality = row
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}")
            if outcome not in outcomes:
                raise ValueError(f"unknown outcome {outcome!r}")
            try:
                voltage_i = int(voltage)
                count_i = int(count)
            except ValueError:
                raise ValueError("voltage_mv and fault_count must be integers") from None
            qv = None
            if outcomes[outcome] is Outcome.SDC:
                qv = QualityValue(metric, float(quality))
            elif metric or quality:
                raise ValueError("metric/quality must be empty unless outcome is sdc")
            key = (bench, method, sram_id, voltage_i)
            if key in first_line:
                raise ValueError(f"{bench},{method},{sram_id},{voltage_i} repeats line {first_line[key]}")
            first_line[key] = i
            records.append(ExperimentRecord(bench, method, sram_id, voltage_i, count_i,
                                            outcomes[outcome], qv))
    except ValueError as e:
        raise ValueError(f"line {i}: {e}") from None
    return records

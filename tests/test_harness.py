import math
import warnings

import numpy as np
import pytest

from voltfi.cachesim import CrashReason
from voltfi.faultmap import (
    BitLocation,
    CorruptionKind,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SramGeometry,
)
from voltfi.harness import (
    AVG_REL_ERR,
    CLUSTER_ACC_PCT,
    FAULT_COUNT_CUTOFF,
    HW_FI,
    PSNR_DB,
    RND_FI,
    RESULTS_HEADER,
    ExperimentRecord,
    GoldenRunError,
    Outcome,
    QualityValue,
    aggregate,
    avg_relative_error,
    classify,
    cluster_accuracy,
    _confusion,
    golden_run,
    greedy_label_matching,
    psnr,
    quality_summary,
    records_from_csv,
    records_to_csv,
    run_experiment,
)
from voltfi.rng import make_rng
from voltfi.workloads import WorkloadConfig, WorkloadResult

from oracles import exhaustive_label_matching

SRAM = SramGeometry()


def rec(bench="sobel", method=HW_FI, sram="s0", voltage=540, count=2,
        outcome=Outcome.CORRECT, quality=None):
    return ExperimentRecord(bench, method, sram, voltage, count, outcome, quality)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_basics():
    golden = WorkloadResult(data=b"abcd", dtype="u8", shape=(4,))
    same = WorkloadResult(data=b"abcd", dtype="u8", shape=(4,))
    diff = WorkloadResult(data=b"abce", dtype="u8", shape=(4,))
    crash = WorkloadResult(crash_reason=CrashReason.OUT_OF_RANGE)
    assert classify(same, golden) is Outcome.CORRECT
    assert classify(diff, golden) is Outcome.SDC
    assert classify(crash, golden) is Outcome.CRASH
    reshaped = WorkloadResult(data=b"abcd", dtype="u8", shape=(2, 2))
    assert classify(reshaped, golden) is Outcome.SDC


def test_golden_run_crash_is_hard_failure():
    with pytest.raises(GoldenRunError, match="^golden run of sobel crashed: step_budget_exceeded$"):
        golden_run("sobel", WorkloadConfig("sobel", step_budget=1))


def test_run_experiment_empty_map_is_correct():
    cfg = WorkloadConfig("sobel")
    golden = golden_run("sobel", cfg)
    r = run_experiment("sobel", cfg, FaultMap("s", 540, SRAM), HW_FI, golden)
    assert r.outcome is Outcome.CORRECT
    assert r.quality is None
    assert (r.sram_id, r.voltage_mv, r.fault_count) == ("s", 540, 0)


def test_run_experiment_sdc_carries_psnr():
    cfg = WorkloadConfig("sobel")
    golden = golden_run("sobel", cfg)
    # transient flip of one input pixel (see workloads tests)
    fault = FaultSpec(BitLocation(32, 7), FaultTiming.transient(0), CorruptionKind.BIT_FLIP)
    m = FaultMap("s", 540, SRAM, (fault,))
    r = run_experiment("sobel", cfg, m, RND_FI, golden)
    assert r.outcome is Outcome.SDC
    assert r.quality is not None and r.quality.metric == PSNR_DB
    assert r.quality.value > 30.0  # a few pixels off a 64x64 image


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_psnr_extremes_and_symmetry():
    zero = np.zeros((8, 8), dtype=np.uint8)
    full = np.full((8, 8), 255, dtype=np.uint8)
    assert psnr(zero, full) == pytest.approx(0.0, abs=1e-12)
    a = np.zeros((64, 64), dtype=np.uint8)
    b = a.copy()
    b[10, 10] = 255
    assert psnr(a, b) == pytest.approx(10 * math.log10(4096), abs=1e-9)
    assert psnr(a, b) == psnr(b, a)
    with pytest.raises(ValueError):
        psnr(a, a)
    with pytest.raises(ValueError):
        psnr(a, np.zeros((32, 32), dtype=np.uint8))


def _psnr_brute(g, f):
    total = 0.0
    h, w = g.shape
    for y in range(h):
        for x in range(w):
            d = float(g[y, x]) - float(f[y, x])
            total += d * d
    return 10.0 * math.log10(255.0 ** 2 / (total / (h * w)))


def _rel_err_brute(g, f):
    total = 0.0
    for gi, fi in zip(g, f):
        denom = abs(gi) if abs(gi) > 1e-12 else 1e-12
        e = abs(gi - fi) / denom
        if not (e < 1.0):
            e = 1.0
        total += e
    return total / len(g)


def test_psnr_matches_brute_force():
    rng = make_rng(21)
    for _ in range(200):
        g = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        f = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        if np.array_equal(g, f):
            continue
        got = psnr(g, f)
        want = _psnr_brute(g, f)
        assert abs(got - want) <= 1e-9 * abs(want)


def test_avg_relative_error_examples():
    assert avg_relative_error(np.array([2.0, 4.0]), np.array([1.0, 4.0])) == pytest.approx(0.25)
    assert avg_relative_error(np.array([1.0]), np.array([100.0])) == 1.0
    assert avg_relative_error(np.array([0.0]), np.array([0.0])) == 0.0
    assert avg_relative_error(np.array([0.0]), np.array([5.0])) == 1.0  # clamped
    assert avg_relative_error(np.array([1.0]), np.array([math.nan])) == 1.0
    assert avg_relative_error(np.array([1.0]), np.array([math.inf])) == 1.0
    with pytest.raises(ValueError):
        avg_relative_error(np.array([1.0]), np.array([1.0, 2.0]))


@pytest.mark.parametrize("faulty", [1e308, math.inf, math.nan])
def test_avg_relative_error_clamps_without_numpy_warnings(faulty):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert avg_relative_error(np.array([1e-300]), np.array([faulty])) == 1.0


def test_avg_relative_error_matches_brute_force():
    rng = make_rng(22)
    for _ in range(200):
        g = rng.uniform(-10, 10, size=32)
        f = g + rng.uniform(-5, 5, size=32) * (rng.random(32) < 0.5)
        got = avg_relative_error(g, f)
        want = _rel_err_brute(g, f)
        assert abs(got - want) <= 1e-9 * max(want, 1e-12)


def kmeans_like_pair(rng, n=512, k=4):
    g = rng.integers(0, k, size=n)
    f = rng.permutation(k)[g]
    noisy = rng.random(n) < rng.random() * 0.5
    f[noisy] = rng.integers(0, k, size=int(noisy.sum()))
    return g, f


def test_cluster_accuracy_examples():
    g = np.array([0, 1, 2, 3] * 8)
    assert cluster_accuracy(g, g) == 100.0
    perm = np.array([2, 3, 0, 1])[g]
    assert cluster_accuracy(g, perm) == 100.0
    half = g.copy()
    half[::2] = (half[::2] + 1) % 4  # every other point moves one label over
    assert cluster_accuracy(g, half) == 50.0
    labels_out_of_range = np.full_like(g, 9)
    assert cluster_accuracy(g, labels_out_of_range) == 0.0


def test_cluster_accuracy_greedy_agrees_with_exhaustive_on_kmeans_pairs():
    rng = make_rng(23)
    for _ in range(300):
        g, f = kmeans_like_pair(rng)
        conf = _confusion(g, f, 4)
        assert greedy_label_matching(conf) == exhaustive_label_matching(conf)


def test_quality_value_bounds():
    with pytest.raises(ValueError):
        QualityValue(AVG_REL_ERR, 1.5)
    with pytest.raises(ValueError):
        QualityValue(CLUSTER_ACC_PCT, -1.0)
    with pytest.raises(ValueError):
        QualityValue(PSNR_DB, 0.0)
    for metric in (PSNR_DB, AVG_REL_ERR, CLUSTER_ACC_PCT):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                QualityValue(metric, value)
    QualityValue(PSNR_DB, 12.5)


# ---------------------------------------------------------------------------
# records and aggregation
# ---------------------------------------------------------------------------


def test_record_invariant_quality_iff_sdc():
    with pytest.raises(ValueError):
        rec(outcome=Outcome.CORRECT, quality=QualityValue(PSNR_DB, 10.0))
    with pytest.raises(ValueError):
        rec(outcome=Outcome.SDC, quality=None)


def fixture_records():
    q = lambda v: QualityValue(PSNR_DB, v)
    e = lambda v: QualityValue(AVG_REL_ERR, v)
    return [
        rec("sobel", HW_FI, "s0", 540, 2, Outcome.CORRECT),
        rec("sobel", HW_FI, "s1", 540, 2, Outcome.SDC, q(30.0)),
        rec("sobel", HW_FI, "s2", 550, 4, Outcome.SDC, q(20.0)),
        rec("sobel", HW_FI, "s3", 540, 600, Outcome.CRASH),
        rec("sobel", RND_FI, "s0", 540, 2, Outcome.CRASH),
        rec("sobel", RND_FI, "s1", 540, 2, Outcome.CRASH),
        rec("sobel", RND_FI, "s2", 550, 4, Outcome.SDC, q(10.0)),
        rec("jacobi", HW_FI, "s0", 540, 2, Outcome.CORRECT),
        rec("jacobi", HW_FI, "s1", 540, 16, Outcome.SDC, e(0.25)),
        rec("jacobi", RND_FI, "s1", 540, 17, Outcome.SDC, e(0.5)),
    ]


def test_aggregate_hand_computed_fractions():
    rpt = aggregate(fixture_records())
    sob_hw = rpt.classification[("sobel", HW_FI)]
    assert (sob_hw.n, sob_hw.correct, sob_hw.sdc, sob_hw.crash) == (4, 0.25, 0.5, 0.25)
    sob_rnd = rpt.classification[("sobel", RND_FI)]
    assert (sob_rnd.correct, sob_rnd.sdc, sob_rnd.crash) == (0.0, 1 / 3, 2 / 3)
    for fr in rpt.classification.values():
        assert fr.correct + fr.sdc + fr.crash == pytest.approx(1.0, abs=1e-9)


def test_aggregate_count_series_cutoff():
    rpt = aggregate(fixture_records())
    counts = {c for _, c in rpt.by_fault_count}
    assert counts == {2, 4, 16}  # 600 and 17 are beyond the cutoff
    assert all(c <= FAULT_COUNT_CUTOFF for c in counts)
    # pooled across benchmarks: HW at count 2 = correct 2/3, sdc 1/3
    hw2 = rpt.by_fault_count[(HW_FI, 2)]
    assert (hw2.n, hw2.correct, hw2.sdc) == (3, 2 / 3, 1 / 3)
    # excluded from the series but still inside the per-method totals
    assert rpt.classification[("sobel", HW_FI)].n == 4


def test_aggregate_quality_lists_and_summary():
    rpt = aggregate(fixture_records())
    assert rpt.quality[("sobel", HW_FI)] == (30.0, 20.0)
    s = quality_summary(rpt.quality[("sobel", HW_FI)])
    assert s["count"] == 2 and s["min"] == 20.0 and s["max"] == 30.0 and s["mean"] == 25.0


def test_all_correct_records():
    rpt = aggregate([rec(sram=f"s{i}") for i in range(5)])
    fr = rpt.classification[("sobel", HW_FI)]
    assert fr.correct == 1.0 and fr.sdc == 0.0 and fr.crash == 0.0


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------


def test_results_csv_round_trip_and_header():
    text = records_to_csv(fixture_records())
    lines = text.split("\n")
    assert lines[0] == RESULTS_HEADER
    assert text.endswith("\n") and "\r" not in text
    back = records_from_csv(text)
    assert back == sorted(fixture_records(), key=lambda r: (r.benchmark, r.method, r.sram_id, r.voltage_mv))
    # canonical order and 9-significant-digit quality formatting
    sdc_rows = [l for l in lines if ",sdc," in l]
    assert all(l.split(",")[6] in (PSNR_DB, AVG_REL_ERR) for l in sdc_rows)
    non_sdc = [l for l in lines[1:-1] if ",sdc," not in l]
    assert all(l.endswith(",,") for l in non_sdc)


def test_results_csv_error_rows():
    good = records_to_csv(fixture_records()).split("\n")
    bad = "\n".join([good[0], "sobel,HW_FI,s0,540,2,correct,", ""])
    with pytest.raises(ValueError, match="^line 2: "):
        records_from_csv(bad)
    bad = "\n".join([good[0], "sobel,NOPE,s0,540,2,correct,,", ""])
    with pytest.raises(ValueError):
        records_from_csv(bad)
    bad = "\n".join([good[0], "sobel,HW_FI,s0,540,2,correct,psnr_db,12.0", ""])
    with pytest.raises(ValueError):
        records_from_csv(bad)
    bad = "\n".join([good[0], "sobel,HW_FI,s0,540,2,correct,,", "sobel,HW_FI,s0,540,2,sdc,psnr_db,inf", ""])
    with pytest.raises(ValueError) as e:
        records_from_csv(bad)
    assert str(e.value).startswith("line 3: ") and "finite" in str(e.value)
    with pytest.raises(ValueError):
        records_from_csv("wrong,header\n")

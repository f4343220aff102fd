"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The campaign-level criteria share one fixed-seed campaign executed once per
session (several minutes of single-core runtime; see README).
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from voltfi.cachesim import CacheGeometry, CacheModel, MainMemory
from voltfi.cli import main, read_index
from voltfi.faultmap import (
    CorpusParams,
    FaultCountDistribution,
    FaultMap,
    SpatialParams,
    SramGeometry,
    VOLTAGE_SWEEP_MV,
    derive_map_at_voltage,
    generate_corpus,
    generate_hwlike_sram,
    match_random_map,
)
from voltfi.harness import (
    HW_FI,
    RND_FI,
    Outcome,
    _confusion,
    avg_relative_error,
    greedy_label_matching,
    psnr,
    records_from_csv,
)
from voltfi.rng import make_rng
from voltfi.workloads import BENCHMARKS, WorkloadConfig, run_workload

from oracles import exhaustive_label_matching
from reference_access import run_flat

GEO = SramGeometry()

CAMPAIGN_CONFIG = "corpus.n_srams = 700\ncorpus.seed = 1234\n"


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


@pytest.fixture(scope="session")
def campaign(tmp_path_factory):
    """Fixed-seed corpus + full 12-arm campaign; shared by criteria 8a-8c."""
    out = tmp_path_factory.mktemp("campaign")
    cfg = out / "campaign.cfg"
    cfg.write_text(CAMPAIGN_CONFIG)
    assert main(["--config", str(cfg), "--out", str(out), "genmaps"]) == 0
    assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
    records = records_from_csv((out / "results.csv").read_text())
    return records


def arm(records, benchmark=None, method=None, pred=lambda r: True):
    return [
        r for r in records
        if (benchmark is None or r.benchmark == benchmark)
        and (method is None or r.method == method)
        and pred(r)
    ]


def fraction(records, outcome):
    return sum(r.outcome is outcome for r in records) / len(records)


# ---------------------------------------------------------------------------
# 1. corpus structure
# ---------------------------------------------------------------------------


def test_criterion_1_corpus_structure(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("corpus.n_srams = 2060\ncorpus.seed = 1\n")
    t0 = time.perf_counter()
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "genmaps"]) == 0
    elapsed = time.perf_counter() - t0
    entries = read_index(tmp_path / "out")
    hw = [e for e in entries if e["method"] == "hw"]
    faulty_srams = {e["sram_id"] for e in hw if e["fault_count"] >= 1}
    share = len(faulty_srams) / 2060
    ok = len(hw) == 14420 and abs(share - 0.151) <= 0.015 and elapsed < 60.0
    report(1, "corpus-structure", ok,
           f"hw maps {len(hw)}, faulty-SRAM share {share:.3f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. fault-count histogram
# ---------------------------------------------------------------------------


def test_criterion_2_fault_count_distribution():
    t0 = time.perf_counter()
    dist = FaultCountDistribution.default()
    rng = make_rng(2)
    draws = np.array([dist.sample(rng) for _ in range(100_000)])
    freqs = {c: float(np.mean(draws == c)) for c in (2, 4, 6, 8)}
    elapsed = time.perf_counter() - t0
    ok = (
        abs(freqs[2] - 0.37) <= 0.02
        and abs(freqs[4] - 0.15) <= 0.02
        and abs(freqs[6] - 0.09) <= 0.02
        and abs(freqs[8] - 0.05) <= 0.02
        and elapsed < 10.0
    )
    report(2, "fault-count-histogram", ok,
           ", ".join(f"{c}:{freqs[c]:.3f}" for c in (2, 4, 6, 8)) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. fault inclusion
# ---------------------------------------------------------------------------


def test_criterion_3_fault_inclusion():
    t0 = time.perf_counter()
    params = SpatialParams()
    violations = 0
    for s in range(1000):
        faults = generate_hwlike_sram(GEO, params, s)
        maps = [set(derive_map_at_voltage(faults, v, GEO).faults) for v in VOLTAGE_SWEEP_MV]
        for i in range(len(maps)):
            for j in range(i + 1, len(maps)):
                if not maps[j] <= maps[i]:  # higher voltage must be a subset
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(3, "fault-inclusion", ok, f"violations {violations}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. matched counts
# ---------------------------------------------------------------------------


def test_criterion_4_matched_counts():
    maps = generate_corpus(300, CorpusParams(), 4)
    mismatches = sum(
        match_random_map(m, 10_000 + i).fault_count != m.fault_count
        for i, m in enumerate(maps)
    )
    report(4, "matched-counts", mismatches == 0, f"{len(maps)} pairs, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# 5. locality separation
# ---------------------------------------------------------------------------


def _pair_stats(locs: np.ndarray):
    diff = np.abs(locs[:, None, :] - locs[None, :, :]).sum(axis=2)
    iu = np.triu_indices(len(locs), 1)
    _, counts = np.unique(locs[:, 1], return_counts=True)
    return float(diff[iu].mean()), float(counts[counts > 1].sum() / len(locs))


def test_criterion_5_locality_separation():
    params = SpatialParams()
    d_hw, d_rnd, c_hw, c_rnd = [], [], [], []
    seed = 0
    while len(d_hw) < 1000:
        faults = generate_hwlike_sram(GEO, params, seed)
        seed += 1
        if len(faults) < 4:
            continue
        hw = FaultMap("h", 540, GEO, faults)
        rnd = match_random_map(hw, 50_000 + seed)
        dh, ch = _pair_stats(hw.location_array())
        dr, cr = _pair_stats(rnd.location_array())
        d_hw.append(dh)
        d_rnd.append(dr)
        c_hw.append(ch)
        c_rnd.append(cr)
    p_dist = stats.ttest_rel(d_hw, d_rnd, alternative="less").pvalue
    p_col = stats.ttest_rel(c_hw, c_rnd, alternative="greater").pvalue
    ok = p_dist < 0.05 and p_col < 0.05 and np.mean(d_hw) < np.mean(d_rnd) and np.mean(c_hw) > np.mean(c_rnd)
    report(5, "locality-separation", ok,
           f"manhattan {np.mean(d_hw):.1f} vs {np.mean(d_rnd):.1f} (p={p_dist:.2g}), "
           f"same-col {np.mean(c_hw):.2f} vs {np.mean(c_rnd):.2f} (p={p_col:.2g})")


# ---------------------------------------------------------------------------
# 6. cache transparency
# ---------------------------------------------------------------------------


def test_criterion_6_cache_transparency():
    size = 1 << 16
    rng = make_rng(6)
    cache = CacheModel(CacheGeometry(), MainMemory(size))
    flat = bytearray(size)
    mismatches = 0
    for _ in range(100_000):
        addr = int(rng.integers(0, size))
        n = min(8, size - addr, 64 - addr % 64)
        n = int(rng.integers(1, n + 1))
        if rng.random() < 0.5:
            data = rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
            cache.store(addr, data)
            flat[addr:addr + n] = data
        else:
            buf, off = cache.load(addr, n)
            if bytes(buf[off:off + n]) != bytes(flat[addr:addr + n]):
                mismatches += 1
    bench_ok = all(
        run_workload(WorkloadConfig(b)).data == run_flat(WorkloadConfig(b)).data
        for b in BENCHMARKS
    )
    ok = mismatches == 0 and bench_ok
    report(6, "cache-transparency", ok,
           f"trace mismatches {mismatches}, zero-fault fidelity {bench_ok}")


# ---------------------------------------------------------------------------
# 7. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_7_metric_oracles():
    rng = make_rng(7)
    worst_psnr = worst_rel = 0.0
    for _ in range(1000):
        g = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        f = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        if np.array_equal(g, f):
            continue
        total = 0.0
        for y in range(16):
            for x in range(16):
                d = float(g[y, x]) - float(f[y, x])
                total += d * d
        brute = 10.0 * math.log10(255.0 ** 2 / (total / 256))
        worst_psnr = max(worst_psnr, abs(psnr(g, f) - brute) / abs(brute))
    for _ in range(1000):
        g = rng.uniform(-10, 10, size=32)
        f = g + rng.uniform(-5, 5, size=32) * (rng.random(32) < 0.5)
        total = 0.0
        for gi, fi in zip(g, f):
            e = abs(gi - fi) / max(abs(gi), 1e-12)
            total += e if e < 1.0 else 1.0
        brute = total / 32
        got = avg_relative_error(g, f)
        worst_rel = max(worst_rel, abs(got - brute) / max(brute, 1e-12))
    cluster_mismatch = 0
    for _ in range(1000):
        g = rng.integers(0, 4, size=512)
        f = rng.permutation(4)[g]
        noisy = rng.random(512) < rng.random() * 0.5
        f[noisy] = rng.integers(0, 4, size=int(noisy.sum()))
        conf = _confusion(g, f, 4)
        if greedy_label_matching(conf) != exhaustive_label_matching(conf):
            cluster_mismatch += 1
    ok = worst_psnr <= 1e-9 and worst_rel <= 1e-9 and cluster_mismatch == 0
    report(7, "metric-oracles", ok,
           f"psnr rel dev {worst_psnr:.2g}, rel-err dev {worst_rel:.2g}, "
           f"greedy mismatches {cluster_mismatch}")


# ---------------------------------------------------------------------------
# 8. directional campaign results
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8a_masked_parity_on_two_fault_maps(campaign):
    two_hw = arm(campaign, method=HW_FI, pred=lambda r: r.fault_count == 2)
    two_rnd = arm(campaign, method=RND_FI, pred=lambda r: r.fault_count == 2)
    gap = abs(fraction(two_rnd, Outcome.CORRECT) - fraction(two_hw, Outcome.CORRECT))
    ok = gap <= 0.05 and len(two_hw) >= 500 and len(two_rnd) >= 500
    report(8, "masked-parity-2-fault (a)", ok,
           f"|dCorrect| = {100 * gap:.2f} pp over {len(two_hw)}+{len(two_rnd)} runs")


@pytest.mark.slow
def test_criterion_8b_crash_gap_sign(campaign):
    details = []
    ok = True
    for bench in ("jacobi", "sobel", "kmeans"):
        hw = arm(campaign, bench, HW_FI, lambda r: r.fault_count >= 8)
        rnd = arm(campaign, bench, RND_FI, lambda r: r.fault_count >= 8)
        ch, cr = fraction(hw, Outcome.CRASH), fraction(rnd, Outcome.CRASH)
        ok = ok and cr >= ch
        details.append(f"{bench} {100 * cr:.1f}% vs {100 * ch:.1f}%")
    report(8, "crash-gap-sign (b)", ok, "RND vs HW crash: " + "; ".join(details))


@pytest.mark.slow
def test_criterion_8c_mc_quality_indistinguishable(campaign):
    hw = [r.quality.value for r in arm(campaign, "mc", HW_FI, lambda r: r.outcome is Outcome.SDC)]
    rnd = [r.quality.value for r in arm(campaign, "mc", RND_FI, lambda r: r.outcome is Outcome.SDC)]
    p = stats.ks_2samp(hw, rnd).pvalue
    ok = p >= 0.05
    report(8, "mc-quality-indistinguishable (c)", ok,
           f"KS p = {p:.3f} over {len(hw)}/{len(rnd)} SDCs")


@pytest.mark.slow
def test_campaign_arm_sizes_and_partition(campaign):
    for bench in BENCHMARKS:
        for method in (HW_FI, RND_FI):
            a = arm(campaign, bench, method)
            assert len(a) >= 500, f"{bench}/{method} arm has {len(a)} experiments"
            total = (fraction(a, Outcome.CORRECT) + fraction(a, Outcome.SDC)
                     + fraction(a, Outcome.CRASH))
            assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.slow
def test_campaign_quality_ordering(campaign):
    # on SDCs, hardware-guided faults must not degrade output quality more
    # than random ones: a one-sided two-sample test at the 0.05 level must
    # not find HW significantly worse (relative error counts lower-is-better)
    details = []
    ok = True
    for bench in ("sobel", "dct", "kmeans", "blackscholes", "jacobi"):
        hw = [r.quality.value for r in arm(campaign, bench, HW_FI, lambda r: r.outcome is Outcome.SDC)]
        rnd = [r.quality.value for r in arm(campaign, bench, RND_FI, lambda r: r.outcome is Outcome.SDC)]
        lower_better = bench in ("blackscholes", "jacobi")
        worse_side = "greater" if lower_better else "less"
        p_worse = stats.ttest_ind(hw, rnd, equal_var=False, alternative=worse_side).pvalue
        ok = ok and p_worse >= 0.05
        details.append(f"{bench} {np.mean(hw):.3g}/{np.mean(rnd):.3g} (p={p_worse:.2f})")
    report(8, "quality-ordering (property)", ok, "HW/RND mean quality: " + "; ".join(details))


# ---------------------------------------------------------------------------
# 9. end-to-end determinism
# ---------------------------------------------------------------------------


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_criterion_9_end_to_end_determinism(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "corpus.n_srams = 40\ncorpus.seed = 7\n"
        "campaign.benchmarks = sobel,blackscholes\n"
    )
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        for cmd in ("genmaps", "run", "report"):
            assert main(["--config", str(cfg), "--out", str(out), cmd]) == 0
        digests.append(_tree_digest(out))
    ok = digests[0] == digests[1]
    report(9, "end-to-end-determinism", ok, f"tree digest {digests[0][:16]}...")

import math
from unittest import mock

import numpy as np
import pytest
from scipy.fft import dctn, idctn
from scipy.stats import norm

from voltfi.cachesim import CacheGeometry, CrashReason, CrashSignal
from voltfi.faultmap import (
    BitLocation,
    CorruptionKind,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SramGeometry,
)
from voltfi.workloads import (
    BENCHMARKS,
    WorkloadConfig,
    get,
    run_workload,
)
from voltfi.workloads import dct as dct_mod
from voltfi.workloads import jacobi as jacobi_mod
from voltfi.workloads import kmeans as kmeans_mod
from voltfi.workloads import mc as mc_mod
from voltfi.workloads import sobel as sobel_mod
from voltfi.workloads.memory import DATA_BASE

from reference_access import run_flat

SRAM = SramGeometry()
GEO = CacheGeometry()


def linear_for(set_i, way, bit_in_line):
    return (way * GEO.num_sets + set_i) * GEO.line_bits + bit_in_line


def spec(lb, kind=CorruptionKind.STUCK_AT_0, timing=None):
    return FaultSpec(
        BitLocation(lb // SRAM.cols, lb % SRAM.cols),
        timing or FaultTiming.permanent(),
        kind,
    )


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_zero_fault_run_matches_flat_reference(bench):
    cfg = WorkloadConfig(bench)
    cached = run_workload(cfg)
    flat = run_flat(cfg)
    assert not cached.is_crash
    assert cached.data == flat.data
    assert cached.dtype == flat.dtype and cached.shape == flat.shape


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_runs_are_deterministic(bench):
    cfg = WorkloadConfig(bench)
    assert run_workload(cfg).data == run_workload(cfg).data


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_tables_sit_below_all_bulk_data(bench):
    lay = get(bench).LAYOUT
    tables = lay.regions[0]
    others = lay.regions[1:]
    assert tables.name == "tables"
    assert tables.size <= 512  # fits sets 0..7 so bottom-heavy faults miss it
    assert all(tables.end <= r.base for r in others)
    assert lay.mem_size >= max(r.end for r in lay.regions)


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_step_budget_exhaustion_crashes(bench):
    cfg = WorkloadConfig(bench, step_budget=10)
    r = run_workload(cfg)
    assert r.is_crash and r.crash_reason is CrashReason.STEP_BUDGET_EXCEEDED


def test_result_array_round_trip():
    cfg = WorkloadConfig("sobel")
    r = run_workload(cfg)
    arr = r.as_array()
    assert arr.shape == (64, 64) and arr.dtype == np.uint8
    crash = run_workload(WorkloadConfig("sobel", step_budget=1))
    with pytest.raises(ValueError):
        crash.as_array()


# ---------------------------------------------------------------------------
# golden-output oracles (independent implementations)
# ---------------------------------------------------------------------------


def test_jacobi_golden_residual():
    cfg = WorkloadConfig("jacobi")
    x = run_workload(cfg).as_array()
    a, b = jacobi_mod.generate_inputs(cfg)
    assert np.abs(a @ x - b).max() < 1e-6
    # and the direct solve agrees to the same tolerance
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-6


def test_blackscholes_golden_closed_form():
    cfg = WorkloadConfig("blackscholes")
    p = run_workload(cfg).as_array()
    s, k, r, v, t, call = (np.asarray(a) for a in get("blackscholes").generate_inputs(cfg))
    d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * np.sqrt(t))
    d2 = d1 - v * np.sqrt(t)
    ref_call = s * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2)
    ref_put = k * np.exp(-r * t) * norm.cdf(-d2) - s * norm.cdf(-d1)
    ref = np.where(call != 0, ref_call, ref_put)
    assert np.allclose(p, ref, rtol=1e-9, atol=1e-9)


def test_dct_golden_reconstruction_quality_and_oracle():
    cfg = WorkloadConfig("dct")
    out = run_workload(cfg).as_array()
    src = dct_mod.generate_inputs(cfg)
    mse = np.mean((out.astype(float) - src.astype(float)) ** 2)
    assert 10 * math.log10(255.0 ** 2 / mse) >= 40.0
    # scipy orthonormal DCT oracle with the same quantizer; only rounding
    # boundary pixels may differ, by at most one level
    img = src.astype(np.float64) - 128.0
    q = np.array(dct_mod.quant_table(cfg), dtype=np.float64).reshape(8, 8)
    rec = np.zeros_like(img)
    for by in range(8):
        for bx in range(8):
            blk = img[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8]
            qz = np.rint(dctn(blk, type=2, norm="ortho") / q)
            rec[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] = idctn(qz * q, type=2, norm="ortho")
    ref = np.clip(np.rint(rec + 128.0), 0, 255).astype(np.uint8)
    diff = np.abs(ref.astype(int) - out.astype(int))
    assert diff.max() <= 1
    assert (diff > 0).mean() < 0.05


def test_mc_golden_independent_walk():
    cfg = WorkloadConfig("mc")
    out = run_workload(cfg).as_array()
    xs, ys, g, pool = mc_mod.generate_inputs(cfg)
    angle_scale = 2.0 * math.pi / 65536.0
    ctr = 0

    def next_angle():
        nonlocal ctr
        word = int(pool[(ctr >> 2) % len(pool)])
        lane = ctr & 3
        ctr += 1
        return ((word >> (16 * lane)) & 0xFFFF) * angle_scale

    def snap(x, y):
        edges = (x, 1.0 - x, y, 1.0 - y)
        best = min(edges)
        if best == edges[2]:
            s = x
        elif best == edges[1]:
            s = 1.0 + y
        elif best == edges[3]:
            s = 2.0 + (1.0 - x)
        else:
            s = 3.0 + (1.0 - y)
        seg = int(s * 64.0)
        return min(max(seg, 0), 255)

    est = np.zeros(128)
    for i in range(128):
        acc = 0.0
        for _ in range(256):
            x, y = float(xs[i]), float(ys[i])
            while True:
                d = min(x, 1.0 - x, y, 1.0 - y)
                if d < 1e-3:
                    acc += g[snap(x, y)]
                    break
                ang = next_angle()
                x += d * math.cos(ang)
                y += d * math.sin(ang)
        est[i] = acc / 256
    assert np.array_equal(est, out)


def test_sobel_golden_convolution_oracle():
    cfg = WorkloadConfig("sobel")
    out = run_workload(cfg).as_array()
    img = sobel_mod.generate_inputs(cfg).astype(int)
    gx = (img[:-2, 2:] - img[:-2, :-2]) + 2 * (img[1:-1, 2:] - img[1:-1, :-2]) + (img[2:, 2:] - img[2:, :-2])
    gy = (img[2:, :-2] + 2 * img[2:, 1:-1] + img[2:, 2:]) - (img[:-2, :-2] + 2 * img[:-2, 1:-1] + img[:-2, 2:])
    ref = np.zeros_like(img)
    ref[1:-1, 1:-1] = np.minimum(np.abs(gx) + np.abs(gy), 255)
    assert np.array_equal(out, ref.astype(np.uint8))


def test_kmeans_golden_lloyd_oracle():
    cfg = WorkloadConfig("kmeans")
    asg = run_workload(cfg).as_array()
    pts, cents = kmeans_mod.generate_inputs(cfg)
    c = cents.copy()
    a = np.full(len(pts), 255, dtype=np.int64)
    for _ in range(50):
        dist = ((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        na = np.argmin(dist, axis=1)
        changed = int((na != a).sum())
        a = na
        for k in range(4):
            m = a == k
            if m.any():
                c[k] = pts[m].sum(axis=0) / m.sum()
        if changed == 0:
            break
    assert np.array_equal(a.astype(np.uint8), asg)
    assert np.bincount(asg, minlength=4).min() > 0


# ---------------------------------------------------------------------------
# constructed fault placements
# ---------------------------------------------------------------------------


def both_ways_map(set_i, bit_in_line, kind=CorruptionKind.STUCK_AT_0):
    # a table line can sit in either way of its set, so bind both
    return FaultMap("t", 540, SRAM, (
        spec(linear_for(set_i, 0, bit_in_line), kind),
        spec(linear_for(set_i, 1, bit_in_line), kind),
    ))


def test_jacobi_corrupted_row_pointer_crashes_out_of_range():
    # row_ptr[0] = 0x18000 + 0; clearing address bit 15 (byte 1, bit 7 of the
    # pointer) points into the unmapped gap below DATA_BASE
    m = both_ways_map(0, 15)
    r = run_workload(WorkloadConfig("jacobi"), fault_map=m)
    assert r.is_crash and r.crash_reason is CrashReason.OUT_OF_RANGE


def test_blackscholes_corrupted_chunk_pointer_crashes():
    m = both_ways_map(0, 16)  # clear address bit 16
    r = run_workload(WorkloadConfig("blackscholes"), fault_map=m)
    assert r.is_crash and r.crash_reason is CrashReason.OUT_OF_RANGE


def test_dct_corrupted_block_pointer_crashes():
    m = both_ways_map(0, 16)
    r = run_workload(WorkloadConfig("dct"), fault_map=m)
    assert r.is_crash and r.crash_reason is CrashReason.OUT_OF_RANGE


def test_kmeans_corrupted_assignment_crashes_out_of_range():
    # assignment byte 448 sits at a set-8 line; stuck-at-1 on its bit 7 makes
    # the accumulator index a >= 128 walk past the mapped data region
    addr = DATA_BASE + 512 * 16 + 4 * 16 + 448  # points + centroids + offset
    set_i = (addr // 64) % 16
    bit = (addr % 64) * 8 + 7
    assert set_i == 8
    m = both_ways_map(set_i, bit, CorruptionKind.STUCK_AT_1)
    r = run_workload(WorkloadConfig("kmeans"), fault_map=m)
    assert r.is_crash and r.crash_reason is CrashReason.OUT_OF_RANGE


def test_mc_corrupted_walk_count_exceeds_step_budget():
    # walks entry 0 lives in the first table line; stuck-at-1 on u32 bit 30
    # inflates the walk count beyond any budget
    bit = 3 * 8 + 6
    m = both_ways_map(0, bit, CorruptionKind.STUCK_AT_1)
    r = run_workload(WorkloadConfig("mc", step_budget=100_000), fault_map=m)
    assert r.is_crash and r.crash_reason is CrashReason.STEP_BUDGET_EXCEEDED


def test_mc_non_finite_boundary_parameter_crashes():
    # exit triggered by the finite coordinate while the other is NaN: the
    # perimeter parameter becomes NaN and cannot be used as a table index
    with pytest.raises(CrashSignal) as e:
        mc_mod.boundary_segment(1e-6, math.nan)
    assert e.value.reason is CrashReason.NON_FINITE_CONTROL


def test_mc_huge_finite_boundary_parameter_crashes():
    # both coordinates finite, but the perimeter parameter overflows once
    # scaled to a segment index
    with pytest.raises(CrashSignal) as e:
        mc_mod.boundary_segment(-1e308, -1e307)
    assert e.value.reason is CrashReason.NON_FINITE_CONTROL


@pytest.mark.parametrize("x, y, seg", [
    (0.3, 0.01, 19), (0.99, 0.5, 96), (0.5, 0.999, 160), (0.001, 0.4, 230),
    (0.5, 1e300, 160), (-1e300, 0.2, 243), (1e300, 0.5, 96), (0.5, -1e300, 32),
    (-1e300, -1e301, 0), (-1e306, 1e307, 255),
])
def test_mc_boundary_segment_of_finite_parameters(x, y, seg):
    assert mc_mod.boundary_segment(x, y) == seg


def test_sobel_masked_stuck0_is_bitwise_golden():
    # a dim image (pixels <= 15) keeps bit 7 of every image byte zero, and
    # sets 8..15 never hold table lines, so this stuck-at-0 can never fire
    cfg = WorkloadConfig("sobel")
    m = FaultMap("t", 540, SRAM, (spec(linear_for(15, 1, 391)),))
    with mock.patch.object(sobel_mod, "MAX_VAL", 15):
        golden = run_workload(cfg)
        r = run_workload(cfg, fault_map=m)
    assert not r.is_crash
    assert r.data == golden.data


def test_sobel_single_pixel_corruption_stays_in_stencil():
    # transient flip bound to (set 8, way 0): the first access to set 8 is
    # the byte-0 init write of image row 8, so exactly one input pixel flips
    cfg = WorkloadConfig("sobel")
    golden = run_workload(cfg).as_array().astype(int)
    m = FaultMap("t", 540, SRAM,
                 (spec(linear_for(8, 0, 7), CorruptionKind.BIT_FLIP, FaultTiming.transient(0)),))
    r = run_workload(cfg, fault_map=m)
    assert not r.is_crash
    diff = r.as_array().astype(int) != golden
    assert 1 <= diff.sum() <= 9
    ys, xs = np.nonzero(diff)
    assert all(abs(y - 8) <= 1 and abs(x - 0) <= 1 for y, x in zip(ys, xs))


def test_jacobi_masked_stuck0_on_always_zero_bit():
    # every double in jacobi's footprint has |v| < 2, so the exponent MSB
    # (f64 bit 62) is 0 everywhere, and pointer bytes 56..63 are 0 too:
    # stuck-at-0 there can never change a resident value
    cfg = WorkloadConfig("jacobi")
    golden = run_workload(cfg)
    for set_i, way, slot in ((5, 1, 3), (12, 0, 0), (3, 0, 5)):
        m = FaultMap("t", 540, SRAM, (spec(linear_for(set_i, way, slot * 64 + 62)),))
        r = run_workload(cfg, fault_map=m)
        assert not r.is_crash
        assert r.data == golden.data

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from voltfi.faultmap import (
    VOLTAGE_SWEEP_MV,
    BitLocation,
    CorpusParams,
    CorruptionKind,
    FaultCountDistribution,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SpatialParams,
    SramGeometry,
    derive_map_at_voltage,
    generate_corpus,
    generate_hwlike_sram,
    match_random_map,
    parse_fault_map,
    probability_heatmap,
    serialize_fault_map,
)

GEO = SramGeometry()


@lru_cache
def _placeholder(n, geo):
    return FaultMap("rnd", 540, geo, tuple(FaultSpec(BitLocation(i // geo.cols, i % geo.cols)) for i in range(n)))


def random_map(n, geo, seed):
    """A uniform-random map of n faults: match_random_map over a placeholder map holding n."""
    return match_random_map(_placeholder(n, geo), seed)


def hw_fault_sets(n, seed=11, params=SpatialParams()):
    return [generate_hwlike_sram(GEO, params, (seed, 0, i)[0] * 1000 + i) for i in range(n)]


# ---------------------------------------------------------------------------
# format
# ---------------------------------------------------------------------------


def test_parse_header_only_gives_empty_map():
    text = "# sram-fault-map v1\nsram_id=chip0\nvoltage_mv=540\nrows=128\ncols=128\n"
    m = parse_fault_map(text)
    assert m.fault_count == 0
    assert m.sram_id == "chip0"
    assert m.voltage_mv == 540
    assert m.geometry == GEO


def test_parse_single_fault_line():
    text = (
        "# sram-fault-map v1\nsram_id=c\nvoltage_mv=540\nrows=128\ncols=128\n"
        "fault 127 0 stuck0 permanent\n"
    )
    m = parse_fault_map(text)
    assert m.fault_count == 1
    f = m.faults[0]
    assert f.location == BitLocation(127, 0)
    assert f.kind is CorruptionKind.STUCK_AT_0
    assert f.timing == FaultTiming.permanent()
    assert f.onset_voltage_mv is None


def test_parse_fault_with_onset_and_timings():
    text = (
        "# sram-fault-map v1\nsram_id=c\nvoltage_mv=550\nrows=4\ncols=4\n"
        "fault 0 1 stuck1 transient:7\n"
        "fault 1 2 flip intermittent:3:9 onset_mv=580\n"
    )
    m = parse_fault_map(text)
    assert m.faults[0].timing == FaultTiming.transient(7)
    assert m.faults[1].timing == FaultTiming.intermittent(3, 9)
    assert m.faults[1].onset_voltage_mv == 580


@pytest.mark.parametrize(
    "mutate, lineno, needle",
    [
        (lambda L: ["# wrong"] + L[1:], 1, "magic"),
        (lambda L: L[:1] + ["sramid=c"] + L[2:], 2, "sram_id"),
        (lambda L: L[:2] + ["voltage_mv=abc"] + L[3:], 3, "voltage_mv"),
        (lambda L: L + ["fault 200 0 stuck0 permanent"], 6, "outside"),
        (lambda L: L + ["fault 1 1 stuck0 permanent", "fault 1 1 stuck0 permanent"], 7, "duplicate"),
        (lambda L: L + ["fault 1 1 stuckX permanent"], 6, "kind"),
        (lambda L: L + ["fault 1 1 stuck0 never"], 6, "timing"),
        (lambda L: L + ["fault 1 1 stuck0 permanent onset_mv=700"], 6, "onset"),
        (lambda L: L + ["fault 1 2 stuck0 transient:-1"], 6, "transient"),
        (lambda L: L + ["fault 1 2 stuck0 intermittent:0:0"], 6, "intermittent"),
        (lambda L: L[:3], 4, "header"),
    ],
)
def test_parse_errors_carry_line_numbers(mutate, lineno, needle):
    base = ["# sram-fault-map v1", "sram_id=c", "voltage_mv=540", "rows=128", "cols=128"]
    text = "\n".join(mutate(base)) + "\n"
    with pytest.raises(ValueError, match=rf"^line {lineno}: ") as e:
        parse_fault_map(text)
    assert needle.lower() in str(e.value).lower()


def test_serialize_empty_is_header_only():
    m = FaultMap("c", 600, GEO)
    assert serialize_fault_map(m) == (
        "# sram-fault-map v1\nsram_id=c\nvoltage_mv=600\nrows=128\ncols=128\n"
    )


def test_serialize_sorts_by_linear_index():
    # linear indices 5 and 3 on a tiny geometry: line for 3 comes first
    geo = SramGeometry(4, 4)
    m = FaultMap("c", 540, geo, (FaultSpec(BitLocation(1, 1)), FaultSpec(BitLocation(0, 3))))
    body = serialize_fault_map(m).splitlines()[5:]
    assert body == ["fault 0 3 stuck0 permanent", "fault 1 1 stuck0 permanent"]


_kinds = st.sampled_from(list(CorruptionKind))
_timings = st.one_of(
    st.just(FaultTiming.permanent()),
    st.integers(0, 9999).map(FaultTiming.transient),
    st.tuples(st.integers(0, 999), st.integers(1, 999)).map(lambda t: FaultTiming.intermittent(*t)),
)
_onsets = st.one_of(st.none(), st.sampled_from(VOLTAGE_SWEEP_MV))


@st.composite
def fault_maps(draw):
    rows = draw(st.integers(1, 32))
    cols = draw(st.integers(1, 32))
    geo = SramGeometry(rows, cols)
    n = draw(st.integers(0, min(20, rows * cols)))
    linears = draw(
        st.lists(st.integers(0, rows * cols - 1), min_size=n, max_size=n, unique=True)
    )
    faults = tuple(
        FaultSpec(BitLocation(i // cols, i % cols), draw(_timings), draw(_kinds), draw(_onsets))
        for i in linears
    )
    sram_id = draw(st.from_regex(r"[A-Za-z0-9_.\-]{1,12}", fullmatch=True))
    voltage = draw(st.sampled_from(VOLTAGE_SWEEP_MV))
    return FaultMap(sram_id, voltage, geo, faults)


@settings(max_examples=150, deadline=None)
@given(fault_maps())
def test_roundtrip_parse_serialize(m):
    assert parse_fault_map(serialize_fault_map(m)) == m


@settings(max_examples=150, deadline=None)
@given(fault_maps(), st.randoms(use_true_random=False))
def test_serialize_normalizes_shuffled_fault_lines(m, pyrandom):
    canonical = serialize_fault_map(m)
    lines = canonical.splitlines()
    body = lines[5:]
    pyrandom.shuffle(body)
    shuffled = "\n".join(lines[:5] + body) + "\n"
    assert serialize_fault_map(parse_fault_map(shuffled)) == canonical


# ---------------------------------------------------------------------------
# random maps
# ---------------------------------------------------------------------------


def test_random_map_zero_and_saturated():
    assert random_map(0, GEO, 1).fault_count == 0
    full = random_map(GEO.capacity, GEO, 1)
    assert full.fault_count == GEO.capacity


def test_random_map_deterministic_per_seed():
    a = random_map(600, GEO, 42)
    b = random_map(600, GEO, 42)
    c = random_map(600, GEO, 43)
    assert a == b
    assert a != c
    assert all(f.kind is CorruptionKind.STUCK_AT_0 for f in a.faults)
    assert all(f.timing == FaultTiming.permanent() for f in a.faults)


def test_random_map_uniformity_chi_square():
    # 600 faults per map over 1000 seeds: row and column bucket frequencies
    # must be consistent with uniform placement at the 0.01 level
    hits = np.zeros((GEO.rows, GEO.cols))
    for s in range(1000):
        locs = random_map(600, GEO, s).location_array()
        np.add.at(hits, (locs[:, 0], locs[:, 1]), 1.0)
    assert stats.chisquare(hits.sum(axis=1)).pvalue >= 0.01
    assert stats.chisquare(hits.sum(axis=0)).pvalue >= 0.01
    freq = hits.sum() / (1000 * GEO.capacity)
    assert freq == pytest.approx(600 / GEO.capacity)


def test_match_random_map_preserves_count_and_identity():
    hw4 = FaultMap("h", 550, GEO, tuple(FaultSpec(BitLocation(120, c)) for c in range(4)))
    rnd = match_random_map(hw4, 5)
    assert rnd.fault_count == 4
    assert (rnd.sram_id, rnd.voltage_mv, rnd.geometry) == ("h", 550, GEO)
    empty = FaultMap("h", 550, GEO)
    assert match_random_map(empty, 5).fault_count == 0


def test_match_random_map_counts_over_corpus():
    maps = generate_corpus(150, CorpusParams(), 3)
    assert len(maps) >= 1000
    for i, m in enumerate(maps):
        assert match_random_map(m, i).fault_count == m.fault_count


# ---------------------------------------------------------------------------
# fault count distribution
# ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        FaultCountDistribution((2, 4), (0.5, 0.6))
    with pytest.raises(ValueError):
        FaultCountDistribution((4, 2), (0.5, 0.5))
    with pytest.raises(ValueError):
        FaultCountDistribution((2,), (-1.0,))
    d = FaultCountDistribution.default()
    assert sum(d.masses) == pytest.approx(1.0, abs=1e-9)
    assert all(m >= 0 for m in d.masses)


def test_sample_point_mass_and_determinism():
    from voltfi.rng import make_rng

    pm = FaultCountDistribution.point_mass(2)
    assert all(pm.sample(make_rng(s)) == 2 for s in range(20))
    d = FaultCountDistribution.default()
    assert d.sample(make_rng(7)) == d.sample(make_rng(7))


def test_default_distribution_headline_frequencies():
    from voltfi.rng import make_rng

    d = FaultCountDistribution.default()
    rng = make_rng(123)
    draws = np.array([d.sample(rng) for _ in range(20000)])
    for count, expected in ((2, 0.37), (4, 0.15), (6, 0.09), (8, 0.05)):
        assert np.mean(draws == count) == pytest.approx(expected, abs=0.02)


# ---------------------------------------------------------------------------
# hardware-like generation
# ---------------------------------------------------------------------------


def test_hwlike_zero_count_gives_empty_set():
    params = SpatialParams(count_dist=FaultCountDistribution.point_mass(0))
    assert generate_hwlike_sram(GEO, params, 1) == ()


def test_hwlike_long_runs_stay_on_the_grid():
    # 120 faults in one run overflow the rows below the anchor and fill the
    # gaps above it; 300 need at least three columns of 128 rows.
    for count in (120, 300):
        params = SpatialParams(count_dist=FaultCountDistribution.point_mass(count), mean_run_length=1000.0)
        for s in range(20):
            faults = generate_hwlike_sram(GEO, params, s)
            assert FaultMap("x", 540, GEO, faults).fault_count == count
    # the corpus draw whose run once ended at row 128
    corpus = generate_corpus(300, CorpusParams(spatial=SpatialParams(mean_run_length=200.0)), 1)
    assert len(corpus) == 300 * len(VOLTAGE_SWEEP_MV)


def test_hwlike_counts_and_onsets():
    params = SpatialParams()
    for s in range(50):
        faults = generate_hwlike_sram(GEO, params, s)
        locs = {f.location for f in faults}
        assert len(locs) == len(faults)
        for f in faults:
            assert f.onset_voltage_mv is not None
            assert 540 <= f.onset_voltage_mv <= 600
            assert f.kind is CorruptionKind.STUCK_AT_0


def test_hwlike_onsets_non_increasing_upward_in_runs():
    # with outliers disabled, every column is a single run: onsets must not
    # increase as rows decrease (bits nearer the bottom carry higher onsets)
    params = SpatialParams(outlier_probability=0.0)
    for s in range(80):
        faults = generate_hwlike_sram(GEO, params, s)
        by_col: dict[int, list] = {}
        for f in faults:
            by_col.setdefault(f.location.col, []).append(f)
        for col_faults in by_col.values():
            col_faults.sort(key=lambda f: -f.location.row)
            onsets = [f.onset_voltage_mv for f in col_faults]
            assert onsets == sorted(onsets, reverse=True)


def test_hwlike_locality_beats_random():
    # clustered runs: smaller pairwise Manhattan distance, larger
    # same-column fraction than count-matched uniform maps
    params = SpatialParams()
    d_hw, d_rnd, c_hw, c_rnd = [], [], [], []
    n = 0
    for s in range(1000):
        faults = generate_hwlike_sram(GEO, params, s)
        if len(faults) < 4:
            continue
        n += 1
        if n > 200:
            break
        hw = FaultMap("h", 540, GEO, faults)
        rnd = match_random_map(hw, s + 10_000)
        for locs, dd, cc in ((hw.location_array(), d_hw, c_hw), (rnd.location_array(), d_rnd, c_rnd)):
            diff = np.abs(locs[:, None, :] - locs[None, :, :]).sum(axis=2)
            iu = np.triu_indices(len(locs), 1)
            dd.append(diff[iu].mean())
            _, counts = np.unique(locs[:, 1], return_counts=True)
            cc.append(counts[counts > 1].sum() / len(locs))
    assert np.mean(d_hw) < np.mean(d_rnd)
    assert np.mean(c_hw) > np.mean(c_rnd)


# ---------------------------------------------------------------------------
# voltage derivation and corpus
# ---------------------------------------------------------------------------


def test_derive_map_inclusion_and_extremes():
    params = SpatialParams(count_dist=FaultCountDistribution.point_mass(12))
    faults = generate_hwlike_sram(GEO, params, 9)
    full = derive_map_at_voltage(faults, 540, GEO, "s")
    assert len(full.faults) == len(faults)  # lowest voltage sees everything
    top = derive_map_at_voltage(faults, 600, GEO, "s")
    assert set(top.faults) <= set(full.faults)
    with pytest.raises(ValueError):
        derive_map_at_voltage(faults, 700, GEO)
    with pytest.raises(ValueError):
        derive_map_at_voltage((FaultSpec(BitLocation(0, 0)),), 540, GEO)


def test_inclusion_chain_over_sweep():
    params = SpatialParams()
    for s in range(100):
        faults = generate_hwlike_sram(GEO, params, s)
        sets = [set(derive_map_at_voltage(faults, v, GEO).faults) for v in VOLTAGE_SWEEP_MV]
        for lower, higher in zip(sets, sets[1:]):
            assert higher <= lower


def test_corpus_shape_and_empty_fraction_zero():
    maps = generate_corpus(1, CorpusParams(faulty_fraction=0.0), 1)
    assert len(maps) == 7
    assert all(m.fault_count == 0 for m in maps)
    assert [m.voltage_mv for m in maps] == list(VOLTAGE_SWEEP_MV)
    maps = generate_corpus(20, CorpusParams(), 1)
    assert len(maps) == 140
    assert len({m.sram_id for m in maps}) == 20


def test_corpus_deterministic():
    a = [serialize_fault_map(m) for m in generate_corpus(30, CorpusParams(), 5)]
    b = [serialize_fault_map(m) for m in generate_corpus(30, CorpusParams(), 5)]
    assert a == b


# ---------------------------------------------------------------------------
# probability heatmap
# ---------------------------------------------------------------------------


def test_heatmap_single_map_is_indicator():
    m = random_map(300, GEO, 2)
    h = probability_heatmap([m])
    locs = m.location_array()
    assert h.sum() == 300
    assert all(h[r, c] == 1.0 for r, c in locs)
    assert set(np.unique(h)) == {0.0, 1.0}


def test_heatmap_random_corpus_near_uniform():
    maps = [random_map(600, GEO, s) for s in range(400)]
    h = probability_heatmap(maps)
    p = 600 / GEO.capacity
    sd = (p * (1 - p) / 400) ** 0.5
    assert h.max() - h.min() <= 10 * sd
    assert abs(h.mean() - p) < 1e-12


def test_heatmap_hwlike_bottom_heavy():
    params = SpatialParams()
    maps = [
        FaultMap("s", 540, GEO, generate_hwlike_sram(GEO, params, s)) for s in range(400)
    ]
    h = probability_heatmap(maps)
    row_means = h.mean(axis=1)
    q = GEO.rows // 4
    assert row_means[-q:].mean() > 3 * row_means[:q].mean()
    # increasing trend with row index
    assert stats.spearmanr(np.arange(GEO.rows), row_means).statistic > 0.5


def test_heatmap_errors():
    with pytest.raises(ValueError):
        probability_heatmap([])
    a = random_map(5, GEO, 1)
    b = random_map(5, SramGeometry(64, 256), 1)
    with pytest.raises(ValueError):
        probability_heatmap([a, b])

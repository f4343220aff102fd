"""SRAM fault maps.

A fault map lists which bits of one SRAM instance are faulty at one supply
voltage. Two generation methods are provided:

* uniform-random maps (every bit equally likely), and
* hardware-like maps, where faults form vertical runs in a few weak
  columns, cluster toward the bottom rows, and carry an onset voltage (the
  highest supply voltage at which the bit misbehaves). Filtering a
  hardware-like fault set by onset voltage yields one map per voltage step
  with the inclusion property: a bit faulty at some voltage is faulty at
  every lower voltage.

Maps serialize to a line-oriented text format (``# sram-fault-map v1``)
with LF endings and faults sorted by linear bit index.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .rng import SeedLike, make_rng

VOLTAGE_MIN_MV = 540
VOLTAGE_MAX_MV = 600
VOLTAGE_STEP_MV = 10
VOLTAGE_SWEEP_MV = tuple(range(VOLTAGE_MIN_MV, VOLTAGE_MAX_MV + 1, VOLTAGE_STEP_MV))

# Onset voltage of the bottom bit of a weak-column run is drawn from this set.
RUN_ONSET_CHOICES_MV = (560, 570, 580, 590, 600)

# Share of SRAM instances that show any fault at the lowest voltage.
DEFAULT_FAULTY_FRACTION = 2174 / 14420

FORMAT_MAGIC = "# sram-fault-map v1"

_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


@dataclass(frozen=True)
class SramGeometry:
    """Bit layout of one SRAM instance as a rows x cols grid."""

    rows: int = 128
    cols: int = 128

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"geometry must be at least 1x1, got {self.rows}x{self.cols}")

    @property
    def capacity(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True, order=True)
class BitLocation:
    """Bit coordinate; row index grows toward higher addresses."""

    row: int
    col: int

    def linear(self, geometry: SramGeometry) -> int:
        return self.row * geometry.cols + self.col


class CorruptionKind(enum.Enum):
    STUCK_AT_0 = "stuck0"
    STUCK_AT_1 = "stuck1"
    BIT_FLIP = "flip"


class TimingMode(enum.Enum):
    PERMANENT = "permanent"
    TRANSIENT = "transient"
    INTERMITTENT = "intermittent"


@dataclass(frozen=True)
class FaultTiming:
    """When a fault is active, in cache access ticks, from its one start tick:
    a permanent fault at every tick (start 0), a transient one at the first
    access with tick >= start, after which the injector removes it, and an
    intermittent one at ticks in [start, start + duration). `token()` writes
    the map-file form and `parse()` reads it back."""

    mode: TimingMode = TimingMode.PERMANENT
    start: int = 0
    duration: int = 0

    def __post_init__(self):
        if self.mode is TimingMode.TRANSIENT and self.start < 0:
            raise ValueError("transient fire tick must be >= 0")
        if self.mode is TimingMode.INTERMITTENT and (self.start < 0 or self.duration < 1):
            raise ValueError("intermittent needs start tick >= 0 and duration >= 1")

    @classmethod
    def permanent(cls) -> "FaultTiming":
        return cls(TimingMode.PERMANENT)

    @classmethod
    def transient(cls, fire_tick: int) -> "FaultTiming":
        return cls(TimingMode.TRANSIENT, fire_tick)

    @classmethod
    def intermittent(cls, start_tick: int, duration: int) -> "FaultTiming":
        return cls(TimingMode.INTERMITTENT, start_tick, duration)

    def token(self) -> str:
        if self.mode is TimingMode.PERMANENT:
            return "permanent"
        if self.mode is TimingMode.TRANSIENT:
            return f"transient:{self.start}"
        return f"intermittent:{self.start}:{self.duration}"

    @classmethod
    def parse(cls, token: str) -> "FaultTiming":
        name, *ticks = token.split(":")
        if {"permanent": 0, "transient": 1, "intermittent": 2}.get(name) != len(ticks):
            raise ValueError(f"unknown timing: {token!r}")
        return cls(TimingMode(name), *(_parse_int(t, f"{name} tick") for t in ticks))


@dataclass(frozen=True)
class FaultSpec:
    """One faulty bit: where, when, and how it corrupts."""

    location: BitLocation
    timing: FaultTiming = field(default_factory=FaultTiming.permanent)
    kind: CorruptionKind = CorruptionKind.STUCK_AT_0
    onset_voltage_mv: int | None = None

    def __post_init__(self):
        o = self.onset_voltage_mv
        if o is not None and not VOLTAGE_MIN_MV <= o <= VOLTAGE_MAX_MV:
            raise ValueError(f"onset voltage {o} mV outside [{VOLTAGE_MIN_MV}, {VOLTAGE_MAX_MV}]")


def _check_id(sram_id: str) -> None:
    if not _ID_RE.match(sram_id):
        raise ValueError(f"invalid sram_id token: {sram_id!r}")


def _check_location(loc: BitLocation, geo: SramGeometry, seen: set[BitLocation]) -> None:
    """A fault must lie on the grid and not on a location in `seen`, which it joins."""
    if not (0 <= loc.row < geo.rows and 0 <= loc.col < geo.cols):
        raise ValueError(f"fault location {loc} outside {geo.rows}x{geo.cols}")
    if loc in seen:
        raise ValueError(f"duplicate fault location {loc}")
    seen.add(loc)


@dataclass(frozen=True)
class FaultMap:
    """Fault set of one SRAM instance at one supply voltage.

    Faults are stored sorted by linear bit index and must not share a
    location. Construction normalizes the order.
    """

    sram_id: str
    voltage_mv: int
    geometry: SramGeometry
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        _check_id(self.sram_id)
        geo = self.geometry
        seen: set[BitLocation] = set()
        for f in self.faults:
            _check_location(f.location, geo, seen)
        ordered = tuple(sorted(self.faults, key=lambda f: f.location.linear(geo)))
        object.__setattr__(self, "faults", ordered)

    @property
    def fault_count(self) -> int:
        return len(self.faults)

    def location_array(self) -> np.ndarray:
        """(n, 2) int array of fault (row, col) pairs."""
        return np.array([(f.location.row, f.location.col) for f in self.faults], dtype=np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class FaultCountDistribution:
    """Discrete distribution over per-SRAM fault counts."""

    counts: tuple[int, ...]
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.counts) != len(self.masses) or not self.counts:
            raise ValueError("counts and masses must be non-empty and equal length")
        if list(self.counts) != sorted(set(self.counts)):
            raise ValueError("counts must be strictly increasing")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be >= 0")
        total = float(sum(self.masses))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to 1 (got {total})")

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        *cum, last = accumulate(self.masses, initial=0.0)
        return (*cum[1:], max(last, 1.0))

    def sample(self, rng: np.random.Generator) -> int:
        r = float(rng.random())
        idx = bisect_right(self.cumulative, r)
        return self.counts[min(idx, len(self.counts) - 1)]

    @classmethod
    def point_mass(cls, count: int) -> "FaultCountDistribution":
        return cls((count,), (1.0,))

    @classmethod
    def default(cls) -> "FaultCountDistribution":
        """Default per-SRAM fault-count histogram.

        Counts 2/4/6/8 carry 37%/15%/9%/5%. The untabulated remainder is an
        explicit choice: 8%/6%/5%/4% on 10/12/14/16 and the last 11% spread
        over even counts in [18, 600] with weight proportional to 1/count.
        """
        counts = [2, 4, 6, 8, 10, 12, 14, 16]
        masses = [0.37, 0.15, 0.09, 0.05, 0.08, 0.06, 0.05, 0.04]
        tail = list(range(18, 601, 2))
        w = np.array([1.0 / c for c in tail])
        w *= 0.11 / w.sum()
        counts += tail
        masses += [float(x) for x in w]
        return cls(tuple(counts), tuple(masses))


@dataclass(frozen=True)
class SpatialParams:
    """Knobs of the weak-column vertical-run generator."""

    count_dist: FaultCountDistribution = field(default_factory=FaultCountDistribution.default)
    mean_run_length: float = 4.0
    gap_probability: float = 0.2
    outlier_probability: float = 0.05

    def __post_init__(self):
        if not self.mean_run_length > 0:
            raise ValueError("mean_run_length must be > 0")
        if not 0 <= self.gap_probability < 1:
            raise ValueError("gap_probability must be in [0, 1)")
        if not 0 <= self.outlier_probability <= 1:
            raise ValueError("outlier_probability must be in [0, 1]")


@dataclass(frozen=True)
class CorpusParams:
    """Parameters of a synthetic multi-SRAM corpus."""

    geometry: SramGeometry = field(default_factory=SramGeometry)
    spatial: SpatialParams = field(default_factory=SpatialParams)
    faulty_fraction: float = DEFAULT_FAULTY_FRACTION

    def __post_init__(self):
        if not 0 <= self.faulty_fraction <= 1:
            raise ValueError("faulty_fraction must be in [0, 1]")


# ---------------------------------------------------------------------------
# Serialization (v1 text format)
# ---------------------------------------------------------------------------


def serialize_fault_map(fmap: FaultMap) -> str:
    """Render a fault map in the v1 text format (LF endings, sorted faults)."""
    lines = [
        FORMAT_MAGIC,
        f"sram_id={fmap.sram_id}",
        f"voltage_mv={fmap.voltage_mv}",
        f"rows={fmap.geometry.rows}",
        f"cols={fmap.geometry.cols}",
    ]
    for f in fmap.faults:
        onset = "" if f.onset_voltage_mv is None else f" onset_mv={f.onset_voltage_mv}"
        lines.append(f"fault {f.location.row} {f.location.col} {f.kind.value} {f.timing.token()}{onset}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"invalid {what}: {token!r}") from None


def _parse_header_kv(line_text: str, key: str) -> str:
    prefix = key + "="
    if not line_text.startswith(prefix):
        raise ValueError(f"expected '{key}=<value>', got {line_text!r}")
    return line_text[len(prefix):]


_KINDS = {k.value: k for k in CorruptionKind}


def _parse_fault(raw: str) -> FaultSpec:
    toks = raw.split(" ")
    if toks[0] != "fault" or len(toks) not in (5, 6):
        raise ValueError(f"expected fault line, got {raw!r}")
    if toks[3] not in _KINDS:
        raise ValueError(f"unknown corruption kind: {toks[3]!r}")
    onset = None
    if len(toks) == 6:
        if not toks[5].startswith("onset_mv="):
            raise ValueError(f"expected onset_mv=<int>, got {toks[5]!r}")
        onset = _parse_int(toks[5][9:], "onset_mv")
    location = BitLocation(_parse_int(toks[1], "row"), _parse_int(toks[2], "col"))
    return FaultSpec(location, FaultTiming.parse(toks[4]), _KINDS[toks[3]], onset)


def parse_fault_map(text: str) -> FaultMap:
    """Parse v1 fault-map text; an error is a ValueError('line N: <reason>').

    The types own the checks: a value they reject fails with the line that
    holds it."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 5:
        raise ValueError(f"line {len(lines) + 1}: truncated header (need magic + 4 keys)")
    i = 1  # the line being read
    try:
        if lines[0] != FORMAT_MAGIC:
            raise ValueError(f"bad magic line, expected {FORMAT_MAGIC!r}")
        i = 2
        sram_id = _parse_header_kv(lines[1], "sram_id")
        _check_id(sram_id)
        ints = []
        for i, key in enumerate(("voltage_mv", "rows", "cols"), start=3):
            ints.append(_parse_int(_parse_header_kv(lines[i - 1], key), key))
        voltage, rows, cols = ints
        i = 4
        geo = SramGeometry(rows, cols)
        faults = []
        seen: set[BitLocation] = set()
        for i, raw in enumerate(lines[5:], start=6):
            f = _parse_fault(raw)
            _check_location(f.location, geo, seen)
            faults.append(f)
    except ValueError as e:
        raise ValueError(f"line {i}: {e}") from None
    return FaultMap(sram_id, voltage, geo, tuple(faults))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def match_random_map(hw: FaultMap, seed: SeedLike | np.random.Generator) -> FaultMap:
    """Uniform-random map matching a hardware map's id, voltage, geometry and
    fault count: distinct bits without replacement, permanent stuck-at-0."""
    geo = hw.geometry
    idx = make_rng(seed).choice(geo.capacity, size=hw.fault_count, replace=False)
    faults = tuple(FaultSpec(BitLocation(int(i) // geo.cols, int(i) % geo.cols)) for i in np.sort(idx))
    return FaultMap(hw.sram_id, hw.voltage_mv, geo, faults)


def generate_hwlike_sram(
    geometry: SramGeometry,
    params: SpatialParams,
    seed: SeedLike | np.random.Generator,
) -> tuple[FaultSpec, ...]:
    """Generate one SRAM's full fault set with weak-column vertical runs.

    The drawn fault count is split over K = max(1, round(N / mean_run_length),
    ceil(N / rows)) runs in distinct columns. Each run is anchored at a row in
    the bottom quartile and grows upward, skipping bits with the gap
    probability; a run that reaches the top row fills in below its anchor,
    then the gaps it skipped. The bottom bit of a run draws its onset voltage
    from RUN_ONSET_CHOICES_MV and onsets drop by 0 or 10 mV per bit upward
    (equal odds, floored at 540 mV), which guarantees voltage inclusion by
    construction. Each fault is finally relocated to a uniform random free
    bit with the outlier probability, keeping its onset.
    """
    rng = make_rng(seed)
    n = min(params.count_dist.sample(rng), geometry.capacity)
    if n == 0:
        return ()
    k = max(1, round(n / params.mean_run_length), -(-n // geometry.rows))
    k = min(k, geometry.cols)
    run_cols = [int(c) for c in rng.choice(geometry.cols, size=k, replace=False)]
    base, extra = divmod(n, k)
    anchor_lo = (3 * geometry.rows) // 4

    placed: list[tuple[int, int, int]] = []  # (row, col, onset_mv)
    for j, col in enumerate(run_cols):
        want = base + (1 if j < extra else 0)
        if want == 0:
            continue
        anchor = int(rng.integers(anchor_lo, geometry.rows))
        rows_in_run: list[int] = []
        row = anchor
        while len(rows_in_run) < want and row >= 0:
            if rng.random() >= params.gap_probability:
                rows_in_run.append(row)
            row -= 1
        # Ran off the top (only possible for very dense runs): extend below
        # the anchor, which is always free within this column, and past the
        # bottom row, fill the gap rows skipped above it.
        row = anchor + 1
        while len(rows_in_run) < want and row < geometry.rows:
            rows_in_run.append(row)
            row += 1
        if len(rows_in_run) < want:
            rows_in_run += [r for r in range(anchor, -1, -1) if r not in rows_in_run][:want - len(rows_in_run)]
        rows_in_run.sort(reverse=True)
        onset = int(rng.choice(RUN_ONSET_CHOICES_MV))
        for step, r in enumerate(rows_in_run):
            if step > 0 and rng.integers(0, 2) == 1:
                onset = max(VOLTAGE_MIN_MV, onset - VOLTAGE_STEP_MV)
            placed.append((r, col, onset))

    occupied = {(r, c) for r, c, _ in placed}
    out: list[FaultSpec] = []
    for r, c, onset in placed:
        if rng.random() < params.outlier_probability:
            occupied.discard((r, c))
            while True:
                i = int(rng.integers(0, geometry.capacity))
                cand = (i // geometry.cols, i % geometry.cols)
                if cand not in occupied:
                    break
            occupied.add(cand)
            r, c = cand
        out.append(FaultSpec(BitLocation(r, c), onset_voltage_mv=onset))
    out.sort(key=lambda f: f.location.linear(geometry))
    return tuple(out)


def derive_map_at_voltage(
    faults: Iterable[FaultSpec],
    voltage_mv: int,
    geometry: SramGeometry,
    sram_id: str = "sram",
) -> FaultMap:
    """Project a hardware-like fault set onto one voltage of the sweep.

    A bit is faulty at voltage V exactly when its onset voltage is >= V, so
    maps at lower voltages are supersets of maps at higher voltages.
    """
    if not VOLTAGE_MIN_MV <= voltage_mv <= VOLTAGE_MAX_MV:
        raise ValueError(f"voltage {voltage_mv} mV outside modeled window")
    selected = []
    for f in faults:
        if f.onset_voltage_mv is None:
            raise ValueError("fault without onset voltage cannot be voltage-filtered")
        if f.onset_voltage_mv >= voltage_mv:
            selected.append(f)
    return FaultMap(sram_id, voltage_mv, geometry, tuple(selected))


def generate_corpus(n_srams: int, params: CorpusParams, seed: SeedLike) -> list[FaultMap]:
    """Generate n_srams x 7 maps (one per sweep voltage, ascending).

    Each SRAM is faulty at the lowest voltage with probability
    params.faulty_fraction; the rest stay empty at every voltage. SRAM i
    consumes the stream (seed, 0, i), so corpora are reproducible and
    SRAM-parallel.
    """
    if n_srams < 1:
        raise ValueError("n_srams must be >= 1")
    maps: list[FaultMap] = []
    for i in range(n_srams):
        rng = make_rng(seed, 0, i)
        faults: tuple[FaultSpec, ...] = ()
        if rng.random() < params.faulty_fraction:
            faults = generate_hwlike_sram(params.geometry, params.spatial, rng)
        sram_id = f"sram{i:05d}"
        for v in VOLTAGE_SWEEP_MV:
            maps.append(derive_map_at_voltage(faults, v, params.geometry, sram_id))
    return maps


def probability_heatmap(corpus: Sequence[FaultMap]) -> np.ndarray:
    """Per-bit fault frequency over a corpus: entry (r, c) in [0, 1]."""
    maps = list(corpus)
    if not maps:
        raise ValueError("empty corpus")
    geo = maps[0].geometry
    if any(m.geometry != geo for m in maps):
        raise ValueError("corpus mixes geometries")
    acc = np.zeros((geo.rows, geo.cols), dtype=np.float64)
    for m in maps:
        for f in m.faults:
            acc[f.location.row, f.location.col] += 1.0
    return acc / len(maps)

"""Campaign configuration: flat `section.key = value` text files.

Unknown keys are rejected; command-line flags override file values. The
defaults are the CampaignConfig field defaults; DEFAULTS spells them as a
config file would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cachesim import CacheGeometry
from .faultmap import (
    DEFAULT_FAULTY_FRACTION,
    VOLTAGE_SWEEP_MV,
    CorpusParams,
    FaultCountDistribution,
    SpatialParams,
    SramGeometry,
)
from .workloads import BENCHMARKS, DEFAULT_STEP_BUDGET


class ConfigError(ValueError):
    """A bad config; `keys` names the config keys it is about."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


METHOD_BY_TOKEN = {"hw": "HW_FI", "rnd": "RND_FI"}

# config key -> CampaignConfig field
_FIELDS = {
    "corpus.n_srams": "n_srams",
    "corpus.seed": "seed",
    "corpus.faulty_fraction": "faulty_fraction",
    "corpus.rows": "rows",
    "corpus.cols": "cols",
    "spatial.mean_run_length": "mean_run_length",
    "spatial.gap_probability": "gap_probability",
    "spatial.outlier_probability": "outlier_probability",
    "cache.num_sets": "num_sets",
    "cache.associativity": "associativity",
    "cache.line_bytes": "line_bytes",
    "campaign.benchmarks": "benchmarks",
    "campaign.methods": "methods",
    "campaign.voltages": "voltages",
    "workload.seed": "workload_seed",
    "workload.step_budget": "step_budget",
    "run.jobs": "jobs",
}


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse overrides from config text into key -> (value, line number);
    '#' comments and blank lines allowed."""
    overrides: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        overrides[key] = (value, lineno)
    return overrides


@dataclass(frozen=True)
class CampaignConfig:
    n_srams: int = 2060
    seed: int = 1
    faulty_fraction: float = DEFAULT_FAULTY_FRACTION
    rows: int = 128
    cols: int = 128
    mean_run_length: float = 4.0
    gap_probability: float = 0.2
    outlier_probability: float = 0.05
    num_sets: int = 16
    associativity: int = 2
    line_bytes: int = 64
    benchmarks: tuple[str, ...] = BENCHMARKS
    methods: tuple[str, ...] = ("HW_FI", "RND_FI")
    voltages: tuple[int, ...] = VOLTAGE_SWEEP_MV
    workload_seed: int = 0
    step_budget: int = DEFAULT_STEP_BUDGET
    jobs: int = 0  # 0 = all cores; output bytes are order-independent

    def __post_init__(self):
        if self.n_srams < 1:
            raise ConfigError("corpus.n_srams must be >= 1", "corpus.n_srams")
        if self.jobs < 0:
            raise ConfigError("run.jobs must be >= 0 (0 = all cores)", "run.jobs")
        unknown = [b for b in self.benchmarks if b not in BENCHMARKS]
        if unknown:
            raise ConfigError(f"unknown benchmarks: {', '.join(unknown)}", "campaign.benchmarks")
        bad_v = [v for v in self.voltages if v not in VOLTAGE_SWEEP_MV]
        if bad_v:
            raise ConfigError(f"voltages outside the sweep {VOLTAGE_SWEEP_MV}: {bad_v}", "campaign.voltages")
        bad_m = [m for m in self.methods if m not in METHOD_BY_TOKEN.values()]
        if bad_m:
            raise ConfigError(f"unknown methods: {bad_m}", "campaign.methods")
        if self.step_budget < 1:
            raise ConfigError("workload.step_budget must be >= 1", "workload.step_budget")
        for build, keys in ((self.sram_geometry, ("corpus.rows", "corpus.cols")),
                            (self.cache_geometry, ("cache.num_sets", "cache.associativity", "cache.line_bytes")),
                            (self.corpus_params, ("corpus.faulty_fraction", "spatial.mean_run_length",
                                                  "spatial.gap_probability", "spatial.outlier_probability"))):
            try:
                build()
            except ValueError as e:
                raise ConfigError(str(e), *keys) from None
        if self.cache_geometry().capacity_bits != self.sram_geometry().capacity:
            raise ConfigError(
                "cache capacity must equal SRAM capacity "
                f"({self.cache_geometry().capacity_bits} != {self.sram_geometry().capacity} bits)",
                "corpus.rows", "corpus.cols", "cache.num_sets", "cache.associativity", "cache.line_bytes",
            )

    def sram_geometry(self) -> SramGeometry:
        return SramGeometry(self.rows, self.cols)

    def cache_geometry(self) -> CacheGeometry:
        return CacheGeometry(self.num_sets, self.associativity, self.line_bytes)

    def corpus_params(self) -> CorpusParams:
        return CorpusParams(
            geometry=self.sram_geometry(),
            spatial=SpatialParams(
                count_dist=FaultCountDistribution.default(),
                mean_run_length=self.mean_run_length,
                gap_probability=self.gap_probability,
                outlier_probability=self.outlier_probability,
            ),
            faulty_fraction=self.faulty_fraction,
        )


def _spell(key: str, value) -> str:
    """A field value as a config file writes it."""
    if key == "campaign.methods":
        token_of = {name: tok for tok, name in METHOD_BY_TOKEN.items()}
        value = tuple(token_of[m] for m in value)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


DEFAULTS: dict[str, str] = {key: _spell(key, getattr(CampaignConfig, name)) for key, name in _FIELDS.items()}


def _parse(key: str, text: str, default):
    """A config value as the type of its field's default."""
    if isinstance(default, tuple):
        toks = tuple(tok.strip() for tok in text.split(",") if tok.strip())
        if key == "campaign.methods":
            for tok in toks:
                if tok not in METHOD_BY_TOKEN:
                    raise ConfigError(f"campaign.methods tokens must be hw/rnd, got {tok!r}", key)
            return tuple(METHOD_BY_TOKEN[tok] for tok in toks)
        if isinstance(default[0], int):
            try:
                return tuple(int(tok) for tok in toks)
            except ValueError:
                raise ConfigError(f"{key} must be integers", key) from None
        return toks
    kind, noun = (float, "a number") if isinstance(default, float) else (int, "an integer")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be {noun}, got {text!r}", key) from None


def _build(values: dict[str, str]) -> CampaignConfig:
    return CampaignConfig(**{name: _parse(key, values[key], getattr(CampaignConfig, name))
                             for key, name in _FIELDS.items()})


def load_config(path: str | None = None, *, seed: int | None = None,
                jobs: int | None = None) -> CampaignConfig:
    """Merge defaults, an optional config file, and CLI flag overrides.

    A value error about keys set from the file starts with `line N:`."""
    values = dict(DEFAULTS)
    lines: dict[str, int] = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for key, (value, lineno) in parse_config_text(fh.read()).items():
                values[key] = value
                lines[key] = lineno
    if seed is not None:
        values["corpus.seed"] = str(seed)
    if jobs is not None:
        values["run.jobs"] = str(jobs)
        lines.pop("run.jobs", None)
    try:
        return _build(values)
    except ConfigError as e:  # name the first file line of the keys at fault
        at = min((lines[k] for k in e.keys if k in lines), default=None)
        if at is None:
            raise
        raise ConfigError(f"line {at}: {e}", *e.keys) from None

"""Campaign configuration: flat `section.key = value` text files.

Unknown keys, keys set twice, empty lists and lists that give a value
twice are rejected; command-line flags override file values. The
defaults are the CampaignConfig field defaults, which read them from the
types that own them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cachesim import CacheGeometry
from .faultmap import VOLTAGE_SWEEP_MV, CorpusParams, SpatialParams, SramGeometry
from .harness import HW_FI, RND_FI
from .rng import substream
from .workloads import BENCHMARKS, DEFAULT_STEP_BUDGET


class ConfigError(ValueError):
    """A bad config; `keys` names the config keys it is about."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


METHOD_BY_TOKEN = {"hw": HW_FI, "rnd": RND_FI}

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
        if key in overrides:
            raise ConfigError(f"line {lineno}: {key} set twice, first on line {overrides[key][1]}")
        overrides[key] = (value, lineno)
    return overrides


@dataclass(frozen=True)
class CampaignConfig:
    n_srams: int = 2060
    seed: int = 1
    faulty_fraction: float = CorpusParams.faulty_fraction
    rows: int = SramGeometry.rows
    cols: int = SramGeometry.cols
    mean_run_length: float = SpatialParams.mean_run_length
    gap_probability: float = SpatialParams.gap_probability
    outlier_probability: float = SpatialParams.outlier_probability
    num_sets: int = CacheGeometry.num_sets
    associativity: int = CacheGeometry.associativity
    line_bytes: int = CacheGeometry.line_bytes
    benchmarks: tuple[str, ...] = BENCHMARKS
    methods: tuple[str, ...] = tuple(METHOD_BY_TOKEN.values())
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
        if self.step_budget < 1:
            raise ConfigError("workload.step_budget must be >= 1", "workload.step_budget")
        for build, keys in ((lambda: substream(self.seed), ("corpus.seed",)),
                            (lambda: substream(self.workload_seed), ("workload.seed",)),
                            (self.sram_geometry, ("corpus.rows", "corpus.cols")),
                            (self.cache_geometry, ("cache.num_sets", "cache.associativity", "cache.line_bytes")),
                            (self.corpus_params, ("corpus.faulty_fraction", "spatial.mean_run_length",
                                                  "spatial.gap_probability", "spatial.outlier_probability"))):
            try:
                build()
            except ValueError as e:
                raise ConfigError(f"{e} ({', '.join(keys)})", *keys) from None
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
                mean_run_length=self.mean_run_length,
                gap_probability=self.gap_probability,
                outlier_probability=self.outlier_probability,
            ),
            faulty_fraction=self.faulty_fraction,
        )


def _parse(key: str, text: str, default):
    """A config value as the type of its field's default."""
    if isinstance(default, tuple):
        toks = tuple(tok.strip() for tok in text.split(",") if tok.strip())
        if not toks:
            raise ConfigError(f"{key} must not be empty", key)
        if key == "campaign.methods":
            for tok in toks:
                if tok not in METHOD_BY_TOKEN:
                    raise ConfigError(f"campaign.methods tokens must be hw/rnd, got {tok!r}", key)
            values = tuple(METHOD_BY_TOKEN[tok] for tok in toks)
        elif isinstance(default[0], int):
            try:
                values = tuple(int(tok) for tok in toks)
            except ValueError:
                raise ConfigError(f"{key} must be integers", key) from None
        else:
            values = toks
        for i, v in enumerate(values):
            if v in values[:i]:
                raise ConfigError(f"{key} lists {toks[i]!r} twice", key)
        return values
    kind, noun = (float, "a number") if isinstance(default, float) else (int, "an integer")
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(f"{key} must be {noun}, got {text!r}", key) from None


def load_config(text: str = "", *, seed: int | None = None,
                jobs: int | None = None) -> CampaignConfig:
    """The CampaignConfig of the keys that config text sets, with CLI flags
    overriding them; every other field keeps its default.

    A value error about keys set in the text starts with `line N:`."""
    flags = {"corpus.seed": seed, "run.jobs": jobs}
    # a flag replaces the key and its line
    given = {k: v for k, v in parse_config_text(text).items() if flags.get(k) is None}
    try:
        fields = {_FIELDS[k]: _parse(k, value, getattr(CampaignConfig, _FIELDS[k])) for k, (value, _) in given.items()}
        fields.update((_FIELDS[k], v) for k, v in flags.items() if v is not None)
        return CampaignConfig(**fields)
    except ConfigError as e:  # name the first file line of the keys at fault
        at = min((given[k][1] for k in e.keys if k in given), default=None)
        if at is None:
            raise
        raise ConfigError(f"line {at}: {e}", *e.keys) from None

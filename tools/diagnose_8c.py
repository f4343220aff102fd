"""Why acceptance criterion 8c fails: mc's SDC errors by the fault bits hit.

    python3 tools/diagnose_8c.py OUT_DIR

OUT_DIR is a campaign tree written by `voltfi genmaps` and `voltfi run`
(index.csv, the maps it names, and results.csv). For the mc SDCs of each
method it prints the median relative error, the mean highest faulty bit in
a 16-bit lane (`col % 16`: one SRAM row is a quarter of a cache line, so
column c is always bit c % 64 of a u64 word, and mc packs four 16-bit angles
into each word), and the mean number of distinct lane bits and of distinct
columns per map. It then splits the SDCs by that highest lane bit and prints
a two-sample KS p-value per stratum that holds at least MIN_STRATUM SDCs of
each method, next to the p-value over all SDCs that criterion 8c tests.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

from scipy import stats

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from voltfi.cli import read_index  # noqa: E402
from voltfi.config import METHOD_BY_TOKEN  # noqa: E402
from voltfi.faultmap import parse_fault_map  # noqa: E402
from voltfi.harness import Outcome, records_from_csv  # noqa: E402

LANE_BITS = 16
MIN_STRATUM = 8
METHODS = ("HW_FI", "RND_FI")


def mc_sdcs(out: Path) -> dict[str, list[tuple[float, set[int]]]]:
    """Per method, (relative error, faulty SRAM columns) of every mc SDC."""
    paths = {(METHOD_BY_TOKEN[e["method"]], e["sram_id"], e["voltage_mv"]): e["path"] for e in read_index(out)}
    records = records_from_csv((out / "results.csv").read_text(encoding="utf-8"))
    sdcs: dict[str, list[tuple[float, set[int]]]] = {m: [] for m in METHODS}
    for r in records:
        if r.benchmark == "mc" and r.outcome is Outcome.SDC:
            fmap = parse_fault_map((out / paths[(r.method, r.sram_id, r.voltage_mv)]).read_text(encoding="utf-8"))
            sdcs[r.method].append((r.quality.value, {f.location.col for f in fmap.faults}))
    return sdcs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 1
    sdcs = mc_sdcs(Path(argv[1]))
    rows = {
        "SDCs": lambda s: f"{len(s)}",
        "median error": lambda s: f"{statistics.median(e for e, _ in s):.4f}",
        f"mean highest lane bit (col % {LANE_BITS})":
            lambda s: f"{statistics.mean(max(c % LANE_BITS for c in cols) for _, cols in s):.2f}",
        "mean distinct lane bits per map":
            lambda s: f"{statistics.mean(len({c % LANE_BITS for c in cols}) for _, cols in s):.2f}",
        "mean distinct columns per map": lambda s: f"{statistics.mean(len(cols) for _, cols in s):.2f}",
    }
    print("| statistic | " + " | ".join(METHODS) + " |")
    print("|---|" + "---|" * len(METHODS))
    for name, fn in rows.items():
        print(f"| {name} | " + " | ".join(fn(sdcs[m]) for m in METHODS) + " |")

    errors = {m: [e for e, _ in sdcs[m]] for m in METHODS}
    print(f"\nKS over all mc SDCs: p = {stats.ks_2samp(*errors.values()).pvalue:.3g}")
    print(f"\nBy highest lane bit hit (strata with >= {MIN_STRATUM} SDCs per method):\n")
    print("| highest lane bit | " + " | ".join(f"{m} SDCs" for m in METHODS) + " | KS p |")
    print("|---|" + "---|" * (len(METHODS) + 1))
    for bit in range(LANE_BITS):
        strata = {m: [e for e, cols in sdcs[m] if max(c % LANE_BITS for c in cols) == bit] for m in METHODS}
        if min(len(s) for s in strata.values()) >= MIN_STRATUM:
            p = stats.ks_2samp(*strata.values()).pvalue
            print(f"| {bit} | " + " | ".join(str(len(strata[m])) for m in METHODS) + f" | {p:.3g} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

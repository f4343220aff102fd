"""Command-line entry point.

Commands: genmaps (write a fault-map corpus), run (execute the injection
campaign), report (render CSV/SVG views from a results file), heatmap
(per-bit fault probability as CSV + PGM). Exit codes: 0 success, 1
usage/config error, 2 runtime or I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import os
import sys
from pathlib import Path

from .cachesim import CacheGeometry
from .config import METHOD_BY_TOKEN, CampaignConfig, ConfigError, load_config
from .faultmap import (
    VOLTAGE_SWEEP_MV,
    FaultMap,
    generate_corpus,
    match_random_map,
    parse_fault_map,
    probability_heatmap,
    serialize_fault_map,
)
from .harness import (
    format_quality,
    golden_run,
    records_from_csv,
    records_to_csv,
    run_experiment,
)
from .pgm import encode_pgm, scale_to_u8
from .report import write_reports
from .rng import substream
from .workloads import WorkloadConfig

INDEX_NAME = "index.csv"
INDEX_HEADER = "method,sram_id,voltage_mv,fault_count,path"


class _Parser(argparse.ArgumentParser):
    # usage errors are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="voltfi", description=__doc__)
    p.add_argument("--config", metavar="PATH", help="campaign config file")
    p.add_argument("--seed", type=int, metavar="U64", help="override corpus.seed")
    p.add_argument("--out", default="out", metavar="DIR", help="output directory (default: out)")
    p.add_argument("--jobs", type=int, metavar="N", help="override run.jobs (0 = all cores)")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("genmaps", help="generate the fault-map corpus")
    sub.add_parser("run", help="run the fault-injection campaign over the corpus")
    rp = sub.add_parser("report", help="render reports from a results CSV")
    rp.add_argument("results", nargs="?", help="results CSV (default: <out>/results.csv)")
    hp = sub.add_parser("heatmap", help="per-bit fault probability of a corpus")
    hp.add_argument("corpus", nargs="?", help="corpus directory (default: <out>)")
    hp.add_argument("--method", choices=("hw", "rnd", "all"), default="all")
    return p


# ---------------------------------------------------------------------------
# genmaps
# ---------------------------------------------------------------------------


def cmd_genmaps(cfg: CampaignConfig, out: Path) -> None:
    maps_dir = out / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)
    corpus = generate_corpus(cfg.n_srams, cfg.corpus_params(), cfg.seed)
    n_voltages = len(VOLTAGE_SWEEP_MV)
    index = [INDEX_HEADER]
    for i in range(cfg.n_srams):
        sram_maps = corpus[i * n_voltages:(i + 1) * n_voltages]
        sram_dir = maps_dir / sram_maps[0].sram_id
        sram_dir.mkdir(exist_ok=True)
        for vidx, hw in enumerate(sram_maps):
            rel = f"maps/{hw.sram_id}/hw_{hw.voltage_mv}.fm"
            (out / rel).write_bytes(serialize_fault_map(hw).encode("utf-8"))
            index.append(f"hw,{hw.sram_id},{hw.voltage_mv},{hw.fault_count},{rel}")
            if hw.fault_count:
                rnd = match_random_map(hw, substream(cfg.seed, 1, i, vidx))
                rel = f"maps/{hw.sram_id}/rnd_{hw.voltage_mv}.fm"
                (out / rel).write_bytes(serialize_fault_map(rnd).encode("utf-8"))
                index.append(f"rnd,{rnd.sram_id},{rnd.voltage_mv},{rnd.fault_count},{rel}")
    _write_atomic(out / INDEX_NAME, ("\n".join(index) + "\n").encode("utf-8"))
    print(f"wrote {len(index) - 1} maps under {out}")


def _write_atomic(path: Path, data: bytes) -> None:
    """Write path through a temp file beside it, so a cut write leaves the old file whole."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _read(path: Path, name: str, parse=str):
    """parse of path's UTF-8 text, with universal newlines; a content error names name and its line."""
    data = path.read_bytes()
    try:
        return parse(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except UnicodeDecodeError as e:
        nl = b"\n"
        raise ValueError(f"{name} line {data[:e.start].count(nl) + 1}: not valid UTF-8") from None
    except ValueError as e:  # the parser's `line N: <reason>`
        raise ValueError(f"{name} {e}") from None


def _parse_index(text: str) -> list[dict]:
    lines = text.strip("\n").split("\n")
    entries, first_line = [], {}  # path -> the line that lists it
    n = 1  # the line being read
    try:
        if lines[0] != INDEX_HEADER:
            raise ValueError(f"bad header, expected {INDEX_HEADER!r}")
        for n, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(f"expected 5 fields, got {len(fields)}")
            method, sram_id, voltage, count, path = fields
            if method not in METHOD_BY_TOKEN:
                raise ValueError(f"unknown method {method!r}")
            try:
                voltage_mv, fault_count = int(voltage), int(count)
            except ValueError:
                raise ValueError("voltage_mv and fault_count must be integers") from None
            if path in first_line:
                raise ValueError(f"{path} listed twice, first on line {first_line[path]}")
            first_line[path] = n
            entries.append({
                "method": method,
                "sram_id": sram_id,
                "voltage_mv": voltage_mv,
                "fault_count": fault_count,
                "path": path,
            })
    except ValueError as e:
        raise ValueError(f"line {n}: {e}") from None
    return entries


def read_index(out: Path) -> list[dict]:
    return _read(out / INDEX_NAME, INDEX_NAME, _parse_index)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(geometry: CacheGeometry, workload_seed: int, step_budget: int) -> None:
    _WORKER.update(geometry=geometry, workload_seed=workload_seed, step_budget=step_budget, goldens={})


def _run_task(task: tuple[str, str, FaultMap]):
    benchmark, method, fmap = task
    wcfg = WorkloadConfig(benchmark, seed=_WORKER["workload_seed"],
                          step_budget=_WORKER["step_budget"])
    golden = _WORKER["goldens"].get(benchmark)
    if golden is None:
        golden = golden_run(benchmark, wcfg, _WORKER["geometry"])
        _WORKER["goldens"][benchmark] = golden
    return run_experiment(benchmark, wcfg, fmap, method, golden, _WORKER["geometry"])


def _fault_set_key(fmap: FaultMap) -> tuple:
    """All of a map that the cache reads: maps with equal keys give equal runs."""
    return fmap.geometry, tuple((f.location, f.kind, f.timing) for f in fmap.faults)


def cmd_run(cfg: CampaignConfig, out: Path) -> None:
    voltages, capacity = set(cfg.voltages), cfg.cache_geometry().capacity_bits
    groups: dict[tuple, list[tuple[str, FaultMap]]] = {}  # fault set -> its (method, map)s
    first_path: dict[tuple, str] = {}  # a results row's (method, sram_id, voltage_mv) -> its map
    for e in read_index(out):
        method = METHOD_BY_TOKEN[e["method"]]
        # only maps that manifest errors are simulated
        if e["fault_count"] < 1 or method not in cfg.methods or e["voltage_mv"] not in voltages:
            continue
        fmap = _read(out / e["path"], e["path"], parse_fault_map)
        if fmap.geometry.capacity != capacity:  # rows= and cols= start on line 4
            raise ValueError(f"{e['path']} line 4: fault map capacity {fmap.geometry.capacity} "
                             f"!= cache capacity {capacity} bits")
        row = (method, fmap.sram_id, fmap.voltage_mv)
        if first_path.setdefault(row, e["path"]) != e["path"]:
            raise ValueError(f"{e['path']} line 2: {method} {fmap.sram_id} at {fmap.voltage_mv} mV "
                             f"repeats {first_path[row]}")
        groups.setdefault(_fault_set_key(fmap), []).append((method, fmap))
    # one simulation per (benchmark, fault set); its record is copied to every map of the set
    tasks, fan_out = [], []
    for maps in groups.values():
        for benchmark in cfg.benchmarks:
            tasks.append((benchmark, *maps[0]))
            fan_out.append(maps)
    jobs = min(cfg.jobs or os.cpu_count() or 1, len(tasks))  # a Pool starts every worker up front
    init_args = (cfg.cache_geometry(), cfg.workload_seed, cfg.step_budget)
    if jobs < 2:
        _init_worker(*init_args)
        simulated = [_run_task(t) for t in tasks]
    else:
        with multiprocessing.Pool(jobs, initializer=_init_worker, initargs=init_args) as pool:
            simulated = list(pool.imap(_run_task, tasks, chunksize=8))
    records = [
        dataclasses.replace(rec, method=method, sram_id=fmap.sram_id, voltage_mv=fmap.voltage_mv,
                            fault_count=fmap.fault_count)
        for rec, maps in zip(simulated, fan_out) for method, fmap in maps
    ]
    _write_atomic(out / "results.csv", records_to_csv(records).encode("utf-8"))
    print(f"ran {len(records)} experiments ({len(simulated)} simulated) -> {out / 'results.csv'}")


# ---------------------------------------------------------------------------
# report / heatmap
# ---------------------------------------------------------------------------


def cmd_report(results_path: Path, out: Path) -> None:
    records = _read(results_path, str(results_path), records_from_csv)
    if not records:
        raise RuntimeError(f"no experiment records in {results_path}")
    names = write_reports(records, out / "report")
    print(f"wrote {', '.join(names)} under {out / 'report'}")


def cmd_heatmap(corpus_dir: Path, out: Path, method: str) -> None:
    entries = read_index(corpus_dir)
    maps = [_read(corpus_dir / e["path"], e["path"], parse_fault_map)
            for e in entries if method in ("all", e["method"])]
    if not maps:
        raise RuntimeError(f"no {method} maps found in {corpus_dir}")
    matrix = probability_heatmap(maps)
    rows = [",".join(format_quality(v) for v in row) for row in matrix]
    out.mkdir(parents=True, exist_ok=True)
    (out / f"heatmap_{method}.csv").write_bytes(("\n".join(rows) + "\n").encode("utf-8"))
    (out / f"heatmap_{method}.pgm").write_bytes(encode_pgm(scale_to_u8(matrix)))
    print(f"wrote heatmap_{method}.csv and heatmap_{method}.pgm under {out}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        text = _read(Path(args.config), args.config) if args.config else ""
        cfg = load_config(text, seed=args.seed, jobs=args.jobs)
        if args.command == "genmaps":
            cmd_genmaps(cfg, out)
        elif args.command == "run":
            cmd_run(cfg, out)
        elif args.command == "report":
            cmd_report(Path(args.results) if args.results else out / "results.csv", out)
        else:
            cmd_heatmap(Path(args.corpus) if args.corpus else out, out, args.method)
    except ConfigError as e:
        print(f"voltfi: config error: {e}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as e:
        print(f"voltfi: error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import dataclasses
import hashlib
import io
import re
import tempfile
import types
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltfi import cli, harness
from voltfi.cli import INDEX_HEADER, main, read_index
from voltfi.config import METHOD_BY_TOKEN, ConfigError, load_config, parse_config_text
from voltfi.faultmap import (
    BitLocation,
    CorruptionKind,
    FaultMap,
    FaultSpec,
    FaultTiming,
    SramGeometry,
    parse_fault_map,
    serialize_fault_map,
)
from voltfi.workloads import WorkloadConfig

SRAM = SramGeometry()


def decode_pgm(data: bytes) -> np.ndarray:
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError("not a binary P5 PGM with maxval 255")
    w, h = (int(t) for t in parts[1].split())
    raster = parts[3]
    if len(raster) != w * h:
        raise ValueError("raster size mismatch")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def write_config(tmp_path, text):
    p = tmp_path / "campaign.cfg"
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_and_overrides():
    cfg = load_config()
    assert cfg.n_srams == 2060 and cfg.jobs == 0
    assert cfg.cache_geometry().capacity_bits == cfg.sram_geometry().capacity == 16384
    over = parse_config_text("corpus.n_srams = 99\n# comment\n\nrun.jobs = 4\n")
    assert over == {"corpus.n_srams": ("99", 1), "run.jobs": ("4", 4)}


def test_config_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config_text("corpus.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some text\n")
    with pytest.raises(ConfigError):
        load_config("corpus.n_srams = zero\n")
    with pytest.raises(ConfigError):
        load_config("campaign.voltages = 540,555\n")
    with pytest.raises(ConfigError):
        load_config("cache.num_sets = 8\n")  # capacity mismatch


@pytest.mark.parametrize("text, message", [
    ("# sizes\ncorpus.n_srams = x\n", "line 2: corpus.n_srams must be an integer, got 'x'"),
    ("corpus.seed = 3\n\nspatial.gap_probability = often\n", "line 3: spatial.gap_probability must be a number"),
    ("campaign.voltages = 540,low\n", "line 1: campaign.voltages must be integers"),
    ("run.jobs = 2\ncorpus.n_srams = 0\n", "line 2: corpus.n_srams must be >= 1"),
    ("corpus.seed = 3\ncache.num_sets = 0\n", "line 2: cache geometry fields must be >= 1"),
    ("spatial.gap_probability = 1.5\n", "line 1: gap_probability must be in [0, 1)"),
    ("\nworkload.step_budget = 0\n", "line 2: workload.step_budget must be >= 1"),
    ("corpus.seed = -1\n", "line 1: expected non-negative integer"),
    ("run.jobs = 1\nworkload.seed = -5\n", "line 2: expected non-negative integer"),
    ("corpus.seed = -1\n", "line 1: expected non-negative integer (corpus.seed)"),
    ("corpus.seed = 1\nrun.jobs = 2\ncorpus.seed = 2\n", "line 3: corpus.seed set twice, first on line 1"),
    ("campaign.benchmarks = sobel,sobel\n", "line 1: campaign.benchmarks lists 'sobel' twice"),
    ("run.jobs = 1\ncampaign.methods = hw,rnd,hw\n", "line 2: campaign.methods lists 'hw' twice"),
    ("campaign.voltages = 540,550,540\n", "line 1: campaign.voltages lists '540' twice"),
    ("campaign.benchmarks =\n", "line 1: campaign.benchmarks must not be empty"),
    ("\ncampaign.methods = ,\n", "line 2: campaign.methods must not be empty"),
    ("campaign.voltages =  # none\n", "line 1: campaign.voltages must not be empty"),
    ("spatial.mean_run_length = nan\n", "line 1: mean_run_length must be > 0"),
])
def test_config_value_error_names_its_line(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path, text)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "genmaps"]) == 1
    assert message in capsys.readouterr().err


def test_flag_value_error_names_its_key(tmp_path, capsys):
    assert main(["--seed", "-1", "--out", str(tmp_path / "o"), "genmaps"]) == 1
    assert "config error: expected non-negative integer (corpus.seed)" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_utf8_config_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "campaign.cfg"
    cfg.write_bytes("corpus.n_srams = 3\n# caf\xe9\n".encode("latin-1"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "genmaps"]) == 2
    assert f"voltfi: error: {cfg} line 2: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])  # usage error
    assert e.value.code == 1
    cfg = write_config(tmp_path, "corpus.n_srams = nope\n")
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "genmaps"]) == 1
    # missing corpus for run / heatmap / report
    assert main(["--out", str(tmp_path / "missing"), "run"]) == 2
    assert main(["--out", str(tmp_path / "missing"), "report"]) == 2
    assert main(["--out", str(tmp_path / "missing"), "heatmap"]) == 2


def test_report_malformed_row_exit_2(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    bad.write_text(
        "benchmark,method,sram_id,voltage_mv,fault_count,outcome,metric,quality\n"
        "sobel,HW_FI,s0,540,notanint,correct,,\n"
    )
    assert main(["--out", str(tmp_path), "report", str(bad)]) == 2
    assert f"voltfi: error: {bad} line 2: voltage_mv and fault_count must be integers" in capsys.readouterr().err


def test_report_repeated_row_exit_2(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    lines = FIXTURE_CSV.split("\n")
    bad.write_text("\n".join([*lines[:4], lines[2].replace(",30", ",31"), *lines[4:]]))
    assert main(["--out", str(tmp_path), "report", str(bad)]) == 2
    assert f"voltfi: error: {bad} line 5: sobel,HW_FI,s1,540 repeats line 3" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def run_with_index_line(tmp_path, line):
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "index.csv").write_text(f"{INDEX_HEADER}\nhw,s00,540,2,maps/s00/hw_540.fm\n{line}\n")
    return main(["--out", str(out), "run"])


def test_index_wrong_field_count_exit_2(tmp_path, capsys):
    assert run_with_index_line(tmp_path, "hw,s00,540,2") == 2
    assert "index.csv line 3: expected 5 fields, got 4" in capsys.readouterr().err


def test_index_bad_header_names_line_1(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "index.csv").write_text("method,sram,voltage_mv,fault_count,path\n")
    assert main(["--out", str(out), "run"]) == 2
    assert f"index.csv line 1: bad header, expected '{INDEX_HEADER}'" in capsys.readouterr().err


def test_index_non_integer_voltage_or_count_exit_2(tmp_path, capsys):
    assert run_with_index_line(tmp_path / "v", "hw,s00,low,2,maps/s00/hw_low.fm") == 2
    assert "index.csv line 3: voltage_mv and fault_count must be integers" in capsys.readouterr().err
    assert run_with_index_line(tmp_path / "c", "hw,s00,540,two,maps/s00/hw_540.fm") == 2
    assert "index.csv line 3: voltage_mv and fault_count must be integers" in capsys.readouterr().err


def test_index_unknown_method_exit_2(tmp_path, capsys):
    assert run_with_index_line(tmp_path, "sw,s00,540,2,maps/s00/sw_540.fm") == 2
    assert "index.csv line 3: unknown method 'sw'" in capsys.readouterr().err


def test_index_repeated_path_exit_2(tmp_path, capsys):
    assert run_with_index_line(tmp_path, "hw,s00,540,2,maps/s00/hw_540.fm") == 2
    assert "error: index.csv line 3: maps/s00/hw_540.fm listed twice, first on line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# genmaps
# ---------------------------------------------------------------------------


def test_genmaps_zero_faulty_fraction(tmp_path):
    cfg = write_config(tmp_path, "corpus.n_srams = 10\ncorpus.faulty_fraction = 0\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "genmaps"]) == 0
    entries = read_index(out)
    assert len(entries) == 70
    assert all(e["method"] == "hw" and e["fault_count"] == 0 for e in entries)
    assert not list(out.glob("maps/*/rnd_*.fm"))


def test_genmaps_deterministic_and_counts_match(tmp_path):
    cfg = write_config(tmp_path, "corpus.n_srams = 60\ncorpus.seed = 17\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "genmaps"]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "genmaps"]) == 0
    assert tree_digest(out_a) == tree_digest(out_b)

    entries = read_index(out_a)
    hw = {(e["sram_id"], e["voltage_mv"]): e for e in entries if e["method"] == "hw"}
    rnd = [e for e in entries if e["method"] == "rnd"]
    assert len(hw) == 60 * 7
    assert rnd, "seed 17 should produce at least one faulty SRAM"
    for e in rnd:
        partner = hw[(e["sram_id"], e["voltage_mv"])]
        assert partner["fault_count"] == e["fault_count"] >= 1
        m = parse_fault_map((out_a / e["path"]).read_text())
        assert m.fault_count == e["fault_count"]
    # every faulty hw map has a matched rnd file
    faulty_hw = [e for e in hw.values() if e["fault_count"] >= 1]
    assert len(faulty_hw) == len(rnd)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def synth_corpus(out: Path, maps):
    """Write a hand-rolled corpus directory: [(method, FaultMap), ...]."""
    rows = [INDEX_HEADER]
    for method, m in maps:
        rel = f"maps/{m.sram_id}/{method}_{m.voltage_mv}.fm"
        p = out / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(serialize_fault_map(m).encode())
        rows.append(f"{method},{m.sram_id},{m.voltage_mv},{m.fault_count},{rel}")
    (out / "index.csv").write_bytes(("\n".join(rows) + "\n").encode())


def two_fault_map(sram_id="s00", voltage=540):
    return FaultMap(sram_id, voltage, SRAM,
                    (FaultSpec(BitLocation(100, 3)), FaultSpec(BitLocation(101, 3))))


RUN_FAULTS = (
    *(FaultSpec(BitLocation(r, 3), kind=CorruptionKind.STUCK_AT_1) for r in range(96, 104)),
    FaultSpec(BitLocation(120, 40)),
)


def hw_and_rnd_of_one_fault_set(hw_id="s00", rnd_id="s01"):
    """An HW fault set at 540 and 550 mV and an RND map of the same faults, without onsets."""
    hw = [FaultMap(hw_id, v, SRAM, tuple(FaultSpec(f.location, f.timing, f.kind, 560) for f in RUN_FAULTS))
          for v in (540, 550)]
    return [("hw", hw[0]), ("hw", hw[1]), ("rnd", FaultMap(rnd_id, 540, SRAM, RUN_FAULTS))]


def test_run_single_map_both_methods_two_rows(tmp_path):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()), ("rnd", two_fault_map())])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel\n")
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 3  # header + 2 data rows
    assert {l.split(",")[1] for l in lines[1:]} == {"HW_FI", "RND_FI"}


@pytest.mark.parametrize("command", [["--jobs", "1", "run"], ["--jobs", "2", "run"], ["heatmap"]])
def test_map_error_names_its_file(tmp_path, capsys, command):
    out = tmp_path / "out"
    (out / "maps" / "s00").mkdir(parents=True)
    (out / "index.csv").write_text(f"{INDEX_HEADER}\nhw,s00,540,1,maps/s00/hw_540.fm\n")
    (out / "maps" / "s00" / "hw_540.fm").write_text(
        "# sram-fault-map v1\nsram_id=s00\nvoltage_mv=540\nrows=128\ncols=128\nfault 200 3 stuck0 permanent\n")
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")  # two tasks, so --jobs 2 uses the pool
    assert main(["--config", cfg, "--out", str(out), *command]) == 2
    err = capsys.readouterr().err
    assert "error: maps/s00/hw_540.fm line 6: fault location" in err and "outside 128x128" in err


def test_map_geometry_unlike_the_cache_fails_before_any_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()),
                       ("hw", FaultMap("s01", 540, SramGeometry(128, 64), (FaultSpec(BitLocation(1, 2)),)))])
    calls = count_simulations(monkeypatch)
    assert main(["--out", str(out), "--jobs", "1", "run"]) == 2
    assert ("voltfi: error: maps/s01/hw_540.fm line 4: fault map capacity 8192 != cache capacity 16384 bits"
            in capsys.readouterr().err)
    assert calls == []


def test_two_maps_of_one_results_row_fail_before_any_run(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()), ("hw", two_fault_map(voltage=550))])
    maps = out / "maps" / "s00"
    (maps / "copy.fm").write_bytes((maps / "hw_540.fm").read_bytes())
    index = out / "index.csv"
    index.write_text(index.read_text() + "hw,s00,540,2,maps/s00/copy.fm\n")
    calls = count_simulations(monkeypatch)
    assert main(["--out", str(out), "--jobs", "1", "run"]) == 2
    assert ("voltfi: error: maps/s00/copy.fm line 2: HW_FI s00 at 540 mV repeats maps/s00/hw_540.fm"
            in capsys.readouterr().err)
    assert calls == [] and not (out / "results.csv").exists()


def test_run_skips_empty_maps(tmp_path):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", FaultMap("s00", 540, SRAM))])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel\n")
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    lines = (out / "results.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only


def test_run_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()), ("rnd", two_fault_map("s01"))])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,kmeans\n")
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    first = (out / "results.csv").read_bytes()
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    assert (out / "results.csv").read_bytes() == first


def test_run_parallel_matches_serial(tmp_path):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()), ("rnd", two_fault_map("s01", 550)),
                       *hw_and_rnd_of_one_fault_set("s10", "s11")])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")
    assert main(["--config", cfg, "--out", str(out), "--jobs", "1", "run"]) == 0
    serial = (out / "results.csv").read_bytes()
    (out / "results.csv").unlink()
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2", "run"]) == 0
    assert (out / "results.csv").read_bytes() == serial


def fake_pool(monkeypatch):
    """Pool sizes asked of an in-process stand-in for multiprocessing.Pool.

    Its imap keeps the task order and its imap_unordered reverses it; it
    starts no process."""
    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, list(tasks))

        def imap_unordered(self, fn, tasks, chunksize=1):
            return map(fn, list(tasks)[::-1])

    monkeypatch.setattr(cli, "multiprocessing", types.SimpleNamespace(Pool=Pool))
    return sizes


def test_pool_is_no_larger_than_the_task_count(tmp_path, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map())])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")  # two tasks
    sizes = fake_pool(monkeypatch)
    assert main(["--config", cfg, "--out", str(out), "--jobs", "64", "run"]) == 0
    assert sizes == [2]


def test_pool_records_line_up_with_their_fault_sets(tmp_path, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map()), *hw_and_rnd_of_one_fault_set("s10", "s11")])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")
    assert main(["--config", cfg, "--out", str(out), "--jobs", "1", "run"]) == 0
    serial = (out / "results.csv").read_bytes()
    rows = [line.split(",") for line in serial.decode().strip().split("\n")[1:]]
    for b in ("sobel", "blackscholes"):  # the two fault sets give each benchmark two different records
        assert len({tuple(r[5:]) for r in rows if r[0] == b}) == 2
    (out / "results.csv").unlink()
    sizes = fake_pool(monkeypatch)
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2", "run"]) == 0
    assert sizes == [2]
    assert (out / "results.csv").read_bytes() == serial


def test_non_utf8_map_names_its_file_and_line(tmp_path, capsys):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map())])
    path = out / "maps" / "s00" / "hw_540.fm"
    path.write_bytes(path.read_bytes().replace(b"sram_id=s00", b"sram_id=s\xff0"))
    assert main(["--out", str(out), "run"]) == 2
    assert "error: maps/s00/hw_540.fm line 2: not valid UTF-8" in capsys.readouterr().err


def test_non_utf8_index_names_its_line(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "index.csv").write_bytes(f"{INDEX_HEADER}\nhw,s00,540,2,a.fm\nhw,s\xff0,550,2,b.fm\n".encode("latin-1"))
    assert main(["--out", str(out), "run"]) == 2
    assert "error: index.csv line 3: not valid UTF-8" in capsys.readouterr().err


def test_non_utf8_results_names_its_line(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    bad.write_bytes(FIXTURE_CSV.replace("sobel,HW_FI,s2", "sobel,HW_FI,s\xff").encode("latin-1"))
    assert main(["--out", str(tmp_path), "report", str(bad)]) == 2
    assert f"error: {bad} line 4: not valid UTF-8" in capsys.readouterr().err
    assert not (tmp_path / "report").exists()


def test_failed_run_keeps_the_previous_results(tmp_path, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map())])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel\n")
    assert main(["--config", cfg, "--out", str(out), "run"]) == 0
    first = (out / "results.csv").read_bytes()
    listing = sorted(p.relative_to(out) for p in out.rglob("*"))

    def no_rename(src, dst):
        raise OSError("rename failed")

    # a write cut before its rename leaves neither a changed results.csv nor a temp file
    with monkeypatch.context() as m:
        m.setattr(cli.os, "replace", no_rename)
        more = tmp_path / "more.cfg"
        more.write_text("campaign.benchmarks = sobel,jacobi\n")
        assert main(["--config", str(more), "--out", str(out), "run"]) == 2
    assert (out / "results.csv").read_bytes() == first
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == listing
    (out / "maps" / "s00" / "hw_540.fm").write_text("# sram-fault-map v1\nsram_id=s00\n")
    assert main(["--config", cfg, "--out", str(out), "run"]) == 2
    assert (out / "results.csv").read_bytes() == first
    assert sorted(p.relative_to(out) for p in out.rglob("*")) == listing


# ---------------------------------------------------------------------------
# run: one simulation per distinct fault set
# ---------------------------------------------------------------------------


def count_simulations(monkeypatch):
    calls = []
    real = cli.run_experiment

    def counted(benchmark, config, fmap, *args):
        calls.append((benchmark, fmap.sram_id, fmap.voltage_mv))
        return real(benchmark, config, fmap, *args)

    monkeypatch.setattr(cli, "run_experiment", counted)
    return calls


def test_one_fault_set_is_simulated_once_per_benchmark(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    synth_corpus(out, hw_and_rnd_of_one_fault_set())
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")
    calls = count_simulations(monkeypatch)
    assert main(["--config", cfg, "--out", str(out), "--jobs", "1", "run"]) == 0
    assert sorted(b for b, *_ in calls) == ["blackscholes", "sobel"]
    assert "ran 6 experiments (2 simulated) -> " in capsys.readouterr().out
    rows = [line.split(",") for line in (out / "results.csv").read_text().strip().split("\n")[1:]]
    assert [r[:5] for r in rows if r[0] == "sobel"] == [
        ["sobel", "HW_FI", "s00", "540", "9"],
        ["sobel", "HW_FI", "s00", "550", "9"],
        ["sobel", "RND_FI", "s01", "540", "9"],
    ]
    assert {r[5] for r in rows} == {"sdc"}
    for b in ("sobel", "blackscholes"):
        assert len({tuple(r[5:]) for r in rows if r[0] == b}) == 1


def test_memoised_run_matches_every_experiment_run_directly(tmp_path):
    out = tmp_path / "out"
    maps = [*hw_and_rnd_of_one_fault_set(), ("hw", two_fault_map("s02")), ("rnd", two_fault_map("s02"))]
    synth_corpus(out, maps)
    cfg_path = write_config(tmp_path, "campaign.benchmarks = sobel,jacobi,dct\nworkload.seed = 3\n")
    assert main(["--config", cfg_path, "--out", str(out), "--jobs", "1", "run"]) == 0
    cfg = load_config(Path(cfg_path).read_text())
    geometry = cfg.cache_geometry()
    records = []
    for b in cfg.benchmarks:
        wcfg = WorkloadConfig(b, seed=cfg.workload_seed, step_budget=cfg.step_budget)
        golden = harness.golden_run(b, wcfg, geometry)
        for method, fmap in maps:
            records.append(harness.run_experiment(b, wcfg, fmap, METHOD_BY_TOKEN[method], golden, geometry))
    assert (out / "results.csv").read_text() == harness.records_to_csv(records)


@pytest.mark.parametrize("change", [
    {"kind": CorruptionKind.STUCK_AT_0},
    {"timing": FaultTiming.transient(5)},
])
def test_maps_that_differ_in_one_fault_are_simulated_apart(tmp_path, monkeypatch, change):
    base = (FaultSpec(BitLocation(100, 3), kind=CorruptionKind.STUCK_AT_1), FaultSpec(BitLocation(120, 40)))
    out = tmp_path / "out"
    synth_corpus(out, [("hw", FaultMap("s00", 540, SRAM, base)),
                       ("hw", FaultMap("s00", 550, SRAM, (dataclasses.replace(base[0], **change), base[1])))])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel\n")
    calls = count_simulations(monkeypatch)
    assert main(["--config", cfg, "--out", str(out), "--jobs", "1", "run"]) == 0
    assert sorted(calls) == [("sobel", "s00", 540), ("sobel", "s00", 550)]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

FIXTURE_CSV = """benchmark,method,sram_id,voltage_mv,fault_count,outcome,metric,quality
sobel,HW_FI,s0,540,2,correct,,
sobel,HW_FI,s1,540,2,sdc,psnr_db,30
sobel,HW_FI,s2,550,4,sdc,psnr_db,20
sobel,HW_FI,s3,540,600,crash,,
sobel,RND_FI,s0,540,2,crash,,
sobel,RND_FI,s1,540,2,crash,,
sobel,RND_FI,s2,550,4,sdc,psnr_db,10
jacobi,HW_FI,s0,540,2,correct,,
jacobi,HW_FI,s1,540,16,sdc,avg_rel_err,0.25
jacobi,RND_FI,s1,540,16,sdc,avg_rel_err,0.5
mc,HW_FI,s1,540,2,sdc,avg_rel_err,0.125
kmeans,RND_FI,s1,540,2,sdc,cluster_acc_pct,87.5
"""


def test_report_from_fixture(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(FIXTURE_CSV)
    out = tmp_path / "out"
    assert main(["--out", str(out), "report", str(results)]) == 0
    rep = out / "report"
    cls = (rep / "classification.csv").read_text().strip().split("\n")
    assert cls[0] == "benchmark,method,n,correct,sdc,crash"
    row = dict(zip(("n", "correct", "sdc", "crash"),
                   [l for l in cls if l.startswith("sobel,HW_FI")][0].split(",")[2:]))
    assert row == {"n": "4", "correct": "0.25", "sdc": "0.5", "crash": "0.25"}
    counts = (rep / "counts.csv").read_text()
    assert ",600," not in counts  # beyond the 16-bit cutoff
    assert ",16," in counts
    summary = (rep / "quality_summary.csv").read_text()
    assert "sobel,HW_FI,2,20,22.5,25,27.5,30,25" in summary
    values = (rep / "quality_values.csv").read_text().strip().split("\n")
    assert "sobel,HW_FI,30" in values and "kmeans,RND_FI,87.5" in values


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_read_as_lf(tmp_path, newline):
    lf = tmp_path / "lf.csv"
    lf.write_bytes(FIXTURE_CSV.encode())
    other = tmp_path / "other.csv"
    other.write_bytes(FIXTURE_CSV.replace("\n", newline).encode())
    assert main(["--out", str(tmp_path / "a"), "report", str(lf)]) == 0
    assert main(["--out", str(tmp_path / "b"), "report", str(other)]) == 0
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_report_of_one_huge_quality(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(FIXTURE_CSV + "dct,HW_FI,s1,540,2,sdc,psnr_db,1e30\n")
    assert main(["--out", str(tmp_path), "report", str(results)]) == 0
    assert ET.fromstring((tmp_path / "report" / "quality.svg").read_bytes()).tag.endswith("svg")


def test_report_svgs_valid_and_deterministic(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(FIXTURE_CSV)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out_a), "report", str(results)]) == 0
    assert main(["--out", str(out_b), "report", str(results)]) == 0
    for name in ("classification.svg", "counts.svg", "quality.svg"):
        xml_a = (out_a / "report" / name).read_bytes()
        assert xml_a == (out_b / "report" / name).read_bytes()
        root = ET.fromstring(xml_a)
        assert root.tag.endswith("svg")


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_heatmap_single_map_pgm_indicator(tmp_path):
    out = tmp_path / "out"
    synth_corpus(out, [("hw", two_fault_map())])
    assert main(["--out", str(out), "heatmap", "--method", "hw"]) == 0
    img = decode_pgm((out / "heatmap_hw.pgm").read_bytes())
    assert img.shape == (128, 128)
    assert img[100, 3] == 255 and img[101, 3] == 255
    assert img.sum() == 2 * 255
    matrix = np.loadtxt(out / "heatmap_hw.csv", delimiter=",")
    assert matrix[100, 3] == 1.0 and matrix.sum() == 2.0


def test_heatmap_hw_bottom_heavy_rnd_flat(tmp_path):
    cfg = write_config(tmp_path, "corpus.n_srams = 120\ncorpus.seed = 5\n")
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "genmaps"]) == 0
    assert main(["--config", cfg, "--out", str(out), "heatmap", "--method", "hw"]) == 0
    assert main(["--config", cfg, "--out", str(out), "heatmap", "--method", "rnd"]) == 0
    hw = np.loadtxt(out / "heatmap_hw.csv", delimiter=",")
    row_means = hw.mean(axis=1)
    assert row_means[96:].mean() > 2 * row_means[:32].mean()
    rnd_img = decode_pgm((out / "heatmap_rnd.pgm").read_bytes()).astype(float)
    rnd_rows = rnd_img.mean(axis=1)
    # rnd maps match hw counts but spread uniformly: no bottom-quartile bias
    assert rnd_rows[96:].mean() < 2 * rnd_rows[:96].mean()


# ---------------------------------------------------------------------------
# every input kind, mutated
# ---------------------------------------------------------------------------

BAD_TOKENS = ("", "-1", "9" * 30, "nan", "inf", "\u00e9")


@st.composite
def mutants(draw, text):
    """text with one line deleted, duplicated or swapped with another, or one token replaced."""
    lines = text.rstrip("\n").split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("delete", "duplicate", "swap", "token")))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        parts = re.split(r"([ ,=:])", lines[i])  # tokens at even indices, separators between them
        parts[2 * draw(st.integers(0, len(parts) // 2))] = draw(st.sampled_from(BAD_TOKENS))
        lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


def main_on_mutant(argv, name, *also):
    """main's exit code on argv; any failure must name `<name> line N:` or match a pattern of also."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)  # raises nothing
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code:
        forms = [re.escape(f"{name} line ".lstrip()) + r"\d+: ", *also]
        assert any(re.search(f"^voltfi: (config )?error: {form}", err, re.M) for form in forms), err
    return code


FUZZ_CONFIG = """corpus.n_srams = 3
corpus.seed = 7
corpus.faulty_fraction = 0.5
corpus.rows = 128
corpus.cols = 128
spatial.mean_run_length = 4.0
spatial.gap_probability = 0.2
spatial.outlier_probability = 0.05
cache.num_sets = 16
cache.associativity = 2
cache.line_bytes = 64
campaign.benchmarks = sobel,mc
campaign.methods = hw,rnd
campaign.voltages = 540,550
workload.seed = 0
workload.step_budget = 5000000
run.jobs = 1
"""


@settings(max_examples=100, deadline=None)
@given(mutants(FUZZ_CONFIG))
def test_mutated_config_fails_with_its_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, results = Path(tmp) / "campaign.cfg", Path(tmp) / "results.csv"
        cfg.write_text(text, encoding="utf-8")
        results.write_text(FIXTURE_CSV)
        # a config error names only its line: the config is the one file, and a flag has none
        assert main_on_mutant(["--config", str(cfg), "--out", tmp, "report", str(results)], "") != 2


def fuzz_corpus(out):
    synth_corpus(out, [("hw", two_fault_map()), ("rnd", two_fault_map("s01")),
                       ("hw", FaultMap("s00", 550, SRAM, (FaultSpec(BitLocation(7, 9), FaultTiming.intermittent(3, 4),
                                                                    CorruptionKind.BIT_FLIP, 570),)))])
    (out / "sobel.cfg").write_text("campaign.benchmarks = sobel\n")
    return ["--config", str(out / "sobel.cfg"), "--out", str(out), "--jobs", "1", "run"]


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_index_fails_with_its_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = fuzz_corpus(Path(tmp))
        index = Path(tmp) / "index.csv"
        index.write_text(data.draw(mutants(index.read_text())), encoding="utf-8")
        # a path that names no file is an I/O error, not an error of the index's content
        main_on_mutant(argv, "index.csv", r"\[Errno \d+\] ")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_mutated_map_fails_with_its_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = fuzz_corpus(Path(tmp))
        name = data.draw(st.sampled_from(("maps/s00/hw_540.fm", "maps/s01/rnd_540.fm", "maps/s00/hw_550.fm")))
        path = Path(tmp) / name
        path.write_text(data.draw(mutants(path.read_text())), encoding="utf-8")
        main_on_mutant(argv, name)


@settings(max_examples=100, deadline=None)
@given(mutants(FIXTURE_CSV))
def test_mutated_results_fail_with_their_line(text):
    with tempfile.TemporaryDirectory() as tmp:
        results = Path(tmp) / "results.csv"
        results.write_text(text, encoding="utf-8")
        assert main_on_mutant(["--out", tmp, "report", str(results)], str(results)) != 1

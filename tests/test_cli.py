import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from voltfi.cli import INDEX_HEADER, main, read_index
from voltfi.config import ConfigError, load_config, parse_config_text
from voltfi.faultmap import (
    BitLocation,
    FaultMap,
    FaultSpec,
    SramGeometry,
    parse_fault_map,
    serialize_fault_map,
)

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
    cfg = load_config(None)
    assert cfg.n_srams == 2060 and cfg.jobs == 0
    assert cfg.cache_geometry().capacity_bits == cfg.sram_geometry().capacity == 16384
    over = parse_config_text("corpus.n_srams = 99\n# comment\n\nrun.jobs = 4\n")
    assert over == {"corpus.n_srams": ("99", 1), "run.jobs": ("4", 4)}


def test_config_rejects_unknown_and_bad_values(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_text("corpus.bogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config_text("just some text\n")
    path = write_config(tmp_path, "corpus.n_srams = zero\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, "campaign.voltages = 540,555\n")
    with pytest.raises(ConfigError):
        load_config(path)
    path = write_config(tmp_path, "cache.num_sets = 8\n")  # capacity mismatch
    with pytest.raises(ConfigError):
        load_config(path)


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
    assert "row 2" in capsys.readouterr().err


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
    synth_corpus(out, [("hw", two_fault_map()), ("rnd", two_fault_map("s01", 550))])
    cfg = write_config(tmp_path, "campaign.benchmarks = sobel,blackscholes\n")
    assert main(["--config", cfg, "--out", str(out), "--jobs", "1", "run"]) == 0
    serial = (out / "results.csv").read_bytes()
    assert main(["--config", cfg, "--out", str(out), "--jobs", "2", "run"]) == 0
    assert (out / "results.csv").read_bytes() == serial


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

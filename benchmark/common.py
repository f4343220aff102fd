"""Helpers shared by both workloads, written apart from the program.

Everything here is an independent implementation used to check voltfi's
outputs: a reader and writer for the v1 fault-map text format, the three
quality metrics, the aggregation behind report/classification.csv and
report/counts.csv, and numpy/scipy oracles for the six golden outputs.
None of it compares against a stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
TRACE_DIR = ROOT / ".bench_trace"

BENCHMARKS = ("jacobi", "blackscholes", "dct", "mc", "sobel", "kmeans")
METRIC_OF = {
    "jacobi": "avg_rel_err",
    "blackscholes": "avg_rel_err",
    "mc": "avg_rel_err",
    "dct": "psnr_db",
    "sobel": "psnr_db",
    "kmeans": "cluster_acc_pct",
}
RESULTS_HEADER = "benchmark,method,sram_id,voltage_mv,fault_count,outcome,metric,quality"
COUNT_CUTOFF = 16
MAGIC = "# sram-fault-map v1"


class CheckFailed(Exception):
    """An output check did not hold; the run reports correct=false."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def passes(check, *args) -> bool:
    """Run one output check; a failure is reported on stderr and makes the run incorrect."""
    try:
        check(*args)
    except CheckFailed as e:
        print(f"benchmark: output check failed: {e}", file=sys.stderr)
        return False
    return True


def count_rows(results_csv: Path) -> int:
    return results_csv.read_bytes().count(b"\n") - 1


def import_program():
    """Make the checkout's src/ importable; fail when it is not there."""
    if not (SRC / "voltfi" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def run_cli(args, timeout: float) -> float:
    """Run `python -m voltfi args` on the checkout's sources; returns its wall time in s.

    The child gets its own session so that a timeout or an interrupt also
    stops its pool workers.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "voltfi", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except BaseException:  # a timeout or an interrupt: stop the child and its workers, then re-raise
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"voltfi {' '.join(args)} exited {proc.returncode}: {err.decode()[-2000:]}")
    return wall


# ---------------------------------------------------------------------------
# v1 fault-map text
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapText:
    sram_id: str
    voltage_mv: int
    rows: int
    cols: int
    faults: tuple  # (row, col, kind, timing token, onset or None), in file order


def read_v1(text: str) -> MapText:
    lines = text.split("\n")
    require(lines[-1] == "", "map text must end with LF")
    lines = lines[:-1]
    require(len(lines) >= 5 and lines[0] == MAGIC, "bad map header")
    head = {}
    for line, key in zip(lines[1:5], ("sram_id", "voltage_mv", "rows", "cols")):
        k, _, v = line.partition("=")
        require(k == key, f"expected {key}= in map header, got {line!r}")
        head[k] = v
    faults = []
    for line in lines[5:]:
        tok = line.split(" ")
        require(tok[0] == "fault" and len(tok) in (5, 6), f"bad fault line {line!r}")
        onset = None
        if len(tok) == 6:
            require(tok[5].startswith("onset_mv="), f"bad onset in {line!r}")
            onset = int(tok[5][len("onset_mv="):])
        faults.append((int(tok[1]), int(tok[2]), tok[3], tok[4], onset))
    return MapText(head["sram_id"], int(head["voltage_mv"]), int(head["rows"]),
                   int(head["cols"]), tuple(faults))


def write_v1(m: MapText) -> str:
    lines = [MAGIC, f"sram_id={m.sram_id}", f"voltage_mv={m.voltage_mv}",
             f"rows={m.rows}", f"cols={m.cols}"]
    for row, col, kind, timing, onset in sorted(m.faults, key=lambda f: f[0] * m.cols + f[1]):
        lines.append(f"fault {row} {col} {kind} {timing}" + (f" onset_mv={onset}" if onset is not None else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# quality metrics and aggregation
# ---------------------------------------------------------------------------


def own_psnr(golden: np.ndarray, faulty: np.ndarray) -> float:
    d = golden.astype(np.float64).ravel() - faulty.astype(np.float64).ravel()
    return 10.0 * math.log10(255.0 * 255.0 / float(np.dot(d, d) / d.size))


def own_rel_err(golden: np.ndarray, faulty: np.ndarray) -> float:
    total = 0.0
    for g, f in zip(golden.ravel().tolist(), faulty.ravel().tolist()):
        e = abs(g - f) / (abs(g) if abs(g) > 1e-12 else 1e-12)
        total += e if e < 1.0 else 1.0  # NaN and inf count as the clamp value
    return total / golden.size


def own_cluster_acc(golden: np.ndarray, faulty: np.ndarray, k: int = 4) -> float:
    """Greedy label matching: take the largest cell (first in row-major order), drop its row and column."""
    conf = [[0] * k for _ in range(k)]
    for g, f in zip(golden.ravel().tolist(), faulty.ravel().tolist()):
        if 0 <= f < k:
            conf[g][f] += 1
    rows, cols, matched = set(range(k)), set(range(k)), 0
    for _ in range(k):
        best = None
        for r in sorted(rows):
            for c in sorted(cols):
                if best is None or conf[r][c] > best[0]:
                    best = (conf[r][c], r, c)
        matched += best[0]
        rows.discard(best[1])
        cols.discard(best[2])
    return 100.0 * matched / golden.size


def own_quality(benchmark: str, golden: np.ndarray, faulty: np.ndarray) -> float:
    metric = METRIC_OF[benchmark]
    if metric == "psnr_db":
        return own_psnr(golden, faulty)
    if metric == "avg_rel_err":
        return own_rel_err(golden, faulty)
    return own_cluster_acc(golden, faulty)


def check_quality_range(metric: str, value: float) -> None:
    if metric == "psnr_db":
        require(value > 0.0 and math.isfinite(value), f"PSNR {value} out of range")
    elif metric == "avg_rel_err":
        require(0.0 <= value <= 1.0, f"relative error {value} out of [0, 1]")
    else:
        require(0.0 <= value <= 100.0, f"cluster accuracy {value} out of [0, 100]")


def read_results(text: str) -> list[tuple]:
    """Rows of a results CSV as (benchmark, method, sram_id, voltage, count, outcome, metric, quality)."""
    lines = text.split("\n")
    require(lines[0] == RESULTS_HEADER and lines[-1] == "", "bad results.csv framing")
    rows = []
    for line in lines[1:-1]:
        f = line.split(",")
        require(len(f) == 8, f"bad results row {line!r}")
        b, method, sram, volt, count, outcome, metric, quality = f
        require(outcome in ("correct", "sdc", "crash"), f"bad outcome in {line!r}")
        if outcome == "sdc":
            require(metric == METRIC_OF[b], f"wrong metric in {line!r}")
            check_quality_range(metric, float(quality))
        else:
            require(metric == "" and quality == "", f"quality on a non-sdc row {line!r}")
        rows.append((b, method, sram, int(volt), int(count), outcome, metric, quality))
    return rows


def _fractions(outcomes) -> str:
    n = len(outcomes)
    parts = [str(n)] + [f"{sum(o == k for o in outcomes) / n:.9g}" for k in ("correct", "sdc", "crash")]
    return ",".join(parts)


def check_report_tables(rows, report_dir: Path) -> None:
    """classification.csv and counts.csv must equal this aggregation of the rows."""
    by_bm, by_count = {}, {}
    for b, method, _, _, count, outcome, _, _ in rows:
        by_bm.setdefault((b, method), []).append(outcome)
        if count <= COUNT_CUTOFF:
            by_count.setdefault((method, count), []).append(outcome)
    cls = ["benchmark,method,n,correct,sdc,crash"]
    cls += [f"{b},{m},{_fractions(v)}" for (b, m), v in sorted(by_bm.items())]
    cnt = ["method,fault_count,n,correct,sdc,crash"]
    cnt += [f"{m},{c},{_fractions(v)}" for (m, c), v in sorted(by_count.items())]
    require((report_dir / "classification.csv").read_text() == "\n".join(cls) + "\n",
            "report/classification.csv differs from the aggregation of results.csv")
    require((report_dir / "counts.csv").read_text() == "\n".join(cnt) + "\n",
            "report/counts.csv differs from the aggregation of results.csv")


# ---------------------------------------------------------------------------
# golden-output oracles
# ---------------------------------------------------------------------------


def _mc_walks(xs, ys, g, pool, walks: int) -> np.ndarray:
    """Walk-on-spheres with the pool's 16-bit angle lanes, consumed in order."""
    scale = 2.0 * math.pi / 65536.0
    words = [int(w) for w in pool]
    ctr = 0
    est = np.empty(len(xs))
    for i in range(len(xs)):
        acc = 0.0
        for _ in range(walks):
            x, y = float(xs[i]), float(ys[i])
            while True:
                d = min(x, 1.0 - x, y, 1.0 - y)
                if d < 1e-3:
                    break
                a = ((words[(ctr >> 2) % len(words)] >> (16 * (ctr & 3))) & 0xFFFF) * scale
                ctr += 1
                x += d * math.cos(a)
                y += d * math.sin(a)
            near = min(x, 1.0 - x, y, 1.0 - y)
            if near == y:
                s = x
            elif near == 1.0 - x:
                s = 1.0 + y
            elif near == 1.0 - y:
                s = 2.0 + (1.0 - x)
            else:
                s = 3.0 + (1.0 - y)
            acc += g[min(max(int(s * len(g) / 4.0), 0), len(g) - 1)]
        est[i] = acc / walks
    return est


def check_goldens(goldens: dict, workload_seed: int = 0) -> None:
    """Check each golden WorkloadResult against an independent computation."""
    from scipy.fft import dctn, idctn
    from scipy.stats import norm
    from voltfi.workloads import WorkloadConfig, get

    def inputs(b):
        return get(b).generate_inputs(WorkloadConfig(b, seed=workload_seed))

    x = goldens["jacobi"].as_array()
    a, b = inputs("jacobi")
    require(np.abs(a @ x - b).max() < 1e-6, "jacobi golden residual above 1e-6")
    require(np.abs(x - np.linalg.solve(a, b)).max() < 1e-6, "jacobi golden far from the direct solve")

    s, k, r, v, t, call = (np.asarray(f) for f in inputs("blackscholes"))
    d1 = (np.log(s / k) + (r + 0.5 * v * v) * t) / (v * np.sqrt(t))
    d2 = d1 - v * np.sqrt(t)
    ref = np.where(call != 0, s * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2),
                   k * np.exp(-r * t) * norm.cdf(-d2) - s * norm.cdf(-d1))
    require(np.allclose(goldens["blackscholes"].as_array(), ref, rtol=1e-9, atol=1e-9),
            "blackscholes golden differs from the closed form")

    # dct: the orthonormal 8x8 DCT round trip with the same quantiser. A
    # coefficient that lies on a rounding tie (k + 0.5) may round either way
    # under a different summation order, so each tie widens the allowed error
    # of every pixel of its block by one quantiser step times its basis value.
    from voltfi.workloads import dct as dct_mod
    src = inputs("dct").astype(np.float64)
    out = goldens["dct"].as_array().astype(np.float64)
    q = np.array(dct_mod.quant_table(WorkloadConfig("dct", seed=workload_seed)), dtype=np.float64).reshape(8, 8)
    basis = np.abs(np.array([[idctn(np.eye(64)[u * 8 + v].reshape(8, 8), norm="ortho") for v in range(8)]
                             for u in range(8)]))
    for by in range(0, src.shape[0], 8):
        for bx in range(0, src.shape[1], 8):
            c = dctn(src[by:by + 8, bx:bx + 8] - 128.0, norm="ortho") / q
            ties = np.abs(c - np.floor(c) - 0.5) < 1e-9
            rec = np.clip(idctn(np.rint(c) * q, norm="ortho") + 128.0, 0.0, 255.0)
            slack = 0.5 + 1e-6 + np.einsum("uv,uvxy->xy", q * ties, basis)
            require(np.all(np.abs(out[by:by + 8, bx:bx + 8] - rec) <= slack),
                    f"dct golden block ({by}, {bx}) differs from the scipy DCT round trip")

    im = inputs("sobel").astype(int)
    gx = (im[:-2, 2:] - im[:-2, :-2]) + 2 * (im[1:-1, 2:] - im[1:-1, :-2]) + (im[2:, 2:] - im[2:, :-2])
    gy = (im[2:, :-2] + 2 * im[2:, 1:-1] + im[2:, 2:]) - (im[:-2, :-2] + 2 * im[:-2, 1:-1] + im[:-2, 2:])
    ref_s = np.zeros_like(im)
    ref_s[1:-1, 1:-1] = np.minimum(np.abs(gx) + np.abs(gy), 255)
    require(np.array_equal(goldens["sobel"].as_array(), ref_s.astype(np.uint8)),
            "sobel golden differs from the convolution")

    # k-means: Lloyd iterations; centroid sums are taken in point order
    # (cumsum) so that near-equidistant points compare the same way
    pts, cents = inputs("kmeans")
    c = cents.copy()
    lab = np.full(len(pts), 255)
    for _ in range(50):
        new = np.argmin(((pts[:, None, :] - c[None, :, :]) ** 2).sum(axis=2), axis=1)
        changed = int((new != lab).sum())
        lab = new
        for j in range(len(c)):
            m = lab == j
            if m.any():
                c[j] = np.cumsum(pts[m], axis=0)[-1] / m.sum()
        if changed == 0:
            break
    require(np.array_equal(goldens["kmeans"].as_array(), lab.astype(np.uint8)),
            "kmeans golden differs from Lloyd's algorithm")

    xs, ys, g, pool = inputs("mc")
    from voltfi.workloads import mc as mc_mod
    est = _mc_walks(xs, ys, g, pool, mc_mod.WALKS_PER_POINT)
    require(np.array_equal(goldens["mc"].as_array(), est), "mc golden differs from the independent walk")

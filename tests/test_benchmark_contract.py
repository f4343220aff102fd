"""The names the benchmark's traced run (`benchmark/run.py --trace 1`) wraps.

`benchmark/layers.py` wraps voltfi's entry points by name from outside the
package. A rename that leaves one of them unwrapped, or a kernel that
catches its own crash, silently skews the per-layer metrics; this test
fails first instead. It only imports from `benchmark/`, never writes there.
"""

import sys
from pathlib import Path

from voltfi import harness
from voltfi.faultmap import FaultMap, SramGeometry
from voltfi.workloads import WorkloadConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_traced_run_wraps_every_layer_and_counts_a_crashed_run():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(BENCH_DIR))
    empty = FaultMap("z", 540, SramGeometry())
    goldens = {b: harness.golden_run(b, WorkloadConfig(b)) for b in ("sobel", "mc")}

    patched = {}
    tr = spans.Tracer()
    wrap = tr.wrap

    def counted_wrap(owner, attr, name, **kwargs):
        before = len(tr._patches)
        wrap(owner, attr, name, **kwargs)
        patched[name] = len(tr._patches) - before

    tr.wrap = counted_wrap
    c = layers.instrument(tr)
    try:
        done = harness.run_experiment("sobel", WorkloadConfig("sobel"), empty, harness.RND_FI, goldens["sobel"])
        crashed = harness.run_experiment("mc", WorkloadConfig("mc", step_budget=50_000), empty,
                                         harness.RND_FI, goldens["mc"])
    finally:
        tr.uninstall()

    assert patched and not [name for name, n in patched.items() if n == 0]
    assert (done.outcome, crashed.outcome) == (harness.Outcome.CORRECT, harness.Outcome.CRASH)
    assert c.ops["mc"] == 50_001  # the crashed run's ops, as mem.ops left them
    assert c.ops["sobel"] > 0
    assert list(c.crash_of.values()) == ["step_budget_exceeded"]
    assert tr.count("harness.run_workload") == tr.count("harness.run_experiment") == 2
    assert tr.count("kernel.sobel") == tr.count("kernel.mc") == 1

"""Which voltfi calls the traced run wraps, and the per-layer metrics derived from them."""

from __future__ import annotations

from common import BENCHMARKS, median, percentile

ACCESSORS = ("load_f64", "store_f64", "load_u64", "store_u64",
             "load_u32", "store_u32", "load_u8", "store_u8")
CRASH_REASONS = ("out_of_range", "step_budget_exceeded", "non_finite_control")


class Counters:
    """Counts the wrappers collect besides time."""

    def __init__(self):
        self.ops = dict.fromkeys(BENCHMARKS, 0)
        self.bindings = 0
        self.crash_of = {}        # experiment span index -> crash reason
        self.fault_sets = set()   # distinct (benchmark, fault set)
        self.last_result = None


def instrument(tr) -> Counters:
    """Wrap every layer's public entry points; undo with tr.uninstall()."""
    from voltfi import cachesim, cli, faultmap, harness, report, workloads
    from voltfi.workloads import memory

    c = Counters()

    def bindings(args, _):
        c.bindings += args[0].fault_binding_count()

    def workload_done(_, result):
        c.last_result = result

    def experiment_done(args, record):
        benchmark, fmap = args[0], args[2]
        c.fault_sets.add((benchmark, tuple((f.location.row, f.location.col, f.kind.value, f.timing.token())
                                           for f in fmap.faults)))
        if record is not None and record.outcome.value == "crash":
            idx = len(tr.spans) - 1  # this experiment's span is the last one of its name
            while tr.spans[idx][0] != "harness.run_experiment":
                idx -= 1
            c.crash_of[idx] = c.last_result.crash_reason.value

    tr.wrap(cachesim.CacheModel, "load", "cachesim.load")
    tr.wrap(cachesim.CacheModel, "store", "cachesim.store")
    tr.wrap(cachesim.MainMemory, "read", "cachesim.backing_read")
    tr.wrap(cachesim.MainMemory, "write", "cachesim.backing_write")
    tr.wrap(cachesim.CacheModel, "install_fault_map", "cachesim.install_fault_map", after=bindings)
    for name in ACCESSORS:
        tr.wrap(memory.SimMemory, name, "memory." + name)
    for b in BENCHMARKS:
        tr.wrap(workloads.get(b), "run", "kernel." + b, keep=True,
                after=lambda args, _, b=b: c.ops.__setitem__(b, c.ops[b] + args[1].ops))
    tr.wrap(harness, "run_workload", "harness.run_workload", after=workload_done)
    tr.wrap(harness, "golden_run", "harness.golden_run", keep=True, tag=lambda a: a[0])
    tr.wrap(harness, "run_experiment", "harness.run_experiment", keep=True, tag=lambda a: a[0],
            after=experiment_done)
    tr.wrap(harness, "classify", "harness.classify")
    tr.wrap(harness, "compute_quality", "harness.compute_quality")
    tr.wrap(harness, "records_to_csv", "harness.records_to_csv", keep=True)
    tr.wrap(faultmap, "generate_corpus", "faultmap.generate_corpus", keep=True)
    tr.wrap(faultmap, "match_random_map", "faultmap.match_random_map", keep=True)
    tr.wrap(faultmap, "serialize_fault_map", "faultmap.serialize_fault_map")
    tr.wrap(faultmap, "parse_fault_map", "faultmap.parse_fault_map")
    tr.wrap(report, "write_reports", "report.write_reports", keep=True)
    for name in ("cmd_genmaps", "cmd_run", "cmd_report", "_run_task"):
        tr.wrap(cli, name, "cli." + name, keep=True)
    return c


def _per_call(total_ns: int, calls: int, scale: float) -> float:
    return total_ns / calls / scale if calls else 0.0


def layer_metrics(tr, c: Counters, untraced_eps: float, traced_eps: float,
                  parallel_efficiency: float = 0.0) -> dict:
    """name -> (value, unit) for every per-layer metric; a layer the workload does not use reads 0.

    untraced_eps and traced_eps are the experiments/s of the same work run
    without and with the wrappers; their difference is the tracer's overhead.
    """
    m = {}
    accesses = tr.count("cachesim.load", "cachesim.store")
    misses = tr.count("cachesim.backing_read")
    m["cachesim.accesses"] = (accesses, "count")
    m["cachesim.misses"] = (misses, "count")
    m["cachesim.writebacks"] = (tr.count("cachesim.backing_write"), "count")
    m["cachesim.hit_ratio"] = (1.0 - misses / accesses if accesses else 0.0, "ratio")
    m["cachesim.self_ns_per_access"] = (_per_call(tr.self_ns("cachesim.load", "cachesim.store"), accesses, 1.0), "ns")
    m["cachesim.bindings"] = (c.bindings, "count")
    mem = ["memory." + a for a in ACCESSORS]
    m["memory.calls"] = (tr.count(*mem), "count")
    m["memory.self_ns_per_call"] = (_per_call(tr.self_ns(*mem), tr.count(*mem), 1.0), "ns")
    for b in BENCHMARKS:
        m[f"workloads.ops.{b}"] = (c.ops[b], "count")
        m[f"workloads.kernel_self_s.{b}"] = (tr.self_s("kernel." + b), "s")

    exps = tr.kept("harness.run_experiment")
    dur_ms = {i: (s[3] - s[2]) / 1e6 for i, s in enumerate(tr.spans) if s[0] == "harness.run_experiment"}
    m["harness.experiments"] = (len(exps), "count")
    m["harness.distinct_fault_sets"] = (len(c.fault_sets), "count")
    for b in BENCHMARKS:
        mine = [(s[3] - s[2]) / 1e6 for s in exps if s[1] == b]
        m[f"harness.experiment_ms.p50.{b}"] = (median(mine) if mine else 0.0, "ms")
    m["harness.experiment_ms.p95"] = (percentile(list(dur_ms.values()), 95) if exps else 0.0, "ms")
    m["harness.classify_quality_us"] = (
        _per_call(tr.total_ns("harness.classify", "harness.compute_quality"), len(exps), 1e3), "us")
    for reason in CRASH_REASONS:
        m[f"harness.crashes.{reason}"] = (sum(r == reason for r in c.crash_of.values()), "count")
    m["harness.step_budget_crash_s"] = (
        sum(dur_ms[i] for i, r in c.crash_of.items() if r == "step_budget_exceeded") / 1e3, "s")
    for b in BENCHMARKS:
        m[f"harness.golden_s.{b}"] = (tr.total_s("harness.golden_run", b), "s")
    m["harness.records_to_csv_s"] = (tr.total_s("harness.records_to_csv"), "s")

    m["faultmap.generate_s"] = (tr.total_s("faultmap.generate_corpus") + tr.total_s("faultmap.match_random_map"), "s")
    m["faultmap.serialize_us"] = (_per_call(tr.total_ns("faultmap.serialize_fault_map"),
                                            tr.count("faultmap.serialize_fault_map"), 1e3), "us")
    m["faultmap.parse_us"] = (_per_call(tr.total_ns("faultmap.parse_fault_map"),
                                        tr.count("faultmap.parse_fault_map"), 1e3), "us")
    m["faultmap.parse_calls"] = (tr.count("faultmap.parse_fault_map"), "count")

    m["cli.genmaps_s"] = (tr.total_s("cli.cmd_genmaps"), "s")
    m["cli.run.work_s"] = (sum(dur_ms.values()) / 1e3 if tr.kept("cli.cmd_run") else 0.0, "s")
    tasks = tr.kept("cli._run_task")
    m["cli.run.longest_task_s"] = (max((s[3] - s[2]) / 1e9 for s in tasks) if tasks else 0.0, "s")
    m["cli.run.parallel_efficiency"] = (parallel_efficiency, "ratio")
    m["report.write_s"] = (tr.total_s("report.write_reports"), "s")
    m["trace.untraced_experiments_per_s"] = (untraced_eps, "1/s")
    m["trace.traced_experiments_per_s"] = (traced_eps, "1/s")
    m["trace.overhead_pct"] = (100.0 * (untraced_eps - traced_eps) / untraced_eps, "%")
    return m

#!/usr/bin/env python3
"""The nilcube benchmark.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Builds nothing: it imports the package from src/ of the checkout it sits
in.  With --trace 0 it measures the end-to-end metrics; with --trace 1 it
runs a fixed amount of work twice, untraced and then traced through
wrappers on the module boundaries, and reports the per-layer metrics and
the tracing overhead.  Every answer is checked after the timed phase.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the
report (metadata, instance sizes, per-task times, error rate and the
first failure witnesses).  --workload all runs each workload in its own
process and prints every metric by name with its unit.
"""

import argparse
import array
import json
import statistics
import subprocess
import sys
import time

import analysis
import cli_cold
import common
import queries
from tracer import OVERHEAD, Tracer

MODULES = {"queries": queries, "cli_cold": cli_cold, "analysis": analysis}
WORKLOADS = tuple(MODULES)
# Workloads that run and check their answers but that BENCHMARK.json
# does not list, with the reason.
UNGATED = {
    "analysis": "not gated: its tasks take 2-20 s each, and on a shared 2-vCPU "
                "machine a task of seconds varies by up to 45% between repeats, "
                "so a run cannot repeat it often enough to be steady",
}
OUT = common.ROOT / ".perfbench_out"


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload; return (result, report)."""
    wl = MODULES[name]

    def build(m):
        return wl.build(m, size)

    setup_times, mods, built = common.timed_setup(build, common.SETUP_BEFORE)
    inputs = wl.generate(mods, built, seed, size)
    report = {"workload": name, "size": size, "trace": trace,
              "metadata": common.metadata(seed), "instances": wl.instances(built, inputs)}
    clock = time.perf_counter

    # Whole passes, as many as come nearest to `seconds` and at least one
    # (exactly one when tracing).  Folding the latencies and answers is
    # not timed; samples are kept as doubles so that the memory they take
    # barely depends on how many passes the machine's speed allowed.
    ops = wl.operations(mods, built, inputs)
    best, samples, answers, timed, passes = None, array.array("d"), common.Answers(), 0.0, 0
    while True:
        t0 = clock()
        lat, ans = common.run_pass(ops)
        pass_s = clock() - t0
        timed += pass_s
        passes += 1
        best = lat if best is None else [min(a, b) for a, b in zip(best, lat)]
        samples.extend(lat)
        answers.add_pass(ans)
        if trace or timed + pass_s / 2 >= seconds:
            break

    if trace:
        tracer = Tracer(mods)
        with tracer:
            ops = wl.operations(mods, built, inputs)
            t0 = clock()
            _, ans = common.run_pass(ops, tracer)
            traced_wall = clock() - t0
        answers.add_pass(ans)
        metrics = tracer.metrics()
        metrics[OVERHEAD[0]] = (traced_wall / timed, OVERHEAD[1])
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / ("trace-%s-%d.json" % (name, seed))
        tracer.write(trace_file)
        report.update(untraced_wall_s=timed, traced_wall_s=traced_wall,
                      trace_file=str(trace_file.relative_to(common.ROOT)))
    else:
        rss = common.peak_rss_mb()
        metrics, latency_report = common.op_metrics(best, samples)
        metrics["peak_rss_mb"] = (rss, "MB")
        setup_times += common.timed_setup(build, common.SETUP_AFTER)[0]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
        report.update(latency_report, timed_phase_s=timed, passes=passes,
                      setup_repeats=len(setup_times))
        if name == "analysis":
            report["task_s"] = dict(zip(wl.TASKS, best))

    failures = wl.check(mods, built, inputs, answers)
    report.update(attempted=answers.total, failed=failures.count,
                  error_rate=failures.count / answers.total,
                  unexpected_failures=failures.unexpected, witnesses=failures.witnesses)
    result = {
        "correct": failures.unexpected == 0,
        "attempted": answers.total,
        "failed": failures.count,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, report


# The end-to-end table of `--workload all`: the latency percentiles, the
# per-task times of the analysis workload and the error rate are not
# gated and come from the report.
TASK_METRICS = (("check_s", "check"), ("decompose_s", "decompose"),
                ("tower_s", "tower"), ("census_s", "census"))


def run_all(args):
    """Each workload in its own process; one table of every metric."""
    rows = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print("%s: failed with exit code %d" % (name, proc.returncode))
            return 1
        report, result = json.loads(lines[-2][len("report: "):]), json.loads(lines[-1])
        rows[name] = (report, result)
    print("%-40s %-6s %s" % ("metric", "unit", "  ".join("%14s" % w for w in WORKLOADS)))
    names = []
    for _, result in rows.values():
        names += [k for k in result["metrics"] if k not in names]
    table = {n: {} for n in names}
    units = {}
    for w, (report, result) in rows.items():
        for k, m in result["metrics"].items():
            table[k][w] = m["value"]
            units[k] = m["unit"]
        if not args.trace:
            for metric in ("op_p50_ms", "op_tail_ms"):
                table.setdefault(metric, {})[w] = report[metric]
                units[metric] = "ms"
            table.setdefault("error_rate", {})[w] = report["error_rate"]
            units["error_rate"] = "ratio"
            for metric, task in TASK_METRICS:
                if "task_s" in report:
                    table.setdefault(metric, {})[w] = report["task_s"][task]
                    units[metric] = "s"
    for k, vals in table.items():
        cells = "  ".join("%14s" % ("%.6g" % vals[w] if w in vals else "-") for w in WORKLOADS)
        print("%-40s %-6s %s" % (k, units[k], cells))
    for w, reason in UNGATED.items():
        print("%s: %s" % (w, reason))
    for w, (report, result) in rows.items():
        if not result["correct"]:
            print("%s: incorrect answers: %s" % (w, json.dumps(report["witnesses"])))
    print(json.dumps({w: result for w, (_, result) in rows.items()}))
    return 0 if all(r["correct"] for _, r in rows.values()) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        common.use_checkout_sources()
    except common.MissingSource as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("report: " + json.dumps(report, default=repr))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

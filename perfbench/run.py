#!/usr/bin/env python3
"""End-to-end exploration benchmark for SymMerge.

Builds the library and perfbench-explore from source, then explores the
workload's programs to exhaustion, one process per exploration, one after
another (closed loop). Every generated test is replayed concretely, the
statement coverage is checked against its frozen value, and a run that
stops on budget fails. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Lines before it, starting with '#', are notes: ratios with
their bases, failures, and counter discrepancies.

    python3 perfbench/run.py --workload ssm-pr --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload dsm-ite --seed 1 --seconds 33 --ablate model-cache

See perfbench/README.md for the workloads and the metric table.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
EXPLORE = BUILD / "perfbench-explore"

# Set-up is a fraction of a millisecond per program, and its speed varies
# more between processes than within one. So each exploration process
# repeats it, SETUP_PROCS short set-up-only processes per exploration add
# samples from other moments of the run, and the pooled median is reported.
SETUP_REPS = 25
SETUP_PROCS = 4
# Engine wall budget per exploration; a run that hits it is a failure.
MAX_SECONDS = 60.0
# A process still alive this long after its start is killed and failed.
KILL_AFTER_S = 75.0
# Successful explorations wanted per program (and variant) for its medians.
# After the passes, failed explorations (par-pr crashes) are made up by
# further attempts. No exploration starts later than START_DEADLINE_S into
# the measurement, so a run ends within 180 s.
MIN_OK = 2
START_DEADLINE_S = 90.0

# (program, N, L, frozen coverage). Coverage is (covered blocks, total
# blocks, statement coverage %) at exhaustion; README.md records where
# each value comes from.
PR = ("pr", 3, 6, (19, 20, 98.4))
WORKLOADS = {
    "ssm-pr": {"mode": "ssm-qce", "workers": 1, "programs": [PR],
               "pass_s": 11.0},
    "dsm-ite": {"mode": "dsm-qce", "workers": 1,
                "programs": [("tsort", 2, 8, (50, 56, 96.1)),
                             ("wc", 4, 6, (16, 17, 98.1)),
                             ("sleep", 3, 6, (30, 41, 88.4)),
                             ("comm", 3, 6, (23, 27, 94.9))],
                "pass_s": 12.5},
    "par-plain": {"mode": "plain", "workers": 3,
                  "programs": [("sleep", 3, 6, (30, 41, 88.4)),
                               ("comm", 3, 6, (23, 27, 94.9))],
                  "pass_s": 3.0},
    # Not in BENCHMARK.json: too unsteady to gate (see README.md).
    "par-pr": {"mode": "ssm-qce", "workers": 3, "programs": [PR],
               "pass_s": 12.0},
}

ABLATIONS = ["model-cache", "core-cache", "verdict-cache", "group-sessions",
             "incremental", "signature-filters", "async-testgen"]

END_TO_END = [("explore_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]

# Counters summed over programs (per-program medians), by metric name.
COUNTS = {
    "core.instructions": "instructions",
    "core.forks": "forks",
    "core.completed_states": "completed_states",
    "core.max_worklist": "max_worklist",
    "merge.merges": "merges",
    "merge.ites": "ites",
    "merge.ff_selections": "ff_selections",
    "merge.ff_merges": "ff_merges",
    "solver.solve_s": "solve_s",
    "solver.encode_s": "encode_s",
    "solver.queries": "queries",
    "solver.core_queries": "core_queries",
    "solver.sessions_built": "sessions_built",
    "solver.group.sliced_solves": "group_sliced_solves",
    "solver.verdict.hits": "verdict_hits",
    "solver.model.hits": "model_hits",
    "solver.core.hits": "core_hits",
    "testgen.tests": "tests",
    "testgen.queued": "testgen_queued",
    "testgen.skipped": "testgen_skipped",
    "frontier.steals": "frontier_steals",
    "frontier.depth_hw_max": "frontier_depth_hw_max",
    "replay.tests": "tests",
    "replay.mismatches": "replay_mismatches",
}


def note(msg):
    print("# " + msg, flush=True)


def build():
    """Configures and builds perfbench-explore; False if that fails."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("error: no SymMerge sources next to perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench-explore", "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            print("error: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


class Exploration:
    """One perfbench-explore process and what it reported."""

    def __init__(self, program, index, seed, trace, off):
        self.program = program
        self.index = index
        self.seed = seed
        self.trace = trace
        self.off = off
        self.data = None
        self.failure = None   # why the operation failed, or None
        self.incorrect = False  # a replay, coverage or exhaustion mismatch
        self.rss_mb = 0.0

    @property
    def ok(self):
        return self.failure is None


def command(spec, program, seed, trace, off):
    name, n, length, _ = program
    cmd = [str(EXPLORE), f"--program={name}", f"--n={n}", f"--len={length}",
           f"--mode={spec['mode']}", f"--workers={spec['workers']}",
           f"--seed={seed}", f"--setup-reps={SETUP_REPS}",
           f"--max-seconds={MAX_SECONDS}"]
    if trace:
        cmd.append("--trace")
    if off:
        cmd.append(f"--off={off}")
    return cmd


def setup_sample(spec, program, off):
    """Set-up times of one set-up-only process, as (program, off, data)."""
    cmd = command(spec, program, 0, False, off) + ["--setup-only"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return program[0], off, json.loads(out.stdout)


def explore(spec, program, index, seed, trace=False, off=""):
    """Runs one exploration in its own process and checks its outputs."""
    name, coverage = program[0], program[3]
    e = Exploration(name, index, seed, trace, off)
    cmd = command(spec, program, seed, trace, off)
    out_path = BUILD / "explore.out"
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.DEVNULL)
        # wait4 gives this child's own rusage (peak RSS), also after a crash.
        deadline = time.monotonic() + KILL_AFTER_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                e.failure = f"killed after {KILL_AFTER_S:.0f} s"
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    e.rss_mb = usage.ru_maxrss / 1024.0
    if e.failure:
        return e
    if proc.returncode < 0:
        e.failure = (f"crashed by signal {-proc.returncode} "
                     f"({signal.strsignal(-proc.returncode)})")
        return e
    if proc.returncode:
        e.failure = f"exit code {proc.returncode}"
        return e
    try:
        e.data = json.loads(out_path.read_text())
    except ValueError:
        e.failure = "unreadable result"
        return e
    d = e.data
    if not d["exhausted"]:
        e.failure = "stopped on budget, not exploration complete"
    elif d["stats"]["replay_mismatches"]:
        e.failure = (f"{d['stats']['replay_mismatches']:.0f} of "
                     f"{d['stats']['tests']:.0f} tests replay differently")
    elif (d["covered_blocks"], d["total_blocks"],
          round(100 * d["statement_coverage"], 1)) != coverage:
        e.failure = (f"coverage {d['covered_blocks']}/{d['total_blocks']} "
                     f"blocks, {100 * d['statement_coverage']:.1f}% "
                     f"statements; expected {coverage}")
    e.incorrect = e.failure is not None
    return e


def sub_seed(seed, k):
    """Engine seed (SymbolicRunner::Config::Seed) of pass k of a run."""
    return seed * 100 + k


def median_by_program(expls, programs, value):
    """Sums over programs of the median of value(e) over ok explorations."""
    total = 0.0
    for name, *_ in programs:
        vals = [value(e) for e in expls if e.ok and e.program == name]
        total += statistics.median(vals)
    return total


def setup_total(expls, setups, programs):
    """Sums over programs of the pooled median set-up time."""
    total = 0.0
    for name, *_ in programs:
        data = [e.data for e in expls if e.data and e.program == name]
        data += [d for program, _, d in setups if program == name]
        total += statistics.median(
            c + q + i for d in data
            for c, q, i in zip(d["compile_s"], d["qce_s"], d["runner_init_s"]))
    return total


def end_to_end(expls, setups, programs):
    return {
        "explore_s": median_by_program(expls, programs,
                                       lambda e: e.data["run_s"]),
        "setup_s": setup_total(expls, setups, programs),
        "cpu_s": median_by_program(expls, programs,
                                   lambda e: e.data["cpu_s"]),
        # The largest program's peak RSS, median over its explorations.
        "peak_rss_mb": max(
            statistics.median(e.rss_mb for e in expls
                              if e.ok and e.program == name)
            for name, *_ in programs),
    }


def root_self_s(e):
    """Self time of the exploration span: its duration minus its children."""
    spans = e.data["spans"]
    root = spans[0]
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == 0)
    return root["end"] - root["start"] - children


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(expls, programs, workers, quiet=False):
    def stat(key):
        return median_by_program(expls, programs,
                                 lambda e: e.data["stats"][key])

    def rep(key):
        return median_by_program(
            expls, programs, lambda e: statistics.median(e.data[key]))

    m = {name: stat(key) for name, key in COUNTS.items()}
    m["lang.compile_s"] = rep("compile_s")
    m["analysis.qce_s"] = rep("qce_s")
    m["core.runner_init_s"] = rep("runner_init_s")
    m["core.run_s"] = median_by_program(expls, programs,
                                        lambda e: e.data["run_s"])
    m["replay.s"] = median_by_program(expls, programs,
                                      lambda e: e.data["replay_s"])
    # solve_s is summed over threads, so run_s - solve_s means engine
    # self time only at one worker.
    m["core.self_s"] = (m["core.run_s"] - m["solver.solve_s"]
                        if workers == 1 else 0.0)
    mult = stat("completed_multiplicity")
    m["merge.paths_per_state"] = ratio(mult, m["core.completed_states"])
    m["solver.ms_per_core_query"] = ratio(1000 * m["solver.solve_s"],
                                          m["solver.core_queries"])
    # Each cache's ratio has that cache's own probes as its base.
    for cache in ("verdict", "model", "core"):
        hits = m[f"solver.{cache}.hits"]
        probes = hits + stat(f"{cache}_misses")
        m[f"solver.{cache}.probes"] = probes
        m[f"solver.{cache}.hit_ratio"] = ratio(hits, probes)
    m["solver.probe_sig_skips"] = (stat("core_sig_skips") +
                                   stat("core_shard_skips") +
                                   stat("model_sig_skips"))
    if not quiet:
        note(f"merge.paths_per_state = {m['merge.paths_per_state']:.4f} "
             f"(base: {mult:.0f} completed multiplicity / "
             f"{m['core.completed_states']:.0f} completed states)")
        note(f"solver.ms_per_core_query = {m['solver.ms_per_core_query']:.4f}"
             f" (base: {m['solver.solve_s']:.4f} s solve / "
             f"{m['solver.core_queries']:.0f} core queries)")
        for cache in ("verdict", "model", "core"):
            note(f"solver.{cache}.hit_ratio = "
                 f"{m[f'solver.{cache}.hit_ratio']:.4f} (base: "
                 f"{m[f'solver.{cache}.hits']:.0f} hits / "
                 f"{m[f'solver.{cache}.probes']:.0f} probes = hits + misses "
                 f"of the {cache} cache)")
        if workers != 1:
            note(f"core.self_s is not defined at {workers} workers "
                 "(solver.solve_s is summed over threads); reported as 0")
        for name, *_ in programs:
            for e in expls:
                if e.ok and e.program == name:
                    s = e.data["stats"]
                    if s["core_queries"] > s["queries"]:
                        note(f"{name}: solver.core_queries "
                             f"{s['core_queries']:.0f} exceeds "
                             f"solver.queries {s['queries']:.0f} "
                             "(known counter discrepancy, not fixed here)")
                    break
    return m


def run_passes(spec, seed, passes, variants):
    """Runs every program once per pass and variant, alternating the
    variant order between passes. variants: list of (trace, off)."""
    start = time.monotonic()

    def in_time():
        return time.monotonic() - start < START_DEADLINE_S

    expls = []
    setups = []
    index = 0
    for k in range(passes):
        order = variants if k % 2 == 0 else variants[::-1]
        for program in spec["programs"]:
            for trace, off in order:
                if not in_time():
                    break
                setups += [setup_sample(spec, program, off)
                           for _ in range(SETUP_PROCS)]
                expls.append(explore(spec, program, index, sub_seed(seed, k),
                                     trace, off))
                index += 1
    complete = True
    for program in spec["programs"]:
        for trace, off in variants:
            def ok_count():
                return sum(e.ok and e.program == program[0] and
                           e.trace == trace and e.off == off for e in expls)
            k = passes
            while ok_count() < MIN_OK and in_time():
                expls.append(explore(spec, program, index, sub_seed(seed, k),
                                     trace, off))
                index += 1
                k += 1
            complete = complete and ok_count() > 0
    return expls, setups, complete


def report(expls):
    for e in expls:
        what = (f"exploration {e.index} ({e.program}, seed {e.seed}"
                f"{', traced' if e.trace else ''}"
                f"{', ' + e.off + ' off' if e.off else ''})")
        if e.ok:
            d = e.data
            note(f"{what}: run {d['run_s']:.3f} s, cpu {d['cpu_s']:.3f} s, "
                 f"peak rss {e.rss_mb:.1f} MB, "
                 f"{d['stats']['instructions']:.0f} instructions, "
                 f"{d['stats']['tests']:.0f} tests replayed")
        else:
            note(f"{what} failed: {e.failure}")


def write_trace(workload, seed, expls):
    """Writes the spans of every traced exploration; the stats block is
    attached to each core.run span."""
    out = []
    for e in expls:
        if not (e.trace and e.data):
            continue
        spans = [dict(s) for s in e.data["spans"]]
        spans[e.data["stats_span"]]["stats"] = e.data["stats"]
        out.append({"id": e.index, "program": e.program, "seed": e.seed,
                    "spans": spans})
    path = BUILD / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out))
    return path


def unit_of(name):
    if name == "solver.ms_per_core_query":
        return "ms"
    if name.endswith("hit_ratio") or name == "merge.paths_per_state":
        return "ratio"
    if name.endswith("_s") or name == "replay.s":
        return "s"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ablate", choices=ABLATIONS,
                    help="compare against a run with this layer off "
                         "(ungated; prints the change in every metric)")
    args = ap.parse_args()

    if not build():
        return 1
    spec = WORKLOADS[args.workload]
    programs = spec["programs"]
    # A run is a fixed number of passes over the programs, sized so one
    # run takes about --seconds on the reference machine; both commits of
    # a comparison then measure the same explorations.
    passes = max(1, round(args.seconds / spec["pass_s"]))

    if args.ablate:
        variants = [(False, ""), (False, args.ablate)]
    elif args.trace:
        # Traced and untraced explorations in pairs with the same seed:
        # their difference is the tracing overhead.
        variants = [(True, ""), (False, "")]
        passes = max(1, round(passes / 2))
    else:
        variants = [(False, "")]
    expls, setups, complete = run_passes(spec, args.seed, passes, variants)
    report(expls)
    if not complete:
        print("error: a program had no successful exploration", file=sys.stderr)
        return 1
    correct = not any(e.incorrect for e in expls)
    attempted = len(expls)
    failed = sum(not e.ok for e in expls)

    def group(trace, off):
        return ([e for e in expls if e.trace == trace and e.off == off],
                [s for s in setups if s[1] == off])

    if args.ablate:
        rows = []
        for trace, off in variants:
            g, g_setups = group(trace, off)
            m = end_to_end(g, g_setups, programs)
            m.update(per_layer(g, programs, spec["workers"], quiet=True))
            rows.append(m)
        note(f"ablation {args.ablate} on {args.workload}, passes: {passes}; "
             "medians per program, summed over programs")
        print(f"{'metric':32} {'default':>14} {args.ablate + ' off':>20} "
              f"{'change':>9}")
        for name in rows[0]:
            base, alt = rows[0][name], rows[1][name]
            change = f"{100 * (alt - base) / base:+8.1f}%" if base else "      n/a"
            print(f"{name:32} {base:14.6g} {alt:20.6g} {change}")
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed}))
        return 0 if correct else 1

    units = dict(END_TO_END)
    if args.trace:
        traced = group(True, "")[0]
        untraced = group(False, "")[0]
        m = per_layer(traced, programs, spec["workers"])
        untraced_s = median_by_program(untraced, programs,
                                       lambda e: e.data["run_s"])
        m["trace.overhead_s"] = median_by_program(
            traced, programs, lambda e: e.data["run_s"]) - untraced_s
        m["bench.harness_self_s"] = median_by_program(traced, programs,
                                                      root_self_s)
        note(f"trace.overhead_s = traced - untraced explore_s "
             f"(base: untraced explore_s {untraced_s:.4f} s)")
        note(f"spans written to {write_trace(args.workload, args.seed, expls)}")
        units = {k: unit_of(k) for k in m}
    else:
        m = end_to_end(expls, setups, programs)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark of the TDRAM simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/harness.cpp with the simulator library
from src/) into .bench_build/perfbench, runs one workload on the
default single-queue engine, checks the simulated output and prints
every metric with its unit. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, and with --trace 1 the per-layer
metrics of a separate traced run. Exits 1 when a run failed, and 2
without a result when the benchmark cannot run at all.
perfbench/README.md describes the workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = BUILD / "work"
HARNESS = BUILD / "tdram_perfbench"

GRID = "fig11_grid"
REPLAY = "isd_replay_afap"
WORKLOADS = (GRID, "mgd_tdram", REPLAY)
GRID_JOBS = 64
# Everything after the build has to end within one 180 s invocation.
RUN_BUDGET_S = 165

# Paper Fig. 11: TDRAM's geomean speed-up over each design.
PAPER_SPEEDUP = {"CascadeLake": 1.20, "Alloy": 1.23, "BEAR": 1.13,
                 "NDC": 1.08}
TAIL_PCT = 84
TAIL_MIN_BEYOND = 10
# The spans of calls into the simulator's layers inside each run.
LAYER_SPANS = ("system.setup", "workload.warmup", "sim.loop")
WARMUP_NOTE = ("isd_replay_afap replays with cold caches (no warm-up); "
               "fig11_grid and mgd_tdram first warm caches and tags "
               "functionally (150000 ops/core)")


class SetupError(Exception):
    """The benchmark cannot run here; it prints no result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- The benchmark's arithmetic (tested by test_run.py) ---------------

def tail_rank(n, pct=TAIL_PCT):
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, -(-pct * n // 100))


def tail_percentile(samples, pct=TAIL_PCT):
    return sorted(samples)[tail_rank(len(samples), pct) - 1]


def samples_beyond(n, pct=TAIL_PCT):
    """Samples above the pct-th percentile. The tail is trusted from
    TAIL_MIN_BEYOND on, which p84 reaches at n >= 63."""
    return n - tail_rank(n, pct)


def geomean(xs):
    return math.exp(statistics.fmean(math.log(x) for x in xs))


def tdram_speedups(jobs):
    """TDRAM's geomean speed-up over each design of PAPER_SPEEDUP, from
    the runs of one fig11_grid repetition."""
    runtime = {j["name"]: j["sim_ns"] for j in jobs}
    profiles = [n.split("/", 1)[1] for n in runtime
                if n.startswith("TDRAM/")]
    return {d: geomean([runtime[f"{d}/{p}"] / runtime[f"TDRAM/{p}"]
                        for p in profiles])
            for d in PAPER_SPEEDUP}


def paper_err_pct(speedups):
    """Mean |measured / paper - 1| over the paper's Fig. 11 geomeans,
    in percent."""
    return 100 * statistics.fmean(abs(speedups[d] / paper - 1)
                                  for d, paper in PAPER_SPEEDUP.items())


def failure(run, reference):
    """Why one simulation run failed, or None. reference maps each
    configuration to the first hash seen for it."""
    if run.get("crashed"):
        return "crash or nonzero exit"
    if run["check_violations"]:
        return "protocol violations"
    if run.get("checked") and run["check_events"] == 0:
        return "checker saw no events"
    if run["demands"] == 0:
        return "zero demands"
    if reference.setdefault(run["name"], run["hash"]) != run["hash"]:
        return "reportJson hash mismatch"
    return None


def account(runs):
    """(attempted, failed, {reason: count}) over runs in the order they
    ran. The check pass runs first, so its hashes anchor every later
    repetition, traced or not."""
    reference, reasons = {}, {}
    for run in runs:
        why = failure(run, reference)
        if why:
            reasons[why] = reasons.get(why, 0) + 1
    return len(runs), sum(reasons.values()), reasons


def digest(jobs):
    """A printable digest of one repetition's reportJson hashes."""
    text = "".join(f"{j['name']} {j['hash']}\n" for j in jobs)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def ratio(a, b):
    return a / b if b else 0.0


def weighted(jobs, field):
    """Demand-weighted mean of a per-run field."""
    return ratio(sum(j[field] * j["demands"] for j in jobs),
                 sum(j["demands"] for j in jobs))


# --- Metrics ----------------------------------------------------------

def best_wall_s(measured):
    """Wall seconds of the fastest repetition. The host slows down in
    bursts of seconds, and a repetition runs exactly the same
    simulations every time, so the fastest one is the steadiest
    measure of the program."""
    return min(r["wall_s"] for r in measured["reps"])


def best_job_s(measured):
    """Per run of the workload, its fastest wall seconds over the
    repetitions."""
    reps = measured["reps"]
    return [min(r["jobs"][i]["end_s"] - r["jobs"][i]["start_s"]
                for r in reps)
            for i in range(len(reps[0]["jobs"]))]


def end_to_end(measured):
    """The end-to-end metrics of one untraced measure phase."""
    wall_s = best_wall_s(measured)
    job_s = best_job_s(measured)
    jobs = measured["reps"][0]["jobs"]  # simulated amounts repeat exactly

    def per_wall_s(field):
        return sum(j[field] for j in jobs) / wall_s

    return {
        "setup_s": (min(statistics.median(batch)
                        for batch in measured["setup_s"]), "s"),
        "wall_s": (wall_s, "s"),
        "sim_us_per_s": (per_wall_s("sim_ns") / 1e3, "us/s"),
        "demands_per_s": (per_wall_s("demands"), "1/s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "job_s_p84": (tail_percentile(job_s), "s"),
        "peak_rss_mb": (measured["peak_rss_kb"] / 1024, "MB"),
    }


def span_totals(spans):
    """Per repetition, the seconds spent in each span name; the
    repetition's own span is "bench.rep". Set-up probes are left out."""
    by_id = {s["id"]: s for s in spans}
    totals = {}
    for s in spans:
        root = s
        while root["parent"] >= 0:
            root = by_id[root["parent"]]
        if root["name"] == "bench.rep":
            t = totals.setdefault(root["id"], {})
            t[s["name"]] = t.get(s["name"], 0.0) + s["end_s"] - s["start_s"]
    return list(totals.values())


def span_coverage(reps, workers):
    """Share of the workers' wall time, over span_totals' repetitions,
    that the spans around calls into the simulator's layers explain.
    The rest is idle workers, the benchmark's own bookkeeping and
    teardown."""
    layers = sum(r.get(n, 0.0) for r in reps for n in LAYER_SPANS)
    return ratio(layers, sum(r["bench.rep"] for r in reps) * workers)


def codec_rates(capture):
    """Encode and decode records/s and stored bytes/record of the replay
    capture; zeros for a workload without one."""
    if capture is None:
        return 0.0, 0.0, 0.0
    n = capture["records"]
    return (n / statistics.median(capture["encode_s"]),
            n / statistics.median(capture["decode_s"]),
            capture["bytes"] / n)


def per_layer(traced, spans, untraced, capture, workload):
    """The per-layer metrics of one traced measure phase. Span times
    come from its fastest repetition, the one its wall_s reports."""
    best = min(span_totals(spans), key=lambda r: r["bench.rep"])
    workers = traced["workers"]
    jobs = traced["reps"][0]["jobs"]  # simulated counts repeat exactly

    def total(field):
        return sum(j[field] for j in jobs)

    warmup_s = best.get("workload.warmup", 0.0)
    loop_s = best["sim.loop"]
    events, demands = total("events"), total("demands")
    kicks, cmds = total("kicks"), total("cmds")
    encode, decode, bytes_per_rec = codec_rates(capture)
    run_setups = [s["end_s"] - s["start_s"] for s in spans
                  if s["name"] == "system.setup" and s["sim"] >= 0]
    return {
        "system.setup_s": (statistics.median(run_setups), "s"),
        "sim.sweep_efficiency": (
            best["sim.job"] / (best["bench.rep"] * workers), "ratio"),
        "workload.warmup_s": (warmup_s, "s"),
        "workload.warmup_ns_per_op": (
            ratio(warmup_s * 1e9, total("warmup_ops")), "ns"),
        "workload.ops_retired": (total("ops_retired"), "count"),
        "cache.l1_hits": (total("l1_hits"), "count"),
        "cache.llc_misses": (total("llc_misses"), "count"),
        "sim.events": (events, "count"),
        "sim.loop_s": (loop_s, "s"),
        "sim.ns_per_event": (ratio(loop_s * 1e9, events), "ns"),
        "sim.events_per_demand": (ratio(events, demands), "ratio"),
        "dram.kicks": (kicks, "count"),
        "dram.cmds": (cmds, "count"),
        "dram.kicks_per_cmd": (ratio(kicks, cmds), "ratio"),
        "dram.scan_steps_per_kick": (
            ratio(total("scan_steps"), kicks), "ratio"),
        "dram.read_q_delay_ns": (weighted(jobs, "read_q_delay_ns"), "ns"),
        "dram.turnarounds": (total("turnarounds"), "count"),
        "tdram.probes": (total("probes"), "count"),
        "tdram.probe_bank_conflicts": (
            total("probe_bank_conflicts"), "count"),
        "tdram.flush_stalls": (total("flush_stalls"), "count"),
        "dcache.demands": (demands, "count"),
        "dcache.miss_ratio": (weighted(jobs, "miss_ratio"), "ratio"),
        "dcache.bloat": (weighted(jobs, "bloat"), "ratio"),
        "dcache.tag_check_ns": (weighted(jobs, "tag_check_ns"), "ns"),
        "dcache.backpressure_stalls": (
            total("backpressure_stalls"), "count"),
        "trace.encode_rec_per_s": (encode, "1/s"),
        "trace.decode_rec_per_s": (decode, "1/s"),
        "trace.bytes_per_rec": (bytes_per_rec, "B"),
        "bench.trace_overhead_frac": (
            best_wall_s(traced) / best_wall_s(untraced) - 1, "ratio"),
        "bench.span_coverage": (span_coverage([best], workers), "ratio"),
        "paper_err_pct": (
            paper_err_pct(tdram_speedups(jobs)) if workload == GRID
            else 0.0, "%"),
    }


# --- Running ----------------------------------------------------------

def tool_env():
    """Environment of the build and the harness: temporary files stay
    inside the checkout."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(env):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SetupError("the simulator sources (src/) are not in this "
                         "checkout")
    workers = str(min(4, len(os.sched_getaffinity(0))))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", workers]):
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               env=env)
        except OSError as e:
            raise SetupError(f"cannot run {cmd[0]}: {e}") from e
        if r.returncode:
            log(r.stdout[-4000:])
            raise SetupError("build failed: " + " ".join(cmd))


def run_harness(env, deadline, *args):
    """The harness's JSON output, or None if it crashed, exited nonzero
    or ran past the time budget."""
    cmd = [str(HARNESS)] + [str(a) for a in args]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=env,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: '{args[0]}' ran past the time budget")
        return None
    lines = r.stdout.splitlines()
    if r.returncode or not lines:
        log(r.stderr[-4000:])
        log(f"perfbench: '{args[0]}' exited with status {r.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: '{args[0]}' printed no JSON result")
        return None


def phase_runs(name, out, expected):
    """The simulation runs of one phase, for the accounting; a crashed
    phase loses all of its runs."""
    if out is None:
        return [{"name": name, "crashed": True}] * expected
    if name == "check":
        return [dict(j, checked=True) for j in out["jobs"]]
    return [j for r in out["reps"] for j in r["jobs"]]


def reference_note(workload, seed, value):
    recorded = json.loads((HERE / "reference_digests.json").read_text())
    want = recorded.get(workload, {}).get(str(seed))
    if want is None:
        return "no recorded digest for this seed"
    if want == value:
        return "matches the recorded digest"
    return f"DIFFERS from the recorded digest {want}"


def report(args, prov, phases, accounting, metrics):
    """Human-readable lines ahead of the result line."""
    attempted, failed, reasons = accounting
    gates = " ".join(f"{g}={'on' if prov[g + '_gate'] else 'off'}"
                     for g in ("trace", "check", "stats"))
    untraced = phases.get("untraced")
    workers = untraced["workers"] if untraced else "?"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"provenance: nproc={prov['nproc']} compiler={prov['compiler']} "
          f"build={prov['build_type']} gates: {gates} "
          f"zstd={'yes' if prov['zstd'] else 'no'} "
          f"engine={prov['engine']} workers={workers}")
    print(f"note: {WARMUP_NOTE}")
    if untraced:
        jobs = untraced["reps"][0]["jobs"]
        d = digest(jobs)
        print(f"reportJson digest {d}: "
              f"{reference_note(args.workload, args.seed, d)}")
        n = len(jobs)
        beyond = samples_beyond(n)
        print(f"job_s: n={n} runs, each at its fastest over "
              f"{len(untraced['reps'])} repetition(s), "
              f"{beyond} samples beyond p84"
              + ("" if beyond >= TAIL_MIN_BEYOND
                 else " (fewer than 10: not a trusted tail)"))
        if args.workload == GRID:
            sp = tdram_speedups(jobs)
            print("TDRAM geomean speed-up: "
                  + ", ".join(f"vs {k} {v:.3f} (paper {PAPER_SPEEDUP[k]:.2f})"
                              for k, v in sp.items())
                  + f"; paper_err_pct {paper_err_pct(sp):.2f}")
    print(f"runs: attempted={attempted} failed={failed} "
          f"fail_frac={ratio(failed, attempted):.4f}"
          + "".join(f"; {k}: {v}" for k, v in sorted(reasons.items())))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")


def bench(args, env):
    deadline = time.monotonic() + RUN_BUDGET_S

    def harness(*a):
        return run_harness(env, deadline, *a)

    prov = harness("provenance")
    if prov is None:
        raise SetupError("the harness does not run")
    if not prov["optimized"]:
        raise SetupError("refusing to record numbers from an unoptimized "
                         f"build ({prov['build_type']})")
    WORK.mkdir(parents=True, exist_ok=True)
    grid = args.workload == GRID
    common = ["--workload", args.workload, "--seed", args.seed]
    runs, phases, capture = [], {}, None
    if args.workload == REPLAY:
        # Built once per seed, before anything is timed.
        tdtz = WORK / "isd.tdtz"
        capture = harness("capture", "--seed", args.seed, "--out", tdtz)
        common += ["--replay", tdtz]
        if capture is None:
            runs.append({"name": "capture", "crashed": True})
    if not runs:
        phases["check"] = harness("check", *common)
        phases["untraced"] = harness("measure", *common,
                                     "--seconds", args.seconds)
        if args.trace:
            phases["traced"] = harness("measure", *common,
                                       "--seconds", args.seconds,
                                       "--spans", WORK / "spans.json")
    for name, out in phases.items():
        runs += phase_runs(name, out, GRID_JOBS if grid else 1)
    accounting = account(runs)
    correct = accounting[1] == 0
    metrics = {}
    if correct and args.trace:
        spans = json.loads((WORK / "spans.json").read_text())
        metrics = per_layer(phases["traced"], spans, phases["untraced"],
                            capture, args.workload)
    elif correct:
        metrics = end_to_end(phases["untraced"])
    report(args, prov, phases, accounting, metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": accounting[0],
        "failed": accounting[1],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Repository benchmark of the TDRAM simulator.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        env = tool_env()
        build(env)
        return bench(args, env)
    except SetupError as e:
        log(f"perfbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

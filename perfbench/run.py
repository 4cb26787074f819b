#!/usr/bin/env python3
"""Host-time benchmark of the HOG simulator.

Builds perfbench/ (the simulator library plus perfbench_driver) with
optimisation, then runs one workload for about --seconds seconds of host
time, one single-threaded simulation per driver process, and prints the
end-to-end metrics (--trace 0) or the per-layer table (--trace 1). The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.

    python3 perfbench/run.py --workload wide-stable --seed 1 --seconds 60 \
        --trace 0
    python3 perfbench/run.py --self-test

See perfbench/README.md for the workloads and how to read the output.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metric units by name: end-to-end (--trace 0) and per-layer (--trace 1).
UNITS = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
         1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# Simulations per round, each with its own seed derived from --seed. Rounds
# repeat while another fits in --seconds. A round's seeds replay inputs
# whose cost differs (wide-stable's schedules fire 1.9M-2.2M events;
# chaos-audit's four soak scenarios and the chaos they meet cost 2-5.5 s a
# run), so every round holds several seeds and the metrics average over them.
# chaos-audit's twelve seeds, three per soak scenario, fill one round.
SEEDS_PER_ROUND = {"wide-stable": 4, "chaos-audit": 12}
# A traced invocation runs one round of these seeds, each once untraced and
# once traced.
TRACED_SEEDS = {"wide-stable": 4, "chaos-audit": 4}
TINY_SEEDS_PER_ROUND = 2
CHILD_TIMEOUT_S = 150  # one simulation; the whole invocation must end in 180
# Nominal host seconds of one pass of the driver's reference kernel
# (reference.h), within the 15-22 ms a pass takes on a shared 4-core Xeon
# VM. run_s and setup_s are reported at the host speed at which a pass takes
# this long, so that a shared host's drift in speed, which moves the
# reference kernel and the simulator alike, cancels out of them.
REFERENCE_S = 0.020


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """Anything that must stop the benchmark without printing a result."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench_driver")


def driver_json(driver, args, timeout=CHILD_TIMEOUT_S):
    """Runs the driver; returns (parsed JSON or None, stderr text)."""
    try:
        proc = subprocess.run([driver] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % timeout
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr[-2000:])
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr
    except (ValueError, IndexError):
        return None, "unparseable output: %r" % proc.stdout[-500:]


def provenance(driver):
    info, err = driver_json(driver, ["provenance"])
    if info is None:
        raise BenchError("provenance: " + err)
    if not info["optimized"] or not info["ndebug"]:
        raise BenchError("refusing to time an unoptimised build: %s" % info)
    git = subprocess.run(
        ["git", "describe", "--always", "--dirty", "--tags"],
        capture_output=True, text=True,
        env=dict(os.environ, GIT_DIR=os.path.join(ROOT, ".git")))
    info["git_describe"] = (git.stdout.strip() if git.returncode == 0
                            else "none (not a git checkout)")
    info["command"] = [os.path.relpath(sys.argv[0], ROOT)] + sys.argv[1:]
    info["nproc"] = os.cpu_count()
    return info


def round_seeds(args):
    if args.tiny:
        k = TINY_SEEDS_PER_ROUND
    elif args.trace:
        k = TRACED_SEEDS[args.workload]
    else:
        k = SEEDS_PER_ROUND[args.workload]
    return [args.seed * k + i for i in range(k)]


def trace_path(args, seed):
    """Where the traced run of `seed` writes its spans and slices."""
    return os.path.join(build_dir(), "traces",
                        "%s-%d.json" % (args.workload, seed))


def simulate(driver, workload, seed, tiny, traced, trace_out=None):
    """One simulation in its own process; returns (report, failures)."""
    cmd = ["run", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if tiny:
        cmd.append("--tiny")
    report, err = driver_json(driver, cmd)
    if report is None:
        return None, ["crashed: " + err]
    return report, list(report["failures"])


def measure(driver, args):
    """Runs rounds of simulations for about args.seconds.

    An untraced invocation repeats a round of its seeds while another round
    fits in args.seconds. A traced one runs a single round and runs each
    seed twice, untraced and then traced: the pair gives the tracing
    overhead, and the traced run must reproduce the untraced run's digest,
    which shows that slicing left the simulation alone. Measuring stops at
    the first failed run.
    """
    start = time.monotonic()
    seeds = round_seeds(args)
    traced = args.trace == 1
    os.makedirs(os.path.dirname(trace_path(args, seeds[0])), exist_ok=True)
    res = {"rounds": [], "untraced": [], "attempted": 0, "failed": 0}
    digests = {}

    def attempt(seed, kind):
        res["attempted"] += 1
        report, failures = simulate(driver, args.workload, seed, args.tiny,
                                    kind, trace_path(args, seed) if kind
                                    else None)
        if report is not None:
            first = digests.setdefault(seed, report["digest"])
            if report["digest"] != first:
                failures.append("digest %r differs from %r" %
                                (report["digest"], first))
        if failures:
            res["failed"] += 1
            log("run failed (%s, seed %d%s): %s" %
                (args.workload, seed, ", traced" if kind else "",
                 "; ".join(failures)))
        return report

    def run_round():
        reports = []
        for seed in seeds:
            if traced:
                res["untraced"].append(attempt(seed, False))
                if res["failed"]:
                    return False
            reports.append(attempt(seed, traced))
            if res["failed"]:
                return False
        res["rounds"].append(reports)
        return True

    while True:
        round_start = time.monotonic()
        if not run_round() or traced:
            return res
        now = time.monotonic()
        if now - start + (now - round_start) > min(args.seconds,
                                                    CHILD_TIMEOUT_S):
            return res


def seed_mean(res, key, table=None):
    """Mean over seeds of each seed's median `key` (in `table`) over its
    runs."""
    runs = {}
    for reports in res["rounds"]:
        for r in reports:
            runs.setdefault(r["seed"], []).append(
                r[table][key] if table else r[key])
    return statistics.fmean(statistics.median(v) for v in runs.values())


def at_reference_speed(reports):
    """Host seconds per run at reference speed: REFERENCE_S times the
    runs' summed host seconds over their summed reference passes."""
    return (REFERENCE_S * sum(r["run_s"] for r in reports) /
            sum(r["ref_s"] for r in reports))


def end_to_end(res):
    runs = [r for reports in res["rounds"] for r in reports]
    return {
        "run_s": at_reference_speed(runs),
        "setup_s": REFERENCE_S * statistics.median(
            r["setup_s"] / r["ref_s"] for r in runs),
        "peak_rss_mib": seed_mean(res, "peak_rss_mib"),
        "sim_response_s": seed_mean(res, "sim_response_s"),
    }


def per_layer(res):
    out = {name: seed_mean(res, name, "layer")
           for name in res["rounds"][0][0]["layer"]}
    traced, untraced = res["rounds"][0], res["untraced"]
    out["trace.overhead_ratio"] = (at_reference_speed(traced) /
                                   at_reference_speed(untraced) - 1)
    out["host.run_raw_s"] = statistics.fmean(r["run_s"] for r in untraced)
    out["host.ref_ms"] = 1e3 * statistics.fmean(
        r["ref_s"] for r in traced + untraced)
    out["run_fail_ratio"] = 0.0
    return out


def print_slices(path):
    """Where host time concentrates in simulated time, per phase."""
    with open(path) as f:
        trace = json.load(f)
    print("# spans and slices of %s: %s" %
          (trace["run"], os.path.relpath(path, ROOT)))
    phases = {}
    for s in trace["slices"]:
        phases.setdefault(s["phase"], []).append(s)
    for phase, slices in phases.items():
        host = sum(s["host_s"] for s in slices)
        print("#   %s: %d slices over sim %.0f-%.0f s, %.3f host s; "
              "heaviest:" % (phase, len(slices), slices[0]["sim_start_s"],
                             slices[-1]["sim_end_s"], host))
        for s in sorted(slices, key=lambda s: -s["host_s"])[:3]:
            print("#     sim %7.0f-%7.0f s  host %.3f s  fired %d  "
                  "cancelled %d  heartbeats %d  shuffle %d  repairs %d  "
                  "active_flows %d" %
                  (s["sim_start_s"], s["sim_end_s"], s["host_s"], s["fired"],
                   s["cancelled"], s["heartbeats"], s["shuffle_fetched"],
                   s["repairs"], s["active_flows"]))


def print_tables(args, prov, res, metrics, units):
    print("# perfbench %s seed=%d seconds=%d trace=%d%s" %
          (args.workload, args.seed, args.seconds, args.trace,
           " tiny" if args.tiny else ""))
    print("# provenance: " + json.dumps(prov, sort_keys=True))
    runs = res["untraced"] + [r for reports in res["rounds"] for r in reports]
    print("# %d round(s) of seeds %s; %d of %d runs failed" %
          (len(res["rounds"]), round_seeds(args), res["failed"],
           res["attempted"]))
    for r in runs:
        print("#   %-8s seed=%-6d run_s=%.4f setup_s=%.6f ref_ms=%.2f "
              "peak_rss_mib=%.1f  %s" %
              ("traced" if r["traced"] else "untraced", r["seed"],
               r["run_s"], r["setup_s"], 1e3 * r["ref_s"], r["peak_rss_mib"],
               r["digest"]))
    if args.trace and res["rounds"]:
        print_slices(trace_path(args, round_seeds(args)[0]))
    if metrics:
        width = max(len(n) for n in metrics)
        for name, value in metrics.items():
            print("# %-*s %16.6g %s" % (width, name, value, units[name]))


def bench(args):
    driver = build()
    prov = provenance(driver)
    res = measure(driver, args)
    units = UNITS[args.trace]
    if not res["failed"]:
        values = per_layer(res) if args.trace else end_to_end(res)
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError("no value for metrics %s" % missing)
        metrics = {name: values[name] for name in units}
    elif args.trace:
        metrics = {"run_fail_ratio": res["failed"] / res["attempted"]}
    else:
        metrics = {}
    print_tables(args, prov, res, metrics, units)
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if res["failed"] == 0 else 1


def check_printed(workload, trace, declared):
    """Runs the command at tiny size; lists what its result gets wrong."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=170)
    where = "%s --trace %d" % (workload, trace)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return [where + ": printed no result"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (where, sorted(result)))
    printed = {n: m["unit"] for n, m in result.get("metrics", {}).items()}
    if printed != declared:
        problems.append("%s: prints %s, BENCHMARK.json lists %s" %
                        (where, sorted(printed.items()),
                         sorted(declared.items())))
    if result.get("correct") is not True or proc.returncode != 0:
        problems.append(where + ": run was not correct")
    return problems


def self_test():
    """Checks the benchmark itself at tiny sizes; returns an exit code."""
    problems = []
    driver = build()
    provenance(driver)

    for workload in WORKLOADS:
        a, fa = simulate(driver, workload, 7, True, traced=False)
        b, fb = simulate(driver, workload, 7, True, traced=False)
        t, ft = simulate(driver, workload, 7, True, traced=True)
        if a is None or b is None or t is None or fa or fb or ft:
            problems.append("%s: run failed: %s" % (workload, fa + fb + ft))
            continue
        if a["digest"] != b["digest"]:
            problems.append("%s: same seed, different digests" % workload)
        if a["digest"] != t["digest"]:
            problems.append("%s: sliced phases changed the digest" % workload)
        log("self-test %s: %s" % (workload, a["digest"]))

    with open(os.path.join(BENCH_DIR, "layer_map.json")) as f:
        mapped = set(json.load(f)["metrics"])
    if mapped != set(UNITS[1]):
        problems.append("layer_map.json maps %s, BENCHMARK.json lists %s" %
                        (sorted(mapped), sorted(UNITS[1])))
    for trace in (0, 1):
        for name in UNITS[trace]:
            if not NAME_RE.match(name):
                problems.append("bad metric name %r" % name)
        for workload in WORKLOADS:
            problems += check_printed(workload, trace, UNITS[trace])

    for p in problems:
        log("SELF-TEST FAIL: " + p)
    log("self-test %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads, for checking the harness")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        return bench(args)
    except (BenchError, OSError) as e:
        log("perfbench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())

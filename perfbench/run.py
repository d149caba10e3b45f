#!/usr/bin/env python3
"""The repository benchmark: builds perfbench/ from source and runs one
workload, or compares two result sets.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --print-digests

Run from the repository root. The build goes to .bench_build/perfbench and
every run writes its result set (host, build, seed and all metrics) to
.bench_build/results/runs/ (or --results DIR). The last stdout line of a run
is the JSON object the BENCHMARK.json contract asks for. See
perfbench/README.md for the workloads, metrics and the layer map.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_digests():
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        return json.load(f)


# --- build ---------------------------------------------------------------------


def build():
    """Configure and build the benchmark package; exit 2 when impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "campaign", "engine.hpp")):
        log("perfbench: no library sources under src/; nothing to build")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(build_log, "a") as out:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
            if rc != 0:
                log("perfbench: build step failed: %s (see %s)" % (" ".join(cmd), build_log))
                sys.exit(2)
    if not os.path.isfile(BINARY):
        log("perfbench: build produced no binary")
        sys.exit(2)


# --- host record -----------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def source_digest():
    """sha256 over src/ (paths and bytes), so a result set names its code
    even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat; (0, 0) if absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7] if len(fields) > 7 else 0, sum(fields)
    except (OSError, ValueError):
        return 0, 0


def host_record(build_info, seed):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("type"),
        "flags": build_info.get("flags"),
        "optimised": build_info.get("optimised"),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "master_seed": seed,
    }


# --- one run ---------------------------------------------------------------------


def run_binary(args):
    """Run the benchmark binary; echo its human lines; return (rc, RESULT)."""
    proc = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def run_workload(opts):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if opts.workload not in names:
        log("perfbench: unknown workload %r (have %s)" % (opts.workload, ", ".join(names)))
        return 2
    digests = load_digests()
    build()
    args = ["--workload=" + opts.workload, "--seed=%d" % opts.seed,
            "--seconds=%s" % opts.seconds, "--trace=%d" % opts.trace,
            "--out=" + RESULTS_DIR, "--expect-digest=" + digests.get(opts.workload, "")]
    started = time.time()
    steal0, total0 = cpu_ticks()
    rc, result = run_binary(args)
    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to other guests while this run wanted it.
    # On a shared host this, not the code, is the usual cause of an outlier.
    steal_frac = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    print("host: cpu steal %.1f%% during the run" % (100 * steal_frac))
    if result is None:
        log("perfbench: the benchmark binary printed no result (exit %d)" % rc)
        return rc or 1

    build_info = result.get("build", {})
    if not build_info.get("optimised"):
        print("!!! NON-OPTIMISED BUILD (%s): not a result !!!" % build_info.get("type"))
    metric_specs = spec["per_layer"] if opts.trace else spec["end_to_end"]
    metrics = {}
    for m in metric_specs:
        if m["name"] not in result["metrics"]:
            log("perfbench: the binary did not report %s" % m["name"])
            return 1
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}

    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "trace": opts.trace,
        "seconds": opts.seconds,
        "started_unix": started,
        "host": dict(host_record(build_info, opts.seed), cpu_steal_frac=steal_frac),
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failed_frac": result["failed_frac"],
        "trial_ms_p90": result["trial_ms_p90"],
        "trial_samples": result["trial_samples"],
        "gate": result["gate"],
        "passes": result["passes"],
        "metrics": metrics,
    }
    out_dir = opts.results or os.path.join(RESULTS_DIR, "runs")
    os.makedirs(out_dir, exist_ok=True)
    name = "%s-trace%d-seed%d-%d.json" % (opts.workload, opts.trace, opts.seed,
                                          int(started * 1000))
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if (rc == 0 and result["correct"]) else 1


# --- compare ---------------------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def verdict(parent, change, better, bound):
    """Classify a change against its parent for one workload x metric.

    improved:   the change wins >= 9/10 of the pairs and the medians differ
                by more than the parent's own quartile spread;
    worse:      the change's median is worse than the parent's by more than
                the bound, and the parent's spread is within the bound;
    no worse:   the change's median is within the bound of the parent's and
                the parent's spread is within the bound;
    unresolved: the spread is wider than the bound, and not every change
                run reads better than every parent run.
    """
    sign = 1.0 if better == "higher" else -1.0
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = (pq3 - pq1) / abs(pmed) if pmed else float("inf")
    worse_by = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if pairs and wins >= 0.9 * len(pairs) and abs(cmed - pmed) > (pq3 - pq1) and \
            sign * (cmed - pmed) > 0:
        return "improved", wins, len(pairs)
    if bound is None:
        return "unresolved", wins, len(pairs)
    if spread > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "improved", wins, len(pairs)
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    return "no worse", wins, len(pairs)


def load_result_set(path):
    runs = []
    for name in sorted(os.listdir(path)):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as f:
                runs.append(json.load(f))
    return runs


# CPU steal above which a run says more about the shared host than about the
# code. The quiet baseline sets stayed at or below 0.44%, apart from one
# giant-1m run at 1.06%. A loaded serve-1k run already lost 21% of its
# throughput at 1.08% steal.
STEAL_LIMIT = 0.01


def compare(parent_dir, change_dir):
    """Print a verdict per workload x end-to-end metric; 1 if any is worse,
    2 if a result set is unusable."""
    spec = load_spec()
    parent = load_result_set(parent_dir)
    change = load_result_set(change_dir)
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            if not r["host"].get("optimised"):
                log("perfbench: %s set holds a non-optimised run; refusing" % side)
                return 2
            # A run that failed its gate may have done less work, so its
            # times must never count toward a gain.
            if not r["correct"] or r["failed"] != 0:
                log("perfbench: %s run %s seed %d failed its correctness gate "
                    "(%d failed); refusing" % (side, r["workload"], r["seed"], r["failed"]))
                return 2
    metrics = spec["end_to_end"] + [{"name": "trial_ms_p90", "unit": "ms",
                                     "better": "lower", "bound": None}]
    print("%-13s %-16s %12s %12s %12s | %12s %12s %12s | %6s | %11s  %s" % (
        "workload", "metric", "parent_q1", "parent_med", "parent_q3", "change_q1",
        "change_med", "change_q3", "wins", "max steal", "verdict"))
    worst = 0
    for w in spec["workloads"]:
        def runs_of(runs):
            return sorted((r for r in runs if r["workload"] == w["name"] and
                           r["trace"] == 0), key=lambda r: r["started_unix"])

        def values(runs, name):
            out = []
            for r in runs:
                v = r["trial_ms_p90"] if name == "trial_ms_p90" else \
                    r["metrics"].get(name, {}).get("value")
                if v is not None:
                    out.append(float(v))
            return out

        pruns, cruns = runs_of(parent), runs_of(change)
        psteal = max((r["host"].get("cpu_steal_frac", 0.0) for r in pruns), default=0.0)
        csteal = max((r["host"].get("cpu_steal_frac", 0.0) for r in cruns), default=0.0)
        noisy = max(psteal, csteal) > STEAL_LIMIT
        # Pair wins mean something only when parent and change runs
        # alternate; between two sets run one after the other they count
        # the host's drift (baseline.md shows 17% on the same code).
        sequential = bool(pruns and cruns) and (
            pruns[-1]["started_unix"] < cruns[0]["started_unix"] or
            cruns[-1]["started_unix"] < pruns[0]["started_unix"])
        for m in metrics:
            p, c = values(pruns, m["name"]), values(cruns, m["name"])
            if not p or not c:
                continue
            v, wins, n = verdict(p, c, m["better"], m.get("bound"))
            if noisy:
                v = "unresolved (steal > %.0f%%)" % (100 * STEAL_LIMIT)
            elif sequential and v == "improved":
                v = "unresolved (runs not interleaved)"
            if v == "worse":
                worst = 1
            pq, cq = quartiles(p), quartiles(c)
            print("%-13s %-16s %12.5g %12.5g %12.5g | %12.5g %12.5g %12.5g | %2d/%-3d | "
                  "%4.1f%%/%4.1f%%  %s" % (
                      w["name"], m["name"], pq[0], pq[1], pq[2], cq[0], cq[1], cq[2],
                      wins, n, 100 * psteal, 100 * csteal, v))
    return worst


# --- self-test ---------------------------------------------------------------------


def self_test():
    failures = 0

    def check(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures += 1

    check(quartiles([1.0, 2.0, 3.0, 4.0, 5.0])[1] == 3.0, "quartiles: median of 1..5")
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    check(verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == "improved",
          "verdict: +30% on every pair is improved")
    check(verdict(base, [x * 0.7 for x in base], "higher", 0.1)[0] == "worse",
          "verdict: -30% beyond a 10% bound is worse")
    check(verdict(base, [x * 0.98 for x in base], "higher", 0.1)[0] == "no worse",
          "verdict: -2% within a 10% bound is no worse")
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    check(verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved",
          "verdict: spread wider than the bound is unresolved")

    # compare() on small synthetic result sets.
    def result_set(name, wall, correct=True, steal=0.0, start=0):
        path = os.path.join(RESULTS_DIR, "selftest-compare", name)
        os.makedirs(path, exist_ok=True)
        for f in os.listdir(path):
            os.remove(os.path.join(path, f))
        for i, w in enumerate(wall):
            record = {"workload": "serve-1k", "seed": i, "trace": 0, "started_unix": start + i,
                      "host": {"optimised": True, "cpu_steal_frac": steal},
                      "correct": correct, "failed": 0 if correct else 1,
                      "trial_ms_p90": None, "metrics": {"wall_s": {"value": w}}}
            with open(os.path.join(path, "%d.json" % i), "w") as f:
                json.dump(record, f)
        return path

    walls = [1.0, 1.01, 0.99, 1.02, 0.98]
    parent = result_set("parent", walls)
    check(compare(parent, result_set("same", walls)) == 0, "compare: a set against itself")
    check(compare(parent, result_set("slow", [w * 1.5 for w in walls])) == 1,
          "compare: 50% slower is worse (exit 1)")
    check(compare(parent, result_set("gate", [w * 0.5 for w in walls], correct=False)) == 2,
          "compare: a run that failed its gate is refused (exit 2)")
    check(compare(parent, result_set("steal", [w * 1.5 for w in walls], steal=0.05)) == 0,
          "compare: a run above the steal limit leaves the workload unresolved")
    check(compare(parent, result_set("later", [w * 0.7 for w in walls], start=100)) == 0,
          "compare: a gain between sets that did not alternate is unresolved")

    build()
    rc, _ = run_binary(["--self-test"])
    check(rc == 0, "binary self-test (percentiles, span self time, digests)")

    # Tiny smoke of every workload: clean passes the gate, one altered row
    # trips it.
    digests = load_digests()
    for w in load_spec()["workloads"]:
        base_args = ["--workload=" + w["name"], "--seed=7", "--seconds=0", "--trace=0",
                     "--tiny", "--out=" + RESULTS_DIR,
                     "--expect-digest=" + digests.get(w["name"] + "/tiny", "")]
        rc, result = run_binary(base_args)
        check(rc == 0 and result is not None and result["correct"],
              "tiny %s passes the correctness gate" % w["name"])
        rc, result = run_binary(base_args + ["--corrupt-row"])
        check(rc == 1 and result is not None and not result["correct"]
              and result["failed"] > 0,
              "tiny %s with one altered row trips the gate" % w["name"])
    print("self-test: %d failure(s)" % failures)
    return 0 if failures == 0 else 1


def print_digests():
    build()
    out = {}
    for w in load_spec()["workloads"]:
        for tiny in (False, True):
            args = ["--workload=" + w["name"], "--seed=1", "--seconds=0", "--trace=0",
                    "--out=" + RESULTS_DIR, "--print-digest"] + (["--tiny"] if tiny else [])
            proc = subprocess.run([BINARY] + args, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            for line in proc.stdout.splitlines():
                if line.startswith("DIGEST "):
                    out[w["name"] + ("/tiny" if tiny else "")] = line.split()[1]
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", help="result-set directory for this run")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--print-digests", action="store_true")
    opts = ap.parse_args()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if opts.compare:
        return compare(*opts.compare)
    if opts.self_test:
        return self_test()
    if opts.print_digests:
        return print_digests()
    if not opts.workload:
        ap.error("--workload is required")
    return run_workload(opts)


if __name__ == "__main__":
    sys.exit(main())

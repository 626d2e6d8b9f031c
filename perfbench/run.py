#!/usr/bin/env python3
"""Builds and runs the CaWoSched benchmark (see perfbench/README.md).

One run, from the root of the repository:

    python3 perfbench/run.py --workload grid-quick --seed 1 --seconds 10 --trace 0

builds the `perfbench` binary (release, into $CARGO_TARGET_DIR or
.bench_build), runs the workload on one worker thread and prints, as the
last line of standard output, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 1` the run writes the
span and counter JSONL under the target directory, checks it with
`obs_check`, and reports the per-layer metrics instead.

Steadiness mode:

    python3 perfbench/run.py --steady

runs every workload of BENCHMARK.json on seeds 1..10, then again on the
same seeds (an A/A comparison of two sets of runs of the same code). It
prints each end-to-end metric's quartiles per set, its spread against a
third of its bound, and how far the second set's median moved from the
first's against the bound. Then it makes one traced run per workload on
a held-out seed and prints its split between layers.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["grid-quick", "greedy-1000", "exact-small"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
STEADY_RUNS = 10
# A seed used by no other run of --steady.
HOLDOUT_SEED = 1000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    t = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return t if os.path.isabs(t) else os.path.join(ROOT, t)


def build():
    """Builds `perfbench` and `obs_check`; returns the release directory."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise RuntimeError(f"{ROOT} holds no cawosched sources to build")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline",
           "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
           "-p", "cawo_perfbench", "-p", "cawo_obs", "--bins"]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"build failed with exit code {r.returncode}")
    return os.path.join(target_dir(), "release")


def run_once(release, workload, seed, seconds, trace):
    """Runs one workload; returns the result object (a dict)."""
    env = {k: v for k, v in os.environ.items() if k != "CAWO_LOG"}
    env["CAWO_THREADS"] = "1"
    cmd = [os.path.join(release, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    jsonl = None
    if trace:
        trace_dir = os.path.join(target_dir(), "perfbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        jsonl = os.path.join(trace_dir, f"{workload}-seed{seed}.jsonl")
        cmd += ["--jsonl", jsonl]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    result = json.loads(lines[-1])
    if trace:
        check = subprocess.run([os.path.join(release, "obs_check"), jsonl],
                               stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        result["attempted"] += 1
        if check.returncode != 0:
            log("perfbench: obs_check rejected the trace")
            result["failed"] += 1
            result["correct"] = False
    return result


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def run_set(release, workload, seconds, name):
    runs = []
    for seed in range(1, STEADY_RUNS + 1):
        t0 = time.time()
        res = run_once(release, workload, seed, seconds, False)
        log(f"{name} {workload} seed {seed}: {time.time() - t0:.1f} s, "
            f"correct={res['correct']}")
        runs.append(res)
    return runs


def report(spec, workload, sets):
    """Prints one workload's two sets; returns whether they are steady."""
    ok = all(r["correct"] and r["failed"] == 0 for s in sets for r in s)
    print(f"== {workload}: {len(sets)} sets of {STEADY_RUNS} runs on seeds "
          f"1..{STEADY_RUNS}")
    print(f"{'metric':<20} {'set':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>8} {'worse':>7} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [[r["metrics"][m["name"]]["value"] for r in runs]
                  for runs in sets]
        # A metric that reads the same on a seed in every set is
        # deterministic: its spread is the seeds' variation, not noise,
        # and needs only to stay within the bound. Noise must stay below
        # a third of it.
        repeats = all(v == values[0] for v in values)
        limit = m["bound"] if repeats else m["bound"] / 3
        medians = []
        for k, vals in enumerate(values):
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            worse = worse_by(m, medians[0], q2) if medians else 0.0
            medians.append(q2)
            good = spread < limit and worse <= m["bound"]
            ok &= good
            print(f"{m['name']:<20} {'AB'[k]:>3} {q1:>11.5g} {q2:>11.5g} "
                  f"{q3:>11.5g} {spread:>8.2%} {worse:>7.2%} {m['bound']:>6}"
                  f"{'' if good else '  TOO NOISY'}")
            print("    runs: " + " ".join(f"{v:.5g}" for v in vals))
        if m["name"] == "carbon_saving_pct" and not repeats:
            print("carbon_saving_pct differs between sets on the same seed")
            ok = False
    return ok


def traced_split(release, workload, seconds):
    """Prints the layer split of one traced run on the held-out seed."""
    res = run_once(release, workload, HOLDOUT_SEED, seconds, True)
    layers = {k: v["value"] for k, v in res["metrics"].items()
              if k.endswith("_ms")}
    total = sum(layers.values())
    print(f"-- {workload}: traced split on held-out seed {HOLDOUT_SEED} "
          f"({total:.0f} ms)")
    for k, v in sorted(layers.items(), key=lambda kv: -kv[1]):
        if v > 0:
            print(f"   {k:<22} {v:>10.1f} ms {100 * v / total:>6.1f}%")
    print(f"   obs.overhead_ratio "
          f"{res['metrics']['obs.overhead_ratio']['value']:.3f}")
    return res["correct"]


def steady(release):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = {w: [] for w in workloads}
    for name in "AB":
        for w in workloads:
            sets[w].append(run_set(release, w, seconds, name))
    ok = True
    for w in workloads:
        ok &= report(spec, w, sets[w])
    for w in workloads:
        ok &= traced_split(release, w, seconds)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true",
                   help="run every workload in two sets of runs and print "
                        "their spread")
    args = p.parse_args()
    if not args.steady and (args.workload is None or args.seconds is None):
        p.error("--workload and --seconds are required (or use --steady)")
    try:
        release = build()
        if args.steady:
            return 0 if steady(release) else 1
        res = run_once(release, args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except (RuntimeError, OSError, ValueError,
            subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs it.

Run from the root of the repository:

  python3 perfbench/run.py --workload bulk_vita --seed 1 --seconds 20 --trace 0
      One run. Extra flags pass through to the binary (see src/main.rs).
      The last line of standard output is the JSON result.

  python3 perfbench/run.py steady --workload query_day --runs 10 \\
          [--first-seed 1] [--save set.json]
      Runs one workload N times for BENCHMARK.json's run_seconds, one seed
      each, and prints per end-to-end metric the median, the quartiles,
      (q3 - q1) / median and (max - min) / median, against the bound in
      BENCHMARK.json.

  python3 perfbench/run.py compare before.json after.json
      Compares two saved sets of the same seeds metric by metric: the
      change of the median against the bound, and how many same-seed pairs
      the second set wins.

The build goes to $CARGO_TARGET_DIR when set, else perfbench/target.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary and returns its path, or exits non-zero."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run cargo: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed with code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_once(binary, args):
    """Runs the binary, echoing its output; returns (code, parsed last line)."""
    done = subprocess.run([binary, *args], stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    return {m["name"]: m for m in spec()["end_to_end"]}


def spread(values):
    """(q3 - q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def steady(argv):
    opts = {"--workload": None, "--runs": "10", "--first-seed": "1",
            "--save": None}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"steady: unknown flag {flag}")
        opts[flag] = next(it)
    if not opts["--workload"]:
        sys.exit("steady: --workload is required")
    binary = build()
    seconds = str(spec()["run_seconds"])
    runs, first = int(opts["--runs"]), int(opts["--first-seed"])
    results = []
    for seed in range(first, first + runs):
        code, result = run_once(binary, [
            "--workload", opts["--workload"], "--seed", str(seed),
            "--seconds", seconds, "--trace", "0"])
        if code != 0 or not result or not result["correct"]:
            sys.exit(f"steady: seed {seed} failed (exit code {code})")
        results.append({"seed": seed, "metrics": {
            k: v["value"] for k, v in result["metrics"].items()}})
    print(f"steadiness of {opts['--workload']} over {runs} seeds "
          f"from {first}, {seconds} s each:")
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6}  verdict")
    for name, m in bounds().items():
        values = [r["metrics"][name] for r in results]
        q1, med, q3, iqr = spread(values)
        rng = (max(values) - min(values)) / med
        bound = m["bound"]
        if iqr > bound:
            verdict = "TOO NOISY"
        elif iqr > bound / 3:
            verdict = "ok, above a third of the bound"
        else:
            verdict = "ok"
        print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{iqr:>8.4f} {rng:>8.4f} {bound:>6}  {verdict}")
    if opts["--save"]:
        with open(opts["--save"], "w") as f:
            json.dump({"workload": opts["--workload"], "runs": results}, f,
                      indent=1)
        print(f"saved to {opts['--save']}")


def compare(argv):
    if len(argv) != 2:
        sys.exit("compare: needs two saved sets")
    sets = []
    for path in argv:
        with open(path) as f:
            sets.append(json.load(f))
    a, b = sets
    if a["workload"] != b["workload"]:
        sys.exit(f"compare: {a['workload']} against {b['workload']}")
    runs_a = {r["seed"]: r["metrics"] for r in a["runs"]}
    runs_b = {r["seed"]: r["metrics"] for r in b["runs"]}
    if sorted(runs_a) != sorted(runs_b):
        sys.exit(f"compare: the sets ran different seeds: {sorted(runs_a)} "
                 f"against {sorted(runs_b)}")
    seeds = sorted(runs_a)
    print(f"{a['workload']}: {argv[0]} -> {argv[1]}, seeds {seeds}")
    print(f"  {'metric':<16} {'median A':>12} {'median B':>12} {'worse by':>9} "
          f"{'bound':>6} {'B wins':>7}  verdict")
    for name, m in bounds().items():
        va = [runs_a[seed][name] for seed in seeds]
        vb = [runs_b[seed][name] for seed in seeds]
        ma, mb = statistics.median(va), statistics.median(vb)
        lower = m["better"] == "lower"
        worse = ((mb - ma) if lower else (ma - mb)) / ma
        pairs = list(zip(va, vb))
        wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
        _, _, _, iqr_a = spread(va)
        if worse > m["bound"]:
            verdict = "REGRESSED"
        elif wins >= 0.9 * len(pairs) and -worse > iqr_a:
            verdict = "gain (nine in ten pairs, beyond A's spread)"
        else:
            verdict = "within bound"
        print(f"  {name:<16} {ma:>12.6g} {mb:>12.6g} {worse:>9.4f} "
              f"{m['bound']:>6} {wins:>3}/{len(pairs):<3}  {verdict}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "steady":
        steady(argv[1:])
    elif argv and argv[0] == "compare":
        compare(argv[1:])
    else:
        code, _ = run_once(build(), argv)
        sys.exit(code)


if __name__ == "__main__":
    main()

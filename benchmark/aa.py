#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough for its own bounds?

Runs the command of BENCHMARK.json for its run_seconds on every workload
with ten seeds, twice, on the same build, and prints for each end-to-end
metric and workload

  * the spread of each set: the distance between the first and third
    quartile of its ten values as a share of their median, and
  * the shift: how much worse the second set's median is than the first's,

beside the metric's bound. Exits non-zero when a spread (except that of
setup_s, which the driver does not hold to its bound either) or a shift
exceeds its bound, when a metric that repeats exactly for a seed differs
between the two sets on any seed, or when a run reports a failed op.

    python3 benchmark/aa.py [--workload NAME]

Run it from the root of the checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Seed 7 is the hold-out: nothing here is tuned or recorded on it.
SEEDS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 11)
# These repeat exactly for a seed, so the two sets are compared run by run.
EXACT = ("accuracy", "v_scenarios_per_eid")


def run(spec, workload, seed):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="check this workload only")
    workload = parser.parse_args().workload

    breaches = 0
    print(f"{'workload':<18} {'metric':<22} {'median A':>14} {'median B':>14} "
          f"{'spread A':>9} {'spread B':>9} {'shift':>8} {'bound':>6}")
    for workload in [workload] if workload else names:
        sets = [[run(spec, workload, seed) for seed in SEEDS] for _ in range(2)]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([r[name] for r in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = [spread(a), spread(b)]
            # setup_s is a median of three set-ups a run; its spread reached
            # 37 % in a noisy spell of the host while its medians held.
            held = [worse] if name == "setup_s" else [worse, *spreads]
            breach = max(held) > bound or (name in EXACT and a != b)
            breaches += breach
            print(f"{workload:<18} {name:<22} {med_a:>14.6g} {med_b:>14.6g} "
                  f"{spreads[0]:>9.2%} {spreads[1]:>9.2%} {worse:>+8.2%} {bound:>6.0%}"
                  f"{'  BREACH' if breach else ''}", flush=True)
    sys.exit(1 if breaches else 0)


if __name__ == "__main__":
    main()

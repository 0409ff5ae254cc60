#!/usr/bin/env python3
"""Exact gate on perfbench's machine-independent ledger counts.

    python3 scripts/check_perfbench_counts.py WORKLOAD=FILE ...

Each FILE holds the standard output of

    python3 perfbench/run.py --workload WORKLOAD --seed 1 --seconds 1 --trace 1

whose last line is the JSON result.  Every ledger metric in `count` or
`bytes` units (records, blocks, DRAM hits, device reads and writes, segment
erases, blocks copied, the FTL counters, ...) is compared exactly with
bench_db/baseline/perfbench_counts.json.  The `sweepd.*` counts are left
out: shards, leases and requeues depend on scheduling.  Every workload in
the baseline must be given.  On a mismatch the script prints the counts it
measured, as JSON, and exits 1; a change that means to change the work done
replaces that workload's object in the baseline with them.
"""

import json
import os
import sys

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "bench_db", "baseline", "perfbench_counts.json")
EXACT_UNITS = ("count", "bytes")


def measured_counts(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in sorted(metrics.items())
            if m["unit"] in EXACT_UNITS and not name.startswith("sweepd.")}


def main(argv):
    with open(BASELINE) as f:
        baseline = json.load(f)
    runs = dict(arg.split("=", 1) for arg in argv)
    ok = True
    for workload in sorted(set(baseline) | set(runs)):
        if workload not in runs:
            print("%s: no run given" % workload)
            ok = False
            continue
        if workload not in baseline:
            print("%s: not in %s" % (workload, BASELINE))
            ok = False
            continue
        want = baseline[workload]
        got = measured_counts(runs[workload])
        diffs = ["%s: %s, baseline %s" % (name, got.get(name), want.get(name))
                 for name in sorted(set(want) | set(got)) if got.get(name) != want.get(name)]
        if diffs:
            ok = False
            print("%s: %d counts differ" % (workload, len(diffs)))
            for line in diffs:
                print("  " + line)
            print("  measured: " + json.dumps(got, sort_keys=True))
        else:
            print("%s: %d counts match" % (workload, len(got)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

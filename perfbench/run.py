#!/usr/bin/env python3
"""The repository benchmark: end-to-end host cost and a per-layer ledger.

Run from the root of a mobisim checkout:

    python3 perfbench/run.py --workload flash_cleaning --seed 1 --seconds 20 --trace 0

The first run builds mobisim_sweep, mobisim_sweepd and the traced driver
(perfbench/driver.cc) in Release mode under .bench_build/.  Each run writes
a spec for the workload and seed, generates its traces into an empty trace
cache (set-up), then measures warm runs of the shipped CLI for --seconds.
With --trace 1 it measures the traced driver instead and reports the
per-layer ledger.  Every run checks the program's outputs (see README.md)
and prints one JSON result object as the last line of standard output.

`--update-reference` rewrites perfbench/reference.json for the workload at
the default seed; do it only for a change that means to change outputs.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
MOBISIM_BUILD = os.path.join(BUILD, "mobisim")
DRIVER_BUILD = os.path.join(BUILD, "driver")
WORK = os.path.join(BUILD, "work")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

SWEEP = os.path.join(MOBISIM_BUILD, "examples", "mobisim_sweep")
SWEEPD = os.path.join(MOBISIM_BUILD, "examples", "mobisim_sweepd")
DRIVER = os.path.join(DRIVER_BUILD, "perfbench_driver")

DEFAULT_SEED = 1
SHA = "perfbench"
SETUP_REPEATS = 7       # cold set-ups per run; setup_s is their median
MIN_REPS = 3            # timed warm runs per run, at the least
MIN_TRACED_REPS = 2     # traced replays per run, at the least
UNTRACED_REPS = 3       # warm CLI runs a traced run compares itself to
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
# Response percentiles may move by this share (plus PERCENTILE_ABS_MS) from
# the reference: an exact-percentile reservoir and a log-bucketed histogram
# must both pass.  Every other column is compared exactly.
PERCENTILE_REL_BOUND = 0.10
PERCENTILE_ABS_MS = 1e-3
PERCENTILE_COLUMN = re.compile(r"_p(50|90|95|99)$")

WORKLOADS = {
    # Every record reaches the flash device and the cleaner works hard; the
    # caches are off.
    "flash_cleaning": {
        "spec": ["devices = intel-datasheet, nand-ssd-4ch", "workloads = mac, dos",
                 "utilizations = 0.95", "dram_sizes = 0",
                 "ftl = greedy, cost-benefit, wear-aware, page-diff, fat-remap",
                 "scale = 5"],
        "sweepd": False,
    },
    # DRAM hits and SRAM absorption on a disk; no flash cleaning at all.
    "cache_hierarchy": {
        "spec": ["devices = cu140-datasheet", "workloads = mac, hp",
                 "dram_sizes = 2m, 8m", "sram_sizes = 32k, 1m", "scale = 5"],
        "sweepd": False,
    },
    # Many small points under sweepd: per-point and distribution costs.
    "sweep_fanout": {
        "spec": ["devices = intel-datasheet, sdp5-datasheet, cu140-datasheet, nand-ssd-4ch",
                 "workloads = mac, dos, synth", "utilizations = 0.50, 0.90",
                 "scale = 0.05", "replicas = 32"],
        "sweepd": True,
    },
}
SWEEPD_WORKERS = 4

# Per-layer metric -> unit.  Counts are exact; see README.md for what each
# metric measures and which end-to-end metric it should move.
PER_LAYER = {
    "trace.generate_s": "s", "trace.load_ms_per_point": "ms",
    "trace.decode_ns_per_block": "ns", "trace.records": "count",
    "trace.blocks": "count", "trace.cache_misses": "count",
    "trace.cache_copies": "count",
    "core.construct_ms_per_point": "ms", "core.account_ns_per_block": "ns",
    "core.stats_ns_per_record": "ns", "core.finish_ms_per_point": "ms",
    "core.kernel_ns_per_block": "ns",
    "cache.dram_hit_ns_per_record": "ns", "cache.sram_absorb_ns_per_record": "ns",
    "cache.dram_hits": "count", "cache.dram_misses": "count",
    "cache.dram_hit_ratio": "ratio", "cache.sram_absorbed": "count",
    "cache.sram_flushes": "count",
    "device.read_ns_per_record": "ns", "device.write_ns_per_record": "ns",
    "device.reads": "count", "device.writes": "count",
    "device.bytes_written": "bytes", "device.spinups": "count",
    "flash.fg_clean_ns_per_record": "ns", "flash.bg_clean_ns_per_record": "ns",
    "flash.segment_erases": "count", "flash.blocks_copied": "count",
    "flash.clean_jobs": "count", "flash.write_stalls": "count",
    "flash.copy_per_host_block": "ratio", "flash.diff_writes": "count",
    "flash.diff_merges": "count", "flash.remap_table_hits": "count",
    "flash.remap_table_wraps": "count",
    "runner.enumerate_ms": "ms", "runner.export_ms_per_point": "ms",
    "runner.sink_ms_per_point": "ms", "runner.point_ms_p50": "ms",
    "runner.point_ms_p90": "ms",
    "bench_db.land_ms": "ms", "bench_db.rows": "count",
    "sweepd.first_row_s": "s", "sweepd.drain_s": "s", "sweepd.merge_s": "s",
    "sweepd.shards": "count", "sweepd.leases": "count", "sweepd.requeues": "count",
    "trace_overhead_ratio": "ratio",
}
EXACT_UNITS = ("count", "bytes")

# Ledger counts that must equal the sum of a column over the exported rows.
ROW_SUMS = {
    "trace.records": "record_count", "cache.dram_hits": "dram_hits",
    "cache.dram_misses": "dram_misses", "cache.sram_absorbed": "sram_absorbed",
    "cache.sram_flushes": "sram_flushes", "device.reads": "dev_reads",
    "device.writes": "dev_writes", "device.bytes_written": "dev_bytes_written",
    "device.spinups": "spinups", "flash.segment_erases": "segment_erases",
    "flash.blocks_copied": "blocks_copied", "flash.clean_jobs": "clean_jobs",
    "flash.write_stalls": "write_stalls", "flash.diff_writes": "diff_writes",
    "flash.diff_merges": "diff_merges", "flash.remap_table_hits": "remap_table_hits",
    "flash.remap_table_wraps": "remap_table_wraps",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

_live_groups = set()


def spawn(cmd, stdout_path=None, stderr_path=None):
    """Starts cmd in its own process group; returns its pid."""
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, stdout_path or os.devnull,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path or os.devnull,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)]
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions, setsid=True)
    _live_groups.add(pid)
    return pid


def reap(pid, flags=0):
    """wait4 on pid; returns (exit code, rusage) or None if still running."""
    done, status, usage = os.wait4(pid, flags)
    if done == 0:
        return None
    _live_groups.discard(pid)
    return os.waitstatus_to_exitcode(status), usage


def kill_all():
    for pgid in list(_live_groups):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pgid in list(_live_groups):
        try:
            os.waitpid(pgid, 0)
        except ChildProcessError:
            pass
        _live_groups.discard(pgid)


def run(cmd, what, stdout_path=None):
    """Runs cmd to completion; returns (wall seconds, rusage)."""
    errors = os.path.join(WORK, "stderr.log") if os.path.isdir(WORK) else None
    start = time.perf_counter()
    pid = spawn(cmd, stdout_path, errors)
    code, usage = reap(pid)
    wall = time.perf_counter() - start
    if code != 0:
        raise BenchError("%s exited with %d: %s" % (what, code, " ".join(cmd)))
    return wall, usage


def on_signal(signum, frame):
    if signum == signal.SIGALRM:
        raise BenchError("the run exceeded its time limit")
    raise BenchError("stopped by " + signal.Signals(signum).name)


# --- build ---------------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", "src", "examples"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError("run from the root of a mobisim checkout (%s is missing)"
                             % needed)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(MOBISIM_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", MOBISIM_BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", MOBISIM_BUILD, "-j", "4",
                  "--target", "mobisim_sweep", "mobisim_sweepd"])
    if not os.path.exists(os.path.join(DRIVER_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", DRIVER_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", "-DMOBISIM_SOURCE_DIR=" + ROOT,
                      "-DMOBISIM_BUILD_DIR=" + MOBISIM_BUILD])
    steps.append(["cmake", "--build", DRIVER_BUILD, "-j", "4"])
    for step in steps:
        pid = spawn(step, build_log, build_log)
        code, _ = reap(pid)
        if code != 0:
            raise BenchError("build step failed (see %s): %s" % (build_log, " ".join(step)))


# --- inputs --------------------------------------------------------------------

def write_spec(workload, seed):
    path = os.path.join(WORK, workload + ".spec")
    with open(path, "w") as out:
        out.write("\n".join(WORKLOADS[workload]["spec"] + ["seeds = %d" % seed]) + "\n")
    return path


def setup(spec, repeats):
    """Cold set-ups, each into an empty trace cache; the last stays warm."""
    cache = os.path.join(WORK, "trace-cache")
    times = []
    info = None
    for _ in range(repeats):
        shutil.rmtree(cache, ignore_errors=True)
        out = os.path.join(WORK, "setup.json")
        run([DRIVER, "setup", "--spec", spec, "--cache", cache], "driver setup", out)
        with open(out) as f:
            info = json.loads(f.read().strip().splitlines()[-1])
        if info["cache_misses"] != info["traces"] or info["cache_stores"] != info["traces"]:
            raise BenchError("set-up did not start from an empty trace cache")
        times.append(info["generate_s"])
    return cache, times, info


# --- the program's outputs -----------------------------------------------------

def read_rows(path):
    """Data lines of a bench_db run file (the _meta header dropped)."""
    with open(path) as f:
        lines = f.read().splitlines()
    return [line for line in lines if not line.startswith('{"_meta"')]


def db_rows(db):
    return read_rows(os.path.join(db, SHA, "perfbench.jsonl"))


def failed_points(rows, points):
    """_error rows plus points missing from the run."""
    errors = sum(1 for row in rows if "_error" in json.loads(row))
    return errors + max(0, points - len(rows))


def row_digest(rows):
    """Digest of every column but the response percentiles, and those."""
    digest = hashlib.sha256()
    percentiles = []
    for line in rows:
        row = json.loads(line)
        fixed = {k: v for k, v in row.items() if not PERCENTILE_COLUMN.search(k)}
        digest.update(json.dumps(fixed, separators=(",", ":")).encode() + b"\n")
        percentiles.append([v for k, v in row.items() if PERCENTILE_COLUMN.search(k)])
    return digest.hexdigest(), percentiles


def row_sums(rows):
    sums = {}
    for line in rows:
        row = json.loads(line)
        for metric, column in ROW_SUMS.items():
            sums[metric] = sums.get(metric, 0) + int(row.get(column, 0))
    return sums


class Checks:
    """Collects output-check failures; any failure makes the run incorrect."""

    def __init__(self, reference=True):
        self.failures = []
        self.reference = reference  # compare default-seed rows to reference.json

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
            log("check failed: " + message)

    def ok(self):
        return not self.failures


def check_reference(workload, seed, rows, checks):
    if seed != DEFAULT_SEED or not checks.reference:
        return
    with open(REFERENCE) as f:
        reference = json.load(f).get(workload)
    checks.expect(reference is not None, "no reference for " + workload)
    if reference is None:
        return
    digest, percentiles = row_digest(rows)
    checks.expect(digest == reference["digest"],
                  "deterministic columns differ from the reference digest")
    checks.expect(len(percentiles) == len(reference["percentiles"]),
                  "row count differs from the reference")
    for got_row, want_row in zip(percentiles, reference["percentiles"]):
        for got, want in zip(got_row, want_row):
            bound = PERCENTILE_REL_BOUND * max(abs(got), abs(want)) + PERCENTILE_ABS_MS
            if abs(got - want) > bound:
                checks.expect(False, "percentile %r is outside %g of reference %r"
                              % (got, PERCENTILE_REL_BOUND, want))
                return


def replay(spec, cache, tag):
    """One traced-driver replay; returns (ledger, bench_db rows)."""
    db = os.path.join(WORK, "db-" + tag)
    shutil.rmtree(db, ignore_errors=True)
    ledger_path = os.path.join(WORK, "ledger.json")
    run([DRIVER, "replay", "--spec", spec, "--cache", cache, "--db", db,
         "--name", "perfbench", "--sha", SHA, "--rows", os.path.join(WORK, "rows.jsonl"),
         "--ledger", ledger_path, "--spans", os.path.join(WORK, "spans.jsonl")],
        "driver replay")
    with open(ledger_path) as f:
        ledger = json.load(f)
    # ResultRow keys cannot hold '.', so the driver writes layer.metric as
    # layer_metric.
    metrics = {"traced_wall_s": ledger["traced_wall_s"]}
    for name in PER_LAYER:
        if name.replace(".", "_") in ledger:
            metrics[name] = ledger[name.replace(".", "_")]
    return metrics, db_rows(db)


def check_outputs(workload, seed, info, rows, ledger, driver_rows, checks):
    checks.expect(failed_points(rows, info["points"]) == 0, "the run has failed points")
    checks.expect(driver_rows == rows,
                  "traced driver rows differ from the CLI rows (_meta excluded)")
    sums = row_sums(rows)
    for metric, total in sums.items():
        checks.expect(ledger[metric] == total, "%s is %d in the ledger but %d in the rows"
                      % (metric, ledger[metric], total))
    checks.expect(ledger["trace.blocks"] == info["blocks"], "trace.blocks differs from set-up")
    checks.expect(ledger["trace.cache_misses"] == 0 and ledger["trace.cache_copies"] == 0,
                  "a warm trace load missed or copied")
    checks.expect(ledger["bench_db.rows"] == info["points"], "bench_db.rows != points")
    check_reference(workload, seed, rows, checks)


# --- one warm run of the shipped CLI -------------------------------------------

def cli_run(workload, spec, cache, tag, serial=False):
    """Runs the workload's CLI (or, if serial, mobisim_sweep --serial) into a
    fresh bench_db; returns (wall, rss_mb, rows)."""
    db = os.path.join(WORK, "db-" + tag)
    shutil.rmtree(db, ignore_errors=True)
    if WORKLOADS[workload]["sweepd"] and not serial:
        spool = os.path.join(WORK, "spool-" + tag)
        shutil.rmtree(spool, ignore_errors=True)
        cmd = sweepd_command(spool, spec, cache)
    else:
        cmd = [SWEEP, "--spec", spec, "--serial", "--trace-cache", cache]
    cmd += ["--db", db, "--name", "perfbench", "--sha", SHA, "--quiet"]
    wall, usage = run(cmd, workload + " CLI")
    return wall, usage.ru_maxrss / 1024.0, db_rows(db)


def sweepd_command(spool, spec, cache):
    # A 20 ms dispatcher poll instead of the 250 ms default, so the sweep's
    # end is not quantized to a quarter second.
    return [SWEEPD, "serve", "--spool", spool, "--spec", spec,
            "--workers", str(SWEEPD_WORKERS), "--poll-sec", "0.02", "--trace-cache", cache]


# --- sweepd, observed from its spool -------------------------------------------

def traced_sweepd(spec, cache, rows, checks):
    """Serves the grid under sweepd and reads its phases from the spool."""
    spool = os.path.join(WORK, "spool-traced")
    shutil.rmtree(spool, ignore_errors=True)
    cmd = sweepd_command(spool, spec, cache) + ["--quiet"]
    start = time.time()
    pid = spawn(cmd, None, os.path.join(WORK, "stderr.log"))
    first_row = None
    while True:
        done = reap(pid, os.WNOHANG)
        if first_row is None and has_row(spool):
            first_row = time.time()
        if done is not None:
            break
        time.sleep(0.001)
    exited = time.time()
    if done[0] != 0:
        raise BenchError("sweepd serve exited with %d" % done[0])
    row_files = [e for e in os.scandir(os.path.join(spool, "done"))
                 if e.name.endswith(".jsonl")]
    last_row = max(e.stat().st_mtime_ns for e in row_files) / 1e9
    merged = os.path.join(WORK, "merged.jsonl")
    merge_s, _ = run([SWEEPD, "merge", spool, "--jsonl", merged, "--quiet"], "sweepd merge")
    checks.expect(read_rows(merged) == rows, "sweepd merge differs from the serial rows")
    with open(os.path.join(spool, "spool.json")) as f:
        shards = json.load(f)["shards"]
    leases = 0
    for entry in os.scandir(os.path.join(spool, "done")):
        if entry.name.endswith(".task"):
            with open(entry.path) as f:
                leases += json.load(f)["attempt"] + 1
    with open(os.path.join(spool, "events.jsonl")) as f:
        requeues = sum(1 for line in f if '"shard_requeued"' in line)
    checks.expect(requeues == 0, "a clean sweepd run requeued a shard")
    return {"sweepd.first_row_s": (first_row or exited) - start,
            "sweepd.drain_s": max(0.0, exited - last_row), "sweepd.merge_s": merge_s,
            "sweepd.shards": shards, "sweepd.leases": leases, "sweepd.requeues": requeues}


def has_row(spool):
    for state, suffix in (("running", ".part"), ("done", ".jsonl")):
        try:
            for entry in os.scandir(os.path.join(spool, state)):
                if entry.name.endswith(suffix) and entry.stat().st_size > 0:
                    return True
        except FileNotFoundError:
            pass
    return False


# --- runs ----------------------------------------------------------------------

def measure(workload, seed, seconds, checks):
    """The untraced run: end-to-end metrics of warm CLI runs."""
    spec = write_spec(workload, seed)
    cache, setup_times, info = setup(spec, SETUP_REPEATS)
    walls, rss, reps, failed = [], [], 0, 0
    first_rows = None
    deadline = time.perf_counter() + seconds
    while reps < MIN_REPS or time.perf_counter() < deadline:
        wall, rss_mb, rows = cli_run(workload, spec, cache, "cli")
        walls.append(wall)
        rss.append(rss_mb)
        reps += 1
        failed += failed_points(rows, info["points"])
        if first_rows is None:
            first_rows = rows
        checks.expect(rows == first_rows, "warm runs produced different rows")
    ledger, driver_rows = replay(spec, cache, "replay")
    check_outputs(workload, seed, info, first_rows, ledger, driver_rows, checks)
    if WORKLOADS[workload]["sweepd"]:
        serial_rows = cli_run(workload, spec, cache, "serial", serial=True)[2]
        checks.expect(serial_rows == first_rows, "sweepd rows differ from a serial run")
    wall = statistics.median(walls)
    metrics = {"setup_s": (statistics.median(setup_times), "s"),
               "wall_s": (wall, "s"),
               "sim_blocks_per_s": (info["blocks"] / wall, "1/s"),
               "points_per_s": (info["points"] / wall, "1/s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    log("%s: %d warm runs, wall %s" % (workload, reps, " ".join("%.3f" % w for w in walls)))
    return metrics, info["points"] * reps, failed, first_rows


def measure_traced(workload, seed, seconds, checks):
    """The traced run: the per-layer ledger of driver replays."""
    spec = write_spec(workload, seed)
    cache, setup_times, info = setup(spec, SETUP_REPEATS)
    deadline = time.perf_counter() + seconds
    # The replay is serial, so it is compared with serial CLI runs, also on
    # sweep_fanout; traced_sweepd checks the sweepd rows against these.
    walls, failed = [], 0
    rows = None
    for _ in range(UNTRACED_REPS):
        wall, _, rows = cli_run(workload, spec, cache, "cli", serial=True)
        walls.append(wall)
        failed += failed_points(rows, info["points"])
    ledgers = []
    while len(ledgers) < MIN_TRACED_REPS or time.perf_counter() < deadline:
        ledger, driver_rows = replay(spec, cache, "replay")
        ledgers.append(ledger)
        check_outputs(workload, seed, info, rows, ledger, driver_rows, checks)
    sweepd = traced_sweepd(spec, cache, rows, checks)

    metrics = {"trace.generate_s": (statistics.median(setup_times), "s")}
    for name, unit in PER_LAYER.items():
        if name.startswith("sweepd."):
            metrics[name] = (sweepd[name], unit)
        elif name in ledgers[0]:
            values = [ledger[name] for ledger in ledgers]
            if unit in EXACT_UNITS:
                checks.expect(len(set(values)) == 1, "%s differs between replays: %s"
                              % (name, values))
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
    traced_wall = statistics.median(ledger["traced_wall_s"] for ledger in ledgers)
    metrics["trace_overhead_ratio"] = (traced_wall / statistics.median(walls), "ratio")
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise BenchError("per-layer metrics missing: " + ", ".join(sorted(missing)))
    log("%s: %d traced replays" % (workload, len(ledgers)))
    return metrics, info["points"] * UNTRACED_REPS, failed, rows


def update_reference(workload, rows):
    reference = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            reference = json.load(f)
    digest, percentiles = row_digest(rows)
    reference[workload] = {"seed": DEFAULT_SEED, "digest": digest, "percentiles": percentiles}
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join("%s: %s" % (json.dumps(name), json.dumps(reference[name]))
                                   for name in sorted(reference)) + "\n}\n")
    log("reference for %s updated" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, on_signal)
    try:
        signal.alarm(BUILD_TIMEOUT_S)
        build()
        signal.alarm(RUN_TIMEOUT_S)
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        checks = Checks(reference=not args.update_reference)
        if args.update_reference:
            args.seed = DEFAULT_SEED
        measured = measure_traced if args.trace else measure
        metrics, attempted, failed, rows = measured(args.workload, args.seed,
                                                    args.seconds, checks)
        if args.update_reference:
            update_reference(args.workload, rows)
        signal.alarm(0)
    except BenchError as error:
        log("error: %s" % error)
        return 1
    finally:
        kill_all()
    print(json.dumps({"correct": checks.ok() and failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

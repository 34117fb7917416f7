"""Pure helpers of perfbench/run.py.

Parsing the programs' line records, the correctness digests, order
statistics, span self time, and the result line. Nothing here runs a
process, so perfbench/tests/test_benchlib.py covers all of it.
"""

import hashlib
import json
import statistics

WORKLOADS = ("paper-fig4", "idle-dram", "warm-sweep")

# name -> unit; the same lists, in the same order, as BENCHMARK.json.
END_TO_END = {
    "sim_ips": "insts/s",
    "sim_cps": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "workload.next_ns": "ns",
    "dsl.compile_us": "us",
    "core.step_ns": "ns",
    "core.complete_ns": "ns",
    "core.issue_ns": "ns",
    "core.dispatch_ns": "ns",
    "core.fetch_ns": "ns",
    "core.graduate_ns": "ns",
    "core.other_ns": "ns",
    "core.snapshot_ns": "ns",
    "core.ctx_scaling": "ratio",
    "core.skip_rate": "ratio",
    "core.cycles_per_skip": "cycles",
    "core.ipc": "insts/cycle",
    "policy.order_ns": "ns",
    "policy.state_ns": "ns",
    "memory.access_ns": "ns",
    "memory.reject_ratio": "ratio",
    "memory.next_event_ns": "ns",
    "memory.l1_miss_ratio": "ratio",
    "memory.avg_fill_cycles": "cycles",
    "memory.l2_miss_ratio": "ratio",
    "memory.dram_row_hit_ratio": "ratio",
    "memory.bus_util": "ratio",
    "branch.mispredict_rate": "ratio",
    "snapshot.bytes": "bytes",
    "snapshot.save_ms": "ms",
    "snapshot.restore_ms": "ms",
    "sweep.overhead_us_per_job": "us",
    "sweep.warmups_per_job": "count",
    "sweep.worker_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


# Printed with the per-layer metrics but left out of the result line:
# a time that is structurally absent on some workloads (no skip fires on
# warm-sweep) cannot be reported on every traced run.
EXTRA_LAYER = {"core.skip_ns_per_event": "ns"}


# Seconds one sample of the host-pace probe (e2e.cc probeOnce) takes on
# an uncontended core of the 4-vCPU Xeon host the benchmark was built
# on: the unit of the paced times below.
PROBE_REF_S = 0.011

# Contention that slowed the probe by a factor f slowed the simulator by
# f ** 0.9 to f ** 3.0 on that host, depending on workload and spell;
# 1.5 kept runs steadiest (perfbench/NOTES.md, Host pace).
PACE_EXPONENT = 1.5


class Records:
    """The line records one benchmark program printed (e2e.cc,
    layers.cc)."""

    def __init__(self):
        self.setup = {}      # rep -> [set-up seconds, ...]
        self.probes = {}     # rep -> [probe seconds, ...]
        self.reps = {}       # rep -> (wall_s, insts, cycles, jobs)
        self.rows = {}       # rep or pass -> [row, ...]
        self.traced = []     # wall seconds per traced pass
        self.metrics = {}    # per-layer name -> value
        self.rss_kb = None


def parse_records(text):
    """Parse SETUP/PROBE/REP/ROW/RSS_KB/TRACED/METRIC lines; ignore
    others."""
    rec = Records()
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("SETUP", "PROBE"):
            rep, seconds = rest.split()
            samples = rec.setup if kind == "SETUP" else rec.probes
            samples.setdefault(int(rep), []).append(float(seconds))
        elif kind == "REP":
            rep, wall, insts, cycles, jobs = rest.split()
            rec.reps[int(rep)] = (float(wall), int(insts), int(cycles),
                                  int(jobs))
        elif kind == "ROW":
            rep, _, row = rest.partition(" ")
            rec.rows.setdefault(int(rep), []).append(row)
        elif kind == "RSS_KB":
            rec.rss_kb = int(rest)
        elif kind == "TRACED":
            rec.traced.append(float(rest))
        elif kind == "METRIC":
            name, value = rest.split()
            rec.metrics[name] = float(value)
    return rec


def paced(rec):
    """(walls, setups): the wall seconds of every measured repetition and
    every set-up sample, each divided by the host's pace around it.

    The pace around repetition r is the fastest probe sample taken just
    before it (after r - 1) or just after it, in units of PROBE_REF_S,
    raised to PACE_EXPONENT: 1 on an uncontended reference core, about
    1.7 while other tenants slow the probe by 40%. Repetition r's set-up
    samples lie in the same span. Dividing by it turns host seconds
    into reference seconds, which other tenants' load moves far less
    (perfbench/NOTES.md, Host pace)."""
    walls, setups = [], []
    for rep in sorted(r for r in rec.reps if r >= 1):
        around = rec.probes.get(rep - 1, []) + rec.probes.get(rep, [])
        pace = (min(around) / PROBE_REF_S) ** PACE_EXPONENT
        walls.append(rec.reps[rep][0] / pace)
        setups += [s / pace for s in rec.setup.get(rep, [])]
    return walls, setups


def row_digest(row):
    """Short, stable digest of one job's simulated fields."""
    return hashlib.sha256(row.encode()).hexdigest()[:16]


def count_mismatches(rows, expected):
    """Rows whose digest differs from the expected one at the same
    position; a missing or extra row counts as a mismatch too."""
    bad = sum(row_digest(r) != e for r, e in zip(rows, expected))
    return bad + abs(len(rows) - len(expected))


def spread(values):
    """Interquartile distance as a share of the median: the steadiness
    test for repeated runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans, root):
    """Per-layer self time (ns) inside the trees of the root spans named
    @root, and their coverage: the share of root wall time that lies
    inside a child span.

    A span's self time is its duration minus the time its children
    cover; the layer is the span name up to the first dot. Roots are
    spans without a parent; parents are listed before their children.
    """
    top = []
    for i, s in enumerate(spans):
        top.append(i if s["parent"] == -1 else top[s["parent"]])
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s["parent"], []).append(i)
    layers = {}
    root_wall = covered = 0
    for i, s in enumerate(spans):
        if spans[top[i]]["name"] != root:
            continue
        dur = s["end_ns"] - s["start_ns"]
        kids = sum(spans[k]["end_ns"] - spans[k]["start_ns"]
                   for k in children.get(i, []))
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0) + dur - kids
        if s["parent"] == -1:
            root_wall += dur
            covered += kids
    coverage = covered / root_wall if root_wall else 0.0
    return layers, coverage


def metric(value, unit):
    return {"value": value, "unit": unit}


def unavailable(unit, reason):
    """A per-layer metric this run could not measure, and why."""
    return {"value": None, "unit": unit, "unavailable": reason}


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line."""
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})

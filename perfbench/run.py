#!/usr/bin/env python3
"""The mtdae benchmark: simulated insts/s and cycles/s on three canonical
workloads, and per-layer costs from a separate traced run.

    python3 perfbench/run.py --workload paper-fig4 --seed 3 --seconds 35 --trace 0

Builds the library and both programs from this source tree into
.bench_build/perfbench, then:

  --trace 0  runs perfbench_e2e for --seconds and reports the end-to-end
             metrics (sim_ips, sim_cps, setup_s, peak_rss_mb);
  --trace 1  runs perfbench_e2e briefly (untraced reference), then
             perfbench_layers, and reports the per-layer metrics.

Either way it checks the simulated rows: at the recorded seed against
perfbench/digests.json, every repetition against the first, and traced
rows against untraced rows. A mismatch or a crash counts as a failed
run. The last stdout line is one JSON object: correct, attempted,
failed, metrics. perfbench/NOTES.md says what each workload and metric
is for.

--workload all runs the three workloads one after another.

    python3 perfbench/run.py --workload NAME --record-digests

re-records the digests at the recorded seed (only after a change that
is meant to alter simulated results).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import benchlib  # noqa: E402
from benchlib import END_TO_END, EXTRA_LAYER, PER_LAYER, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
TIMEOUT_S = 170


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(target):
    """Configure (once) and build @target; None, or why it failed."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            return f"{cmd[0]}: {e}"
        if p.returncode != 0:
            tail = (p.stdout + p.stderr).strip().splitlines()[-15:]
            sys.stderr.write("\n".join(tail) + "\n")
            return f"building {target} failed (exit {p.returncode})"
    return None


def run_program(binary, flags):
    """Run a program; (records, error or None)."""
    cmd = [str(BUILD / binary)] + [f"--{k}={v}" for k, v in flags.items()]
    try:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return benchlib.Records(), f"{binary}: {e}"
    sys.stderr.write(p.stderr)
    rec = benchlib.parse_records(p.stdout)
    err = None if p.returncode == 0 else f"{binary} exited {p.returncode}"
    return rec, err


def check_e2e(rec, expected):
    """(attempted, failed) over the e2e repetitions: rep 0 against the
    recorded digests, every later rep against rep 1."""
    attempted = sum(jobs for _, _, _, jobs in rec.reps.values())
    failed = 0
    if 0 in rec.rows:
        failed += benchlib.count_mismatches(rec.rows[0], expected)
    first = [benchlib.row_digest(r) for r in rec.rows.get(1, [])]
    for rep, rows in rec.rows.items():
        if rep > 1:
            failed += benchlib.count_mismatches(rows, first)
    return attempted, failed


def e2e_metrics(rec):
    """Rates over the tenth percentile of the paced repetitions, the
    median paced set-up sample, and the peak resident set.

    Every repetition simulates the same instructions and cycles, so only
    its wall time varies. Other tenants of a shared host disturb it two
    ways: brief bursts that slow single repetitions (up to 2x), which a
    low percentile skips, and spells of minutes that slow whole runs by
    up to 1.8x, which slow the host-pace probe too, if less, so dividing
    by the pace (benchlib.paced) cancels most of them."""
    walls, setups = benchlib.paced(rec)
    wall = statistics.quantiles(walls, n=10, method="inclusive")[0]
    _, insts, cycles, _ = rec.reps[1]
    return {
        "sim_ips": insts / wall,
        "sim_cps": cycles / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rec.rss_kb / 1024.0,
    }


def layer_metrics(workload, seed, untraced):
    """(per-layer metrics, attempted, failed) from perfbench_layers.
    Every metric it cannot deliver reads unavailable, with the reason."""
    values = {}
    attempted = failed = 0
    spans_path = BUILD / f"spans-{workload}-{seed}.json"
    reason = build("perfbench_layers")
    if reason is None:
        rec, reason = run_program("perfbench_layers", {
            "workload": workload, "seed": seed,
            "source-dir": ROOT, "spans": spans_path})
    if reason is None:
        values.update(rec.metrics)
        expected = [benchlib.row_digest(r) for r in untraced.rows.get(1, [])]
        for rows in rec.rows.values():
            attempted += len(rows)
            failed += benchlib.count_mismatches(rows, expected)
        # Fastest against fastest: contention on the host only ever adds
        # time.
        base = min(w for rep, (w, _, _, _) in untraced.reps.items() if rep >= 1)
        values["trace.overhead_frac"] = (min(rec.traced) - base) / base
        spans = json.loads(spans_path.read_text())
        layers, values["trace.coverage"] = benchlib.self_times(
            spans, "sweep.rep")
        total = sum(layers.values()) or 1
        for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1]):
            log(f"traced self time  {layer:9s} {ns / total:7.1%}")
    metrics = {}
    for name, unit in {**PER_LAYER, **EXTRA_LAYER}.items():
        if name in values:
            metrics[name] = benchlib.metric(values[name], unit)
        else:
            metrics[name] = benchlib.unavailable(
                unit, reason or "the layer did no such work on this workload")
    return metrics, attempted, failed


def record_digests(workload, digests):
    """Re-record @workload's row digests at the recorded seed."""
    seed = digests["check_seed"]
    rec, err = run_program("perfbench_e2e", {
        "workload": workload, "seed": seed, "check-seed": seed,
        "seconds": 0, "source-dir": ROOT})
    if err or 0 not in rec.rows:
        log(err or "no rows")
        return 1
    digests["workloads"][workload] = [
        benchlib.row_digest(r) for r in rec.rows[0]]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(rec.rows[0])} row digests for {workload}")
    return 0


def run_workload(args, workload, digests):
    """Measure one workload and print its summary and result line."""
    rec, err = run_program("perfbench_e2e", {
        "workload": workload, "seed": args.seed,
        "check-seed": digests["check_seed"],
        "seconds": 0 if args.trace else args.seconds,
        "source-dir": ROOT})
    if err or rec.rss_kb is None:
        log(err or "perfbench_e2e measured nothing")
        return 1
    attempted, failed = check_e2e(rec, digests["workloads"].get(workload, []))

    if args.trace:
        metrics, a, f = layer_metrics(workload, args.seed, rec)
        attempted, failed = attempted + a, failed + f
    else:
        metrics = {name: benchlib.metric(value, END_TO_END[name])
                   for name, value in e2e_metrics(rec).items()}

    walls = [w for rep, (w, _, _, _) in rec.reps.items() if rep >= 1]
    print(f"workload {workload} seed {args.seed}: {len(walls)} measured "
          f"repetitions, wall spread {benchlib.spread(walls):.3f}")
    for name, m in metrics.items():
        if m["value"] is None:
            print(f"{name:28s} unavailable: {m['unavailable']}")
        else:
            print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {failed / attempted:.6g} ratio")
    for name in EXTRA_LAYER:
        metrics.pop(name, None)
    print(benchlib.result_line(failed == 0, attempted, failed, metrics),
          flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "src").is_dir():
        log(f"no mtdae source tree at {ROOT}")
        return 2
    reason = build("perfbench_e2e")
    if reason:
        log(reason)
        return 2
    digests = json.loads(DIGESTS.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.record_digests:
        return max(record_digests(w, digests) for w in workloads)
    return max(run_workload(args, w, digests) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Repository benchmark: paper-suite, mega-grid and stabilization workloads.

    python3 perfbench/run.py --workload paper-suite --seed 3 --seconds 45 --trace 0

builds perfbench_driver (perfbench/CMakeLists.txt, into .bench_build/perfbench),
runs timed passes of the workload for --seconds (at least three passes, each
in its own perfbench_driver process), checks every simulated result against the
committed golden digests, and prints one JSON object as the last line of
standard output:

    {"correct": true, "attempted": 100, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from a separate traced pass. Progress, the host fingerprint,
check failures and the BENCH_*.json staleness report go to standard error;
the full record of each run is written under .bench_build/perfbench/results.

    python3 perfbench/run.py --write-golden

regenerates perfbench/golden/*.json from run_campaign at the default seed.
See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden"
WORKLOADS = ("paper-suite", "mega-grid", "stabilization")
MIN_PASSES = 3
# build + run + measure + io must cover the traced wall time to within this
# share. The rest is reported as ledger.uncovered_s: cell expansion,
# bookkeeping and World teardown, which alone is about 4% on mega-grid.
LEDGER_TOLERANCE = 0.10
RUN_BUDGET_S = 170.0  # the whole run, build excluded
OVERHEAD_PAIRS = 3  # untraced / traced pass pairs of a traced run


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench_driver; returns its path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no simulator sources next to {HERE.name}/ (need src/ and "
                         "CMakeLists.txt at the repository root)")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                    "-j", jobs], check=True, stdout=sys.stderr, cwd=ROOT)
    return BUILD / "perfbench_driver"


class PassRunner:
    """Runs perfbench_driver processes one at a time within the run's time budget."""

    def __init__(self, exe, workload, out_root):
        self.exe = exe
        self.workload = workload
        self.out_root = out_root
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self):
        return self.deadline - time.monotonic()

    def __call__(self, mode, offset, shards=0):
        out = self.out_root / f"{mode}-seed{offset}-shards{shards}"
        cmd = [str(self.exe), "--mode", mode, "--workload", self.workload,
               "--seed-offset", str(offset), "--shards", str(shards), "--out", str(out)]
        remaining = self.remaining()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"{mode} pass timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"perfbench_driver {mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["out_dir"] = str(out)
        return result


def load_golden(workload):
    path = GOLDEN / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing golden file {path.relative_to(ROOT)}")
    return json.loads(path.read_text())


class Checks:
    """Counts cells attempted / failed and collects failed identity checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cells(self, run, reference, what):
        """Counts run's cells; a cell fails if it threw or its skew digest
        differs from the reference digest of the same cell."""
        self.attempted += run["cells"]
        bad = sum(1 for got, want in zip(run["digests"], reference)
                  if got.startswith("error:") or got != want)
        bad += abs(len(run["digests"]) - len(reference))
        self.failed += bad
        if bad:
            self.problems.append(f"{what}: {bad} of {run['cells']} cells differ")
            for got in run["digests"]:
                if got.startswith("error:"):
                    self.problems.append(f"{what}: {got}")
                    break

    def same(self, a, b, what):
        if a != b:
            self.problems.append(f"{what}: {a} != {b}")


def check_against(checks, run, golden, first_at, what):
    """Seed 0 runs must match the golden file; other seeds must match the
    first run of the same seed (no golden exists there)."""
    if run["seed_offset"] == 0:
        checks.cells(run, golden["digests"], f"{what} vs golden")
        checks.same(run["jsonl_hash"], golden["jsonl_hash"], f"{what} JSONL hash vs golden")
        checks.same(run["logical_events"], golden["logical_events"],
                    f"{what} logical events vs golden")
    else:
        ref = first_at.setdefault(run["seed_offset"], run)
        checks.cells(run, ref["digests"], f"{what} vs first seed-{run['seed_offset']} pass")
        checks.same(run["jsonl_hash"], ref["jsonl_hash"], f"{what} JSONL hash")


def staleness_report(summary_dir):
    """Read-only: paper-suite counters at the default seed vs the committed
    root BENCH_<scenario>.json files."""
    drift = []
    for summary in sorted(summary_dir.glob("*.summary.json")):
        bench = ROOT / f"BENCH_{summary.name.removesuffix('.summary.json')}.json"
        if not bench.is_file():
            drift.append(f"{bench.name} missing")
            continue
        committed = json.loads(bench.read_text()).get("counters", {})
        current = json.loads(summary.read_text())["counters"]
        for key in ("logical_events", "messages_delivered"):
            if committed.get(key) != current[key]:
                drift.append(f"{bench.name} {key}: committed {committed.get(key)}, "
                             f"code {current[key]}")
    for line in drift:
        log(f"stale: {line}")
    if not drift:
        log("staleness: every paper-suite BENCH_*.json matches the code")
    return drift


def end_to_end(passes):
    """Medians over the run's timed passes."""
    mib = 1024.0 * 1024.0
    return {
        "wall_s": median(p["wall_s"] for p in passes),
        "setup_s": median(p["setup_s"] for p in passes),
        "ns_per_event": median((p["wall_s"] - p["setup_s"]) * 1e9 / p["logical_events"]
                               for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "bytes_per_node": median((p["peak_rss_mb"] - p["rss_before_mb"]) * mib / p["nodes_max"]
                                 for p in passes),
    }


def untraced_run(run, workload, seed, seconds, checks, record):
    golden = load_golden(workload)
    first_at = {}
    passes = []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
        if passes and run.remaining() < 2 * passes[-1]["wall_s"] + 10:
            break  # one more pass could overrun the run budget
        # Alternate the default seed (golden-checked) with the run's seed.
        offset = 0 if len(passes) % 2 == 0 else seed
        p = run("pass", offset)
        check_against(checks, p, golden, first_at, f"pass {len(passes)} seed {offset}")
        passes.append(p)
    if workload == "paper-suite":
        c = run("campaign", seed)
        checks.same(c["jsonl_hash"], next(p for p in passes if p["seed_offset"] == seed)
                    ["jsonl_hash"], f"run_campaign vs perfbench_driver JSONL at seed {seed}")
        record["staleness"] = staleness_report(Path(passes[0]["out_dir"]))
    record["passes"] = [{k: v for k, v in p.items() if k != "digests"} for p in passes]
    return end_to_end(passes)


def traced_run(run, workload, seed, host, checks, record):
    golden = load_golden(workload)
    first_at = {}
    # Alternating untraced / traced pairs: trace_overhead compares their
    # medians, since one pass of each carries the host's pass-to-pass noise.
    plains, traceds = [], []
    for _ in range(OVERHEAD_PAIRS):
        plains.append(run("pass", seed))
        traceds.append(run("traced", seed))
        check_against(checks, plains[-1], golden, first_at, f"untraced seed {seed}")
        check_against(checks, traceds[-1], golden, first_at, f"traced seed {seed}")
    passes = plains + traceds
    plain, traced = plains[0], traceds[0]
    layers = dict(traced["layers"])
    if plain["shards"] > 1:
        # Serial identity pass, sliced: its pending samples see the whole
        # queue (only shard 0's queue is reachable on the sharded engine).
        serial = run("traced", seed, shards=1)
        check_against(checks, serial, golden, first_at, f"serial traced seed {seed}")
        layers["sim.pending_max"] = serial["layers"]["sim.pending_max"]
        passes.append(serial)
    if seed != 0:  # identity at the default seed too, against the golden
        at_default = run("traced", 0, shards=1)
        check_against(checks, at_default, golden, first_at, "traced seed 0 (serial)")
        passes.append(at_default)
    if workload == "paper-suite":
        c = run("campaign", seed)
        checks.same(c["jsonl_hash"], plain["jsonl_hash"],
                    f"run_campaign vs perfbench_driver JSONL at seed {seed}")

    def ratio(a, b):
        return a / b if b else 0.0

    wall = traced["wall_s"]
    covered = (layers["runner.build_s"] + layers["runner.run_s"] +
               layers["metrics.measure_s"] + layers["runner.io_s"])
    layers["ledger.uncovered_s"] = wall - covered
    layers["ledger.uncovered_share"] = ratio(wall - covered, wall)
    if abs(wall - covered) > LEDGER_TOLERANCE * wall:
        checks.problems.append(f"layer ledger covers {covered:.4f} s of {wall:.4f} s "
                               f"(tolerance {LEDGER_TOLERANCE:.0%})")
    layers["trace_overhead"] = ratio(median(p["wall_s"] for p in traceds),
                                     median(p["wall_s"] for p in plains)) - 1.0
    layers["sim.cancel_ratio"] = ratio(layers["sim.events_cancelled"],
                                       layers["sim.events_scheduled"])
    layers["net.fanout_per_event"] = ratio(layers["net.messages_delivered"],
                                           layers["net.delivery_events"])
    layers["core.events_per_iteration"] = ratio(layers["sim.logical_events"],
                                                layers["core.iterations"])
    layers["shard.barrier_share"] = ratio(layers["shard.barrier_wait_s"],
                                          layers["shard.busy_s"] + layers["shard.barrier_wait_s"])
    layers["mem.rss_l3_ratio"] = ratio(plain["peak_rss_mb"], host["l3_kb"] / 1024.0)
    record["passes"] = [{k: v for k, v in p.items() if k != "digests"} for p in passes]
    return layers


def write_golden(exe):
    GOLDEN.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        c = PassRunner(exe, workload, BUILD / "out" / workload)("campaign", 0)
        doc = {
            "workload": workload,
            "seed_offset": 0,
            "source": "run_campaign (threads=1) at the default seed",
            "jsonl_hash": c["jsonl_hash"],
            "logical_events": sum(s["logical_events"] for s in c["scenarios"].values()),
            "digests": c["digests"],
        }
        (GOLDEN / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
        log(f"wrote golden/{workload}.json ({len(c['digests'])} cells)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.write_golden and args.workload is None:
        ap.error("--workload is required")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        exe = build()
        host = json.loads(subprocess.run([str(exe), "--mode", "host"], check=True,
                                         capture_output=True, text=True).stdout)
        log(f"host {json.dumps(host)}")
        if host["refusal"]:
            raise BenchError(f"refusing to benchmark: {host['refusal']}")
        if args.write_golden:
            write_golden(exe)
            return 0

        out_root = BUILD / "out" / args.workload
        run = PassRunner(exe, args.workload, out_root)
        checks = Checks()
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "seconds": args.seconds, "host": host}
        if args.trace:
            values = traced_run(run, args.workload, args.seed, host, checks, record)
            declared = spec["per_layer"]
        else:
            values = untraced_run(run, args.workload, args.seed, args.seconds, checks, record)
            declared = spec["end_to_end"]
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as exc:
        log(f"error: {exc}")
        return 2

    values["fail_frac"] = checks.failed / max(1, checks.attempted)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = checks.failed == 0 and not checks.problems
    for problem in checks.problems:
        log(f"check failed: {problem}")
    record.update(correct=correct, attempted=checks.attempted, failed=checks.failed,
                  problems=checks.problems, metrics=metrics)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

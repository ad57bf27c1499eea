#!/usr/bin/env python3
"""Exit-code contract of the CLIs for invalid scenarios and flags.

A malformed scenario, a config the engine cannot run and a sweep past the
expansion limit must all be rejected up front (at --dry-run): exit status 2
and a path-qualified message on stderr, never a crash, an allocation
failure or exit 1. The scenario cases run under an address-space limit
(ulimit -v) unless the binary is sanitizer-instrumented, so a shape that
allocates before it is checked fails fast instead of exhausting the host;
the ACCEPTED scenarios must pass --dry-run under the same limit. A flag whose value is not a number exits 2 as well --
in gtrix_campaign and in the example and bench binaries, which share
run_cli (src/support/flags.hpp).

Usage: tests/cli_config_errors_test.py GTRIX_CAMPAIGN_BINARY [OTHER_BINARY...]

Each OTHER_BINARY must have an entry in OTHER_FLAG_CASES, keyed by its file
name.
"""
import json
import pathlib
import resource
import subprocess
import sys
import tempfile

CASES = {
    "malformed": (
        {"name": "bad-columns", "config": {"columns": 1}},
        "$.config.columns: need at least 2 columns",
    ),
    "one-layer": (
        {"name": "one-layer", "config": {"layers": 1}},
        "$.config.layers: need at least 2 layers",
    ),
    "negative-d": (
        {"name": "negative-d", "config": {"params": {"d": -1}}},
        "$.config.params.d: the maximum delay d must be positive",
    ),
    "u-not-below-d": (
        {"name": "u-not-below-d", "config": {"params": {"d": 5, "u": 5}}},
        "$.config.params.u: need the delay uncertainty u below the maximum delay d",
    ),
    "swept-d-below-u": (
        {"name": "swept-d-below-u", "sweep": {"params.d": [1000, 5]}},
        "$.sweep.params.d: need the delay uncertainty u below the maximum delay d",
    ),
    "huge-sweep": (
        {"name": "huge-sweep",
         "sweep": {"seed": {"from": 1, "count": 100000},
                   "pulses": {"from": 1, "count": 100000}}},
        "$.sweep.pulses: sweep expands to more than",
    ),
    "huge-topology": (
        {"name": "huge-topology", "config": {"columns": 100000000, "layers": 100000000}},
        "$.config.layers: grid node count (100000000 layers x at least 100000000 base nodes)",
    ),
    "huge-axis": (
        {"name": "huge-axis", "sweep": {"seed": {"from": 1, "count": 10000000000}}},
        "$.sweep.seed.count: range count",
    ),
    "trim-too-large": (
        {"name": "trim-too-large", "config": {"columns": 8, "layers": 4, "trim": 2}},
        "$.config.trim: trim 2 needs 2 * trim below the minimum base-graph degree 2",
    ),
}

# Valid scenarios that must pass --dry-run (exit 0) under the same
# address-space ceiling: shapes whose checks once allocated more than the
# cell needs.
ACCEPTED = {
    # 70000 columns: an all-pairs distance matrix would need ~20 GB.
    "wide-shape": {"name": "wide-shape", "config": {"columns": 70000, "layers": 2}},
}

# Address-space ceiling for the scenario cases: a dry run needs a few MB.
ADDRESS_SPACE_LIMIT = 2 << 30

# Command lines (after the binary) that must exit 2 naming the bad flag.
FLAG_CASES = {
    "threads-not-a-number": (["quickstart-grid", "--dry-run", "--threads=abc"],
                             "invalid numeric value for --threads: 'abc'"),
    "shards-not-a-number": (["quickstart-grid", "--dry-run", "--shards=x"],
                            "invalid numeric value for --shards: 'x'"),
    "threads-out-of-range": (["quickstart-grid", "--dry-run", "--threads=-1"],
                             "--threads must be in [0, 1024]"),
}

# Bad flag values for the example and bench binaries, keyed by file name.
OTHER_FLAG_CASES = {
    "quickstart": (["--columns=abc"], "quickstart: invalid numeric value for --columns: 'abc'"),
    "bench_thm13_random_faults": (
        ["--seeds=abc"],
        "bench_thm13_random_faults: invalid numeric value for --seeds: 'abc'"),
}


def check(name, proc, expected):
    if proc.returncode != 2 or expected not in proc.stderr:
        print(f"FAIL {name}: exit {proc.returncode}, stderr: {proc.stderr.strip()!r} "
              f"(want exit 2 and {expected!r})", file=sys.stderr)
        return 1
    print(f"ok   {name}: {proc.stderr.strip()}")
    return 0


def sanitized(binary):
    """ASan and TSan reserve terabytes of shadow memory up front, so an
    instrumented binary cannot start under an address-space limit."""
    data = pathlib.Path(binary).read_bytes()
    return b"__asan_init" in data or b"__tsan_init" in data


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    failures = 0
    limit = None if sanitized(binary) else limit_address_space
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, expected) in CASES.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = subprocess.run([binary, str(path), "--dry-run", f"--out={tmp}/out"],
                                  capture_output=True, text=True, timeout=60,
                                  preexec_fn=limit)
            failures += check(name, proc, expected)
        for name, doc in ACCEPTED.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = subprocess.run([binary, str(path), "--dry-run", f"--out={tmp}/out"],
                                  capture_output=True, text=True, timeout=60,
                                  preexec_fn=limit)
            if proc.returncode != 0:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode}, stderr: "
                      f"{proc.stderr.strip()!r} (want a clean dry run)", file=sys.stderr)
            else:
                print(f"ok   {name}: dry run passes")
        for name, (args, expected) in FLAG_CASES.items():
            proc = subprocess.run([binary, *args, f"--out={tmp}/out"],
                                  capture_output=True, text=True, timeout=60)
            failures += check(name, proc, expected)
    for other in argv[2:]:
        name = pathlib.Path(other).name
        args, expected = OTHER_FLAG_CASES[name]
        proc = subprocess.run([other, *args], capture_output=True, text=True, timeout=60)
        failures += check(name, proc, expected)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""Exit-code contract of gtrix_campaign for invalid scenarios.

A malformed scenario and a sweep past the expansion limit must both be
rejected up front: exit status 2 and a path-qualified message on stderr,
never a crash, an allocation failure or exit 1.

Usage: tests/cli_config_errors_test.py GTRIX_CAMPAIGN_BINARY
"""
import json
import pathlib
import subprocess
import sys
import tempfile

CASES = {
    "malformed": (
        {"name": "bad-columns", "config": {"columns": 1}},
        "$.config.columns: need at least 2 columns",
    ),
    "huge-sweep": (
        {"name": "huge-sweep",
         "sweep": {"seed": {"from": 1, "count": 100000},
                   "pulses": {"from": 1, "count": 100000}}},
        "$.sweep.pulses: sweep expands to more than",
    ),
    "huge-axis": (
        {"name": "huge-axis", "sweep": {"seed": {"from": 1, "count": 10000000000}}},
        "$.sweep.seed.count: range count",
    ),
}


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, (doc, expected) in CASES.items():
            path = pathlib.Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            proc = subprocess.run([binary, str(path), "--dry-run", f"--out={tmp}/out"],
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 2 or expected not in proc.stderr:
                failures += 1
                print(f"FAIL {name}: exit {proc.returncode}, stderr: {proc.stderr.strip()!r} "
                      f"(want exit 2 and {expected!r})", file=sys.stderr)
            else:
                print(f"ok   {name}: {proc.stderr.strip()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

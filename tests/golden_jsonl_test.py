#!/usr/bin/env python3
"""Golden-output check for the paper builtin scenarios.

Runs the eight small paper builtins through gtrix_campaign (default seeds,
full recording) in two engine shapes -- one sweep thread, and four sweep
threads with two shards per cell -- and compares the SHA-256 of every
emitted JSONL file against the committed digests in
tests/golden/jsonl.sha256. Any byte of drift in a result, a serialized
config or the line order fails the check, so a refactor that claims to be
behaviour-preserving is proven byte for byte.

Usage:
  tests/golden_jsonl_test.py GTRIX_CAMPAIGN_BINARY
  tests/golden_jsonl_test.py GTRIX_CAMPAIGN_BINARY --regenerate

--regenerate rewrites tests/golden/jsonl.sha256 from a --threads=1 run (the
other shape must still agree with it). Regenerate only for a change that is
meant to alter results, and say so in the change description.
"""
import hashlib
import pathlib
import subprocess
import sys
import tempfile

SCENARIOS = [
    "quickstart-grid",
    "table1-comparison",
    "thm11-logd",
    "thm12-worstcase-faults",
    "thm13-random-faults",
    "thm16-stabilization",
    "fig5-jump-ablation",
    "torus-smoke",
]

SHAPES = [
    ["--threads=1"],
    ["--threads=4", "--shards=2"],
]

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "jsonl.sha256"


def run_shape(binary, shape, out_dir):
    subprocess.run([binary, *SCENARIOS, "--recording=full", "--quiet",
                    f"--out={out_dir}", *shape], check=True)
    digests = {}
    for name in SCENARIOS:
        path = pathlib.Path(out_dir) / f"{name}.jsonl"
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_golden():
    digests = {}
    for line in GOLDEN.read_text().splitlines():
        digest, file_name = line.split()
        digests[file_name.removesuffix(".jsonl")] = digest
    return digests


def main(argv):
    if len(argv) < 2 or argv[1].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    binary = argv[1]
    regenerate = "--regenerate" in argv[2:]
    with tempfile.TemporaryDirectory() as tmp:
        runs = [run_shape(binary, shape, f"{tmp}/shape{i}")
                for i, shape in enumerate(SHAPES)]
    if regenerate:
        if runs[0] != runs[1]:
            print("engine shapes disagree; refusing to regenerate",
                  file=sys.stderr)
            return 1
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("".join(f"{runs[0][name]}  {name}.jsonl\n"
                                  for name in SCENARIOS))
        print(f"wrote {GOLDEN}")
        return 0
    golden = read_golden()
    failures = 0
    for shape, digests in zip(SHAPES, runs):
        for name in SCENARIOS:
            if digests[name] != golden.get(name):
                failures += 1
                print(f"FAIL {name}.jsonl ({' '.join(shape)}): "
                      f"{digests[name]} != golden {golden.get(name)}",
                      file=sys.stderr)
    if failures:
        return 1
    print(f"golden JSONL digests OK: {len(SCENARIOS)} scenarios x "
          f"{len(SHAPES)} engine shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

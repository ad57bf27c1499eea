#!/usr/bin/env python3
"""Golden-output check for the builtin scenarios.

Runs, in two engine shapes -- one sweep thread, and four sweep threads with
two shards per cell -- through gtrix_campaign:
  * the eight small paper builtins (default seeds, full recording);
  * quick-shape cuts of the three scale builtins (tests/golden/*-quick.json,
    bench_scale --quick's reshape), each under its own recording spec and
    under the --recording=full and --recording=windowed overrides;
  * tests/golden/send-faults-quick.json, one node of every fault kind
    (crash, fixed-period, static-offset, split, jitter, mute-after);
  * two resumed runs: thm16-stabilization and send-faults-quick with
    --checkpoint-dir, their done files deleted, then rerun with --resume,
    so every cell restores from its newest snapshot and finishes from
    there. send-faults-quick snapshots every 30000 time units, so its
    snapshot lands mid-run with the jitter streams and the mute-after
    counter part-way through.
The SHA-256 of every emitted JSONL file is compared against the committed
digests in tests/golden/jsonl.sha256 (a "@mode" suffix names the recording
override or the resumed run). Any byte of drift in a result, a serialized
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

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "jsonl.sha256"

SCALE_SCENARIOS = [
    "scale-grid-quick",
    "scale-torus-quick",
    "scale-stabilization-quick",
]

# None = the scenario's own recording spec. Streaming is the scale
# scenarios' own mode; as an override it would replace
# scale-stabilization's 44-wave window with the default, which is too small
# for its corruption look-back.
SCALE_RECORDINGS = [None, "full", "windowed"]

RESUMED = "thm16-stabilization"

SEND_FAULTS = "send-faults-quick"


def campaign(binary, args, shape, out_dir):
    subprocess.run([binary, *args, "--quiet", f"--out={out_dir}", *shape],
                   check=True)


def digest(out_dir, name):
    path = pathlib.Path(out_dir) / f"{name}.jsonl"
    return hashlib.sha256(path.read_bytes()).hexdigest()


def resumed_digest(binary, args, name, shape, out_dir):
    """Runs with checkpoints, deletes the done files and reruns with
    --resume, so every cell finishes from its newest snapshot."""
    ckpt = [*args, f"--checkpoint-dir={out_dir}/ckpt"]
    campaign(binary, ckpt, shape, out_dir)
    done = list(pathlib.Path(f"{out_dir}/ckpt").rglob("*.done.json"))
    if not done:
        raise RuntimeError(f"checkpointed {name} run left no done files to delete")
    for path in done:
        path.unlink()
    campaign(binary, [*ckpt, "--resume"], shape, out_dir)
    return digest(out_dir, name)


def run_shape(binary, shape, out_dir):
    digests = {}
    campaign(binary, [*SCENARIOS, "--recording=full"], shape, f"{out_dir}/paper")
    for name in SCENARIOS:
        digests[name] = digest(f"{out_dir}/paper", name)

    files = [str(GOLDEN_DIR / f"{name}.json") for name in SCALE_SCENARIOS]
    for mode in SCALE_RECORDINGS:
        mode_dir = f"{out_dir}/scale-{mode or 'own'}"
        override = [f"--recording={mode}"] if mode else []
        campaign(binary, [*files, *override], shape, mode_dir)
        for name in SCALE_SCENARIOS:
            digests[f"{name}@{mode}" if mode else name] = digest(mode_dir, name)

    digests[f"{RESUMED}@resumed"] = resumed_digest(
        binary, [RESUMED, "--recording=full"], RESUMED, shape, f"{out_dir}/resumed")

    send = str(GOLDEN_DIR / f"{SEND_FAULTS}.json")
    campaign(binary, [send], shape, f"{out_dir}/send")
    digests[SEND_FAULTS] = digest(f"{out_dir}/send", SEND_FAULTS)
    digests[f"{SEND_FAULTS}@resumed"] = resumed_digest(
        binary, [send, "--checkpoint-every=30000"], SEND_FAULTS, shape,
        f"{out_dir}/send-resumed")
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
        GOLDEN.write_text("".join(f"{value}  {name}.jsonl\n"
                                  for name, value in runs[0].items()))
        print(f"wrote {GOLDEN}")
        return 0
    golden = read_golden()
    failures = 0
    for name in golden.keys() - runs[0].keys():
        failures += 1
        print(f"FAIL {name}.jsonl: golden digest without a run", file=sys.stderr)
    for shape, digests in zip(SHAPES, runs):
        for name in digests:
            if digests[name] != golden.get(name):
                failures += 1
                print(f"FAIL {name}.jsonl ({' '.join(shape)}): "
                      f"{digests[name]} != golden {golden.get(name)}",
                      file=sys.stderr)
    if failures:
        return 1
    print(f"golden JSONL digests OK: {len(runs[0])} outputs x "
          f"{len(SHAPES)} engine shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

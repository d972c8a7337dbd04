#!/usr/bin/env python3
"""End-to-end HQL benchmark: one command for every workload.

    python3 hqlbench/run.py --workload browse|update|analytic --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds the engine and the hqlbench binary
from source into .bench_build/hqlbench (incremental after the first run),
writes the browse snapshot in a separate untimed process, then runs the
binary and relays its output. The last stdout line is the binary's JSON
result. Exits non-zero, without a result, when the build fails, and
non-zero with "correct": false when an answer is wrong.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hqlbench"
RUNS = ROOT / ".bench_build" / "runs"
TIMEOUT_S = 170


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        steps = [
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            ["cmake", "--build", str(BUILD), "--target", "hqlbench",
             "--", "-j", "4"],
        ]
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                sys.stderr.write("hqlbench: build failed\n")
                return None
    return BUILD / "hqlbench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["browse", "update", "analytic"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2

    RUNS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    snapshot = RUNS / f"{tag}.hirel"
    spans = RUNS / f"{tag}.spans.jsonl"
    command = [str(binary), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(spans)]
    try:
        if args.workload == "browse":
            writer = subprocess.run(
                [str(binary), "snapshot", "--workload", "browse",
                 "--seed", str(args.seed), "--out", str(snapshot)],
                cwd=ROOT, timeout=TIMEOUT_S)
            if writer.returncode != 0:
                sys.stderr.write("hqlbench: snapshot writer failed\n")
                return 2
            command += ["--snapshot", str(snapshot)]
        sys.stdout.flush()
        return subprocess.run(command, cwd=ROOT,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("hqlbench: run timed out\n")
        return 3
    finally:
        snapshot.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())

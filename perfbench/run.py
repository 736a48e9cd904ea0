#!/usr/bin/env python3
"""Build the simulator and the benchmark program with dune, then run one
workload (or all of them) and pass its report through.

Run from the repository root:

    python3 perfbench/run.py --workload fullsys-attack --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 42 --seconds 20 --trace 1

The last line of standard output is the JSON result. The exit code is
the benchmark program's: 0 when every output check passed, 1 when one
failed, 2 on an error that left no result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["fig6-sweep", "fullsys-attack", "serve-mix"]
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
CLI = os.path.join("_build", "default", "bin", "ptguard_cli.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="print reference records for the seed instead of measuring")
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root: no dune-project and lib/ here")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe", "./bin/ptguard_cli.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")

    status = 0
    for workload in WORKLOADS if args.all else [args.workload]:
        cmd = [BENCH, "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--cli", CLI]
        if args.record:
            cmd.append("--record")
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd).returncode)
    sys.exit(status)


if __name__ == "__main__":
    main()

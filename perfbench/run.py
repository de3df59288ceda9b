#!/usr/bin/env python3
"""Build the benchmark from source and run one workload (or all of them).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1> [--spans <file>]

Run from the root of the repository.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); its output is
sent to standard error so that the last line of standard output is the
benchmark's JSON summary.  With --workload all, every workload runs in its
own process and the last line maps each workload to its summary.  Exit code
0 on success, 1 if a correctness gate failed, 2 on a run error, 3 if the
build failed, 4 if a run timed out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["sparse-1m", "giant-mst", "serve-closed"]
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in (["cmake", "-S", str(source), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build_dir), "-j", "4",
                 "--target", "perfbench"]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            sys.exit(3)
    return build_dir / "perfbench"


def run_one(binary: Path, args, workload: str, capture: bool):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.spans:
        cmd += ["--spans", args.spans]
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        sys.exit(4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--spans", default="",
                        help="traced runs: write the benchmark's spans here")
    args = parser.parse_args()
    if args.spans and args.workload == "all":
        parser.error("--spans takes a single workload")

    source = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(source, target.resolve() / "perfbench")

    if args.workload != "all":
        return run_one(binary, args, args.workload, capture=False).returncode

    summary = {}
    code = 0
    for workload in WORKLOADS:
        done = run_one(binary, args, workload, capture=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            code = done.returncode or 2
            summary[workload] = None
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())

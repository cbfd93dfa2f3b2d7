"""Benchmark entry point.  Run from the root of a checkout:

    python3 perfbench/run.py --workload integer-sweeps --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it times set-up (fresh interpreters that import
gcdheights.cli and build the request list), then starts the closed-loop client
(client.py) in a fresh interpreter and prints the end-to-end metrics.  With
``--trace 1`` the client makes one untraced and one traced pass at jobs 1 and
prints the per-layer metrics.  The last line of stdout is the JSON result.
It exits nonzero, printing no result, if an output check fails or the program
is missing from the checkout.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from client import PROBE_REF_S, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLIENT = HERE / "client.py"
SETUP_RUNS = 9
TIMEOUT_S = 170.0


def setup_seconds(args, deadline: float) -> tuple[list[float], list[float]]:
    """Wall time from starting an interpreter to its 'ready' line, per run,
    and the probe times taken between the runs (see client.PROBE_REF_S)."""
    argv = [sys.executable, str(CLIENT), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    samples, probes = [], [probe()]
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                proc.wait(timeout=max(1.0, deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up run exited {proc.returncode}")
        samples.append(elapsed)
        probes.append(probe())
    return samples, probes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = perf_counter() + TIMEOUT_S
    if not (ROOT / "src" / "gcdheights" / "cli.py").is_file():
        print(f"error: no gcdheights sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    setup, probes = ([], []) if args.trace else setup_seconds(args, deadline)
    argv = [sys.executable, str(CLIENT), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        print("error: client did not finish in time", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"error: client exited {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if setup:
        scale = PROBE_REF_S / median(probes)
        print("setup samples " + " ".join(f"{s:.4f}" for s in setup)
              + f" s unscaled, probe median {median(probes) * 1e3:.4f} ms")
        result["metrics"]["setup_s"] = {"value": median(setup) * scale, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

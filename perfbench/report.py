"""Run every workload, untraced and traced, and print every metric by name.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out FILE]

Prints one table row per metric (workload, metric, value, unit) and the
report lines of each run: passes, the tail percentile and its sample count,
fail_rate, the input profile, set-up samples, the tracing overhead and the
layer-separation checks.  Exits nonzero if any run fails or any output check
fails.  ``--out`` also writes the results as JSON with the Python version,
the core count and the commit, as in results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", help="also write the results to this JSON file")
    args = ap.parse_args()

    results = {}
    failed = False
    for w in SPEC["workloads"]:
        results[w["name"]] = {"why": w["why"]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            try:
                lines, doc = run(w["name"], args.seed, args.seconds, trace)
            except RuntimeError as exc:
                print(f"FAILED: {exc}")
                failed = True
                continue
            for line in lines:
                print(f"[{w['name']} trace={trace}] {line}")
            for name, m in doc["metrics"].items():
                print(f"{w['name']:16} {name:44} {m['value']:>16.6g} {m['unit']}")
            results[w["name"]][key] = doc["metrics"]
            results[w["name"]][f"report_trace{trace}"] = lines
            results[w["name"]][f"attempted_trace{trace}"] = doc["attempted"]
            results[w["name"]][f"failed_trace{trace}"] = doc["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps({
            "commit": commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "results": results,
        }, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

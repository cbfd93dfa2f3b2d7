"""Self-test of the benchmark: every workload at its minimum size.

    python3 perfbench/selftest.py

Runs each workload with ``--seconds 1`` (the client's minimum of whole
passes), untraced and traced, and checks that the last line is a correct
result naming every metric of BENCHMARK.json with its unit.  Then copies only
BENCHMARK.json and this directory into perfbench/out/bare/ and checks that the
benchmark exits nonzero there without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=root, text=True, capture_output=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-500:]}"]
    doc = json.loads(proc.stdout.splitlines()[-1])
    errors = []
    if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"keys {sorted(doc)}")
    if doc["correct"] is not True or doc["attempted"] < 1:
        errors.append("not correct, or nothing attempted")
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"metric {m['name']} [{m['unit']}] missing: {got}")
    return errors


def main() -> int:
    errors = []
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            errs = check_result(bench(ROOT, w["name"], trace), SPEC[key])
            print(f"{w['name']} trace={trace}: {'ok' if not errs else errs}")
            errors += errs

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(bare, SPEC["workloads"][0]["name"], 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    bare_ok = proc.returncode != 0 and not last[0].startswith("{")
    print(f"bare checkout: exit {proc.returncode}, {'ok' if bare_ok else 'printed a result'}")
    if not bare_ok:
        errors.append("benchmark succeeded without the program")
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

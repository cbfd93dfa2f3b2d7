"""Closed-loop client: one client, one request in flight, whole passes.

Started by run.py in a fresh interpreter, so its peak RSS is the program's
own.  Prints report lines, then one JSON line with the run's numbers.

    client.py --workload W --seed N --seconds S --trace 0|1
    client.py --workload W --seed N --setup-only   # import, build list, exit
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import traceback
import warnings
from fractions import Fraction
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 4  # 4 passes of 25 requests keep >= 10 samples beyond the tail
TAIL_BEYOND = 10

# The speed of a shared 2-core machine drifts by a quarter and more within
# minutes.  Before each request the client times a fixed probe made of the
# program's kinds of work (bytecode, big-integer gcds, Fraction sums) while the
# program is idle.  Each latency is scaled by PROBE_REF_S / (median of the 11
# probes around it): it reads as seconds on a machine where the probe takes
# PROBE_REF_S, about its time on the 2-core machine the benchmark was tuned
# on.  A narrower window follows short spells better but adds the probes' own
# noise to the long requests that set the tail.
PROBE_REF_S = 0.0013
PROBE_HALF_WINDOW = 5
_PROBE_A = 3**1500 - 1
_PROBE_B = 2**2500 - 1


def probe() -> float:
    start = perf_counter()
    s = 0
    for k in range(4000):
        s += k * k % 7
    for i in range(20):
        gcd(_PROBE_A + i, _PROBE_B)
    f = Fraction(1, 3)
    for i in range(60):
        f += Fraction(i, i + 7)
    return perf_counter() - start


def load_program() -> None:
    """Import gcdheights.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import gcdheights.cli

    found = Path(gcdheights.cli.__file__).resolve()
    if found.parents[2] != ROOT:
        raise SystemExit(f"gcdheights imported from {found}, not from {ROOT / 'src'}")


class Client:
    """Sends one request and returns its output; raises if the request fails."""

    def __init__(self, workdir: Path, jobs: int | None = None) -> None:
        from gcdheights import cli, elliptic, experiments

        self.cli, self.elliptic, self.experiments = cli, elliptic, experiments
        self.workdir = workdir
        self.jobs = jobs  # overrides the CLI --jobs of the requests when set

    def prepare(self, reqs: list[dict]) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for req in reqs:
            if req["op"] == "cli":
                path = self.workdir / f"config-{req['id']}.json"
                path.write_text(json.dumps(req["config"]), encoding="utf-8")

    def send(self, req: dict) -> dict:
        op = req["op"]
        if op == "height":
            curve = self.elliptic.Curve(*req["curve"])
            point = self.elliptic.Point(*(Fraction(t) for t in req["point"]))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = self.elliptic.canonical_height(curve, point, req["tol"])
            return {"value": value,
                    "uncertified": any("not certified" in str(w.message)
                                       for w in caught)}
        if op == "sweep":
            ex = self.experiments
            cfg = req["config"]
            result = ex.run(ex.SweepConfig(kind=cfg["kind"], parameters=cfg["parameters"],
                                           seed=cfg.get("seed", 0)), jobs=1)
            render = ex.render_json if req["format"] == "json" else ex.render_csv
            return {"text": render(result), "error_rows": result.summary["error_rows"]}
        out = self.workdir / f"out-{req['id']}.{req['format']}"
        argv = ["sweep", "--config", str(self.workdir / f"config-{req['id']}.json"),
                "--jobs", str(self.jobs or req["jobs"]), "--out", str(out),
                "--format", req["format"]]
        code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"gcdheights {' '.join(argv)} exited {code}")
        return {"path": out}


def cells_of(req: dict) -> int:
    return 1 if req["op"] == "height" else workloads.expected_cells(req["config"])


class Tally:
    """Latency samples and operation counts of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # raw seconds, in the order sent
        self.probes: list[float] = []     # probe seconds just before each
        self.ids: list[int] = []
        self.attempted = 0
        self.failed = 0       # raised requests and error rows
        self.uncertified = 0  # canonical_height "not certified" warnings

    def add(self, req: dict, latency: float, out: dict | None,
            probe_s: float = PROBE_REF_S) -> None:
        self.latencies.append(latency)
        self.probes.append(probe_s)
        self.ids.append(req["id"])
        cells = cells_of(req)
        self.attempted += cells
        if out is None:
            self.failed += cells
            return
        self.failed += out.get("error_rows", 0)
        self.uncertified += out.get("uncertified", False)

    def scaled(self) -> list[float]:
        """Latencies at the reference probe speed (see PROBE_REF_S)."""
        p, w = self.probes, PROBE_HALF_WINDOW
        return [lat * PROBE_REF_S / median(p[max(0, i - w):i + w + 1])
                for i, lat in enumerate(self.latencies)]

    def typical_pass_s(self, latencies: list[float]) -> float:
        """Sum over the requests of a pass of each one's median latency.

        With one request in flight this is the wall time of a typical pass;
        unlike the total wall time it ignores slow spells of the machine that
        hit fewer than half of the passes.
        """
        by_request: dict[int, list[float]] = {}
        for i, lat in zip(self.ids, latencies):
            by_request.setdefault(i, []).append(lat)
        return sum(median(v) for v in by_request.values())

    @property
    def fail_rate(self) -> float:
        return (self.failed + self.uncertified) / self.attempted

    @staticmethod
    def tail(latencies: list[float]) -> tuple[float, float, int]:
        """(latency, percentile, samples) at the highest percentile that has
        TAIL_BEYOND samples beyond it."""
        lat = sorted(latencies)
        k = len(lat) - TAIL_BEYOND - 1
        return lat[k], 100.0 * (k + 1) / len(lat), len(lat)


def one_pass(client: Client, reqs: list[dict], tally: Tally, outs: dict,
             tracer=None, probed: bool = False) -> None:
    for req in reqs:
        if tracer is not None:
            tracer.request = req["id"]
        probe_s = probe() if probed else PROBE_REF_S
        start = perf_counter()
        try:
            out = client.send(req)
        except Exception:  # a failed request is counted, and the run goes on
            out = None
            traceback.print_exc()
        tally.add(req, perf_counter() - start, out, probe_s)
        if out is None:
            outs.pop(req["id"], None)
        else:
            outs[req["id"]] = out


def read_outputs(reqs: list[dict], outs: dict) -> None:
    for req in reqs:
        out = outs.get(req["id"])
        if out is not None and "path" in out:
            out["text"] = Path(out["path"]).read_text(encoding="utf-8")


def check(reqs: list[dict], outs: dict, seed: int) -> list[str]:
    import checks

    read_outputs(reqs, outs)
    return checks.goldens(ROOT) + checks.outputs(reqs, outs, seed)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0


def measure(args, reqs: list[dict], client: Client) -> tuple[dict, Tally, dict]:
    tally, outs = Tally(), {}
    passes = 0
    start = perf_counter()
    while passes < MIN_PASSES or perf_counter() - start < args.seconds:
        one_pass(client, reqs, tally, outs, probed=True)
        passes += 1
    wall = perf_counter() - start
    done = (tally.attempted - tally.failed) / passes
    scaled = tally.scaled()
    tail, pct, samples = tally.tail(scaled)
    raw_tail = tally.tail(tally.latencies)[0]
    print(f"passes {passes}, wall {wall:.3f} s, tail at p{pct:.2f} of {samples} "
          f"requests, fail_rate {tally.fail_rate:.6g} ({tally.failed} failed + "
          f"{tally.uncertified} uncertified of {tally.attempted} operations)")
    print(f"probe median {median(tally.probes) * 1e3:.4f} ms (reference "
          f"{PROBE_REF_S * 1e3:g} ms); unscaled: p50 {median(tally.latencies):.6g} s, "
          f"tail {raw_tail:.6g} s, {done / tally.typical_pass_s(tally.latencies):.6g} "
          f"cells/s, {passes * done / wall:.6g} cells per wall second")
    metrics = {
        "sweep_p50_s": (median(scaled), "s"),
        "sweep_tail_s": (tail, "s"),
        "cells_per_s": (done / tally.typical_pass_s(scaled), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_rate": (1.0 - tally.fail_rate, "ratio"),
    }
    return metrics, tally, outs


def traced(args, reqs: list[dict], client: Client) -> tuple[dict, Tally, dict]:
    import tracer as tracing

    from gcdheights import experiments

    start = perf_counter()
    one_pass(client, reqs, Tally(), {})
    untraced_wall = perf_counter() - start

    tr, tally, outs = tracing.Tracer(), Tally(), {}
    tr.install()
    try:
        start = perf_counter()
        one_pass(client, reqs, tally, outs, tracer=tr)
        traced_wall = perf_counter() - start
    finally:
        tr.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tr.write(spans_path)

    # pool efficiency: run() time at jobs 1 over twice the run() time at jobs 2
    run_time = {1: 0.0, 2: 0.0}
    for req in reqs:
        if req["op"] == "height":
            continue
        cfg = req["config"]
        sweep = experiments.SweepConfig(kind=cfg["kind"], parameters=cfg["parameters"],
                                        seed=cfg.get("seed", 0))
        for jobs in (1, 2):
            t = perf_counter()
            experiments.run(sweep, jobs=jobs)
            run_time[jobs] += perf_counter() - t

    read_outputs(reqs, outs)
    metrics = {name: (value, "count" if name.endswith(("calls", "incomplete")) else "s")
               for name, value in tr.layer_metrics().items()}
    texts = [o["text"] for o in outs.values() if "text" in o]
    pn = {r["id"] for r in reqs if r["op"] != "height"
          and r["config"]["kind"] == "PN_CHECK"}
    pn_self_s = sum(own for span, own in zip(tr.spans, tr.self_times())
                    if span[0] == "experiments.run" and span[4] in pn)
    metrics.update({
        "experiments.run.PN_CHECK.self_s": (pn_self_s, "s"),
        "experiments.cells": (tally.attempted - sum(r["op"] == "height" for r in reqs),
                              "count"),
        "experiments.error_rows": (tally.failed, "count"),
        "experiments.render.bytes": (sum(len(t.encode()) for t in texts), "bytes"),
        "experiments.pool.efficiency": (run_time[1] / (2.0 * run_time[2]), "ratio"),
        "elliptic.canonical_height.uncertified": (tally.uncertified, "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.spans": (len(tr.spans), "count"),
    })
    print(f"traced pass {traced_wall:.3f} s, untraced pass {untraced_wall:.3f} s, "
          f"overhead {traced_wall - untraced_wall:+.3f} s, {len(tr.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    return metrics, tally, outs


# Layers that must do no work on a workload: (workload, metric).
SEPARATE = [
    ("integer-sweeps", "elliptic.add.calls"),
    ("pool-cli", "elliptic.add.calls"),
    ("curve-sweeps", "mulgrp.cz_classify.calls"),
]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    load_program()
    reqs = workloads.build(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print("profile " + json.dumps(workloads.profile(reqs), sort_keys=True))
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    try:
        if args.trace:
            client = Client(workdir, jobs=1)
            client.prepare(reqs)
            metrics, tally, outs = traced(args, reqs, client)
        else:
            client = Client(workdir)
            client.prepare(reqs)
            metrics, tally, outs = measure(args, reqs, client)
        errors = check(reqs, outs, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        for workload, name in SEPARATE:
            if workload == args.workload:
                calls = metrics[name][0]
                print(f"layer separation: {name} == {calls} on {workload}")
                if calls != 0:
                    errors.append(f"{name} is {calls}, expected 0 on {workload}")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    if errors:
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end and per-layer benchmark of the hypercube multipath routing code.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload build-cold --seed 1 --seconds 20 --trace 0

Workloads: ``build-cold`` (spec -> servable artifact), ``serve-warm``
(closed loop of ``route_batch`` calls on a warm Q_16 store) and
``simulate`` (sweeps, wormhole runs and fault campaigns).  ``--trace 0``
measures the end-to-end metrics with no tracing; ``--trace 1`` runs the
same workload with untraced and traced phases alternating and reports the
per-layer metrics, the unattributed share and the tracing overhead.

All work happens in worker processes started one at a time (never more
busy processes than cores), each with BLAS/OpenMP thread caps of 1 and
the program's ``src`` on ``PYTHONPATH``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md in this directory explains the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("build-cold", "serve-warm", "simulate")
TAIL_Q = {"build-cold": 0.90, "serve-warm": 0.99, "simulate": 0.90}
MIN_BEYOND = 10  # samples a reported tail percentile needs beyond it
# fresh-process passes per run; build-cold's p90 falls among its few
# 100-200 ms specs and needs the extra samples
MIN_PASSES = {"build-cold": 4, "simulate": 3}
PROBES = 1  # set-up-only processes before each measured process
SERVE_LOOPS = 3  # serving processes that run the closed loop, seconds/3 each
CHILD_TIMEOUT_S = 150

# (name, unit); every workload prints every metric, 0 where a layer is idle
PER_LAYER: List[Tuple[str, str]] = [
    ("host.calib_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("core.construct_s", "s"),
    ("core.verify_s", "s"),
    ("core.verify_calls", "count"),
    ("core.csr_export_s", "s"),
    ("core.csr_export_calls", "count"),
    ("service.artifact_encode_s", "s"),
    ("service.store_write_s", "s"),
    ("service.store_open_s", "s"),
    ("service.publish_s", "s"),
    ("service.artifact_bytes", "bytes"),
    ("build.unattributed_s", "s"),
    ("build.timer_gap_pct", "%"),
    ("serve.import_s", "s"),
    ("serve.first_batch_ms", "ms"),
    ("service.request_overhead_s", "s"),
    ("core.resolve_s", "s"),
    ("hypercube.gather_s", "s"),
    ("serve.calls", "count"),
    ("serve.requests", "count"),
    ("serve.paths_returned", "count"),
    ("serve.nodes_returned", "count"),
    ("routing.fast_sf_s", "s"),
    ("routing.fast_worm_s", "s"),
    ("routing.batched_sf_s", "s"),
    ("routing.batched_worm_s", "s"),
    ("scenarios.schedule_s", "s"),
    ("fault.ida_s", "s"),
] + [
    (f"routing.{what}.{engine}", unit)
    for what, unit in (("ticks", "count"), ("packet_hops", "count"), ("lanes", "count"), ("ns_per_hop", "ns"))
    for engine in ("fast_sf", "batched_sf", "fast_worm", "batched_worm")
]

# registry timer -> (our span, its parent) for the build-cold cross-check
REGISTRY_STAGES = {
    "build": ("core.construct", "build.item"),
    "verify": ("core.verify", "build.item"),
    "csr_export": ("core.csr_export", "build.item"),
    "store_write": ("service.store_write", "build.item"),
    "store_open": ("service.store_open", "build.item"),
}


class BenchError(RuntimeError):
    """The run cannot produce trustworthy numbers; no result is printed."""


def calib_ms() -> float:
    """Median time of a fixed pure-Python loop: a host drift probe, not a gate."""
    return statistics.median(hostspeed.probe(200_000) for _ in range(7)) * 1e3


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker processes one at a time and collects their JSON."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"
        self.env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = "1"

    def python(self, *args: str) -> str:
        proc = subprocess.run([sys.executable, *args], env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        return proc.stdout

    def worker(self, **cfg: Any) -> Dict[str, Any]:
        spawn_probe = statistics.median(hostspeed.probe() for _ in range(hostspeed.SPAWN_PROBES))
        cfg["spawn_t"] = time.monotonic()
        out = json.loads(self.python(str(BENCH / "worker.py"), json.dumps(cfg)).splitlines()[-1])
        if "ready" in out:
            out["setup_s"] = out["ready"] - cfg["spawn_t"]
            out["setup_scale"] = hostspeed.REFERENCE_PROBE_S / spawn_probe
        return out


def scaled_latencies(processes: List[Dict[str, Any]]) -> List[float]:
    """Each process's item latencies at the reference host speed (see hostspeed.py)."""
    out: List[float] = []
    for p in processes:
        if p["latencies"]:
            scale = hostspeed.scaler(p["probes"])
            out += [lat * scale(t) for lat, t in zip(p["latencies"], p["starts"])]
    return out


def percentile(sorted_xs: List[float], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_xs)))
    return sorted_xs[rank - 1], len(sorted_xs) - rank


def passes(runner: Runner, workload: str, role: str, seconds: float, trace: bool, **cfg: Any) -> List[Dict[str, Any]]:
    """Fresh-process passes, each after a set-up probe, until ``seconds`` of timed work.

    With ``trace`` every pass traces every other item, starting at item 0
    or 1 by turns, and the pass count is even: each item then runs as
    often traced as untraced, and slow and fast stretches of the host fall
    on both sides alike.
    """
    done: List[Dict[str, Any]] = []
    timed = 0.0
    count = 0
    while timed < seconds or count < MIN_PASSES[workload] or (trace and count % 2):
        cache = runner.tmp / f"cache-{count}"
        for probe in [True] * PROBES + [False]:
            done.append(runner.worker(workload=workload, role=role, trace=trace and not probe,
                                      trace_parity=count % 2, probe=probe, cache_dir=str(cache), **cfg))
            shutil.rmtree(cache, ignore_errors=True)
            timed += sum(done[-1]["latencies"])
        count += 1
    return done


def trace_sums(runs: List[Dict[str, Any]], key: str, scale: float = 1.0) -> Dict[str, float]:
    """A traced quantity summed over ``runs`` and multiplied by ``scale``."""
    out: Dict[str, float] = {}
    for p in runs:
        for name, value in p["trace"][key].items():
            out[name] = out.get(name, 0.0) + value * scale
    return out


def root_share(measured: List[Dict[str, Any]], root: str) -> float:
    own = sum(p["trace"]["self_s"].get(root, 0.0) for p in measured)
    total = sum(p["trace"]["inclusive"].get(f"{root}<", 0.0) for p in measured)
    return 100.0 * own / total if total else 0.0


def overhead_pct(measured: List[Dict[str, Any]]) -> float:
    """Traced over untraced time of the same items, as a percentage increase."""
    sums = {True: 0.0, False: 0.0}
    for p in measured:
        for latency, traced in zip(p["latencies"], p["traced"]):
            sums[traced] += latency
    return 100.0 * (sums[True] / sums[False] - 1.0)


def run_build_cold(runner: Runner, seed: int, seconds: float, trace: bool, **extra: Any) -> Dict[str, Any]:
    runs = passes(runner, "build-cold", "build", seconds, trace, seed=seed, **extra)
    measured = [p for p in runs if p["latencies"]]  # passes, not probes
    res = {"runs": runs, "unit_items": f"artifacts from {len(measured)} passes", "layers": {}}
    res["latencies"] = [x for p in measured for x in p["latencies"]]
    res["scaled"] = scaled_latencies(measured)
    res["work"] = len(res["latencies"])
    if trace:
        per_pass = 2 / len(measured)  # a pair of passes traces every item once
        self_s, calls = trace_sums(measured, "self_s", per_pass), trace_sums(measured, "calls", per_pass)
        items = len(measured[0]["latencies"])
        gaps = []
        for stage, (span, parent) in REGISTRY_STAGES.items():
            theirs = sum(p["registry_timers"].get(stage, 0.0) for p in measured)
            ours = sum(p["trace"]["inclusive"].get(f"{span}<{parent}", 0.0) for p in measured)
            if theirs > 0:
                gaps.append(100.0 * abs(ours - theirs) / theirs)
        res["layers"] = {
            "core.construct_s": self_s.get("core.construct", 0.0),
            "core.verify_s": self_s.get("core.verify", 0.0),
            "core.verify_calls": calls.get("core.verify", 0.0) / items,
            "core.csr_export_s": self_s.get("core.csr_export", 0.0),
            "core.csr_export_calls": calls.get("core.csr_export", 0.0) / items,
            "service.artifact_encode_s": self_s.get("service.artifact_encode", 0.0),
            "service.store_write_s": self_s.get("service.store_write", 0.0),
            "service.store_open_s": self_s.get("service.store_open", 0.0),
            "service.publish_s": self_s.get("service.publish", 0.0),
            "service.artifact_bytes": statistics.mean(p["artifact_bytes"] for p in measured),
            "build.unattributed_s": self_s.get("build.item", 0.0),
            "build.timer_gap_pct": max(gaps, default=0.0),
            "trace.unattributed_pct": root_share(measured, "build.item"),
            "trace.overhead_pct": overhead_pct(measured),
        }
    return res


def run_serve_warm(runner: Runner, seed: int, seconds: float, trace: bool, **extra: Any) -> Dict[str, Any]:
    common = dict(workload="serve-warm", seed=seed, cache_dir=str(runner.tmp / "serve-cache"),
                  load_file=str(runner.tmp / "serve-load.npz"), **extra)
    prep = runner.worker(role="serve-prep", **common)
    probes, loops = [], []
    for _ in range(SERVE_LOOPS):
        probes += [runner.worker(role="serve", seconds=0, trace=trace, **common) for _ in range(PROBES)]
        loops.append(runner.worker(role="serve", seconds=seconds / SERVE_LOOPS, trace=trace, **common))
    res = {"runs": [prep] + probes + loops, "unit_items": "route_batch calls", "layers": {}}
    res["latencies"] = [x for p in loops for x in p["latencies"]]
    res["scaled"] = scaled_latencies(loops)
    res["work"] = sum(p["requests"] for p in loops)
    if trace:
        starts = probes + loops
        self_s, counts = trace_sums(loops, "self_s"), trace_sums(loops, "counts")
        calls = counts.get("serve.calls", 0.0) or 1.0
        cycle = {mode: sum(p["cycle_s"][mode] for p in loops) for mode in ("untraced", "traced")}

        def med(fn: Any) -> float:
            return statistics.median(fn(p) for p in starts)

        res["layers"] = {
            "serve.import_s": med(lambda p: p["import_s"]),
            "serve.first_batch_ms": med(lambda p: p["first_batch_s"] * 1e3),
            "service.store_open_s": med(lambda p: p["trace"]["self_s"].get("service.store_open", 0.0)),
            "service.publish_s": med(lambda p: p["trace"]["self_s"].get("service.publish", 0.0)),
            "service.request_overhead_s": self_s.get("service.route_batch", 0.0) / calls,
            "core.resolve_s": self_s.get("core.resolve", 0.0) / calls,
            "hypercube.gather_s": self_s.get("hypercube.gather", 0.0) / calls,
            "trace.unattributed_pct": root_share(loops, "serve.call"),
            "trace.overhead_pct": 100.0 * (cycle["traced"] / cycle["untraced"] - 1.0),
        }
        for name in ("serve.calls", "serve.requests", "serve.paths_returned", "serve.nodes_returned"):
            res["layers"][name] = counts.get(name, 0.0)
    return res


def run_simulate(runner: Runner, seed: int, seconds: float, trace: bool, **extra: Any) -> Dict[str, Any]:
    ref = runner.worker(workload="simulate", role="sim-ref", seed=seed)
    runs = passes(runner, "simulate", "sim", seconds, trace, seed=seed, **extra)
    for p in runs:
        p["failed"] += sum(1 for got, want in zip(p["digests"], ref["digests"]) if got != want)
    measured = [p for p in runs if p["latencies"]]
    res = {"runs": [ref] + runs, "unit_items": f"jobs from {len(measured)} passes", "layers": {}}
    res["latencies"] = [x for p in measured for x in p["latencies"]]
    res["scaled"] = scaled_latencies(measured)
    res["work"] = sum(ref["hops"]) * len(measured)
    if trace:
        per_pass = 2 / len(measured)  # a pair of passes traces every job once
        self_s, counts = trace_sums(measured, "self_s", per_pass), trace_sums(measured, "counts", per_pass)
        layers = {f"{name}_s": self_s.get(name, 0.0) for name in (
            "routing.fast_sf", "routing.fast_worm", "routing.batched_sf", "routing.batched_worm",
            "scenarios.schedule", "fault.ida")}
        for engine in ("fast_sf", "batched_sf", "fast_worm", "batched_worm"):
            hops = counts.get(f"routing.packet_hops.{engine}", 0.0)
            for what in ("ticks", "packet_hops", "lanes"):
                layers[f"routing.{what}.{engine}"] = counts.get(f"routing.{what}.{engine}", 0.0)
            layers[f"routing.ns_per_hop.{engine}"] = 1e9 * self_s.get(f"routing.{engine}", 0.0) / hops if hops else 0.0
        layers["trace.unattributed_pct"] = root_share(measured, "sim.job")
        layers["trace.overhead_pct"] = overhead_pct(measured)
        res["layers"] = layers
    return res


RUNNERS = {"build-cold": run_build_cold, "serve-warm": run_serve_warm, "simulate": run_simulate}


def report(workload: str, res: Dict[str, Any], trace: bool, calib: float) -> Dict[str, Any]:
    runs = res["runs"]
    attempted = sum(p["attempted"] for p in runs)
    failed = sum(p["failed"] for p in runs)
    if trace:
        metrics = {name: {"value": float(res["layers"].get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
        metrics["host.calib_ms"]["value"] = calib
        for name, m in metrics.items():
            print(f"{workload:<11} {name:<32} {m['value']:>16.6g} {m['unit']}")
        missing = sorted({m for p in runs for m in (p.get("trace") or {}).get("missing", [])})
        if missing:
            print(f"# wrappers not installed (target missing): {', '.join(missing)}")
    else:
        if not res["latencies"]:
            raise BenchError("no timed samples")
        q = TAIL_Q[workload]
        measured = [p for p in runs if "setup_s" in p]  # not preparation or reference
        # (reference-speed value, raw value) of each timing; see hostspeed.py
        both = {
            "setup_s": (statistics.median(p["setup_s"] * p["setup_scale"] for p in measured),
                        statistics.median(p["setup_s"] for p in measured)),
            "items_per_s": (res["work"] / sum(res["scaled"]), res["work"] / sum(res["latencies"])),
        }
        for key, lat in (("scaled", sorted(res["scaled"])), ("raw", sorted(res["latencies"]))):
            p50, _ = percentile(lat, 0.50)
            tail, beyond = percentile(lat, q)
            if beyond < MIN_BEYOND:
                raise BenchError(
                    f"p{round(q * 100)} of {len(lat)} samples has {beyond} beyond it; "
                    f"{MIN_BEYOND} are needed for a trustworthy tail"
                )
            for name, value in (("p50_ms", p50 * 1e3), ("tail_ms", tail * 1e3)):
                both[name] = both.get(name, ()) + (value,)
        n = len(res["latencies"])
        probe_s = statistics.median(d for p in runs if p.get("latencies") for _, d in p["probes"])
        print(f"# host speed: median probe {probe_s * 1e3:.4f} ms, "
              f"scale {hostspeed.REFERENCE_PROBE_S / probe_s:.4f} (see hostspeed.py)")
        values = [
            ("setup_s", "s", f"median of {len(measured)} process starts"),
            ("items_per_s", "1/s", ""),
            ("p50_ms", "ms", f"n={n} {res['unit_items']}"),
            ("tail_ms", "ms", f"p{round(q * 100)}, n={n}, {beyond} beyond"),
        ]
        metrics = {}
        for name, unit, note in values:
            value, raw = both[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"{workload:<11} {name:<14} {value:>14.6g} {unit:<4} raw {raw:<12.6g} {note}")
        rss = max(p["peak_rss_kb"] for p in measured) / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        print(f"{workload:<11} {'peak_rss_mb':<14} {rss:>14.6g} MB   max over measured processes")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".e2ebench_tmp"
    tmp = scratch / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(tmp)
        numpy_version = runner.python("-c", "import numpy, repro.service, repro.scenarios; print(numpy.__version__)").strip()
        calib = calib_ms()
        host = {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "calib_ms": round(calib, 3),
        }
        print(f"# host {json.dumps(host)}")
        print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
        res = RUNNERS[args.workload](runner, args.seed, args.seconds, bool(args.trace))
        result = report(args.workload, res, bool(args.trace), calib)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

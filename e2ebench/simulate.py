"""simulate: a fixed list of research traffic experiments, one public call each.

Saturation sweeps over every scenario (one schedule per call with
``engine="fast"``, the load points as lanes with ``engine="batched"``),
Section 7 wormhole runs through ``FastWormhole`` and
``BatchedWormhole.run_many``, and fault campaigns with link kills and
IDA.  Outputs are compared, after timing, with the reference engines on
the same schedules.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.hypercube.graph import Hypercube
from repro.obs.recorder import LinkRecorder
from repro.routing.batched import BatchedWormhole
from repro.routing.fast_wormhole import FastWormhole
from repro.routing.permutation import dimension_order_path
from repro.routing.wormhole import WormholeSimulator
from repro.scenarios import CampaignConfig, run_campaign, saturation_sweep, scenario_names

from hostspeed import HostProbe
from tracing import Tracer, maybe_span


SWEEP_NS = (6, 7, 8)
SWEEP_LOADS = (0.2, 0.5, 0.9)
SWEEP_HORIZON = 16
WORM_NS = (8, 9, 10)
WORM_FLITS = (8, 16)
WORM_LANES = 6
CAMPAIGNS = (
    (6, "permutation", 2), (6, "permutation", 4), (6, "transpose", 2), (6, "transpose", 4),
    (6, "hot-spot", 2), (6, "hot-spot", 4), (6, "tornado", 2), (6, "tornado", 4),
    (7, "permutation", 3), (7, "transpose", 3),
)


def _worm_schedule(n: int, flits: int, lane: int, seed: int) -> List[Tuple[Tuple[int, ...], int, int]]:
    """Section 7 bit-serial traffic: a random permutation of M-flit worms.

    Routes are e-cube (dimension-order) paths, which cannot deadlock, so
    every job completes.
    """
    rng = random.Random(f"{seed}:worm:{n}:{flits}:{lane}")
    perm = list(range(1 << n))
    rng.shuffle(perm)
    return [
        (tuple(dimension_order_path(n, u, v)), flits, 1 + rng.randrange(4))
        for u, v in enumerate(perm)
        if u != v
    ]


def _worm_outcome(makespan: int, done: List[int], rec: LinkRecorder) -> Dict[str, Any]:
    return {
        "makespan": makespan,
        "delivered": sum(1 for d in done if d >= 0),
        "injected": len(done),
        "done_steps": done,
        "congestion": rec.congestion,
        "links": sorted(rec.link_transmissions.items()),
    }


def _run_worms(engine: Any, host: Hypercube, sched: List[Any]) -> Dict[str, Any]:
    sim = engine(host)
    rec = LinkRecorder(host)
    for path, flits, release in sched:
        sim.inject(path, flits, release)
    makespan = sim.run(recorder=rec)
    done = [-1 if w.done_step is None else int(w.done_step) for w in sim.worms]
    return _worm_outcome(int(makespan), done, rec)


def _run_worm_lanes(host: Hypercube, lanes: List[Any]) -> List[Dict[str, Any]]:
    recs = [LinkRecorder(host) for _ in lanes]
    outs = BatchedWormhole(host).run_many(lanes, recorders=recs)
    return [
        _worm_outcome(
            int(o.makespan or 0),
            [-1 if w.done_step is None else int(w.done_step) for w in o.worms],
            r,
        )
        for o, r in zip(outs, recs)
    ]


def _campaign_dict(report: Any) -> Dict[str, Any]:
    doc = report.to_dict()
    doc.pop("engine")
    return doc


class Job(NamedTuple):
    call: Callable[[], Any]  # the timed public call
    reference: Callable[[], Any]  # the same question to the reference engines
    ref_key: str  # jobs asking the same question share one reference run
    flit_hops: int  # wormhole work, known from the schedule; 0 = count it


def sim_jobs(seed: int) -> List[Job]:
    """The fixed simulate list; the seed picks traffic, never the job mix."""
    jobs: List[Job] = []
    for n in SWEEP_NS:
        for sc in scenario_names():
            def sweep(engine: str, sc: str = sc, n: int = n) -> Any:
                return saturation_sweep(sc, n, SWEEP_LOADS, horizon=SWEEP_HORIZON, seed=seed, engine=engine)
            for engine in ("fast", "batched"):
                jobs.append(Job(functools.partial(sweep, engine), functools.partial(sweep, "reference"), f"sweep:{sc}:q{n}", 0))
    for n in WORM_NS:
        host = Hypercube(n)
        for flits in WORM_FLITS:
            lanes = [_worm_schedule(n, flits, lane, seed) for lane in range(WORM_LANES)]
            hops = [sum(f * (len(p) - 1) for p, f, _ in lane) for lane in lanes]
            for i, sched in enumerate(lanes):
                jobs.append(Job(
                    functools.partial(_run_worms, FastWormhole, host, sched),
                    functools.partial(_run_worms, WormholeSimulator, host, sched),
                    f"worm:q{n}:m{flits}:{i}",
                    hops[i],
                ))
            jobs.append(Job(
                functools.partial(_run_worm_lanes, host, lanes),
                functools.partial(lambda h, ls: [_run_worms(WormholeSimulator, h, s) for s in ls], host, lanes),
                f"worm:q{n}:m{flits}:lanes",
                sum(hops),
            ))
    for n, sc, kills in CAMPAIGNS:
        def campaign(engine: str, n: int = n, sc: str = sc, kills: int = kills) -> Any:
            return _campaign_dict(run_campaign(CampaignConfig(
                n=n, scenario=sc, load=1.0, horizon=8, kill_links=kills,
                seed=f"{seed}:{sc}:{kills}", engine=engine,
            )))
        for engine in ("fast", "batched"):
            jobs.append(Job(
                functools.partial(campaign, engine), functools.partial(campaign, "reference"),
                f"campaign:{sc}:q{n}:k{kills}", 0,
            ))
    return jobs


def digest(output: Any) -> str:
    return hashlib.sha256(json.dumps(output, sort_keys=True, default=str).encode()).hexdigest()


def sim_reference(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Untimed: reference-engine digests and packet-hops of every job.

    The reference engines are ``StoreForwardSimulator(tie_break="priority")``
    and ``WormholeSimulator``.  Store-and-forward hops are counted on the
    schedules the reference engine receives, which are the schedules the
    timed engines receive; wormhole jobs count flit-hops.
    """
    from repro.routing.simulator import StoreForwardSimulator

    hops = [0]
    original = StoreForwardSimulator.run

    def counting_run(self: Any, schedule: Any = None, *args: Any, **kwargs: Any) -> Any:
        hops[0] += sum(len(item[0]) - 1 for item in schedule)
        return original(self, schedule, *args, **kwargs)

    StoreForwardSimulator.run = counting_run
    memo: Dict[str, Tuple[str, int]] = {}
    try:
        for job in sim_jobs(cfg["seed"]):
            if job.ref_key not in memo:
                hops[0] = 0
                out = digest(job.reference())
                memo[job.ref_key] = (out, job.flit_hops or hops[0])
    finally:
        StoreForwardSimulator.run = original
    jobs = sim_jobs(cfg["seed"])
    return {
        "digests": [memo[job.ref_key][0] for job in jobs],
        "hops": [memo[job.ref_key][1] for job in jobs],
        "attempted": 0,
        "failed": 0,
    }


def sim_pass(cfg: Dict[str, Any], tracer: Optional[Tracer], host: HostProbe) -> Dict[str, Any]:
    """One pass of the job list; digests are compared by the parent.

    A ``probe`` stops once the job inputs are built: a set-up sample only.
    With a tracer, jobs alternate traced and untraced as in build-cold.
    """
    jobs = sim_jobs(cfg["seed"])
    ready = time.monotonic()
    if cfg["probe"]:
        return {"ready": ready, "latencies": [], "starts": [], "digests": [], "attempted": 0, "failed": 0}
    gc.collect()
    latencies: List[float] = []
    starts: List[float] = []
    traced: List[bool] = []
    outputs = []
    for i, job in enumerate(jobs):
        traced.append(tracer is not None and i % 2 == cfg["trace_parity"])
        if tracer is not None:
            tracer.enable(traced[-1])
        call = maybe_span(tracer, "sim.job", job.call) if traced[-1] else job.call
        host.tick()
        start = time.perf_counter()
        try:
            outputs.append(call())
        except Exception:  # a crashed job is a failed operation
            outputs.append(None)
        latencies.append(time.perf_counter() - start)
        starts.append(start)
    if tracer is not None:
        tracer.enable(False)
    corrupt = cfg.get("corrupt", False)
    digests: List[Optional[str]] = []
    for out in outputs:
        if out is not None and corrupt:
            out, corrupt = {"corrupted": out}, False
        digests.append(None if out is None else digest(out))
    return {
        "ready": ready,
        "latencies": latencies,
        "starts": starts,
        "traced": traced,
        "digests": digests,
        "attempted": len(jobs),
        "failed": 0,
    }

"""build-cold: from spec to a servable artifact in an empty disk cache.

What a user pays for ``repro cache build`` or a first ``get_embedding``:
construction, verification, CSR export, artifact encoding and the store
write, then ``shard_for`` publishing the fresh store file.  The output
check runs after the timer stops: every verify report passed, and a
sample of served bundles equals :func:`disjoint_paths` on the embedding.
"""

from __future__ import annotations

import gc
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service import (
    EmbeddingRegistry,
    EmbeddingSpec,
    RouteRequest,
    RoutingService,
    disjoint_paths,
)

from hostspeed import HostProbe
from tracing import Tracer, maybe_span



def build_specs() -> List[EmbeddingSpec]:
    """The fixed build-cold list: every valid small spec of all six kinds.

    The order never changes, so the in-process construction caches
    (Hamiltonian decompositions, torus and Gray-code tables) fill the same
    way in every pass.  The largest item costs under a second.
    """
    make = EmbeddingSpec.make
    specs = [make("cycle", n=n) for n in range(4, 15)]
    specs += [make("cycle2", n=n, wide=w) for n in range(4, 13) for w in (False, True)]
    specs += [make("large-cycle", n=n) for n in range(2, 13, 2)]
    specs += [make("ccc", n=n) for n in (2, 4, 8)]
    specs += [make("tree", m=m) for m in (2, 4)]
    specs += [make("grid", dims=(a,), torus=False) for a in (2, 4, 8, 16, 32, 64, 128)]
    sides = (2, 3, 4, 5, 6, 8, 12, 16, 24, 32)
    specs += [
        make("grid", dims=(a, b), torus=False)
        for i, a in enumerate(sides)
        for b in sides[i:]
    ]
    cube = (2, 3, 4, 5, 8)
    specs += [
        make("grid", dims=(a, b, c), torus=False)
        for i, a in enumerate(cube)
        for j, b in enumerate(cube[i:], i)
        for c in cube[j:]
    ]
    specs += [make("grid", dims=(a, a), torus=True) for a in (4, 8, 16, 32)]
    specs += [make("grid", dims=(a, a, a), torus=True) for a in (4, 8)]
    return specs


def _bundle_sample(csr: Any, rng: random.Random, count: int) -> List[Tuple[Any, Any]]:
    edges = csr.edges
    out = []
    for _ in range(count):
        u, v = edges[rng.randrange(len(edges))]
        out.append((v, u) if rng.random() < 0.5 else (u, v))
    return out


def build_pass(cfg: Dict[str, Any], tracer: Optional[Tracer], host: HostProbe) -> Dict[str, Any]:
    """One pass of the spec list into a fresh cache dir, then the checks.

    A ``probe`` stops once the service is ready: a set-up sample only.
    With a tracer, only the items whose index has parity
    ``cfg["trace_parity"]`` are traced; the next pass traces the others,
    so each pair of passes gives every item once traced and once not.
    The registry's own stage timers are read around each traced item for
    the cross-check.
    """
    specs = build_specs()
    svc = RoutingService(registry=EmbeddingRegistry(cache_dir=cfg["cache_dir"]))
    ready = time.monotonic()
    if cfg["probe"]:
        return {"ready": ready, "latencies": [], "starts": [], "attempted": 0, "failed": 0}
    gc.collect()

    def build(spec: EmbeddingSpec) -> Tuple[Any, Any]:
        return svc.get_embedding(spec), svc.shard_for(spec)

    traced_build = maybe_span(tracer, "build.item", build)
    latencies: List[float] = []
    starts: List[float] = []
    traced: List[bool] = []
    results: List[Any] = []
    registry_timers: Dict[str, float] = {}
    for i, spec in enumerate(specs):
        traced.append(tracer is not None and i % 2 == cfg["trace_parity"])
        if tracer is not None:
            tracer.enable(traced[-1])
            before = svc.stats()["timers"]
        host.tick()
        start = time.perf_counter()
        try:
            emb, shard = (traced_build if traced[-1] else build)(spec)
        except Exception:  # a failed build is a failed operation
            emb, shard = None, None
        latencies.append(time.perf_counter() - start)
        starts.append(start)
        results.append((emb, shard))
        if traced[-1]:
            for stage, timer in svc.stats()["timers"].items():
                spent = timer["total_s"] - before.get(stage, {}).get("total_s", 0.0)
                registry_timers[stage] = registry_timers.get(stage, 0.0) + spent
    if tracer is not None:
        tracer.enable(False)

    # -- checks, untimed ---------------------------------------------------
    stats = svc.stats()
    failed = [emb is None for emb, _ in results]
    built = len(specs) - sum(failed)
    counters = stats["counters"]
    if counters.get("builds", 0) != built or counters.get("verify_failures", 0) > sum(failed):
        failed = [True] * len(specs)  # the registry's counters disagree with what it served
    rng = random.Random(f"{cfg['seed']}:build-cold")
    corrupt = cfg.get("corrupt", False)
    for i, (spec, (emb, shard)) in enumerate(zip(specs, results)):
        if failed[i]:
            continue
        sample = _bundle_sample(shard.csr, rng, 4)
        served = [r.paths for r in svc.route_batch(spec, [RouteRequest(e) for e in sample])]
        if corrupt:
            served[0], corrupt = ((-1,),), False
        failed[i] = served != [disjoint_paths(emb, e) for e in sample]
    svc.close()
    return {
        "artifact_bytes": sum(p.stat().st_size for p in Path(cfg["cache_dir"]).rglob("*.rpstore")),
        "ready": ready,
        "latencies": latencies,
        "starts": starts,
        "failed": sum(failed),
        "attempted": len(specs),
        "traced": traced,
        "registry_timers": registry_timers,
    }

"""serve-warm: a closed loop of ``route_batch`` calls against a warm Q_16 store.

What a client pays once the cache is warm.  An untimed preparation step
builds the store and records the expected answer of every batch from
:func:`disjoint_paths`; serving processes then start from the store file,
answer a first batch (the end of set-up) and, for the loop process, run
pre-built batches back to back.  Every answer is checked against its
recorded CRCs after its timer stops.
"""

from __future__ import annotations

import gc
import math
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.service import (
    EmbeddingRegistry,
    EmbeddingSpec,
    RouteRequest,
    RoutingService,
    disjoint_paths,
)

from hostspeed import HostProbe
from tracing import Tracer, maybe_span


SERVE_N = 16
POOL_SIZE = 1 << 16  # pre-built requests; batches are slices of the pool
NUM_BATCHES = 1024
MAX_BATCH = 4096
FIRST_BATCH = 256  # the batch that ends a serving process's set-up


def serve_spec() -> EmbeddingSpec:
    return EmbeddingSpec.make("cycle", n=SERVE_N)


def _answer_digest(nodes: np.ndarray, path_lengths: np.ndarray, widths: np.ndarray) -> Tuple[int, int, int]:
    return (
        zlib.crc32(np.ascontiguousarray(nodes, dtype="<i8").tobytes()),
        zlib.crc32(np.ascontiguousarray(path_lengths, dtype="<i8").tobytes()),
        zlib.crc32(np.ascontiguousarray(widths, dtype="<i8").tobytes()),
    )


def batch_digest(res: Any) -> Tuple[int, int, int]:
    """CRCs of a :class:`BatchRouteResult`'s nodes, path lengths and widths."""
    return _answer_digest(res.nodes, np.diff(res.path_offsets), np.diff(res.request_offsets))


def serve_prepare(cfg: Dict[str, Any]) -> Dict[str, Any]:
    """Untimed: build the Q_16 store, draw the seeded load, record the answers.

    Expected answers come from :func:`disjoint_paths` on the built
    embedding, never from the CSR serving path under test.
    """
    svc = RoutingService(registry=EmbeddingRegistry(cache_dir=cfg["cache_dir"]))
    emb = svc.get_embedding(serve_spec())
    svc.close()
    edges = list(emb.edge_paths)
    gen = np.random.default_rng(cfg["seed"])
    pick = gen.integers(len(edges), size=POOL_SIZE)
    flip = gen.random(POOL_SIZE) < 0.5
    u = np.array([edges[i][1] if f else edges[i][0] for i, f in zip(pick, flip)], dtype=np.int64)
    v = np.array([edges[i][0] if f else edges[i][1] for i, f in zip(pick, flip)], dtype=np.int64)
    # stratified log-uniform sizes on 1..MAX_BATCH: one draw per stratum
    # keeps every percentile on the same part of the size curve per seed
    strata = (np.arange(NUM_BATCHES) + gen.random(NUM_BATCHES)) / NUM_BATCHES
    sizes = np.minimum(np.exp(strata * math.log(MAX_BATCH + 1)).astype(np.int64), MAX_BATCH)
    sizes = np.maximum(sizes, 1)[gen.permutation(NUM_BATCHES)]
    starts = gen.integers(0, POOL_SIZE - sizes + 1)

    answers = [disjoint_paths(emb, (a, b)) for a, b in zip(u.tolist(), v.tolist())]
    widths = np.array([len(paths) for paths in answers], dtype=np.int64)
    lengths = np.array([len(p) for paths in answers for p in paths], dtype=np.int64)
    nodes = np.fromiter((x for paths in answers for p in paths for x in p), dtype=np.int64, count=int(lengths.sum()))
    path_at = np.concatenate(([0], np.cumsum(widths)))  # request -> its first path
    node_at = np.concatenate(([0], np.cumsum(lengths)))  # path -> its first node

    def expected(lo: int, hi: int) -> Tuple[int, int, int]:
        p0, p1 = path_at[lo], path_at[hi]
        return _answer_digest(nodes[node_at[p0] : node_at[p1]], lengths[p0:p1], widths[lo:hi])

    crc = np.array([expected(s, s + n) for s, n in zip(starts.tolist(), sizes.tolist())], dtype=np.int64)
    first = np.array(expected(0, FIRST_BATCH), dtype=np.int64)
    np.savez(cfg["load_file"], u=u, v=v, starts=starts, sizes=sizes, crc=crc, first=first)
    return {"attempted": 0, "failed": 0}


def _requests(load: Any, lo: int, hi: int) -> List[RouteRequest]:
    return [RouteRequest((a, b)) for a, b in zip(load["u"][lo:hi].tolist(), load["v"][lo:hi].tolist())]


def serve_process(cfg: Dict[str, Any], tracer: Optional[Tracer], import_s: float, host: HostProbe) -> Dict[str, Any]:
    """A serving process: set-up up to the first answered batch, then the loop.

    ``cfg["seconds"] == 0`` makes a set-up probe that exits after the
    first batch.  The loop is single-threaded and closed: the next
    ``route_batch`` starts when the previous one returned.  With a tracer,
    whole cycles over the batch list alternate untraced and traced, so the
    two sides do identical work and their ratio is the tracing overhead.
    """
    load = np.load(cfg["load_file"])
    first = _requests(load, 0, FIRST_BATCH)
    spec = serve_spec()
    if tracer is not None:
        tracer.enable(True)
    start = time.perf_counter()
    svc = RoutingService(registry=EmbeddingRegistry(cache_dir=cfg["cache_dir"]))
    res = svc.route_batch(spec, first)
    first_s = time.perf_counter() - start
    ready = time.monotonic()
    if tracer is not None:
        tracer.enable(False)
    out: Dict[str, Any] = {
        "ready": ready,
        "import_s": import_s,
        "first_batch_s": first_s,
        "attempted": 1,
        "failed": int(batch_digest(res) != tuple(load["first"].tolist())),
        "latencies": [],
        "starts": [],
        "requests": 0,
    }
    if cfg["seconds"] <= 0:
        svc.close()
        return out

    pool = _requests(load, 0, POOL_SIZE)
    batches = [pool[s : s + n] for s, n in zip(load["starts"].tolist(), load["sizes"].tolist())]
    expected = [tuple(row) for row in load["crc"].tolist()]
    csr = svc.shard_for(spec).csr
    for name in ("nodes", "path_offsets", "bundle_offsets", "path_reversed"):
        np.asarray(getattr(csr, name)).sum()  # fault in every mapped page
    gc.collect()
    gc.freeze()  # the request pool is load-generator state, not server state
    for batch in batches[:64]:
        svc.route_batch(spec, batch)

    corrupt = cfg.get("corrupt", False)
    latencies: List[float] = []
    starts: List[float] = []
    attempted = failed = requests = 0
    cycles = {False: [0.0, 0], True: [0.0, 0]}  # traced? -> [seconds, cycles]
    traced = False
    while True:
        if tracer is not None:
            tracer.enable(traced)
        call = maybe_span(tracer if traced else None, "serve.call", svc.route_batch)
        for batch, want in zip(batches, expected):
            host.tick()
            t0 = time.perf_counter()
            res = call(spec, batch)
            dt = time.perf_counter() - t0
            cycles[traced][0] += dt
            got = batch_digest(res)
            if corrupt:
                got, corrupt = (got[0] ^ 1,) + got[1:], False
            attempted += 1
            failed += got != want
            requests += len(batch)
            if not traced:
                latencies.append(dt)
                starts.append(t0)
            if tracer is None and cycles[False][0] >= cfg["seconds"]:
                break
        cycles[traced][1] += 1
        if tracer is None:
            if cycles[False][0] >= cfg["seconds"]:
                break
            continue
        tracer.enable(False)
        traced = not traced
        enough = cycles[False][0] + cycles[True][0] >= cfg["seconds"]
        if enough and not traced and min(cycles[False][1], cycles[True][1]) >= 2:
            break
    svc.close()
    out.update(
        latencies=latencies,
        starts=starts,
        attempted=1 + attempted,
        failed=out["failed"] + failed,
        requests=requests,
        cycle_s={"untraced": cycles[False][0] / max(1, cycles[False][1]),
                 "traced": cycles[True][0] / max(1, cycles[True][1])},
    )
    return out

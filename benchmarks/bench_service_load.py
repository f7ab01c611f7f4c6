"""Service load: batched CSR routing vs per-call, plus open-loop serving.

Not a paper experiment — this bench anchors the batch-serving redesign:
one ``route_batch()`` over a memmapped CSR shard must sustain at
least **10x** the per-call ``route()`` request rate at batch >= 1024 on
the Q_12 multipath cycle, while staying *field-identical* to the
per-call answers.  The second half drives the batching front-end with
open-loop Poisson arrivals and reports sustained req/s and latency
percentiles.  Results are recorded in EXPERIMENTS.md (S5); the speedup
ratio is gated over time by the ``service:route-batch:q12`` trajectory
workload in ``BENCH_perf.json``.
"""

import tempfile
import time

from conftest import print_table

from repro._compat import resolve_rng
from repro.service import (
    EmbeddingRegistry,
    EmbeddingSpec,
    RouteRequest,
    RoutingService,
    open_loop_load,
)

SPEC = EmbeddingSpec.make("cycle", n=12)


def _request_batch(service, spec, count, seed=0):
    edges = service.shard_for(spec).csr.edges
    stream = resolve_rng(seed)
    batch = []
    for _ in range(count):
        u, v = edges[stream.randrange(len(edges))]
        batch.append(RouteRequest((v, u) if stream.random() < 0.5 else (u, v)))
    return batch


def test_route_batch_10x_over_per_call():
    with tempfile.TemporaryDirectory() as cache:
        service = RoutingService(registry=EmbeddingRegistry(cache_dir=cache))
        try:
            batch = _request_batch(service, SPEC, 4096)
            service.route_batch(SPEC, batch[:1])  # warm the resolve path

            t0 = time.perf_counter()
            result = service.route_batch(SPEC, batch)
            batch_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            singles = [service.route(SPEC, r) for r in batch]
            per_call_s = time.perf_counter() - t0

            # field identity: every request's paths, node for node
            assert all(
                resp.paths == result.paths(i)
                for i, resp in enumerate(singles)
            )

            n = len(batch)
            batch_rate = n / batch_s
            per_call_rate = n / per_call_s
            print_table(
                f"service: {n} routing requests on Q_12 multipath cycle",
                [
                    ("per-call route()", f"{per_call_s * 1e3:.1f}",
                     f"{per_call_rate:,.0f}", "1.0x"),
                    ("one route_batch()", f"{batch_s * 1e3:.1f}",
                     f"{batch_rate:,.0f}",
                     f"{batch_rate / per_call_rate:.1f}x"),
                ],
                ["mode", "time (ms)", "req/s", "speedup"],
            )
            # the acceptance bar for the batch-serving redesign
            assert batch_rate >= 10 * per_call_rate, (
                f"batch {batch_rate:,.0f} req/s not 10x over "
                f"per-call {per_call_rate:,.0f} req/s"
            )
        finally:
            service.close()


def test_open_loop_sustained_rate():
    with tempfile.TemporaryDirectory() as cache:
        service = RoutingService(registry=EmbeddingRegistry(cache_dir=cache))
        try:
            rows = []
            for rate in (5_000, 20_000):
                report = open_loop_load(
                    service, SPEC, rate=rate, total=min(2 * rate, 20_000),
                    seed=0, max_batch=1024, max_wait_s=0.002,
                )
                assert report.errors == 0, f"{report.errors} routing errors"
                assert report.completed == report.offered
                rows.append(
                    (f"{rate:,}", f"{report.sustained_rps:,.0f}",
                     f"{report.p50_ms:.2f}", f"{report.p99_ms:.2f}",
                     f"{report.mean_batch:.0f}")
                )
            print_table(
                "service: open-loop Poisson load on Q_12 multipath cycle",
                rows,
                ["offered req/s", "sustained req/s", "p50 (ms)", "p99 (ms)",
                 "mean batch"],
            )
        finally:
            service.close()

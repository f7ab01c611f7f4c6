"""repro.service — cached embedding registry + batch routing engine.

The serving layer over :mod:`repro.core` / :mod:`repro.routing` /
:mod:`repro.fault`: constructions are deterministic and dominate runtime,
so the service memoizes them (memory LRU over a checksummed disk tier),
builds cache misses concurrently in worker processes, writes each
embedding's flat CSR path arrays into one checksummed store file, serves
that file memmapped as the embedding's *shard*, and answers routing
requests — batched, plain and fault-tolerant — by numpy gathers against
those shards.

Quickstart::

    from repro.service import EmbeddingSpec, RouteRequest, RoutingService

    svc = RoutingService()
    spec = EmbeddingSpec.make("cycle", n=8)
    emb = svc.get_embedding(spec)            # built once, cached forever
    batch = svc.route_batch(spec, [(0, 1), (2, 1)])   # vectorized resolve
    print(batch[0].paths)                    # w edge-disjoint host paths
    one = svc.route(spec, RouteRequest((0, 1)))       # single-item wrapper
    out = svc.route_fault_tolerant(spec, RouteRequest((0, 1), b"payload"))
    print(svc.stats())

Modules:

* :mod:`repro.service.specs`    — request/response vocabulary + cache keys;
* :mod:`repro.service.registry` — content-addressed cache tiers;
* :mod:`repro.service.store`    — binary memmapped artifact files;
* :mod:`repro.service.engine`   — concurrent batch construction;
* :mod:`repro.service.shards`   — published store-file shards + manager;
* :mod:`repro.service.frontend` — batching ``serve()`` loop + load harness;
* :mod:`repro.service.api`      — the :class:`RoutingService` facade;
* :mod:`repro.service.metrics`  — deprecated shim; metrics now live on
  :class:`repro.obs.MetricsRegistry`, which the whole layer threads through
  registry/engine/facade.
"""

from typing import Any

from repro.service.api import DeliveryOutcome, RoutingService, disjoint_paths
from repro.service.engine import BuildEngine
from repro.service.frontend import BatchingFrontend, LoadReport, open_loop_load, serve
from repro.service.metrics import ServiceMetrics  # lint: deprecated-ok(re-exported shim surface)
from repro.service.registry import (
    EmbeddingRegistry,
    decode_embedding,
    default_cache_dir,
    encode_embedding,
)
from repro.service.shards import ShardManager, ShardView, attach_shard
from repro.service.store import (
    StoreIntegrityError,
    StoreView,
    open_store,
    write_store,
)
from repro.service.specs import (
    CONSTRUCTION_VERSION,
    BatchRouteResult,
    EmbeddingSpec,
    RouteRequest,
    RouteResponse,
    build_spec,
)

__all__ = [
    "BatchRouteResult",
    "BatchingFrontend",
    "BuildEngine",
    "CONSTRUCTION_VERSION",
    "DeliveryOutcome",
    "EmbeddingRegistry",
    "EmbeddingSpec",
    "FaultSet",
    "LoadReport",
    "RouteRequest",
    "RouteResponse",
    "RoutingService",
    "ServiceMetrics",
    "ShardManager",
    "ShardView",
    "StoreIntegrityError",
    "StoreView",
    "attach_shard",
    "build_spec",
    "decode_embedding",
    "default_cache_dir",
    "disjoint_paths",
    "encode_embedding",
    "open_loop_load",
    "open_store",
    "serve",
    "write_store",
]


def __getattr__(name: str) -> Any:
    if name == "FaultSet":
        # the deprecation warning lives in repro.service.api.__getattr__
        from repro.service import api

        return api.FaultSet
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

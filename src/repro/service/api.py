"""`RoutingService` — the request-serving facade over the paper's machinery.

One object answers the service questions:

* :meth:`RoutingService.get_embedding` — a verified construction, memoized
  through the two-tier registry;
* :meth:`RoutingService.route_batch` — **the** routing entry point since
  the batch API redesign: thousands of :class:`RouteRequest`\\ s resolved
  per call by numpy gathers against the CSR shard memmapped from the
  embedding's store file (see :mod:`repro.service.shards`), returned as a
  lazy :class:`BatchRouteResult`;
* :meth:`RoutingService.route` / :meth:`RoutingService.route_fault_tolerant`
  — thin single-item wrappers over the batch path; the latter adds
  IDA-dispersed delivery that fails over to the surviving path subset
  under a :class:`repro.fault.faults.FaultModel`, exactly the Section 1
  application.

The pre-batch positional forms — ``route(spec, (u, v))`` returning a bare
path tuple, ``route_fault_tolerant(spec, (u, v), message, faults=...)``,
and the ``FaultSet`` alias — still work behind
:class:`~repro._compat.ReproDeprecationWarning` shims; CI's ``-W error``
job keeps package code off them.

Everything is observable via :meth:`RoutingService.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from repro._compat import warn_deprecated
from repro.core.embedding import MultiCopyEmbedding, MultiPathEmbedding
from repro.fault.faults import FaultModel
from repro.fault.ida import disperse, reconstruct
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_span
from repro.service.engine import BuildEngine
from repro.service.registry import EmbeddingRegistry
from repro.service.shards import ShardManager, ShardView
from repro.service.specs import (
    BatchRouteResult,
    EmbeddingSpec,
    RouteRequest,
    RouteResponse,
)

__all__ = ["RoutingService", "DeliveryOutcome", "disjoint_paths"]

_DEFAULT_MESSAGE = b"routing multiple paths in hypercubes"


def __getattr__(name: str) -> Any:
    if name == "FaultSet":
        warn_deprecated(
            "repro.service.FaultSet is deprecated; use "
            "repro.fault.faults.FaultModel (it is the same class)"
        )
        return FaultModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class DeliveryOutcome:
    """Result of one fault-tolerant delivery over the disjoint paths."""

    delivered: bool
    message: Optional[bytes]
    width: int
    alive_paths: Tuple[int, ...]  # indices of paths untouched by faults
    failed_paths: Tuple[int, ...]
    pieces_needed: int

    @property
    def overhead(self) -> float:
        """IDA bandwidth overhead ``w/m`` paid for this tolerance level."""
        return self.width / self.pieces_needed if self.pieces_needed else 0.0


def disjoint_paths(emb, guest_edge) -> Tuple[Tuple[int, ...], ...]:
    """The host paths ``emb`` provides for ``guest_edge``.

    Width-w embeddings return their w edge-disjoint paths; classical
    embeddings return their single path; multi-copy embeddings return one
    path per copy (k alternative routes).  A guest edge given against the
    stored orientation resolves to the reversed paths — the hypercube is
    directed, and the reverse of edge-disjoint paths is edge-disjoint.
    Copies of a :class:`MultiCopyEmbedding` are looked up independently:
    a copy that stores only the reverse orientation contributes its
    reversed paths, and a copy that stores neither orientation is skipped
    — the lookup fails only when *no* copy knows the edge.
    """
    u, v = guest_edge
    if isinstance(emb, MultiCopyEmbedding):
        out: List[Tuple[int, ...]] = []
        found = False
        for copy in emb.copies:
            try:
                paths = disjoint_paths(copy, (u, v))
            except KeyError:
                continue
            found = True
            out.extend(paths)
        if not found:
            sample = next(
                (e for copy in emb.copies for e in copy.edge_paths), None
            )
            raise KeyError(
                f"guest edge {guest_edge!r} not in embedding "
                f"(edges look like {sample!r})"
            )
        return tuple(out)
    paths = emb.edge_paths.get((u, v))
    if paths is None:
        reverse = emb.edge_paths.get((v, u))
        if reverse is None:
            sample = next(iter(emb.edge_paths), None)
            raise KeyError(
                f"guest edge {guest_edge!r} not in embedding "
                f"(edges look like {sample!r})"
            )
        if isinstance(emb, MultiPathEmbedding):
            return tuple(tuple(reversed(p)) for p in reverse)
        return (tuple(reversed(reverse)),)
    if isinstance(emb, MultiPathEmbedding):
        return tuple(tuple(p) for p in paths)
    return (tuple(paths),)


class RoutingService:
    """Facade: memoized embeddings + batch routing + fault tolerance."""

    def __init__(
        self,
        registry: Optional[EmbeddingRegistry] = None,
        engine: Optional[BuildEngine] = None,
        metrics: Optional[MetricsRegistry] = None,
        shards: Optional[ShardManager] = None,
    ):
        if metrics is None:
            metrics = registry.metrics if registry is not None else MetricsRegistry()
        self.metrics = metrics
        self.registry = registry if registry is not None else EmbeddingRegistry(
            metrics=metrics
        )
        self.engine = engine if engine is not None else BuildEngine(
            self.registry, metrics=self.metrics
        )
        self.shards = shards if shards is not None else ShardManager(
            metrics=self.metrics
        )

    # -- embeddings ------------------------------------------------------------

    def get_embedding(self, spec: EmbeddingSpec):
        """Verified embedding for ``spec`` (cache-aside through the registry)."""
        with self.metrics.time("get_embedding"):
            return self.registry.get_or_build(spec)

    def warm(self, specs: Iterable[EmbeddingSpec], parallel: bool = True) -> int:
        """Prefetch a batch of specs through the concurrent engine."""
        return self.engine.warm(specs, parallel=parallel)

    def shard_for(self, spec: EmbeddingSpec) -> ShardView:
        """The (published-on-first-use) CSR shard serving ``spec``.

        Every shard is the registry's store file, memmapped: an already
        published shard, else the store artifact on disk (O(ms), no
        embedding object), else :meth:`get_embedding` builds, verifies and
        writes the store and that file is opened.  A store that cannot be
        opened right after it was written raises ``RuntimeError``.
        ``.info.path`` is what worker processes pass to
        :func:`repro.service.store.open_store`.
        """
        key = spec.cache_key()
        existing = self.shards.get(key)
        if existing is not None:
            self.metrics.incr("shard_hits")
            return existing
        self.metrics.incr("shard_misses")
        store = self.registry.get_store(spec)
        if store is None:
            emb = self.get_embedding(spec)
            store = self.registry.get_store(spec)
            if store is None:
                # served from memory or the legacy JSON tier: write the file
                self.registry.put(spec, emb)
                store = self.registry.get_store(spec)
        if store is None:
            raise RuntimeError(
                f"{self.registry.path_for(spec)}: store file could not be "
                "opened right after it was written"
            )
        return self.shards.publish_mapped(key, store)

    # -- routing -------------------------------------------------------------------

    def route_batch(
        self,
        spec: EmbeddingSpec,
        requests: Sequence[Union[RouteRequest, Tuple[Any, Any]]],
    ) -> BatchRouteResult:
        """Resolve a whole batch of requests in one vectorized pass.

        ``requests`` may mix :class:`RouteRequest` objects and bare
        ``(u, v)`` guest edges (a bare edge is just a request with default
        delivery knobs — no deprecation involved).  The answer stays in
        flat CSR arrays; index the returned :class:`BatchRouteResult` to
        materialize per-request paths, which are field-identical to what
        per-call :meth:`route` returns for the same edge.
        """
        reqs = [
            r if isinstance(r, RouteRequest) else RouteRequest(r) for r in requests
        ]
        with profile_span("service.route_batch", kind=spec.kind):
            shard = self.shard_for(spec)
            with self.metrics.time("route_batch"):
                nodes, path_offsets, request_offsets = shard.csr.take(
                    [r.guest_edge for r in reqs]
                )
        self.metrics.histogram("route_batch_size").observe(len(reqs))
        self.metrics.incr("routes", len(reqs))
        return BatchRouteResult(reqs, nodes, path_offsets, request_offsets)

    def route(
        self,
        spec: EmbeddingSpec,
        request: Union[RouteRequest, Tuple[Any, Any]],
    ):
        """Single-request wrapper over :meth:`route_batch`.

        Pass a :class:`RouteRequest` and get a :class:`RouteResponse`.
        The pre-redesign form — a bare guest-edge tuple in, a bare tuple
        of paths out — still works behind a deprecation warning.
        """
        if not isinstance(request, RouteRequest):
            warn_deprecated(
                "route(spec, (u, v)) returning a bare path tuple is "
                "deprecated; pass RouteRequest((u, v)) and read .paths off "
                "the RouteResponse (or use route_batch for many edges)"
            )
            return self.route_batch(spec, [RouteRequest(request)]).paths(0)
        with self.metrics.time("route"):
            return self.route_batch(spec, [request])[0]

    def route_fault_tolerant(
        self,
        spec: EmbeddingSpec,
        request: Union[RouteRequest, Tuple[Any, Any]],
        message: Optional[bytes] = None,
        faults: Optional[FaultModel] = None,
        pieces_needed: Optional[int] = None,
    ) -> DeliveryOutcome:
        """Deliver a message across the disjoint paths despite faults.

        The message is IDA-dispersed into one piece per path; any
        ``pieces_needed`` surviving paths reconstruct it, so delivery
        tolerates ``w - pieces_needed`` failed paths.  The default
        ``pieces_needed=1`` (full dispersal redundancy, overhead ``w``)
        survives up to ``w - 1`` failures — raise it to trade bandwidth
        for tolerance, per the paper's Section 1 trade-off.

        Delivery parameters ride on the :class:`RouteRequest`; the old
        positional/keyword form is shimmed with a deprecation warning.
        """
        if not isinstance(request, RouteRequest):
            warn_deprecated(
                "route_fault_tolerant(spec, (u, v), message, faults=...) is "
                "deprecated; put message/faults/pieces_needed on a "
                "RouteRequest"
            )
            request = RouteRequest(
                request,
                message=message,
                faults=faults,
                pieces_needed=pieces_needed,
            )
        payload = request.message if request.message is not None else _DEFAULT_MESSAGE
        response: RouteResponse = self.route_batch(spec, [request])[0]
        paths = response.paths
        w = len(paths)
        m = 1 if request.pieces_needed is None else request.pieces_needed
        if not 1 <= m <= w:
            raise ValueError(f"pieces_needed must be in [1, {w}], got {m}")
        model = request.faults
        alive = tuple(
            i
            for i, p in enumerate(paths)
            if model is None or model.path_alive(p)
        )
        failed = tuple(i for i in range(w) if i not in alive)
        pieces = disperse(payload, w, m)
        survivors = [pieces[i] for i in alive]
        if len(survivors) >= m:
            recovered = reconstruct(survivors, w, m)
            if recovered != payload:
                raise AssertionError("IDA reconstruction mismatch")
            self.metrics.incr("deliveries")
            return DeliveryOutcome(True, recovered, w, alive, failed, m)
        self.metrics.incr("delivery_failures")
        return DeliveryOutcome(False, None, w, alive, failed, m)

    # -- observability ---------------------------------------------------------

    def stats(self) -> dict:
        """Counters, timers and tier occupancy for this service instance."""
        return self.registry.stats()

    def close(self) -> None:
        """Unpublish the shards (the registry, engine and store files stay)."""
        self.shards.close()

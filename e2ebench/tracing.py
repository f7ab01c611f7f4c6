"""Per-layer tracing from outside the program: wrappers at caller-visible names.

A module that does ``from repro.core.fast_verify import embedding_csr``
calls its own global, so a wrapper must replace *that* name, not the
definition.  Each table row names the module attribute (or ``Class.method``)
its caller really looks up, and :meth:`Tracer.enable` swaps the wrappers
in and out.  A span's self time is its duration minus the time of the
spans it encloses; the benchmark's own root span around each public call
keeps whatever no layer claims, which is the ``unattributed`` share.
Count hooks run after their span closes, and their time is taken out of
the enclosing span, so counting never inflates a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Count = Callable[["Tracer", tuple, dict, Any], None]


def _sf_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any, engine: str) -> None:
    schedules = args[1] if len(args) > 1 else kwargs.get("schedule", kwargs.get("schedules"))
    if engine == "fast_sf":
        schedules, results = [schedules], [result]
    else:
        results = result
    tracer.add(f"routing.packet_hops.{engine}", sum(len(item[0]) - 1 for s in schedules for item in s))
    tracer.add(f"routing.ticks.{engine}", max((r.steps for r in results), default=0))
    tracer.add(f"routing.lanes.{engine}", len(results))


def _fast_worm_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    worms = args[0].worms
    tracer.add("routing.packet_hops.fast_worm", sum(w.num_flits * (len(w.path) - 1) for w in worms))
    tracer.add("routing.ticks.fast_worm", int(result))
    tracer.add("routing.lanes.fast_worm", 1)


def _batched_worm_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    lanes = args[1] if len(args) > 1 else kwargs["schedules"]
    tracer.add(
        "routing.packet_hops.batched_worm",
        sum(flits * (len(path) - 1) for lane in lanes for path, flits, _ in lane),
    )
    tracer.add("routing.ticks.batched_worm", max((int(o.makespan or 0) for o in result), default=0))
    tracer.add("routing.lanes.batched_worm", len(result))


def _route_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.add("serve.calls", 1)
    tracer.add("serve.requests", len(result))
    tracer.add("serve.paths_returned", result.total_paths)
    tracer.add("serve.nodes_returned", int(result.nodes.size))


# (module, attribute or Class.method, span name, count hook)
Target = Tuple[str, str, str, Optional[Count]]

SERVICE_OPEN: List[Target] = [
    ("repro.service.registry", "open_store", "service.store_open", None),
    ("repro.service.shards", "ShardManager.publish_mapped", "service.publish", None),
    ("repro.service.shards", "ShardManager.get_or_publish", "service.publish", None),
]

TARGETS: Dict[str, List[Target]] = {
    "build-cold": SERVICE_OPEN + [
        ("repro.service.registry", "build_spec", "core.construct", None),
        # the registry and the constructions both call emb.verify()
        ("repro.core.embedding", "Embedding.verify", "core.verify", None),
        ("repro.core.embedding", "MultiPathEmbedding.verify", "core.verify", None),
        ("repro.core.embedding", "MultiCopyEmbedding.verify", "core.verify", None),
        ("repro.service.registry", "embedding_csr", "core.csr_export", None),
        ("repro.service.api", "embedding_csr", "core.csr_export", None),
        ("repro.service.registry", "make_artifact", "service.artifact_encode", None),
        ("repro.service.registry", "write_store", "service.store_write", None),
    ],
    "serve-warm": SERVICE_OPEN + [
        ("repro.service.api", "RoutingService.route_batch", "service.route_batch", _route_counts),
        ("repro.core.fast_verify", "PathCSR.resolve", "core.resolve", None),
        ("repro.core.fast_verify", "gather_paths", "hypercube.gather", None),
    ],
    "simulate": [
        ("repro.scenarios.sweeps", "build_schedule", "scenarios.schedule", None),
        ("repro.scenarios.campaign", "build_schedule", "scenarios.schedule", None),
        ("repro.routing.fast_simulator", "FastStoreForward.run", "routing.fast_sf",
         functools.partial(_sf_counts, engine="fast_sf")),
        ("repro.routing.batched", "BatchedStoreForward.run_many", "routing.batched_sf",
         functools.partial(_sf_counts, engine="batched_sf")),
        ("repro.routing.fast_wormhole", "FastWormhole.run", "routing.fast_worm", _fast_worm_counts),
        ("repro.routing.batched", "BatchedWormhole.run_many", "routing.batched_worm", _batched_worm_counts),
        ("repro.scenarios.campaign", "disperse", "fault.ida", None),
        ("repro.scenarios.campaign", "reconstruct", "fault.ida", None),
    ],
}


class Tracer:
    """Span stack plus per-name self time, call counts and named counts."""

    def __init__(self, targets: List[Target]) -> None:
        self.targets = targets
        self.stack: List[List[Any]] = []  # [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.missing: List[str] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    def add(self, name: str, amount: float) -> None:
        self.counts[name] += amount

    def span(self, name: str, fn: Callable[..., Any], count: Optional[Count] = None) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            stack.append([name, start, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                _, _, child = stack.pop()
                self.self_s[name] += duration - child
                self.calls[name] += 1
                self.inclusive[(name, stack[-1][0] if stack else "")] += duration
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                start = time.perf_counter()
                count(self, args, kwargs, result)
                if stack:
                    stack[-1][2] += time.perf_counter() - start
            return result

        return wrapper

    def enable(self, on: bool) -> None:
        """Install (``True``) or remove (``False``) every target's wrapper."""
        if not on:
            for owner, attr, original in reversed(self._installed):
                setattr(owner, attr, original)
            self._installed.clear()
            return
        if self._installed:
            return
        self.missing = []
        for module, path, name, count in self.targets:
            owner: Any = importlib.import_module(module)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self.span(name, original, count))
            self._installed.append((owner, attr, original))

    def summary(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "inclusive": {f"{k[0]}<{k[1]}": v for k, v in self.inclusive.items()},
            "counts": dict(self.counts),
            "missing": self.missing,
        }


def maybe_span(tracer: Optional[Tracer], name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """``fn`` inside a root span called ``name`` when tracing, else ``fn``."""
    return fn if tracer is None else tracer.span(name, fn)

"""Generic embeddings for arbitrary guests — the library's entry ramp.

The paper's constructions are specialized; downstream users often just need
*some* verified embedding of their own communication graph to measure
against.  This module provides:

* :func:`shortest_path_embedding` — place guest vertices (greedy or given)
  and route every edge on a dimension-order shortest path;
* :func:`widen_embedding` — lift any single-path embedding to width ``w``
  using the classical edge-disjoint path construction, making the paper's
  throughput/fault machinery (schedules, IDA delivery) available to any
  guest.
"""

from __future__ import annotations

import warnings
from typing import Dict, Hashable, Optional, Tuple

from repro.core.embedding import Embedding, MultiPathEmbedding
from repro.hypercube.graph import Hypercube
from repro.networks.base import GuestGraph
from repro.routing.pathutils import edge_disjoint_paths
from repro.routing.permutation import dimension_order_path

__all__ = ["shortest_path_embedding", "widen_embedding"]


def shortest_path_embedding(
    host: Hypercube,
    guest: GuestGraph,
    placement: Optional[Dict[Hashable, int]] = None,
) -> Embedding:
    """Embed any guest with dimension-order shortest-path routes.

    Without an explicit ``placement``, guest vertices are assigned host
    nodes round-robin in iteration order (load ``ceil(|V|/|W|)``).  When
    that default placement must overload the host (more guest vertices than
    host nodes), a ``UserWarning`` is emitted instead of silently piling
    vertices up; ``emb.verify(strict=False)`` reports the measured load.
    The result is unverified; callers verify.
    """
    overloaded = placement is None and guest.num_vertices > host.num_nodes
    if placement is None:
        placement = {
            v: i % host.num_nodes for i, v in enumerate(guest.vertices())
        }
    if overloaded:
        load = -(-guest.num_vertices // host.num_nodes)
        warnings.warn(
            f"shortest_path_embedding: guest has {guest.num_vertices} "
            f"vertices but Q_{host.n} has only {host.num_nodes} nodes; "
            f"default round-robin placement overloads every host node up "
            f"to load {load} — pass an explicit placement to control it",
            UserWarning,
            stacklevel=2,
        )
    edge_paths: Dict[Tuple, Tuple[int, ...]] = {}
    for (u, v) in guest.edges():
        hu, hv = placement[u], placement[v]
        edge_paths[(u, v)] = tuple(dimension_order_path(host.n, hu, hv))
    return Embedding(
        host, guest, dict(placement), edge_paths, name="shortest-path"
    )


def widen_embedding(emb: Embedding, width: int) -> MultiPathEmbedding:
    """Give every guest edge ``width`` edge-disjoint host paths.

    Paths come from the classical rotation construction between the two
    images (length at most ``distance + 2``); co-located endpoints keep a
    single trivial path.  Requires ``width <= host.n`` and a one-to-one
    ``emb`` is *not* required — only the paths are rebuilt.  The result is
    unverified; callers verify.
    """
    host = emb.host
    if not 1 <= width <= host.n:
        raise ValueError(f"need 1 <= width <= {host.n}, got {width}")
    edge_paths: Dict[Tuple, Tuple[Tuple[int, ...], ...]] = {}
    for (u, v) in emb.guest.edges():
        hu, hv = emb.vertex_map[u], emb.vertex_map[v]
        if hu == hv:
            edge_paths[(u, v)] = ((hu,),)
        else:
            edge_paths[(u, v)] = tuple(
                edge_disjoint_paths(host.n, hu, hv, width)
            )
    from collections import Counter

    load = max(Counter(emb.vertex_map.values()).values())
    return MultiPathEmbedding(
        host,
        emb.guest,
        dict(emb.vertex_map),
        edge_paths,
        name=f"widened-{emb.name or 'embedding'}",
        load_allowed=load,
    )

"""The index-domain lattice and seed tables for the dataflow rules.

The paper's constructions juggle half a dozen integer *domains* that
python's type system cannot tell apart: vertex ids in ``Q_n``, directed
link ids ``head * n + dim``, lane-major link ids ``lane * L + link``
(``routing/batched.py``), packed edge keys ``u * base + v``
(``core/fast_verify.py``), CSR offsets, byte offsets into mapped stores
(``service/store.py``), and flit positions.  Mixing them is silent until
a differential fuzzer trips over the corruption.  This module names the
domains, declares which repo APIs produce and consume which domain (the
*seed tables*), and records each domain's worst-case extent at the
scaling point the repo benchmarks against (``Q_20``, batch ``B = 4096``)
so the dtype rule can prove an ``int32`` too small before anything runs.

:mod:`repro.lint.flow` interprets functions over these tables;
``rules_domain`` (R7) and ``rules_dtype`` (R8) turn the resulting
observations into findings.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.hypercube.pathcode import CSR_OFFSET_DTYPE

__all__ = [
    "NODE", "DIM", "LINK", "LANE_LINK", "PACKED_EDGE", "CSR_OFFSET",
    "BYTE_OFFSET", "FLIT_POS", "INT",
    "NODE_COUNT", "LINK_COUNT", "DIM_COUNT", "VERTEX_BASE",
    "NAMED", "SCALES", "ATTR_INFO", "HEADER_FIELDS",
    "PACK", "SCALE_PRODUCT", "MOD_UNPACK", "DIV_UNPACK", "INDEX_OF",
    "EXTENT", "fits", "add_domains", "sub_domains",
    "FUNC_SIGS", "METHOD_SIGS", "Sig",
]

# -- value domains -------------------------------------------------------------

NODE = "NodeId"  # vertex id in Q_n: 0 .. 2^n - 1
DIM = "DimId"  # hypercube dimension: 0 .. n - 1
LINK = "LinkId"  # directed link id: head * n + dim
LANE_LINK = "LaneLinkId"  # lane-major link id: lane * L + link
PACKED_EDGE = "PackedEdgeKey"  # u * base + v lookup key
CSR_OFFSET = "CsrOffset"  # index into a CSR nodes vector
BYTE_OFFSET = "ByteOffset"  # byte position in a mapped store segment
FLIT_POS = "FlitPos"  # flit index within one worm
INT = "int"  # plain / unknown integer — compatible with everything

# -- scale domains (multipliers and counts, not ids) ---------------------------

NODE_COUNT = "NodeCount"  # .num_nodes
LINK_COUNT = "LinkCount"  # .num_edges — the lane stride
DIM_COUNT = "DimCount"  # .n — the link-id stride
VERTEX_BASE = "VertexBase"  # .base — the packed-edge stride

#: domains that carry meaning — INT is the anonymous bottom element
NAMED: FrozenSet[str] = frozenset(
    {
        NODE, DIM, LINK, LANE_LINK, PACKED_EDGE, CSR_OFFSET, BYTE_OFFSET,
        FLIT_POS, NODE_COUNT, LINK_COUNT, DIM_COUNT, VERTEX_BASE,
    }
)

#: counts/strides — comparing an id against these is a bounds check, not a bug
SCALES: FrozenSet[str] = frozenset(
    {NODE_COUNT, LINK_COUNT, DIM_COUNT, VERTEX_BASE}
)


# -- seed table: attribute loads ----------------------------------------------
# attr name -> (element domain, index domain of the array's first axis).
# Suffix-free on purpose: these names are the repo-wide vocabulary
# (Hypercube.num_edges, EdgeLookup.base, PathCSR.nodes, ...).

ATTR_INFO: Dict[str, Tuple[str, Optional[str]]] = {
    "num_nodes": (NODE_COUNT, None),
    "num_edges": (LINK_COUNT, None),
    "base": (VERTEX_BASE, None),
    "n": (DIM_COUNT, None),
    "nodes": (NODE, CSR_OFFSET),  # PathCSR.nodes — indexed by CsrOffset
    "path_offsets": (CSR_OFFSET, INT),
    "bundle_offsets": (CSR_OFFSET, INT),
    "keys": (PACKED_EDGE, INT),  # EdgeLookup.keys — sorted pack keys
    "data_start": (BYTE_OFFSET, None),
    "num_flits": (FLIT_POS, None),
}

# -- seed table: mapped-store header fields (string subscripts) ----------------
# header["data_start"], spec["offset"], ... are byte offsets by contract
# (service/store.py is the one writer and reader of that layout).

HEADER_FIELDS: FrozenSet[str] = frozenset(
    {"data_start", "payload", "offset", "blob_offset", "nbytes"}
)

# -- packing algebra -----------------------------------------------------------
# ``x * scale + y`` produces the packed domain of the scale; ``% scale``
# recovers the minor component, ``// scale`` the major one.

PACK: Dict[str, str] = {
    LINK_COUNT: LANE_LINK,  # lane * L + link
    VERTEX_BASE: PACKED_EDGE,  # u * base + v
    NODE_COUNT: PACKED_EDGE,  # u * num_nodes + v (base == num_nodes)
    DIM_COUNT: LINK,  # head * n + dim
}

#: a product of two *counts* is itself a count, not a packed id —
#: ``num_nodes * n`` sizes the directed-link mask, so it is a LinkCount
SCALE_PRODUCT: Dict[Tuple[str, str], str] = {
    (NODE_COUNT, DIM_COUNT): LINK_COUNT,
    (DIM_COUNT, NODE_COUNT): LINK_COUNT,
    (VERTEX_BASE, DIM_COUNT): LINK_COUNT,
    (DIM_COUNT, VERTEX_BASE): LINK_COUNT,
}

MOD_UNPACK: Dict[str, str] = {
    LINK_COUNT: LINK,
    VERTEX_BASE: NODE,
    NODE_COUNT: NODE,
    DIM_COUNT: DIM,
}

DIV_UNPACK: Dict[Tuple[str, str], str] = {
    (LANE_LINK, LINK_COUNT): INT,  # the lane index
    (PACKED_EDGE, VERTEX_BASE): NODE,
    (PACKED_EDGE, NODE_COUNT): NODE,
    (LINK, DIM_COUNT): NODE,  # the head vertex
}

#: count domain -> the domain that indexes an array of that length
INDEX_OF: Dict[str, str] = {
    NODE_COUNT: NODE,
    LINK_COUNT: LINK,
    DIM_COUNT: DIM,
    VERTEX_BASE: NODE,
    LANE_LINK: LANE_LINK,  # np.zeros(B * L) is lane-major-indexed
    PACKED_EDGE: PACKED_EDGE,
}


def add_domains(left: str, right: str) -> str:
    """Domain of ``left + right`` (also used for | ^ & and shifts).

    Adding a plain int shifts within the domain; adding the minor
    component completes a pack; anything else degrades to INT.
    """
    if left == right:
        return left
    if right == INT:
        return left
    if left == INT:
        return right
    completes = {
        (LANE_LINK, LINK): LANE_LINK,
        (PACKED_EDGE, NODE): PACKED_EDGE,
        (LINK, DIM): LINK,
    }
    return completes.get((left, right), completes.get((right, left), INT))


def sub_domains(left: str, right: str) -> str:
    """Domain of ``left - right``: same - same is a delta, named - int shifts."""
    if left == right:
        return INT
    if right == INT:
        return left
    return INT


# -- worst-case extents at the benchmark scaling point -------------------------
# Q_20 (2^20 vertices, 20 dims) with batch B = 4096 lanes; offsets take
# their floor from the declared contract dtypes in hypercube/pathcode.py
# (CSR vectors are int64 by contract, so narrowing one is always a bug).

_Q20_NODES = 1 << 20
_Q20_DIMS = 20
_BATCH = 4096
_CONTRACT_MAX = int(np.iinfo(CSR_OFFSET_DTYPE).max)

EXTENT: Dict[str, int] = {
    NODE: _Q20_NODES - 1,
    DIM: _Q20_DIMS - 1,
    LINK: _Q20_DIMS * _Q20_NODES - 1,  # ~2.1e7 — int32 is fine
    LANE_LINK: _BATCH * _Q20_DIMS * _Q20_NODES - 1,  # ~8.6e10 — needs int64
    PACKED_EDGE: _Q20_NODES * _Q20_NODES + _Q20_NODES,  # ~1.1e12 — int64
    CSR_OFFSET: _CONTRACT_MAX,  # int64 by pathcode contract
    BYTE_OFFSET: _CONTRACT_MAX,  # mapped stores address > 4 GiB
    FLIT_POS: (1 << 20),  # fits int32 — why batched.py's int32 flits are sound
    NODE_COUNT: _Q20_NODES,
    LINK_COUNT: _Q20_DIMS * _Q20_NODES,
    DIM_COUNT: _Q20_DIMS,
    VERTEX_BASE: _Q20_NODES,
}


def fits(domain: str, dtype_name: str) -> bool:
    """True when ``dtype_name`` can hold ``domain``'s worst-case extent.

    Unknown domains or non-integer dtypes never produce a claim.
    """
    extent = EXTENT.get(domain)
    if extent is None:
        return True
    try:
        info = np.iinfo(dtype_name)
    except ValueError:
        return True  # floats etc. — not this rule's business
    return extent <= int(info.max)


# -- seed table: function and method signatures --------------------------------


class Sig:
    """Declared domains for one callable: positional params and returns.

    ``params[i]`` is the domain consumed at position ``i`` (INT means
    unchecked); ``returns`` is a tuple of ``(domain, index_domain)``
    pairs, one per element of the returned tuple (length 1 for a single
    return).  ``None`` returns mean "nothing known".
    """

    __slots__ = ("params", "returns")

    def __init__(
        self,
        params: Tuple[str, ...],
        returns: Optional[Tuple[Tuple[str, Optional[str]], ...]] = None,
    ) -> None:
        self.params = params
        self.returns = returns


#: import-resolved dotted call targets (see engine.resolve_call)
FUNC_SIGS: Dict[str, Sig] = {
    "repro.hypercube.pathcode.flatten_paths": Sig(
        (INT,), ((NODE, CSR_OFFSET), (CSR_OFFSET, INT))
    ),
    "repro.hypercube.pathcode.gather_paths": Sig(
        (NODE, CSR_OFFSET, INT, INT), ((NODE, CSR_OFFSET), (CSR_OFFSET, INT))
    ),
    "repro.hypercube.pathcode.hop_endpoints": Sig(
        (NODE, CSR_OFFSET), ((NODE, INT), (NODE, INT))
    ),
    "repro.hypercube.pathcode.hop_edge_ids": Sig(
        (DIM_COUNT, NODE, CSR_OFFSET),
        ((LINK, INT), (NODE, INT), (NODE, INT)),
    ),
    "repro.hypercube.pathcode.path_edge_matrix": Sig(
        (DIM_COUNT, INT), ((LINK, INT), (INT, INT))
    ),
    "repro.hypercube.pathcode.hop_dimensions": Sig(
        (NODE, NODE, DIM_COUNT), ((DIM, INT),)
    ),
    "repro.core.fast_verify.build_edge_lookup": Sig((NODE,)),
}

#: method calls matched by attribute name on any receiver
METHOD_SIGS: Dict[str, Sig] = {
    "edge_id": Sig((NODE, NODE), ((LINK, None),)),
    "edge_from_id": Sig((LINK,), ((NODE, None), (NODE, None))),
    "dimension_of": Sig((NODE, NODE), ((DIM, None),)),
    "neighbor": Sig((NODE, DIM), ((NODE, None),)),
    "add_link_counts": Sig((LINK, INT)),
    "resolve_packed": Sig((NODE, NODE)),
}

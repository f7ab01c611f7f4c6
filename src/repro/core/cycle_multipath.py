"""Theorems 1 and 2: multiple-path embeddings of cycles in hypercubes.

**Theorem 1** (load 1): the ``2**n``-node directed cycle embeds in ``Q_n``
with width ``floor(n/2)`` and ``floor(n/2)``-packet cost 3.  The
construction partitions ``Q_n = Q_{2k} x Q_{2k+r}`` (``n = 4k + r``), picks
one *special* directed Hamiltonian cycle (Lemma 1) per column — indexed by
the *moment* of the column's position so that block-neighboring columns get
distinct cycles — threads one long cycle ``C`` through all special cycles in
gray-code column order, and widens every edge of ``C`` with length-3 detours
through neighboring columns/rows plus the direct edge.

**Theorem 2** (load 2): the ``2**{n+1}``-node directed cycle embeds in
``Q_n`` by giving *every* row and column a special cycle and taking an
Eulerian circuit of their union; widths/costs per ``n mod 4`` as in the
paper.

A note on width (recorded in EXPERIMENTS.md): indexing ``2k`` edge-disjoint
cycles by moments requires the moment alphabet to have at most ``2k`` values,
i.e. ``2k`` must be a power of two (otherwise a neighborhood-rainbow
labeling with exactly ``2k`` colors does not exist — each color class would
have to be an efficient open dominating set of ``Q_{2k}``, which forces
``2k | 2**{2k}``).  The paper implicitly assumes this (cf. its Section 5
"assume n is a power of 2").  For other ``n`` this module constructs the
widest certified variant: detour width ``a = 2**floor(log2(2k))`` with cost
3 (Theorem 1), or full width with one extra step (Theorem 2's cost-4
variants, which reuse a cycle exactly as the paper does for
``n = 2, 3 (mod 4)``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.embedding import MultiPathEmbedding
from repro.hypercube.graph import Hypercube
from repro.hypercube.graycode import gray
from repro.hypercube.hamiltonian import directed_hamiltonian_decomposition
from repro.hypercube.moments import moment
from repro.networks.cycle import DirectedCycle

__all__ = [
    "embed_cycle_load1",
    "embed_cycle_load2",
    "theorem1_claim",
    "theorem2_claim",
    "theorem2_batched_schedule",
]


def _largest_pow2_at_most(x: int) -> int:
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    return 1 << (x.bit_length() - 1)


def theorem1_claim(n: int) -> Dict[str, int]:
    """Paper claim for Theorem 1: width floor(n/2), cost 3 (load 1)."""
    return {"load": 1, "width": n // 2, "cost": 3}


def theorem2_claim(n: int, prefer_width: bool = False) -> Dict[str, int]:
    """Paper claim for Theorem 2 as a function of ``n mod 4``."""
    half = n // 2
    if n % 4 in (0, 1):
        return {"load": 2, "width": half, "cost": 3}
    if prefer_width:
        return {"load": 2, "width": half, "cost": 4}
    return {"load": 2, "width": half - 1, "cost": 3}


# ---------------------------------------------------------------------------
# Theorem 1
# ---------------------------------------------------------------------------


def embed_cycle_load1(n: int, labeling: str = "moment") -> MultiPathEmbedding:
    """Theorem 1: embed the ``2**n``-node directed cycle in ``Q_n`` (load 1).

    Returns an unverified :class:`MultiPathEmbedding` (callers verify, as
    the registry does once per build) whose ``info`` attribute records the
    construction parameters, achieved width (``a`` detour paths of length 3
    plus the direct edge) and the scheduled cost.

    ``labeling`` selects the special-cycle assignment: ``"moment"`` (the
    paper's, giving edge-disjoint projections and cost 3) or ``"constant"``
    — an *ablation* where every column uses cycle 0, so neighboring columns
    project the *same* cycle and the middle edges pile up (the step schedule
    then fails verification; see bench A2).
    """
    if n < 4:
        raise ValueError(f"Theorem 1 construction needs n >= 4, got {n}")
    if labeling not in ("moment", "constant"):
        raise ValueError(f"unknown labeling {labeling!r}")
    k, r = divmod(n, 4)
    p = 2 * k          # column subcube dimensions (high p bits = in-column address)
    q = 2 * k + r      # column-name bits (low q bits); block = low r bits
    a = _largest_pow2_at_most(2 * k)  # detour width (= 2k when 2k is a power of 2)
    host = Hypercube(n)

    cycles = directed_hamiltonian_decomposition(p)  # 2k cycles over p-bit space
    size_col = 1 << p
    position_of = [
        {node: idx for idx, node in enumerate(cyc)} for cyc in cycles
    ]

    def label(col: int) -> int:
        # moment of the low a position bits; values lie in [0, a)
        if labeling == "constant":
            return 0
        return moment((col >> r) & ((1 << a) - 1))

    # -- thread the long cycle C through the special cycles -------------------
    columns = [gray(i) for i in range(1 << q)]
    nodes: List[int] = []
    row = 0
    for col in columns:
        cyc = cycles[label(col)]
        start = position_of[label(col)][row]
        nodes.extend(((cyc[(start + t) % size_col] << q) | col) for t in range(size_col))
        row = cyc[(start + size_col - 1) % size_col]  # exit at pred(entry)
    if row != 0:
        raise AssertionError(
            "cycle C did not close at row 0 — construction invariant violated"
        )

    # -- widen every edge of C ---------------------------------------------------
    guest = DirectedCycle(1 << n)
    vertex_map = {i: h for i, h in enumerate(nodes)}
    edge_paths: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
    step_of: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
    total = 1 << n
    for i in range(total):
        hu, hv = nodes[i], nodes[(i + 1) % total]
        dim = host.dimension_of(hu, hv)
        if dim >= q:
            detour_dims = [r + j for j in range(a)]       # into neighbor columns
        else:
            detour_dims = [q + j for j in range(a)]       # into neighbor rows
        paths = tuple(
            (hu, hu ^ (1 << d), hv ^ (1 << d), hv) for d in detour_dims
        ) + ((hu, hv),)
        edge_paths[(i, (i + 1) % total)] = paths
        step_of[(i, (i + 1) % total)] = tuple((1, 2, 3) for _ in range(a)) + ((1,),)

    emb = MultiPathEmbedding(
        host,
        guest,
        vertex_map,
        edge_paths,
        name=f"theorem1-Q{n}",
        load_allowed=1,
        step_of=step_of,
    )
    emb.info = {
        "n": n,
        "k": k,
        "r": r,
        "a": a,
        "p": p,
        "q": q,
        "width": a + 1,
        "cost": 3,
        "packets_per_edge": a + 2,  # the direct edge carries a 2nd packet at step 3
        "claim": theorem1_claim(n),
    }
    return emb


# ---------------------------------------------------------------------------
# Theorem 2
# ---------------------------------------------------------------------------


def embed_cycle_load2(
    n: int, prefer_width: bool = False, cycle_shift: int = 0
) -> MultiPathEmbedding:
    """Theorem 2: embed the ``2**{n+1}``-node directed cycle in ``Q_n`` (load 2).

    ``prefer_width`` selects, for ``n = 2, 3 (mod 4)``, the paper's
    width-``floor(n/2)`` cost-4 variant (one cycle is chosen twice) instead
    of the width-``floor(n/2) - 1`` cost-3 variant.

    ``cycle_shift`` rotates the cycle numbering, changing *which* cycle the
    cost-4 variant doubles — the knob behind the paper's batched remark
    ("if ... a different edge-disjoint cycle were used twice in each batch
    then the 2k(2k+1)-packet cost would be 3(2k)+1 and not 4(2k)"); see
    :func:`theorem2_batched_schedule`.

    The result is unverified; callers verify.
    """
    if n < 4:
        raise ValueError(f"Theorem 2 construction needs n >= 4, got {n}")
    k, r4 = divmod(n, 4)
    if r4 == 0:
        p, q, w = 2 * k, 2 * k, 2 * k
    elif r4 == 1:
        p, q, w = 2 * k, 2 * k + 1, 2 * k
    elif r4 == 2:
        p, q, w = (2 * k + 1, 2 * k + 1, 2 * k + 1) if prefer_width else (
            2 * k, 2 * k + 2, 2 * k)
    else:
        p, q, w = (2 * k + 1, 2 * k + 2, 2 * k + 1) if prefer_width else (
            2 * k, 2 * k + 3, 2 * k)
    host = Hypercube(n)
    r_col = q - w  # block bits of the column name

    col_cycles = directed_hamiltonian_decomposition(p)  # over p-bit row space
    row_cycles = directed_hamiltonian_decomposition(q)  # over q-bit column space
    mask = (1 << w) - 1

    def col_cycle_index(col: int) -> int:
        return (moment((col >> r_col) & mask) + cycle_shift) % len(col_cycles)

    def row_cycle_index(rho: int) -> int:
        return (moment(rho & mask) + cycle_shift) % len(row_cycles)

    # successor maps of the two special cycles through every node
    col_succ_of = [_successor_map(c) for c in col_cycles]
    row_succ_of = [_successor_map(c) for c in row_cycles]

    def out_neighbors(h: int) -> Tuple[int, int]:
        x, c = h >> q, h & ((1 << q) - 1)
        col_nxt = (col_succ_of[col_cycle_index(c)][x] << q) | c
        row_nxt = (x << q) | row_succ_of[row_cycle_index(x)][c]
        return col_nxt, row_nxt

    euler = _eulerian_circuit(1 << n, out_neighbors)
    total = 1 << (n + 1)
    if len(euler) != total:
        raise AssertionError(
            f"Eulerian circuit covers {len(euler)}/{total} edges — special "
            "cycle union is not connected"
        )

    guest = DirectedCycle(total)
    vertex_map = {i: h for i, h in enumerate(euler)}
    edge_paths: Dict[Tuple[int, int], Tuple[Tuple[int, ...], ...]] = {}
    for i in range(total):
        hu, hv = euler[i], euler[(i + 1) % total]
        dim = host.dimension_of(hu, hv)
        if dim >= q:
            detour_dims = [r_col + j for j in range(w)]   # column edge
        else:
            detour_dims = [q + j for j in range(w)]       # row edge
        edge_paths[(i, (i + 1) % total)] = tuple(
            (hu, hu ^ (1 << d), hv ^ (1 << d), hv) for d in detour_dims
        )

    # middle-edge congestion decides the cost: 3 when every middle edge is
    # used once, 4 when a reused cycle doubles up some middle edges.
    middle_use: Dict[int, int] = {}
    step_of = {}
    for edge, paths in edge_paths.items():
        steps = []
        for path in paths:
            eid = host.edge_id(path[1], path[2])
            middle_use[eid] = middle_use.get(eid, 0) + 1
            steps.append((1, 1 + middle_use[eid], 0))  # final step fixed below
        step_of[edge] = steps
    mc = max(middle_use.values())
    cost = 2 + mc
    for edge, steps in step_of.items():
        step_of[edge] = tuple((s[0], s[1], cost) for s in steps)

    emb = MultiPathEmbedding(
        host,
        guest,
        vertex_map,
        edge_paths,
        name=f"theorem2-Q{n}",
        load_allowed=2,
        step_of=step_of,
    )
    emb.info = {
        "n": n,
        "p": p,
        "q": q,
        "w": w,
        "width": w,
        "middle_congestion": mc,
        "cost": cost,
        "packets_per_edge": w,
        "claim": theorem2_claim(n, prefer_width),
    }
    return emb


def _successor_map(cycle: List[int]) -> Dict[int, int]:
    return {
        cycle[i]: cycle[(i + 1) % len(cycle)] for i in range(len(cycle))
    }


def _eulerian_circuit(num_nodes: int, out_neighbors) -> List[int]:
    """Hierholzer's algorithm on the 2-out-regular special-cycle union.

    Returns the circuit as a node sequence of length ``2 * num_nodes``
    (one entry per edge; the final edge returns to the first node).
    """
    remaining = {h: list(out_neighbors(h)) for h in range(num_nodes)}
    stack = [0]
    circuit: List[int] = []
    while stack:
        v = stack[-1]
        if remaining[v]:
            stack.append(remaining[v].pop())
        else:
            circuit.append(stack.pop())
    circuit.reverse()
    if circuit[0] != circuit[-1]:
        raise AssertionError("Eulerian walk is not closed")
    return circuit[:-1]


def theorem2_batched_schedule(n: int, batches: int | None = None):
    """The paper's batched remark after Theorem 2, realized and measured.

    "(Note that if each node sent 2k batches of 2k+1 packets and a different
    edge-disjoint cycle were used twice in each batch then the 2k(2k+1)-packet
    cost would be 3(2k)+1 and not 4(2k))."

    We build ``batches`` copies of the width-``2k+1`` embedding, rotating the
    cycle numbering so each batch doubles a *different* cycle, and pipeline
    them at the smallest per-batch offset that passes schedule verification.

    Reproduction note: a straight pipeline cannot reach period 3 — every
    batch's first hops cover *all* detour-class directed links, so the
    4th-step stragglers of one batch always collide with the next batch's
    first hops regardless of which cycle is doubled.  The verifier-backed
    search therefore settles at period 4 (total ``4 * batches``), and the
    remark's ``3(2k) + 1`` appears to need a scheduling refinement the paper
    does not spell out.  Returns the verified
    :class:`repro.routing.schedule.PacketSchedule`.
    """
    from repro.routing.schedule import PacketSchedule, ScheduledPacket

    if n % 4 not in (2, 3):
        raise ValueError("the batched remark concerns n = 2, 3 (mod 4)")
    if batches is None:
        batches = 2 * (n // 4)
    embeddings = [
        embed_cycle_load2(n, prefer_width=True, cycle_shift=b)
        for b in range(batches)
    ]
    host = embeddings[0].host
    packets = []
    offset = 0
    for emb in embeddings:
        for period in (3, 4):
            trial = list(packets)
            for edge, paths in emb.edge_paths.items():
                for path, st in zip(paths, emb.step_of[edge]):
                    trial.append(
                        ScheduledPacket(
                            tuple(path), tuple(s + offset for s in st)
                        )
                    )
            sched = PacketSchedule(host, trial)
            try:
                sched.verify()
                packets = trial
                offset += period
                break
            except AssertionError:
                if period == 4:
                    raise
                offset += 1  # retry this batch one step later
    final = PacketSchedule(host, packets)
    final.verify()
    return final

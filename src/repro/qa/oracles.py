"""Per-construction oracles: the paper's numbers as fuzzing invariants.

``verify()`` certifies well-formedness; the oracles here certify that a
*built* construction achieves the quantities its theorem claims — width,
load, dilation, edge-congestion — at every fuzzed parameter point, not
just the points the hand-written tests pick.  Each oracle registers with
:func:`repro.core.verification.register_oracle` under the fuzz kind
(see :mod:`repro.qa.constructions`) and compares the *measured* metrics
of a non-strict :meth:`verify` report against the claim functions
(``theorem1_claim`` etc.) the constructions themselves export.

One oracle reads nothing off ``verify()``: the dimension-cut referee
(:func:`cut_floor_oracle`) derives a congestion floor from the exported
CSR endpoints alone, so a verifier that under-reports congestion is caught
even when the fast and reference verifiers share the bug.

Importing this module performs the registrations (idempotently); the
fuzzer imports it, so ``repro qa fuzz`` always runs with the paper's
oracles armed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator

import numpy as np

from repro.core.verification import InvariantCheck, register_oracle

__all__ = ["EMBEDDING_KINDS", "claim_check", "cut_floor", "cut_floor_oracle"]


def claim_check(name: str, actual: Any, expected: Any, op: str = "==") -> InvariantCheck:
    """One measured-vs-claimed comparison as an :class:`InvariantCheck`."""
    if op == "==":
        ok = actual == expected
    elif op == "<=":
        ok = actual <= expected
    elif op == ">=":
        ok = actual >= expected
    else:
        raise ValueError(f"unknown op {op!r}")
    return InvariantCheck(
        name, ok, f"measured {actual} {op} claimed {expected}"
    )


def _metrics(subject: Any) -> Dict[str, Any]:
    return subject.verify(strict=False).metrics


@register_oracle("cycle")
def theorem1_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 1: the 2^n-cycle at load 1 with width floor(n/2), cost 3."""
    from repro.core import theorem1_claim

    claim = theorem1_claim(params["n"])
    m = _metrics(emb)
    # the theorem promises floor(n/2); the detour construction often finds
    # more (a+1 paths when 2k is not a power of two) — a guarantee, not equality
    yield claim_check("thm1:width", m["width"], claim["width"], ">=")
    yield claim_check("thm1:load", m["load"], claim["load"])
    # cost 3 comes from length-3 detour paths, so no path may be longer
    yield claim_check("thm1:dilation", m["dilation"], claim["cost"], "<=")


@register_oracle("cycle2")
def theorem2_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 2: the 2^{n+1}-cycle at load 2; width/cost depend on n mod 4."""
    from repro.core import theorem2_claim

    claim = theorem2_claim(params["n"], params.get("wide", False))
    m = _metrics(emb)
    yield claim_check("thm2:width", m["width"], claim["width"])
    yield claim_check("thm2:load", m["load"], claim["load"], "<=")
    yield claim_check("thm2:dilation", m["dilation"], claim["cost"], "<=")


@register_oracle("grid")
def corollary1_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Corollaries 1/2: grids and tori; the builder records its exact claim."""
    import math

    info = emb.info
    m = _metrics(emb)
    yield claim_check("cor1:width", m["width"], info["width"])
    yield claim_check("cor1:load", m["load"], info["load"])
    yield claim_check("cor1:dilation", m["dilation"], info["cost"], "<=")
    # the builder floors axis bits at 2 (a 2-node axis cycle would be
    # degenerate), so sides < 4 pad each axis beyond the side the paper's
    # expansion bound was stated for; loosen the k+1 bound by exactly that
    # documented padding and by nothing else
    claimed_bits = max(1, math.ceil(math.log2(max(2, max(params["dims"])))))
    pad_bits = max(0, info["axis_bits"] - claimed_bits)
    bound = info["claim"]["expansion_upper"] * (1 << (info["k"] * pad_bits))
    yield claim_check("cor1:expansion", m["expansion"], bound, "<=")


@register_oracle("ccc")
def theorem3_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 3: n CCC copies, edge-congestion 2, dilation 1 (even n)."""
    from repro.core import theorem3_claim

    claim = theorem3_claim(params["n"])
    m = _metrics(emb)
    yield claim_check("thm3:copies", m["k"], claim["copies"])
    yield claim_check("thm3:edge-congestion", m["edge_congestion"], claim["edge_congestion"], "<=")
    yield claim_check("thm3:dilation", m["dilation"], claim["dilation"])


@register_oracle("graycode")
def graycode_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """The gray-code baseline is a perfect single-track cycle embedding."""
    m = _metrics(emb)
    yield claim_check("gray:load", m["load"], 1)
    yield claim_check("gray:dilation", m["dilation"], 1)
    yield claim_check("gray:congestion", m["congestion"], 1)


@register_oracle("cycle-multicopy")
def lemma1_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Lemma 1: 2*floor(n/2) edge-disjoint Hamiltonian cycle copies."""
    m = _metrics(emb)
    yield claim_check("lem1:copies", m["k"], 2 * (params["n"] // 2))
    yield claim_check("lem1:dilation", m["dilation"], 1)
    yield claim_check("lem1:edge-congestion", m["edge_congestion"], 1)


@register_oracle("large-cycle")
def corollary3_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Corollary 3 (large copy): dilation-1, congestion-1, balanced load."""
    m = _metrics(emb)
    yield claim_check("cor3:dilation", m["dilation"], 1)
    yield claim_check("cor3:congestion", m["congestion"], 1)
    expected_load = -(-emb.guest.num_vertices // emb.host.num_nodes)
    yield claim_check("cor3:load", m["load"], expected_load)


@register_oracle("tree")
def theorem5_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 5: the X-tree at the builder's recorded constant load.

    The builder records the load it achieved (the theorem only promises
    O(1)); the measured per-edge width can sit below ``info["width"]``
    because that counts X-containers, not edge-disjoint paths per tree
    edge — so width is checked as a floor, not equality.
    """
    info = emb.info
    m = _metrics(emb)
    yield claim_check("thm5:load", m["load"], info["load"])
    yield claim_check("thm5:width", m["width"], 1, ">=")
    # every container path stays within the recursive construction's
    # 2n-step budget
    yield claim_check("thm5:dilation", m["dilation"], 2 * info["n"], "<=")


@register_oracle("butterfly-multicopy")
def theorem4_bf_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 4 (butterflies): m copies at dilation 2, bounded congestion."""
    m = _metrics(emb)
    yield claim_check("thm4bf:copies", m["k"], params["m"])
    yield claim_check("thm4bf:dilation", m["dilation"], 2, "<=")
    # doubling every butterfly edge (undirected) doubles the worst case
    bound = 8 if params.get("undirected") else 4
    yield claim_check("thm4bf:edge-congestion", m["edge_congestion"], bound, "<=")
    yield claim_check("thm4bf:node-load", m["node_load"], params["m"])


@register_oracle("butterfly-multipath")
def theorem6_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 6: width-(n/2) butterfly containers within the cut-dilation cap."""
    info = emb.info
    m = _metrics(emb)
    yield claim_check("thm6:width", m["width"], info["width"])
    yield claim_check("thm6:load", m["load"], 2, "<=")
    yield claim_check(
        "thm6:cut-dilation",
        info["cut_dilation"],
        info["claim"]["cut_dilation_upper"],
        "<=",
    )
    yield claim_check(
        "thm6:dilation", m["dilation"], info["claim"]["cut_dilation_upper"], "<="
    )


@register_oracle("grid-multicopy")
def grid_multicopy_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 4 (grids): a = log2(side) perfect copies per dimension split."""
    import math

    m = _metrics(emb)
    side = max(2, max(params["dims"]))
    yield claim_check("thm4grid:copies", m["k"], int(math.log2(side)))
    yield claim_check("thm4grid:dilation", m["dilation"], 1)
    yield claim_check("thm4grid:edge-congestion", m["edge_congestion"], 1)


@register_oracle("cbt-multicopy")
def cbt_multicopy_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 4 (complete binary trees): m copies, constant congestion."""
    m = _metrics(emb)
    yield claim_check("thm4cbt:copies", m["k"], params["m"])
    yield claim_check("thm4cbt:edge-congestion", m["edge_congestion"], 6, "<=")
    yield claim_check("thm4cbt:dilation", m["dilation"], 2 * params["m"], "<=")


@register_oracle("arbitrary-tree")
def arbitrary_tree_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 5 corollary: any tree routes at load <= 2 through the X-tree."""
    m = _metrics(emb)
    yield claim_check("arb:load", m["load"], 2, "<=")
    if params["vertices"] >= 2:
        yield claim_check("arb:width", m["width"], 1, ">=")


@register_oracle("cross-product")
def cross_product_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Lemma 2: induced product keeps the claimed width within cost c*delta."""
    info = emb.info
    m = _metrics(emb)
    yield claim_check("lem2:width", m["width"], info["claim"]["width"])
    yield claim_check(
        "lem2:congestion", m["congestion"], info["claim"]["cost_upper"], "<="
    )


@register_oracle("ccc-single")
def ccc_single_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Theorem 3 (one copy): load-1 CCC; odd n pays one correction hop."""
    m = _metrics(emb)
    yield claim_check("ccc1:load", m["load"], 1)
    yield claim_check("ccc1:congestion", m["congestion"], 1)
    yield claim_check("ccc1:dilation", m["dilation"], 1 if params["n"] % 2 == 0 else 2)


@register_oracle("large-ccc")
def large_ccc_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Corollary 3 (CCC): an n-times-larger CCC at perfect dilation/congestion."""
    m = _metrics(emb)
    yield claim_check("cor3ccc:load", m["load"], params["n"])
    yield claim_check("cor3ccc:dilation", m["dilation"], 1)
    yield claim_check("cor3ccc:congestion", m["congestion"], 1)


@register_oracle("large-butterfly")
def large_butterfly_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Corollary 3 (butterfly): n-times-larger butterfly, dilation 1."""
    m = _metrics(emb)
    yield claim_check("cor3bf:load", m["load"], params["n"])
    yield claim_check("cor3bf:dilation", m["dilation"], 1)
    yield claim_check("cor3bf:congestion", m["congestion"], 1)


@register_oracle("large-fft")
def large_fft_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Corollary 3 (FFT): the (n+1)-level FFT network costs one extra level."""
    m = _metrics(emb)
    yield claim_check("cor3fft:load", m["load"], params["n"] + 1)
    yield claim_check("cor3fft:dilation", m["dilation"], 1)
    yield claim_check("cor3fft:congestion", m["congestion"], 1)


# -- dimension-cut referee ----------------------------------------------------
#
# A path whose endpoints differ in bit d crosses dimension d in that
# direction at least once, and each dimension has 2^(n-1) directed links
# per direction, so some link carries at least ceil(count / 2^(n-1)) paths
# — the cut argument of arXiv:1807.06787, next to Lemma 3 in core/bounds.py.
# Links are directed, exactly as verify() counts them.

# every fuzzed construction kind that builds an embedding
EMBEDDING_KINDS = (
    "cycle", "cycle2", "grid", "ccc", "tree", "large-cycle", "graycode",
    "cycle-multicopy", "butterfly-multicopy", "butterfly-multipath",
    "grid-multicopy", "cbt-multicopy", "arbitrary-tree", "cross-product",
    "ccc-single", "large-ccc", "large-butterfly", "large-fft",
)


def cut_floor(csr: Any) -> int:
    """Dimension-cut congestion floor of the paths in a ``PathCSR``."""
    offsets = np.asarray(csr.path_offsets, dtype=np.int64)
    if csr.host_n == 0 or offsets.size < 2:
        return 0
    nodes = np.asarray(csr.nodes, dtype=np.int64)
    src = nodes[offsets[:-1]]
    diff = src ^ nodes[offsets[1:] - 1]
    links = 1 << (csr.host_n - 1)
    floor = 0
    for d in range(csr.host_n):
        crosses = ((diff >> d) & 1).astype(bool)
        up = int(np.count_nonzero(crosses & (((src >> d) & 1) == 0)))
        down = int(np.count_nonzero(crosses)) - up
        floor = max(floor, -(-max(up, down) // links))
    return floor


def _floor_check(name: str, reported: int, floor: int) -> InvariantCheck:
    return InvariantCheck(
        name, reported >= floor, f"reported congestion {reported} vs cut floor {floor}"
    )


def cut_floor_oracle(emb: Any, params: Dict[str, Any]) -> Iterator[InvariantCheck]:
    """Reported congestion must reach the dimension-cut floor (per copy)."""
    from repro.core.embedding import MultiCopyEmbedding
    from repro.core.fast_verify import embedding_csr

    if isinstance(emb, MultiCopyEmbedding):
        for i, copy in enumerate(emb.copies):
            report = copy.verify(max_load=emb.copy_load_allowed, strict=False)
            yield _floor_check(
                f"cut-floor:copy{i}",
                report.metrics["congestion"],
                cut_floor(embedding_csr(copy)),
            )
        yield _floor_check(
            "cut-floor:edge-congestion",
            _metrics(emb)["edge_congestion"],
            cut_floor(embedding_csr(emb)),
        )
        return
    yield _floor_check("cut-floor", _metrics(emb)["congestion"], cut_floor(embedding_csr(emb)))


for _kind in EMBEDDING_KINDS:
    register_oracle(_kind)(cut_floor_oracle)


# -- scenario oracles -------------------------------------------------------
#
# Traffic generators have no theorem claim; their oracles certify the
# *pattern* instead: the schedule replays byte-identical from its seed,
# every path is the e-cube path of its endpoints, destinations follow the
# closed form (bit reversal, rotation, offset, sink...), and the injection
# count respects the load knob.  Determinism lives here and not in
# ScenarioSubject.verify() on purpose: the metamorphic stage compares
# verify reports between a base subject and its relabeled image, and an
# image cannot be regenerated from a seed.


def _scenario_common(
    tag: str, subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    from repro.routing.permutation import dimension_order_path
    from repro.scenarios.subject import scenario_subject

    rebuilt = scenario_subject(
        subject.name,
        params["n"],
        load=params["load"],
        horizon=params["horizon"],
        seed=params["scenario_seed"],
    )
    yield claim_check(f"{tag}:deterministic", subject.digest(), rebuilt.digest())
    ecube = all(
        path
        == tuple(dimension_order_path(params["n"], path[0], path[-1]))
        for path, _release in subject.schedule
    )
    yield InvariantCheck(
        f"{tag}:ecube-paths", ecube, "every path is the dimension-order path"
    )
    horizon = params["horizon"]
    yield InvariantCheck(
        f"{tag}:release-window",
        all(1 <= r <= horizon for _, r in subject.schedule),
        f"releases within [1, {horizon}]",
    )
    cap = subject.host.num_nodes * horizon * (int(params["load"]) + 1)
    yield claim_check(f"{tag}:injection-cap", len(subject.schedule), cap, "<=")


def _scenario_pairs(subject: Any) -> Iterator[Any]:
    for path, _release in subject.schedule:
        yield path[0], path[-1]


@register_oracle("scenario:bit-reversal")
def scenario_bit_reversal_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Every packet targets the bit-reversed address of its source."""
    from repro.routing.permutation import bit_reversal_permutation

    yield from _scenario_common("scn:bitrev", subject, params)
    table = bit_reversal_permutation(params["n"])
    yield InvariantCheck(
        "scn:bitrev:pattern",
        all(dst == table[src] for src, dst in _scenario_pairs(subject)),
        "dst == reverse(src) for every packet",
    )


@register_oracle("scenario:transpose")
def scenario_transpose_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Every packet's destination is its source rotated by n//2 bits."""
    yield from _scenario_common("scn:transpose", subject, params)
    n = params["n"]
    rot, mask = n // 2, (1 << n) - 1
    yield InvariantCheck(
        "scn:transpose:pattern",
        all(
            dst == (((src << rot) | (src >> (n - rot))) & mask)
            for src, dst in _scenario_pairs(subject)
        ),
        "dst == rotate(src, n//2) for every packet",
    )


@register_oracle("scenario:shuffle")
def scenario_shuffle_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Every packet's destination is its source rotated left by one bit."""
    yield from _scenario_common("scn:shuffle", subject, params)
    n = params["n"]
    mask = (1 << n) - 1
    yield InvariantCheck(
        "scn:shuffle:pattern",
        all(
            dst == (((src << 1) | (src >> (n - 1))) & mask)
            for src, dst in _scenario_pairs(subject)
        ),
        "dst == rotate-left-1(src) for every packet",
    )


@register_oracle("scenario:tornado")
def scenario_tornado_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Every packet's destination sits at the tornado offset."""
    yield from _scenario_common("scn:tornado", subject, params)
    size = 1 << params["n"]
    offset = size // 2 - 1
    yield InvariantCheck(
        "scn:tornado:pattern",
        all(
            dst == (src + offset) % size
            for src, dst in _scenario_pairs(subject)
        ),
        f"dst == src + {offset} mod {size} for every packet",
    )


@register_oracle("scenario:hot-spot")
def scenario_hot_spot_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """The hot node receives at least half its configured traffic share.

    Statistical, so gated: with hot_fraction 0.25 and >= 256 packets a
    share below 1/8 has probability < e^-20 (Chernoff) — far rarer than a
    real regression; smaller samples skip the check.
    """
    yield from _scenario_common("scn:hotspot", subject, params)
    total = len(subject.schedule)
    if total >= 256:
        hot_share = (
            sum(1 for _src, dst in _scenario_pairs(subject) if dst == 0) / total
        )
        yield claim_check("scn:hotspot:share", hot_share, 0.125, ">=")


@register_oracle("scenario:many-to-one")
def scenario_many_to_one_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Every packet drains into the single sink."""
    yield from _scenario_common("scn:incast", subject, params)
    yield InvariantCheck(
        "scn:incast:pattern",
        all(dst == 0 for _src, dst in _scenario_pairs(subject)),
        "every destination is the sink (node 0)",
    )


@register_oracle("scenario:poisson")
def scenario_poisson_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """Open-loop uniform traffic: only the common structural checks apply."""
    yield from _scenario_common("scn:poisson", subject, params)


@register_oracle("scenario:permutation")
def scenario_permutation_oracle(
    subject: Any, params: Dict[str, Any]
) -> Iterator[InvariantCheck]:
    """One fixed permutation per run: the source->destination map is a
    consistent injective function across the whole schedule."""
    yield from _scenario_common("scn:perm", subject, params)
    mapping: Dict[int, int] = {}
    consistent = True
    for src, dst in _scenario_pairs(subject):
        if mapping.setdefault(src, dst) != dst:
            consistent = False
            break
    injective = len(set(mapping.values())) == len(mapping)
    yield InvariantCheck(
        "scn:perm:function", consistent, "each source keeps one destination"
    )
    yield InvariantCheck(
        "scn:perm:injective", injective, "destinations do not collide"
    )

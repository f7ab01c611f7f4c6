"""Command-line interface: build, verify, cache, route and report.

Usage examples::

    python -m repro --version
    python -m repro figures --n 8
    python -m repro embed cycle --n 8
    python -m repro embed cycle2 --n 10 --wide
    python -m repro embed grid --dims 16x16 --torus
    python -m repro embed ccc --n 4
    python -m repro embed tree --m 2
    python -m repro compare --n 6
    python -m repro broadcast --n 6 --packets 512
    python -m repro faults --n 8 --prob 0.05
    python -m repro scenarios ls                      # traffic generators
    python -m repro scenarios run bit-reversal --n 8 --load 0.5
    python -m repro scenarios campaign --n 8 --kill-links 4
    python -m repro scenarios sweep poisson --n 7 --loads 0.25,0.5,1.0
    python -m repro scenarios smoke --n 6
    python -m repro sweep utilization --n 10
    python -m repro save cycle emb.json --n 8 && python -m repro load emb.json
    python -m repro validate
    python -m repro cache build cycle --ns 6,8,10     # warm the registry
    python -m repro cache ls
    python -m repro cache stats
    python -m repro cache clear
    python -m repro route cycle --n 8 --edge 0 1      # w disjoint host paths
    python -m repro route cycle --n 8 --edge 0 1 --faults 0.05
    python -m repro route cycle --n 12 --batch 4096   # vectorized batch routing
    python -m repro serve cycle --n 12 --rate 50000 --requests 20000
    python -m repro obs report cycle --n 8            # instrumented delivery
    python -m repro obs trace cycle --n 8             # profiled build spans
    python -m repro obs export cycle --n 8 --format json
    python -m repro qa fuzz --seeds 200 --budget 120s # fuzz every construction
    python -m repro qa diff --seeds 50 --n 6          # simulator differential
    python -m repro qa corpus                         # list saved reproducers
    python -m repro qa replay <entry-id>              # re-run one reproducer
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _version() -> str:
    from repro import __version__

    return __version__


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Construction parameters shared by ``cache build`` and ``route``."""
    parser.add_argument(
        "kind", choices=["cycle", "cycle2", "grid", "ccc", "tree", "large-cycle"]
    )
    parser.add_argument("--n", type=int, default=8, help="hypercube dimension")
    parser.add_argument("--m", type=int, default=2, help="butterfly levels (tree)")
    parser.add_argument("--dims", type=str, default="16x16", help="grid sides, AxBxC")
    parser.add_argument("--torus", action="store_true", help="wraparound grid")
    parser.add_argument("--wide", action="store_true", help="Theorem 2 width variant")
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="registry directory (default $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def _spec_from_args(args, n=None):
    from repro.service import EmbeddingSpec

    n = args.n if n is None else n
    if args.kind == "cycle2":
        return EmbeddingSpec.make("cycle2", n=n, wide=args.wide)
    if args.kind == "grid":
        dims = tuple(int(x) for x in args.dims.lower().split("x"))
        return EmbeddingSpec.make("grid", dims=dims, torus=args.torus)
    if args.kind == "tree":
        return EmbeddingSpec.make("tree", m=args.m)
    return EmbeddingSpec.make(args.kind, n=n)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Routing Multiple Paths in Hypercubes (Greenberg & "
        "Bhatt, SPAA 1990) — reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_campaign_args(p) -> None:
        p.add_argument("--n", type=int, default=8, help="hypercube dimension")
        p.add_argument("--load", type=float, default=1.0)
        p.add_argument("--horizon", type=int, default=8)
        p.add_argument("--kill-links", type=int, default=0)
        p.add_argument("--kill-nodes", type=int, default=0)
        p.add_argument(
            "--kill-step", default="0",
            help="step faults activate (0 = from the start, "
            "'auto' = half the fault-free makespan)",
        )
        p.add_argument("--width", type=int, default=None)
        p.add_argument("--pieces", type=int, default=None)
        p.add_argument("--seed", default="0")
        p.add_argument(
            "--engine", choices=["fast", "reference", "batched"],
            default="fast",
        )

    fig = sub.add_parser("figures", help="print the paper's Figures 1-4")
    fig.add_argument("--n", type=int, default=8, help="hypercube dimension")

    emb = sub.add_parser("embed", help="build, verify and report an embedding")
    emb.add_argument(
        "kind", choices=["cycle", "cycle2", "grid", "ccc", "tree", "large-cycle"]
    )
    emb.add_argument("--n", type=int, default=8, help="hypercube dimension")
    emb.add_argument("--m", type=int, default=2, help="butterfly levels (tree)")
    emb.add_argument("--dims", type=str, default="16x16", help="grid sides, AxBxC")
    emb.add_argument("--torus", action="store_true", help="wraparound grid")
    emb.add_argument("--wide", action="store_true", help="Theorem 2 width variant")

    cmp_ = sub.add_parser("compare", help="compare the three embedding styles")
    cmp_.add_argument("--n", type=int, default=6, help="hypercube dimension (even)")

    bc = sub.add_parser("broadcast", help="one-to-all broadcast comparison")
    bc.add_argument("--n", type=int, default=6)
    bc.add_argument("--packets", type=int, default=512)

    flt = sub.add_parser(
        "faults",
        help="fault campaign: single-path vs IDA failover under link kills",
    )
    _add_campaign_args(flt)
    flt.add_argument(
        "--prob", type=float, default=None,
        help="legacy alias: fail each link with this probability "
        "(overrides --kill-links/--kill-nodes)",
    )

    scn = sub.add_parser(
        "scenarios", help="adversarial traffic scenarios and fault campaigns"
    )
    scn_sub = scn.add_subparsers(dest="scenarios_command", required=True)
    scn_sub.add_parser("ls", help="list the registered traffic generators")
    sr = scn_sub.add_parser("run", help="build a scenario and route it")
    sr.add_argument("scenario", help="generator name (see: scenarios ls)")
    sr.add_argument("--n", type=int, default=8)
    sr.add_argument("--load", type=float, default=1.0)
    sr.add_argument("--horizon", type=int, default=8)
    sr.add_argument("--seed", default="0")
    sr.add_argument(
        "--engine", choices=["fast", "reference", "batched"], default="fast"
    )
    sc = scn_sub.add_parser(
        "campaign", help="kill links/nodes, compare with vs without IDA"
    )
    sc.add_argument("scenario", nargs="?", default="permutation")
    _add_campaign_args(sc)
    sc.add_argument("--json", action="store_true", help="emit the full report")
    sw = scn_sub.add_parser(
        "sweep", help="saturation sweep: offered vs accepted load, latency"
    )
    sw.add_argument("scenario")
    sw.add_argument("--n", type=int, default=8)
    sw.add_argument(
        "--loads", type=str, default="0.1,0.25,0.5,0.75,1.0,1.5",
        help="comma-separated offered loads",
    )
    sw.add_argument("--horizon", type=int, default=32)
    sw.add_argument("--seed", default="0")
    sw.add_argument(
        "--engine", choices=["fast", "reference", "batched"], default="fast"
    )
    sm = scn_sub.add_parser(
        "smoke", help="every generator builds and routes on both engines"
    )
    sm.add_argument("--n", type=int, default=6)

    swp = sub.add_parser("sweep", help="run one of the measured series")
    swp.add_argument(
        "series",
        choices=["speedup", "utilization", "faults", "broadcast"],
    )
    swp.add_argument("--n", type=int, default=8)

    sav = sub.add_parser("save", help="build an embedding and write JSON")
    sav.add_argument("kind", choices=["cycle", "cycle2", "grid"])
    sav.add_argument("path", help="output file")
    sav.add_argument("--n", type=int, default=8)
    sav.add_argument("--dims", type=str, default="16x16")
    sav.add_argument("--torus", action="store_true")

    lod = sub.add_parser("load", help="load, re-verify and report a JSON embedding")
    lod.add_argument("path", help="input file")

    sub.add_parser("validate", help="re-certify every theorem claim")

    cache = sub.add_parser("cache", help="manage the embedding registry")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cb = cache_sub.add_parser("build", help="build embeddings into the cache")
    _add_spec_arguments(cb)
    cb.add_argument(
        "--ns", type=str, default=None,
        help="comma-separated sweep of --n values built as one batch",
    )
    cb.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for batch builds (0 = in-process serial)",
    )
    for name, help_text in [
        ("ls", "list cached artifacts"),
        ("clear", "remove every cached artifact (and sweep orphans)"),
        ("stats", "print registry counters, timers and tier occupancy"),
    ]:
        p = cache_sub.add_parser(name, help=help_text)
        p.add_argument("--cache-dir", type=str, default=None)
    cm = cache_sub.add_parser(
        "migrate", help="upgrade legacy JSON artifacts to memmapped store files"
    )
    cm.add_argument("--cache-dir", type=str, default=None)
    cm.add_argument(
        "--verify", action="store_true",
        help="re-hash each freshly written payload after migration",
    )

    rt = sub.add_parser(
        "route", help="serve the disjoint host paths for one guest edge"
    )
    _add_spec_arguments(rt)
    rt.add_argument(
        "--edge", nargs=2, default=None, metavar=("U", "V"),
        help="guest edge endpoints (python literals; default: first edge)",
    )
    rt.add_argument(
        "--faults", type=float, default=None,
        help="inject random link faults with this probability",
    )
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument(
        "--pieces", type=int, default=None,
        help="IDA pieces needed to reconstruct (default 1: max tolerance)",
    )
    rt.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="resolve N randomly drawn guest edges in one route_batch call "
        "and report the sustained request rate",
    )

    srv = sub.add_parser(
        "serve",
        help="open-loop load harness over the batching serve() front-end",
    )
    _add_spec_arguments(srv)
    srv.add_argument(
        "--rate", type=float, default=20000.0,
        help="offered Poisson arrival rate, requests/s (default 20000)",
    )
    srv.add_argument(
        "--requests", type=int, default=10000,
        help="total requests to offer (default 10000)",
    )
    srv.add_argument(
        "--max-batch", type=int, default=1024,
        help="largest micro-batch the front-end coalesces (default 1024)",
    )
    srv.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="batching delay budget in milliseconds (default 2.0)",
    )
    srv.add_argument("--seed", type=int, default=0)

    obs = sub.add_parser(
        "obs", help="instrumented simulation: report, trace, export"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    orep = obs_sub.add_parser(
        "report",
        help="simulate a one-packet-per-path delivery and report link stats",
    )
    otr = obs_sub.add_parser(
        "trace", help="build with profiling enabled and print the span tree"
    )
    oex = obs_sub.add_parser(
        "export", help="run the instrumented delivery and export the snapshot"
    )
    for p in (orep, otr, oex):
        _add_spec_arguments(p)
        p.add_argument(
            "--packets", type=int, default=1,
            help="packets per path (released one per step)",
        )
    oex.add_argument(
        "--format", choices=["json", "csv"], default="json",
        help="export format",
    )
    oex.add_argument(
        "--output", type=str, default=None,
        help="write to this file instead of stdout",
    )

    bn = sub.add_parser(
        "bench",
        help="time the fast engines against their references; write "
        "BENCH_perf.json and optionally gate on a committed baseline",
    )
    bn.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset only (small workloads)",
    )
    bn.add_argument(
        "--workloads", type=str, default=None,
        help="comma-separated workload names (default: all, or the quick set)",
    )
    bn.add_argument(
        "--output", type=str, default="BENCH_perf.json",
        help="where to write the trajectory (default BENCH_perf.json)",
    )
    bn.add_argument(
        "--baseline", type=str, default=None,
        help="gate measured speedups against this BENCH_perf.json",
    )
    bn.add_argument(
        "--max-regression", type=float, default=0.25,
        help="largest tolerated speedup drop vs baseline (default 0.25)",
    )
    bn.add_argument(
        "--repeats", type=int, default=3,
        help="timing repetitions per engine; best-of wins (default 3)",
    )
    bn.add_argument(
        "--list", action="store_true", help="list workload names and exit"
    )

    qa = sub.add_parser(
        "qa", help="fuzzing, metamorphic and differential QA harness"
    )
    qa_sub = qa.add_subparsers(dest="qa_command", required=True)
    qf = qa_sub.add_parser(
        "fuzz", help="fuzz the construction space with every oracle armed"
    )
    qf.add_argument("--seeds", type=int, default=200, help="points to fuzz")
    qf.add_argument(
        "--budget", type=str, default=None,
        help="wall-clock budget, e.g. 120s or 5m (default: none)",
    )
    qf.add_argument("--seed", type=int, default=0, help="base RNG seed")
    qf.add_argument(
        "--kinds", type=str, default=None,
        help="comma-separated construction kinds (default: all)",
    )
    qf.add_argument(
        "--images", type=int, default=4,
        help="automorphism images per point (metamorphic stage)",
    )
    qd = qa_sub.add_parser(
        "diff", help="differential-test the two simulator engines"
    )
    qd.add_argument("--seeds", type=int, default=50, help="random schedules")
    qd.add_argument("--n", type=int, default=6, help="hypercube dimension")
    qd.add_argument("--seed", type=int, default=0, help="base RNG seed")
    qd.add_argument(
        "--packets", type=int, default=40, help="max packets per schedule"
    )
    qb = qa_sub.add_parser(
        "batched", help="differential-test the batched tensor engines"
    )
    qb.add_argument("--seeds", type=int, default=100, help="random batches")
    qb.add_argument("--n", type=int, default=4, help="hypercube dimension")
    qb.add_argument("--seed", type=int, default=0, help="base RNG seed")
    qb.add_argument(
        "--lanes", type=int, default=4, help="max lanes per batch"
    )
    qr = qa_sub.add_parser("replay", help="re-run a saved reproducer")
    qr.add_argument("entry", help="corpus entry id or path to its JSON file")
    qc = qa_sub.add_parser("corpus", help="list (or clear) saved reproducers")
    qc.add_argument("--clear", action="store_true", help="delete every entry")
    for p in (qf, qr, qc):
        p.add_argument(
            "--corpus", type=str, default=None,
            help="corpus directory (default $REPRO_QA_CORPUS or "
            "~/.cache/repro/qa-corpus)",
        )

    lint = sub.add_parser(
        "lint",
        help="domain-aware static analysis (RNG discipline, deprecations, "
        "construction contract, simulator protocol, determinism, races, "
        "index-domain dataflow, dtype overflow, kernel-parity coverage)",
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: the repro package)",
    )
    lint.add_argument(
        "--fix", action="store_true",
        help="apply mechanical fixes (deprecated-import rewrites) in place",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (json is the stable schema in EXPERIMENTS.md; "
        "sarif is the 2.1.0 log CI turns into annotations)",
    )
    lint.add_argument(
        "--select", type=str, default=None,
        help="comma-separated rule ids to run, e.g. R1,R6 (default: all)",
    )
    lint.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="BASE",
        help="only report findings in files changed vs BASE (git diff; "
        "default HEAD) plus untracked files — project-scoped rules still "
        "reason over the full module set",
    )
    lint.add_argument(
        "--output", type=str, default=None, metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and their waiver pragmas, then exit",
    )

    return parser


def _cmd_figures(args) -> int:
    from repro.analysis import figure1, figure2, figure3, figure4

    print(figure1(min(args.n, 4)))
    print()
    print(figure2(args.n if args.n % 4 else args.n + 3))
    print()
    print(figure3(4))
    print()
    print(figure4(max(args.n, 8)))
    return 0


def _cmd_embed(args) -> int:
    from repro.analysis import report

    if args.kind == "cycle":
        from repro.core import embed_cycle_load1

        emb = embed_cycle_load1(args.n)
    elif args.kind == "cycle2":
        from repro.core import embed_cycle_load2

        emb = embed_cycle_load2(args.n, prefer_width=args.wide)
    elif args.kind == "grid":
        from repro.core import embed_grid_multipath

        dims = tuple(int(x) for x in args.dims.lower().split("x"))
        emb = embed_grid_multipath(dims, torus=args.torus)
    elif args.kind == "ccc":
        from repro.core import ccc_multicopy_embedding

        emb = ccc_multicopy_embedding(args.n)
    elif args.kind == "tree":
        from repro.core import theorem5_embedding

        emb = theorem5_embedding(args.m)
    else:  # large-cycle
        from repro.core import large_cycle_embedding

        emb = large_cycle_embedding(args.n)
    emb.verify()
    print("verified OK")
    print(report(emb))
    info = getattr(emb, "info", None)
    if info and "claim" in info:
        print(f"  paper claim     {info['claim']}")
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis import compare_embeddings
    from repro.core import (
        cycle_multicopy_embedding,
        embed_cycle_load1,
        graycode_cycle_embedding,
        large_cycle_embedding,
    )

    n = args.n
    if n % 2:
        print("compare needs even n (Lemma 1's directed form)", file=sys.stderr)
        return 2
    print(
        compare_embeddings(
            {
                "graycode": graycode_cycle_embedding(n),
                "multipath": embed_cycle_load1(n) if n >= 4 else
                graycode_cycle_embedding(n),
                "multicopy": cycle_multicopy_embedding(n),
                "large-copy": large_cycle_embedding(n),
            }
        )
    )
    return 0


def _cmd_broadcast(args) -> int:
    from repro.apps.one_to_all import broadcast_comparison

    print(f"one-to-all broadcast on Q_{args.n}")
    print(f"{'M':>8} {'binomial tree':>14} {'n Ham. cycles':>14}")
    for m, tree, cyc in broadcast_comparison(
        args.n, (args.packets // 4 or 1, args.packets, args.packets * 4)
    ):
        print(f"{m:>8} {tree:>14} {cyc:>14}")
    return 0


def _campaign_config(args, scenario: str):
    from repro.scenarios.campaign import CampaignConfig

    kill_step = (
        None if str(args.kill_step) == "auto" else int(args.kill_step)
    )
    prob = getattr(args, "prob", None)
    if prob is None and args.kill_links == 0 and args.kill_nodes == 0:
        # the historical `repro faults` default workload
        prob = 0.05
    return CampaignConfig(
        n=args.n,
        scenario=scenario,
        load=args.load,
        horizon=args.horizon,
        kill_links=args.kill_links,
        kill_nodes=args.kill_nodes,
        kill_step=kill_step,
        fault_prob=prob,
        width=args.width,
        pieces=args.pieces,
        seed=args.seed,
        engine=args.engine,
    )


def _cmd_faults(args) -> int:
    from repro.scenarios.campaign import run_campaign

    rep = run_campaign(_campaign_config(args, "permutation"))
    print(rep.format())
    return 0


def _cmd_scenarios(args) -> int:
    from repro.scenarios import (
        build_schedule,
        get_scenario,
        scenario_names,
        schedule_digest,
    )

    if args.scenarios_command == "ls":
        for name in scenario_names():
            gen = get_scenario(name)
            extras = (
                " (" + ", ".join(f"{k}={v}" for k, v in gen.defaults.items()) + ")"
                if gen.defaults
                else ""
            )
            print(f"{name:<14} {gen.description}{extras}")
        return 0

    if args.scenarios_command == "run":
        from repro.hypercube.graph import Hypercube
        from repro.obs import LinkRecorder
        from repro.routing.fast_simulator import FastStoreForward
        from repro.routing.simulator import StoreForwardSimulator

        host = Hypercube(args.n)
        schedule = build_schedule(
            args.scenario, host, load=args.load, horizon=args.horizon,
            seed=args.seed,
        )
        recorder = LinkRecorder(host)
        if args.engine == "batched":
            from repro.routing.batched import BatchedStoreForward

            [result] = BatchedStoreForward(host).run_many(
                [schedule], recorders=[recorder]
            )
        else:
            sim = (
                StoreForwardSimulator(host, tie_break="priority")
                if args.engine == "reference"
                else FastStoreForward(host)
            )
            result = sim.run(schedule, recorder=recorder)
        print(
            f"{args.scenario} on Q_{args.n}: load {args.load}, horizon "
            f"{args.horizon}, digest {schedule_digest(schedule)}"
        )
        print(
            f"  {result.delivered}/{result.injected} packets delivered, "
            f"makespan {result.makespan}, peak link congestion "
            f"{recorder.congestion} [{args.engine}]"
        )
        return 0

    if args.scenarios_command == "campaign":
        import json as _json

        from repro.scenarios.campaign import run_campaign

        rep = run_campaign(_campaign_config(args, args.scenario))
        if args.json:
            print(_json.dumps(rep.to_dict(), indent=2))
        else:
            print(rep.format())
        return 0

    if args.scenarios_command == "sweep":
        from repro.scenarios.sweeps import format_sweep_rows, saturation_sweep

        loads = [float(x) for x in args.loads.split(",") if x.strip()]
        rows = saturation_sweep(
            args.scenario, args.n, loads, horizon=args.horizon,
            seed=args.seed, engine=args.engine,
        )
        print(format_sweep_rows(rows))
        return 0

    # smoke: every registered generator builds and routes on both engines
    from repro.hypercube.graph import Hypercube
    from repro.routing.fast_simulator import FastStoreForward
    from repro.routing.simulator import StoreForwardSimulator

    host = Hypercube(args.n)
    failures = 0
    for name in scenario_names():
        schedule = build_schedule(
            name, host, load=0.5, horizon=4, seed=f"smoke:{name}"
        )
        rebuilt = build_schedule(
            name, host, load=0.5, horizon=4, seed=f"smoke:{name}"
        )
        ref = StoreForwardSimulator(host, tie_break="priority").run(schedule)
        fast = FastStoreForward(host).run(schedule)
        ok = (
            schedule_digest(schedule) == schedule_digest(rebuilt)
            and ref.measured() == fast.measured()
        )
        failures += not ok
        print(
            f"{'ok' if ok else 'FAIL':<5} {name:<14} "
            f"{len(schedule):>4} packet(s)  makespan {fast.makespan}"
        )
    return 1 if failures else 0


def _cmd_sweep(args) -> int:
    from repro.analysis import (
        broadcast_crossover_sweep,
        cycle_speedup_sweep,
        fault_tolerance_sweep,
        format_rows,
        utilization_sweep,
    )

    n = args.n
    if args.series == "speedup":
        rows = cycle_speedup_sweep(range(4, n + 1, 2))
    elif args.series == "utilization":
        rows = utilization_sweep(range(4, n + 2))
    elif args.series == "faults":
        rows = fault_tolerance_sweep(n, [0.01, 0.02, 0.05, 0.1])
    else:
        rows = broadcast_crossover_sweep(n, (8, 64, 512, 4096))
    print(format_rows(rows))
    return 0


def _cmd_save(args) -> int:
    from repro.core.serialize import to_json

    if args.kind == "cycle":
        from repro.core import embed_cycle_load1

        emb = embed_cycle_load1(args.n)
    elif args.kind == "cycle2":
        from repro.core import embed_cycle_load2

        emb = embed_cycle_load2(args.n)
    else:
        from repro.core import embed_grid_multipath

        dims = tuple(int(x) for x in args.dims.lower().split("x"))
        emb = embed_grid_multipath(dims, torus=args.torus)
    with open(args.path, "w") as fp:
        fp.write(to_json(emb))
    print(f"wrote {args.path}")
    return 0


def _cmd_load(args) -> int:
    from repro.analysis import report
    from repro.core.serialize import from_json

    with open(args.path) as fp:
        emb = from_json(fp.read())  # verified on load
    print("verified OK")
    print(report(emb))
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis import validate_claims

    results = validate_claims()
    width = max(len(r.claim) for r in results)
    ok = True
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"  {r.claim.ljust(width)}  {mark}  {r.detail}")
        ok &= r.ok
    print(f"{sum(r.ok for r in results)}/{len(results)} claims verified")
    return 0 if ok else 1


def _cmd_cache(args) -> int:
    import json as _json
    import time

    from repro.service import BuildEngine, EmbeddingRegistry

    registry = EmbeddingRegistry(cache_dir=args.cache_dir)
    if args.cache_command == "build":
        if args.ns:
            ns = [int(x) for x in args.ns.split(",")]
            specs = [_spec_from_args(args, n=n) for n in ns]
        else:
            specs = [_spec_from_args(args)]
        engine = BuildEngine(registry, max_workers=args.workers)
        start = time.perf_counter()
        embeddings = engine.build_batch(specs)
        elapsed = time.perf_counter() - start
        for spec, emb in zip(specs, embeddings):
            print(f"  {spec.describe():<36} -> {emb!r}")
        rate = len(specs) / elapsed if elapsed else float("inf")
        print(
            f"{len(specs)} artifact(s) ready in {elapsed:.3f}s "
            f"({rate:.1f} req/s) under {registry.cache_dir}"
        )
        return 0
    if args.cache_command == "ls":
        rows = registry.ls()
        if not rows:
            print(f"cache empty ({registry.cache_dir})")
            return 0
        for row in rows:
            print(
                f"  {row['key']:<14} {row['construction']:<36} "
                f"v{row['package_version']:<8} {row['tier']:<12} "
                f"{row['bytes']:>9} B"
            )
        print(f"{len(rows)} artifact(s) in {registry.cache_dir}")
        return 0
    if args.cache_command == "migrate":
        out = registry.migrate(verify_payload=args.verify)
        print(
            f"migrated {out['migrated']}, skipped {out['skipped']} "
            f"(already binary), failed {out['failed']} "
            f"under {registry.cache_dir}"
        )
        return 0 if out["failed"] == 0 else 1
    if args.cache_command == "clear":
        removed = registry.clear()
        print(f"removed {removed} artifact(s) from {registry.cache_dir}")
        return 0
    # stats
    print(_json.dumps(registry.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_route(args) -> int:
    import ast
    import time

    from repro.fault.faults import FaultModel
    from repro.service import EmbeddingRegistry, RouteRequest, RoutingService

    service = RoutingService(registry=EmbeddingRegistry(cache_dir=args.cache_dir))
    spec = _spec_from_args(args)
    emb = service.get_embedding(spec)

    if args.batch is not None:
        from repro._compat import resolve_rng

        rng = resolve_rng(args.seed)
        shard = service.shard_for(spec)
        edges = []
        for _ in range(args.batch):
            u, v = rng.choice(shard.csr.edges)
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
        start = time.perf_counter()
        result = service.route_batch(spec, edges)
        elapsed = time.perf_counter() - start
        rate = len(result) / elapsed if elapsed else float("inf")
        print(
            f"{spec.describe()}: {len(result)} request(s) -> "
            f"{result.total_paths} path(s) in {elapsed * 1e3:.2f} ms "
            f"({rate:,.0f} req/s)"
        )
        first = result[0]
        print(f"  e.g. {first.guest_edge} -> {first.width} path(s), "
              f"first: {' -> '.join(map(str, first.paths[0]))}")
        service.close()
        return 0

    if args.edge is not None:
        try:
            edge = tuple(ast.literal_eval(x) for x in args.edge)
        except (ValueError, SyntaxError):
            print(
                f"--edge expects python literals (e.g. 0 1 or '(0, 0)' "
                f"'(0, 1)'), got {args.edge!r}",
                file=sys.stderr,
            )
            return 2
    else:
        edge = next(iter(
            emb.copies[0].edge_paths if hasattr(emb, "copies") else emb.edge_paths
        ))
    response = service.route(spec, RouteRequest(edge))
    paths = response.paths
    print(f"{spec.describe()}: guest edge {edge} -> {len(paths)} host path(s)")
    for i, path in enumerate(paths):
        print(f"  [{i}] {' -> '.join(map(str, path))}")
    exit_code = 0
    if args.faults is not None:
        faults = FaultModel.random(emb.host, args.faults, seed=args.seed)
        outcome = service.route_fault_tolerant(
            spec,
            RouteRequest(edge, faults=faults, pieces_needed=args.pieces),
        )
        status = "delivered" if outcome.delivered else "LOST"
        print(
            f"fault injection p={args.faults}: {status} via "
            f"{len(outcome.alive_paths)}/{outcome.width} surviving paths "
            f"(need {outcome.pieces_needed}, overhead {outcome.overhead:.1f}x)"
        )
        exit_code = 0 if outcome.delivered else 1
    service.close()
    return exit_code


def _cmd_serve(args) -> int:
    from repro.service import EmbeddingRegistry, RoutingService, open_loop_load

    service = RoutingService(registry=EmbeddingRegistry(cache_dir=args.cache_dir))
    spec = _spec_from_args(args)
    shard = service.shard_for(spec)  # warm build + publish before the clock
    print(
        f"serving {spec.describe()} from store file {shard.info.path} "
        f"({shard.info.num_paths} path(s), {shard.info.nbytes / 1e6:.1f} MB)"
    )
    report = open_loop_load(
        service,
        spec,
        rate=args.rate,
        total=args.requests,
        seed=args.seed,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
    )
    print(f"  {report.describe()}")
    snapshot = service.metrics.snapshot()
    sizes = snapshot["histograms"].get("serve_batch_size")
    if sizes:
        print(
            f"  batches: {sizes['count']} "
            f"(mean {sizes['mean']:.0f}, max {sizes['max']:.0f} requests)"
        )
    service.close()
    return 0 if report.errors == 0 else 1


def _all_paths(emb):
    """Every host path the embedding provides, flattened across styles."""
    if hasattr(emb, "copies"):  # multicopy: one path per guest edge per copy
        return [p for c in emb.copies for p in c.edge_paths.values()]
    paths = []
    for entry in emb.edge_paths.values():
        if entry and isinstance(entry[0], (tuple, list)):  # multipath bundle
            paths.extend(entry)
        else:
            paths.append(entry)
    return paths


def _obs_delivery(args):
    """Build the spec'd embedding and simulate an instrumented delivery."""
    from repro.obs import LinkRecorder
    from repro.routing.simulator import StoreForwardSimulator
    from repro.service.specs import build_spec

    spec = _spec_from_args(args)
    emb = build_spec(spec)
    emb.verify()
    schedule = [
        (path, t + 1)
        for path in _all_paths(emb)
        for t in range(args.packets)
    ]
    recorder = LinkRecorder(host=emb.host)
    result = StoreForwardSimulator(emb.host).run(schedule, recorder=recorder)
    return spec, emb, recorder, result


def _cmd_obs(args) -> int:
    if args.obs_command == "trace":
        from repro.obs import enable_profiling, profile_span, profiling_tracer
        from repro.service.specs import build_spec

        registry = enable_profiling()
        spec = _spec_from_args(args)
        with profile_span("obs.trace", kind=args.kind):
            emb = build_spec(spec)
            with profile_span("verify"):
                emb.verify()
        print(f"{spec.describe()} -> {emb!r}")
        tree = profiling_tracer().format_tree()
        print(tree if tree else "(no spans recorded)")
        timers = registry.snapshot()["timers"]
        if timers:
            print()
            width = max(len(n) for n in timers)
            for name, t in sorted(timers.items()):
                print(
                    f"  {name.ljust(width)}  x{t['count']}  "
                    f"total {t['total_s']:.4f}s  mean {t['mean_s']:.4f}s"
                )
        return 0

    spec, emb, rec, result = _obs_delivery(args)
    if args.obs_command == "report":
        structural = getattr(emb, "congestion", None)
        if structural is None:
            structural = getattr(emb, "edge_congestion", "?")
        print(
            f"{spec.describe()}: delivered {result.delivered} packet(s) "
            f"in {result.makespan} step(s) [{result.engine}]"
        )
        print(
            f"  link congestion  measured {rec.congestion}  "
            f"structural {structural}"
        )
        print(f"  links used       {len(rec.link_transmissions)}")
        print("  busiest links:")
        for eid, count in rec.busiest_links(5):
            u, v = emb.host.edge_from_id(eid)
            print(f"    {u:>5} -> {v:<5}  {count} packet(s)")
        print("  arrivals by step:")
        for step, count in rec.step_histogram().items():
            print(f"    step {step:>4}  {count}")
        return 0

    # export
    from repro.obs import collect_snapshot, snapshot_to_csv, snapshot_to_json

    snap = collect_snapshot(
        recorder=rec,
        meta={
            "spec": spec.describe(),
            "packets_per_path": args.packets,
            "engine": result.engine,
            "makespan": result.makespan,
            "delivered": result.delivered,
        },
    )
    text = (
        snapshot_to_json(snap)
        if args.format == "json"
        else snapshot_to_csv(snap)
    )
    if args.output:
        with open(args.output, "w") as fp:
            fp.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _parse_budget(text: Optional[str]) -> Optional[float]:
    """``"120s"``/``"5m"``/bare seconds -> seconds (None passes through)."""
    if text is None:
        return None
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("m"):
        scale, text = 60.0, text[:-1]
    elif text.endswith("s"):
        text = text[:-1]
    return float(text) * scale


def _cmd_bench(args) -> int:
    from repro.analysis.trajectory import (
        compare_to_baseline,
        default_workloads,
        format_points,
        load_trajectory,
        run_trajectory,
        write_trajectory,
    )

    workloads = default_workloads()
    if args.list:
        for w in workloads:
            tag = " [quick]" if w.quick else ""
            print(f"  {w.name}{tag}: {w.description}")
        return 0
    names = (
        [n.strip() for n in args.workloads.split(",") if n.strip()]
        if args.workloads
        else None
    )

    def progress(w, points):
        fast = points[-1]
        speedup = fast.get("speedup")
        print(
            f"  {w.name}: fast {fast['wall_s']:.3f}s"
            + (f", speedup {speedup}x" if speedup is not None else "")
        )

    payload = run_trajectory(
        workloads,
        names=names,
        quick=args.quick,
        repeats=args.repeats,
        on_workload=progress,
    )
    write_trajectory(payload, args.output)
    print(f"\n{format_points(payload)}")
    print(f"\nwrote {len(payload['points'])} point(s) to {args.output}")
    disagreements = [
        p["workload"]
        for p in payload["points"]
        if p.get("agree") is False
    ]
    if disagreements:
        print(f"ENGINES DISAGREE on: {', '.join(disagreements)}")
        return 1
    if args.baseline:
        problems = compare_to_baseline(
            payload, load_trajectory(args.baseline), args.max_regression
        )
        if problems:
            print(f"\nREGRESSION vs {args.baseline}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"no regression vs {args.baseline} "
              f"(max tolerated {args.max_regression:.0%})")
    return 0


def _cmd_qa(args) -> int:
    from repro.qa import Corpus, Fuzzer

    if args.qa_command == "fuzz":
        corpus = Corpus(args.corpus)
        kinds = args.kinds.split(",") if args.kinds else None
        fuzzer = Fuzzer(corpus=corpus, seed=args.seed, images=args.images)
        report = fuzzer.run(
            seeds=args.seeds, budget_s=_parse_budget(args.budget), kinds=kinds
        )
        print(report.summary())
        for entry in report.failures:
            print(f"  [{entry.entry_id}] {entry.kind} {entry.params}")
            print(f"    {entry.stage}: {entry.detail}")
        if report.failures:
            print(f"reproducers saved under {corpus.directory}")
        return 0 if report.ok else 1

    if args.qa_command == "diff":
        from repro._compat import resolve_rng
        from repro.hypercube.graph import Hypercube
        from repro.qa import differential_check, random_schedule

        host = Hypercube(args.n)
        for i in range(args.seeds):
            rng = resolve_rng(f"{args.seed}:diff:{i}")
            schedule = random_schedule(host, rng, max_packets=args.packets)
            divergence = differential_check(host, schedule)
            if divergence is not None:
                print(f"seed {i}: {divergence.describe()}")
                for path, release in divergence.schedule:
                    print(f"    release {release}: {' -> '.join(map(str, path))}")
                return 1
        print(
            f"{args.seeds} random schedule(s) on Q_{args.n}: engines agree "
            f"field-for-field"
        )
        return 0

    if args.qa_command == "batched":
        from repro._compat import resolve_rng
        from repro.fault.faults import FaultModel
        from repro.hypercube.graph import Hypercube
        from repro.qa.differential import (
            batched_differential_check,
            batched_wormhole_differential_check,
        )
        from repro.qa.schedules import (
            random_schedule_batch,
            random_worm_schedule_batch,
        )

        host = Hypercube(args.n)
        for i in range(args.seeds):
            rng = resolve_rng(f"{args.seed}:batched:{i}")
            batch = random_schedule_batch(host, rng, max_lanes=args.lanes)
            faults = None
            if rng.random() < 0.5:
                faults = [
                    FaultModel.random_links(
                        host, k=1, rng=rng,
                        active_from=rng.choice([0, 1, 3]),
                    )
                    if rng.random() < 0.5
                    else None
                    for _ in batch
                ]
            divergence = batched_differential_check(host, batch, faults=faults)
            if divergence is None:
                worm_batch = random_worm_schedule_batch(
                    host, rng, max_lanes=min(3, args.lanes)
                )
                divergence = batched_wormhole_differential_check(
                    host, worm_batch
                )
            if divergence is not None:
                print(f"seed {i}: {divergence.describe()}")
                return 1
        print(
            f"{args.seeds} random batch(es) on Q_{args.n}: batched engines "
            f"match the scalar engines lane-for-lane"
        )
        return 0

    if args.qa_command == "replay":
        corpus = Corpus(args.corpus)
        entry = corpus.load(args.entry)
        failure = Fuzzer(corpus=corpus).replay(entry)
        print(f"[{entry.entry_id}] {entry.kind} {entry.params} ({entry.stage})")
        if failure is None:
            print("  no longer reproduces (fixed?)")
            return 0
        print(f"  reproduced: {failure.stage}: {failure.detail}")
        return 1

    # corpus
    corpus = Corpus(args.corpus)
    if args.clear:
        removed = corpus.clear()
        print(f"removed {removed} reproducer(s) from {corpus.directory}")
        return 0
    entries = corpus.entries()
    if not entries:
        print(f"corpus empty ({corpus.directory})")
        return 0
    for entry in entries:
        print(f"  [{entry.entry_id}] {entry.kind} {entry.params}")
        print(f"    {entry.stage}: {entry.detail}")
    print(f"{len(entries)} reproducer(s) in {corpus.directory}")
    return 0


def _changed_py_files(base: str) -> Optional[List[str]]:
    """Changed-vs-``base`` plus untracked .py files, absolute; None = no git."""
    import subprocess

    def git(*argv: str) -> List[str]:
        proc = subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True
        )
        return [line for line in proc.stdout.splitlines() if line.strip()]

    try:
        top = git("rev-parse", "--show-toplevel")[0]
        names = git("diff", "--name-only", "--diff-filter=d", base, "--")
        names += git("ls-files", "--others", "--exclude-standard")
    except (OSError, IndexError, subprocess.CalledProcessError):
        return None
    from pathlib import Path

    return sorted(
        {str(Path(top) / n) for n in names if n.endswith(".py")}
    )


def _cmd_lint(args) -> int:
    import json
    from pathlib import Path

    from repro.lint import LintConfig, all_rules, apply_fixes, run_lint

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.name} [{rule.scope}]")
            if rule.doc:
                print(f"    {rule.doc.splitlines()[0]}")
        return 0

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    select = tuple(args.select.split(",")) if args.select else None
    focus = None
    if args.changed is not None:
        focus = _changed_py_files(args.changed)
        if focus is None and args.format == "text":
            print("--changed: not a git checkout, linting everything")
    report = run_lint(paths, LintConfig(select=select), focus=focus)

    if args.fix:
        applied, report = apply_fixes(report)
        if applied and args.format == "text":
            print(f"applied {applied} fix(es)")

    if args.format == "json":
        rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    elif args.format == "sarif":
        rendered = json.dumps(report.to_sarif(), indent=2, sort_keys=True)
    else:
        lines = [finding.format() for finding in report.findings]
        if focus is not None:
            lines.append(f"(changed-file scope: {len(focus)} file(s))")
        lines.append(report.summary())
        rendered = "\n".join(lines)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    else:
        print(rendered)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "figures": _cmd_figures,
        "embed": _cmd_embed,
        "compare": _cmd_compare,
        "broadcast": _cmd_broadcast,
        "faults": _cmd_faults,
        "scenarios": _cmd_scenarios,
        "sweep": _cmd_sweep,
        "save": _cmd_save,
        "load": _cmd_load,
        "validate": _cmd_validate,
        "cache": _cmd_cache,
        "route": _cmd_route,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
        "bench": _cmd_bench,
        "qa": _cmd_qa,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())

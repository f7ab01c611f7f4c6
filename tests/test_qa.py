"""Tests for the repro.qa fuzzing/metamorphic/differential harness."""

import json
import random

import pytest

from repro._compat import resolve_rng
from repro.cli import main
from repro.core import embed_cycle_load1
from repro.core.verification import oracles_for, register_oracle, run_oracles
from repro.hypercube.graph import Hypercube
from repro.qa import (
    ConstructionSpace,
    Corpus,
    CorpusEntry,
    FuzzConstruction,
    Fuzzer,
    default_space,
    differential_check,
    map_schedule,
    metamorphic_check,
    random_schedule,
    run_pair,
    schedule_from_jsonable,
    schedule_to_jsonable,
    shrink_schedule,
)

# one representative small parameter point per construction kind
SMALL_POINTS = [
    ("cycle", {"n": 4}),
    ("cycle2", {"n": 4, "wide": True}),
    ("grid", {"dims": [4, 4], "torus": True}),
    ("ccc", {"n": 2}),
    ("tree", {"m": 2}),
    ("large-cycle", {"n": 2}),
    ("graycode", {"n": 3}),
    ("cycle-multicopy", {"n": 3}),
    ("butterfly-multicopy", {"m": 2, "undirected": True}),
    ("butterfly-multipath", {"m": 2}),
    ("grid-multicopy", {"dims": [4]}),
    ("cbt-multicopy", {"m": 2}),
    ("arbitrary-tree", {"vertices": 9, "tree_seed": 5, "m": 2}),
    ("cross-product", {"m": 2}),
]


class TestConstructionSpace:
    def test_default_space_covers_every_builder(self):
        kinds = default_space().kinds()
        assert len(kinds) >= 14
        assert set(k for k, _ in SMALL_POINTS) <= set(kinds)

    def test_samples_build_and_verify(self):
        space = default_space()
        rng = random.Random(11)
        for construction in space:
            params = construction.sample(rng)
            emb = construction.build(params)
            assert emb.verify(strict=False).ok, (construction.kind, params)

    def test_params_json_round_trip(self):
        space = default_space()
        rng = random.Random(3)
        for construction in space:
            params = construction.sample(rng)
            assert json.loads(json.dumps(params)) == params

    def test_shrink_proposes_valid_points(self):
        space = default_space()
        rng = random.Random(7)
        for construction in space:
            params = construction.sample(rng)
            for candidate in construction.shrink(params):
                construction.build(candidate).verify(strict=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            default_space().get("no-such-kind")

    def test_duplicate_kind_rejected(self):
        c = default_space().get("cycle")
        with pytest.raises(ValueError):
            ConstructionSpace([c, c])


class TestOracleRegistry:
    def test_every_kind_with_claims_has_oracles(self):
        import repro.qa.oracles  # noqa: F401 - registration side effect

        for kind in ("cycle", "cycle2", "grid", "ccc", "graycode",
                     "cycle-multicopy", "large-cycle"):
            assert oracles_for(kind), kind

    def test_registration_is_idempotent(self):
        from repro.qa.oracles import theorem1_oracle

        before = len(oracles_for("cycle"))
        register_oracle("cycle")(theorem1_oracle)
        assert len(oracles_for("cycle")) == before

    def test_oracle_exception_becomes_failed_check(self):
        @register_oracle("qa-test-crashing")
        def crashing(subject, params):
            raise RuntimeError("boom")

        checks = run_oracles("qa-test-crashing", object(), {})
        assert len(checks) == 1 and not checks[0].passed
        assert "boom" in checks[0].detail

    def test_small_points_pass_their_oracles(self):
        space = default_space()
        for kind, params in SMALL_POINTS:
            emb = space.get(kind).build(dict(params))
            for check in run_oracles(kind, emb, dict(params)):
                assert check.passed, (kind, check.name, check.detail)


class TestCutFloorReferee:
    def test_registered_for_every_embedding_kind(self):
        from repro.qa.oracles import EMBEDDING_KINDS, cut_floor_oracle

        assert set(EMBEDDING_KINDS) == {
            k for k in default_space().kinds() if not k.startswith("scenario:")
        }
        for kind in EMBEDDING_KINDS:
            assert cut_floor_oracle in oracles_for(kind), kind

    def test_floor_by_hand(self):
        from types import SimpleNamespace

        import numpy as np

        from repro.qa.oracles import cut_floor

        # Q_2 paths 0->1, 2->3, 0->1, 0->2->3: four cross bit 0 upward
        # over its 2 upward links, so some link carries at least 2
        csr = SimpleNamespace(
            host_n=2,
            nodes=np.array([0, 1, 2, 3, 0, 1, 0, 2, 3]),
            path_offsets=np.array([0, 2, 4, 6, 9]),
        )
        assert cut_floor(csr) == 2

    def test_under_reporting_verifier_is_caught(self, monkeypatch):
        # the fast and reference verifiers share the bug, so their
        # differential agrees; only the cut floor can see it
        import repro.core.fast_verify as fv

        def halved(verify):
            def wrapper(*args, **kwargs):
                report = verify(*args, **kwargs)
                if "congestion" in report.metrics:
                    report.metrics["congestion"] //= 2
                return report
            return wrapper

        monkeypatch.setattr(fv, "verify_multipath", halved(fv.verify_multipath))
        monkeypatch.setattr(
            fv, "reference_verify_multipath", halved(fv.reference_verify_multipath)
        )
        report = Fuzzer(seed=1, images=1).run(seeds=3, kinds=["cycle"])
        assert not report.ok
        assert report.failures
        for failure in report.failures:
            assert failure.stage == "oracle"
            assert failure.detail.startswith("cut-floor")


class TestMetamorphic:
    @pytest.mark.parametrize("kind,params", SMALL_POINTS)
    def test_eight_images_per_kind(self, kind, params):
        emb = default_space().get(kind).build(dict(params))
        checks = metamorphic_check(emb, random.Random(f"meta:{kind}"), images=8)
        assert len(checks) >= 8
        for check in checks:
            assert check.passed, (kind, check.name, check.detail)

    def test_map_schedule_preserves_structure(self):
        from repro.hypercube.automorphisms import HypercubeAutomorphism

        host = Hypercube(4)
        rng = random.Random(5)
        schedule = random_schedule(host, rng, max_packets=10)
        auto = HypercubeAutomorphism.random(4, rng)
        mapped = map_schedule(schedule, auto)
        assert len(mapped) == len(schedule)
        for (path, rel), (mpath, mrel) in zip(schedule, mapped):
            assert mrel == rel and len(mpath) == len(path)
            for a, b in zip(mpath, mpath[1:]):
                assert host.is_edge(a, b)


class TestDifferential:
    def test_fifty_random_schedules_agree(self):
        # tier-1 differential smoke: the reference engine (priority
        # tie-break) and the vectorized engine must agree field-for-field
        host = Hypercube(6)
        for i in range(50):
            rng = random.Random(f"diff-smoke:{i}")
            schedule = random_schedule(host, rng, max_packets=40)
            reference, fast = run_pair(host, schedule)
            assert reference.diff_fields(fast) == (), (i, schedule)

    def test_differential_check_passes_clean(self):
        host = Hypercube(5)
        schedule = random_schedule(host, random.Random(1), max_packets=30)
        assert differential_check(host, schedule) is None

    def test_shrink_schedule_proposals(self):
        schedule = [((0, 1), 2), ((0, 2), 1), ((1, 3), 3), ((2, 3), 1)]
        candidates = list(shrink_schedule(schedule))
        assert [len(c) for c in candidates[:2]] == [2, 2]  # halves first
        assert sum(1 for c in candidates if len(c) == 3) == 4
        assert candidates[-1] == [(p, 1) for p, _ in schedule]

    def test_schedule_json_round_trip(self):
        schedule = [((0, 1, 3), 2), ((4,), 1)]
        data = schedule_to_jsonable(schedule)
        assert json.loads(json.dumps(data)) == data
        assert schedule_from_jsonable(data) == schedule


class TestColdStartDifferential:
    def test_clean_embedding_passes(self):
        from repro.qa import cold_start_differential

        checks = cold_start_differential(embed_cycle_load1(6), random.Random(0))
        names = [c.name for c in checks]
        assert "diff:coldstart:fields" in names
        assert "diff:coldstart:edges" in names
        assert "diff:coldstart:routing" in names
        assert all(c.passed for c in checks), [
            (c.name, c.detail) for c in checks
        ]

    def test_non_embedding_contributes_nothing(self):
        from repro.qa import cold_start_differential

        assert cold_start_differential(object(), random.Random(0)) == []

    def test_stage_is_wired_into_fuzzer(self, tmp_path):
        report = Fuzzer(
            corpus=Corpus(str(tmp_path)), seed=5,
            checks=("build", "cold_start_differential"),
        ).run(seeds=4)
        assert report.ok, report.failures
        assert report.points == 4


class TestWormholeDifferential:
    def test_twenty_five_schedules_agree(self):
        # tier-1 smoke: the flit-loop reference and the vectorized frontier
        # engine must agree on makespan, per-worm state, link ownership and
        # recorder totals — deadlocks included (rotated dimension orders
        # can produce cyclic waits)
        from repro.qa import run_wormhole_pair, random_worm_schedule

        host = Hypercube(4)
        for i in range(25):
            rng = random.Random(f"worm-smoke:{i}")
            schedule = random_worm_schedule(host, rng, rotate=i % 2 == 1)
            cap = rng.choice([1, 1, 2, 4])
            reference, fast = run_wormhole_pair(host, schedule, buffer_capacity=cap)
            assert reference == fast, (i, cap, schedule)

    def test_check_passes_clean(self):
        from repro.qa import random_worm_schedule, wormhole_differential_check

        host = Hypercube(3)
        schedule = random_worm_schedule(host, random.Random(2))
        assert wormhole_differential_check(host, schedule) is None

    def test_deadlock_parity(self):
        from repro.qa import run_wormhole_pair, wormhole_differential_check

        host = Hypercube(2)
        # four worms chasing each other around the 4-cycle 0-1-3-2-0
        schedule = [
            ((0, 1, 3), 8, 1),
            ((1, 3, 2), 8, 1),
            ((3, 2, 0), 8, 1),
            ((2, 0, 1), 8, 1),
        ]
        reference, fast = run_wormhole_pair(host, schedule)
        assert reference["deadlock"] and reference == fast
        assert wormhole_differential_check(host, schedule) is None

    def test_worm_schedules_are_valid_and_jsonable(self):
        from repro.qa import random_worm_schedule

        host = Hypercube(4)
        schedule = random_worm_schedule(host, random.Random(9), rotate=True)
        assert schedule
        for path, flits, release in schedule:
            assert len(path) >= 2 and flits >= 1 and release >= 1
            for a, b in zip(path, path[1:]):
                assert host.is_edge(a, b)
        data = [[list(p), m, r] for p, m, r in schedule]
        assert json.loads(json.dumps(data)) == data

    def test_shrink_worm_schedule_proposals(self):
        from repro.qa import shrink_worm_schedule

        schedule = [((0, 1), 4, 2), ((0, 2), 1, 1), ((1, 3), 2, 3), ((2, 3), 8, 1)]
        candidates = list(shrink_worm_schedule(schedule))
        assert [len(c) for c in candidates[:2]] == [2, 2]  # halves first
        assert sum(1 for c in candidates if len(c) == 3) == 4
        assert [(p, m, 1) for p, m, _ in schedule] in candidates  # flat releases
        assert [(p, max(1, m // 2), r) for p, m, r in schedule] in candidates


class TestVerificationReferee:
    @pytest.mark.parametrize("kind,params", SMALL_POINTS)
    def test_fast_verify_agrees_with_reference(self, kind, params):
        from repro.qa import verification_differential

        emb = default_space().get(kind).build(dict(params))
        checks = verification_differential(emb)
        assert checks
        for check in checks:
            assert check.passed, (kind, check.name, check.detail)

    def test_fuzzer_verify_stage_catches_kernel_divergence(self):
        # an embedding whose fast verify disagrees with the reference must
        # surface as a "verify" finding, not slip through as ok
        from repro.qa import verification_differential

        emb = embed_cycle_load1(4)

        class Lying:
            """Proxy whose vectorized verify() hides a broken bundle."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def verify(self, strict=True):
                return self._inner.verify(strict=False)

            def verify_reference(self, strict=True):
                edge = next(iter(self._inner.edge_paths))
                paths = self._inner.edge_paths[edge]
                try:
                    self._inner.edge_paths[edge] = (paths[0],) * len(paths)
                    return self._inner.verify_reference(strict=False)
                finally:
                    self._inner.edge_paths[edge] = paths

        checks = verification_differential(Lying(emb))
        assert any(not c.passed for c in checks)


class TestCorpus:
    def _entry(self, **overrides):
        kwargs = dict(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="example", point_seed="0:point:0",
        )
        kwargs.update(overrides)
        return CorpusEntry(**kwargs)

    def test_save_is_idempotent(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        corpus.save(self._entry())
        corpus.save(self._entry(detail="same content hash fields"))
        assert len(corpus) == 1

    def test_load_by_id_and_path(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        path = corpus.save(self._entry())
        entry = corpus.entries()[0]
        assert corpus.load(entry.entry_id).params == {"n": 4}
        assert corpus.load(path).entry_id == entry.entry_id

    def test_load_missing_entry(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Corpus(str(tmp_path)).load("verify-cycle-000000000000")

    def test_clear(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        corpus.save(self._entry())
        corpus.save(self._entry(stage="oracle"))
        assert corpus.clear() == 2 and len(corpus) == 0

    def test_newer_format_rejected(self):
        data = json.loads(self._entry().to_json())
        data["version"] = 99
        with pytest.raises(ValueError):
            CorpusEntry.from_json(json.dumps(data))


def _sabotaged_space():
    """A construction space whose only member is a deliberately broken
    cycle builder: one bundle's paths are all replaced with path 0,
    destroying edge-disjointness at every n."""

    def build(params):
        emb = embed_cycle_load1(params["n"])
        edge = next(iter(emb.edge_paths))
        paths = emb.edge_paths[edge]
        emb.edge_paths[edge] = (paths[0],) * len(paths)
        return emb

    def shrink(params):
        if params["n"] > 4:
            yield {"n": 4}
            yield {"n": params["n"] - 1}

    return ConstructionSpace(
        [
            FuzzConstruction(
                "cycle",
                lambda rng: {"n": rng.randint(5, 8)},
                build,
                shrink,
            )
        ]
    )


class TestFuzzer:
    def test_smoke_run_is_clean(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        report = Fuzzer(corpus=corpus, seed=0, images=2).run(seeds=20)
        assert report.ok, report.failures
        assert report.points == 20 and len(corpus) == 0
        assert "OK" in report.summary()

    def test_budget_exhaustion_stops_early(self):
        report = Fuzzer(seed=0, images=1).run(seeds=10_000, budget_s=0.5)
        assert report.budget_exhausted and report.points < 10_000
        assert "budget exhausted" in report.summary()

    def test_kind_restriction(self):
        report = Fuzzer(seed=0, images=1).run(seeds=5, kinds=["graycode"])
        assert set(report.per_kind) == {"graycode"}
        with pytest.raises(KeyError):
            Fuzzer(seed=0).run(seeds=1, kinds=["bogus"])

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            Fuzzer(checks=("build", "bogus"))

    def test_mutation_is_caught_shrunk_and_replayable(self, tmp_path):
        # the acceptance mutation test: an injected edge-disjointness bug
        # must be caught, shrunk to the minimal n, persisted, and
        # reproduced from the corpus alone
        corpus = Corpus(str(tmp_path))
        fuzzer = Fuzzer(space=_sabotaged_space(), corpus=corpus, seed=1)
        report = fuzzer.run(seeds=4)
        assert not report.ok
        assert all(e.stage == "verify" for e in report.failures)
        assert all(e.params == {"n": 4} for e in report.failures)  # shrunk
        assert len(corpus) == 1  # idempotent: one minimal reproducer

        entry = corpus.entries()[0]
        assert "edge-disjoint" in entry.detail
        replayed = fuzzer.replay(entry)
        assert replayed is not None and replayed.stage == "verify"

    def test_replay_of_fixed_bug_returns_none(self, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="was broken once", point_seed="1:point:0",
        )
        corpus.save(entry)
        # the real (unsabotaged) space passes: the finding is gone
        assert Fuzzer(corpus=corpus, seed=1).replay(entry) is None


class TestResolveRng:
    def test_seed_and_rng_are_exclusive(self):
        with pytest.raises(ValueError):
            resolve_rng(seed=1, rng=random.Random(2))

    def test_default_seed(self):
        assert (
            resolve_rng().random()
            == random.Random(0).random()
            == resolve_rng(default_seed=0).random()
        )

    def test_shared_stream_passes_through(self):
        rng = random.Random(5)
        assert resolve_rng(rng=rng) is rng


class TestSeededDeterminism:
    """Satellite: fixed seeds give byte-identical results everywhere."""

    def test_random_permutation(self):
        from repro.routing.permutation import random_permutation

        assert random_permutation(64, seed=9) == random_permutation(64, seed=9)
        shared = random.Random(9)
        assert random_permutation(64, seed=9) == random_permutation(64, rng=shared)
        with pytest.raises(ValueError):
            random_permutation(8, seed=1, rng=random.Random(1))

    def test_faulty_link_model(self):
        from repro.fault.faults import FaultyLinkModel

        host = Hypercube(5)
        a = FaultyLinkModel.random(host, 0.3, seed=4)
        b = FaultyLinkModel.random(host, 0.3, seed=4)
        c = FaultyLinkModel.random(host, 0.3, rng=random.Random(4))
        assert a.failed == b.failed == c.failed
        with pytest.raises(ValueError):
            FaultyLinkModel.random(host, 0.3, seed=1, rng=random.Random(1))

    def test_random_binary_tree(self):
        from repro.networks.tree import random_binary_tree

        a = random_binary_tree(40, seed=6)
        b = random_binary_tree(40, rng=random.Random(6))
        assert a.parent == b.parent

    def test_adaptive_wormhole_experiment(self):
        from repro.core import embed_cycle_load1
        from repro.routing.adaptive import adaptive_wormhole_experiment

        emb = embed_cycle_load1(4)
        a = adaptive_wormhole_experiment(emb, 16, flits=4, seed=2)
        b = adaptive_wormhole_experiment(emb, 16, flits=4, rng=random.Random(2))
        assert a == b

    def test_permutation_multicopy_time(self):
        from repro.routing.permutation import (
            permutation_multicopy_time,
            random_permutation,
        )

        perm = random_permutation(64, seed=2)
        a = permutation_multicopy_time(4, perm, 16, randomized=True, seed=3)
        b = permutation_multicopy_time(
            4, perm, 16, randomized=True, rng=random.Random(3)
        )
        assert a == b

    def test_random_x_permutation(self):
        from repro.routing.x_routing import XRouter, random_x_permutation

        router = XRouter(2)
        a = random_x_permutation(2, seed=8, router=router)
        b = random_x_permutation(2, rng=random.Random(8), router=router)
        assert a == b and sorted(a) == list(range(router.host.num_nodes))


class TestQaCli:
    def test_fuzz_smoke(self, capsys, tmp_path):
        assert main(
            ["qa", "fuzz", "--seeds", "6", "--budget", "60s",
             "--corpus", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "fuzzed 6 point(s)" in out and "OK" in out

    def test_fuzz_kind_filter(self, capsys, tmp_path):
        assert main(
            ["qa", "fuzz", "--seeds", "3", "--kinds", "graycode,cycle",
             "--corpus", str(tmp_path)]
        ) == 0

    def test_diff_smoke(self, capsys):
        assert main(["qa", "diff", "--seeds", "5", "--n", "5"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_corpus_empty_then_listed(self, capsys, tmp_path):
        assert main(["qa", "corpus", "--corpus", str(tmp_path)]) == 0
        assert "corpus empty" in capsys.readouterr().out
        Corpus(str(tmp_path)).save(
            CorpusEntry(
                kind="cycle", params={"n": 4}, stage="verify",
                detail="demo", point_seed="0:point:0",
            )
        )
        assert main(["qa", "corpus", "--corpus", str(tmp_path)]) == 0
        assert "1 reproducer(s)" in capsys.readouterr().out

    def test_corpus_clear(self, capsys, tmp_path):
        Corpus(str(tmp_path)).save(
            CorpusEntry(
                kind="cycle", params={"n": 4}, stage="verify",
                detail="demo", point_seed="0:point:0",
            )
        )
        assert main(["qa", "corpus", "--corpus", str(tmp_path), "--clear"]) == 0
        assert "removed 1" in capsys.readouterr().out

    def test_replay_fixed_entry(self, capsys, tmp_path):
        corpus = Corpus(str(tmp_path))
        entry = CorpusEntry(
            kind="cycle", params={"n": 4}, stage="verify",
            detail="was broken once", point_seed="0:point:0",
        )
        corpus.save(entry)
        assert main(
            ["qa", "replay", entry.entry_id, "--corpus", str(tmp_path)]
        ) == 0
        assert "no longer reproduces" in capsys.readouterr().out

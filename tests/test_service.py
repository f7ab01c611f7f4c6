"""Tests for the service layer: registry, engine, facade, metrics."""

import json
import random
import threading

import pytest

from repro.fault.faults import FaultModel
from repro.obs import MetricsRegistry
from repro.service import (
    BatchingFrontend,
    BatchRouteResult,
    BuildEngine,
    EmbeddingRegistry,
    EmbeddingSpec,
    RouteRequest,
    RouteResponse,
    RoutingService,
    build_spec,
    decode_embedding,
    encode_embedding,
    disjoint_paths,
)
from repro.service.store import read_store_header


def cycle_spec(n=6):
    return EmbeddingSpec.make("cycle", n=n)


def _count_verifies(monkeypatch):
    """Count every ``verify`` call on the three embedding classes."""
    from repro.core.embedding import (
        Embedding,
        MultiCopyEmbedding,
        MultiPathEmbedding,
    )

    calls = {"verify": 0}
    for cls in (Embedding, MultiPathEmbedding, MultiCopyEmbedding):
        def counted(self, *args, _orig=cls.verify, **kwargs):
            calls["verify"] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "verify", counted)
    return calls


class TestSpecs:
    def test_key_is_deterministic(self):
        assert cycle_spec().cache_key() == cycle_spec().cache_key()

    def test_key_ignores_param_order(self):
        a = EmbeddingSpec.make("grid", dims=(4, 4), torus=True)
        b = EmbeddingSpec.make("grid", torus=True, dims=(4, 4))
        assert a.cache_key() == b.cache_key()

    def test_key_separates_params(self):
        assert cycle_spec(6).cache_key() != cycle_spec(8).cache_key()
        assert (
            cycle_spec(6).cache_key()
            != EmbeddingSpec.make("large-cycle", n=6).cache_key()
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingSpec.make("hypertorus", n=4)

    def test_build_dispatch(self):
        emb = build_spec(EmbeddingSpec.make("grid", dims=(4, 4), torus=True))
        emb.verify()
        assert emb.guest.num_vertices == 16

    def test_specs_hash_and_pickle(self):
        import pickle

        spec = EmbeddingSpec.make("tree", m=2)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, EmbeddingSpec.make("tree", m=2)}) == 1


class TestEncodeDecode:
    def test_multipath_roundtrip(self):
        emb = build_spec(cycle_spec(6))
        back = decode_embedding(encode_embedding(emb))
        assert back.width == emb.width
        assert dict(back.vertex_map) == dict(emb.vertex_map)

    def test_multicopy_roundtrip(self):
        emb = build_spec(EmbeddingSpec.make("ccc", n=4))
        back = decode_embedding(encode_embedding(emb))
        assert back.k == emb.k
        assert back.edge_congestion == emb.edge_congestion
        back.verify()


class TestRegistry:
    def test_miss_then_build_then_memory_hit(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        assert reg.get(spec) is None
        emb = reg.get_or_build(spec)
        assert reg.get(spec) is emb  # identical object from the LRU tier
        assert reg.metrics.count("memory_hits") == 1
        assert reg.metrics.count("builds") == 1

    @pytest.mark.parametrize(
        "spec",
        [
            cycle_spec(6),
            EmbeddingSpec.make("cycle2", n=6),
            # side 16 gives 4-bit axes, which take the Theorem 1 multipath
            EmbeddingSpec.make("grid", dims=(16, 16)),
        ],
        ids=["cycle", "cycle2", "grid-theorem1-axes"],
    )
    def test_get_or_build_verifies_once(self, tmp_path, monkeypatch, spec):
        calls = _count_verifies(monkeypatch)
        EmbeddingRegistry(cache_dir=tmp_path).get_or_build(spec)
        assert calls["verify"] == 1

    def test_corrupted_build_still_raises_and_counts(self, tmp_path, monkeypatch):
        import repro.service.registry as registry_mod

        def corrupted(spec):
            emb = build_spec(spec)
            edge, bundle = next(iter(emb.edge_paths.items()))
            emb.edge_paths[edge] = bundle + (bundle[0],)  # reuses host edges
            return emb

        calls = _count_verifies(monkeypatch)
        monkeypatch.setattr(registry_mod, "build_spec", corrupted)
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        with pytest.raises(AssertionError, match="reuses directed host edge"):
            reg.get_or_build(cycle_spec())
        assert calls["verify"] == 1
        assert reg.metrics.count("verify_failures") == 1
        assert not reg.path_for(cycle_spec()).exists()

    def test_disk_tier_across_instances(self, tmp_path):
        EmbeddingRegistry(cache_dir=tmp_path).get_or_build(cycle_spec())
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        emb = fresh.get(cycle_spec())
        assert emb is not None and emb.width >= 3
        assert fresh.metrics.count("disk_hits") == 1
        assert fresh.metrics.count("builds") == 0

    def test_lru_eviction(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path, memory_capacity=2)
        specs = [cycle_spec(n) for n in (4, 6, 8)]
        for s in specs:
            reg.get_or_build(s)
        assert reg.metrics.count("memory_evictions") == 1
        # oldest evicted from memory but still on disk
        reg.get(specs[0])
        assert reg.metrics.count("disk_hits") == 1

    def test_truncated_artifact_triggers_rebuild(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        with open(path, "r+b") as fh:
            fh.truncate(80)  # corrupt on disk
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get(spec) is None  # recovered, not crashed
        assert fresh.metrics.count("disk_corrupt") == 1
        assert not path.exists()  # a provably bad artifact is removed
        emb = fresh.get_or_build(spec)  # rebuild + reverify + re-admit
        emb.verify()
        assert fresh.metrics.count("builds") == 1
        # the re-written artifact is valid again
        assert EmbeddingRegistry(cache_dir=tmp_path).get(spec) is not None

    def test_payload_tamper_detected_by_checksum(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        header = read_store_header(path)
        with open(path, "r+b") as fh:  # flip one byte of the array payload
            fh.seek(header["data_start"])
            byte = fh.read(1)
            fh.seek(header["data_start"])
            fh.write(bytes([byte[0] ^ 0xFF]))
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get(spec) is None
        assert fresh.metrics.count("disk_corrupt") == 1

    def test_blob_tamper_detected_by_checksum(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        header = read_store_header(path)
        with open(path, "r+b") as fh:  # flip one byte of the embedding blob
            fh.seek(header["blob_offset"])
            byte = fh.read(1)
            fh.seek(header["blob_offset"])
            fh.write(bytes([byte[0] ^ 0xFF]))
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        # the CSR fast path only touches the (intact) arrays ...
        assert fresh.get_store(spec) is not None
        # ... but materializing the embedding re-hashes the blob and balks
        assert fresh.get(spec) is None
        assert fresh.metrics.count("disk_corrupt") == 1

    def test_stale_package_version_rebuilds(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        version = read_store_header(path)["package_version"]
        stale = "0" * len(version)  # same length: header geometry unchanged
        raw = path.read_bytes().replace(
            f'"package_version":"{version}"'.encode(),
            f'"package_version":"{stale}"'.encode(),
            1,
        )
        path.write_bytes(raw)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get(spec) is None  # stale -> miss -> rebuild path

    def test_ls_clear_contains(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = cycle_spec()
        assert spec not in reg
        reg.get_or_build(spec)
        assert spec in reg
        rows = reg.ls()
        assert len(rows) == 1 and "cycle" in rows[0]["construction"]
        assert reg.clear() == 1
        assert reg.ls() == [] and spec not in reg

    def test_multicopy_through_disk(self, tmp_path):
        spec = EmbeddingSpec.make("ccc", n=4)
        EmbeddingRegistry(cache_dir=tmp_path).get_or_build(spec)
        back = EmbeddingRegistry(cache_dir=tmp_path).get(spec)
        assert back.k == 4
        back.verify()

    def test_stats_reports_tiers(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        reg.get_or_build(cycle_spec())
        snap = reg.stats()
        assert snap["disk_entries"] == 1
        assert snap["memory_entries"] == 1
        assert snap["counters"]["builds"] == 1
        assert snap["timers"]["build"]["count"] == 1


class TestEngine:
    def test_batch_preserves_order_and_dedups(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        engine = BuildEngine(reg, max_workers=0)  # in-process
        specs = [cycle_spec(6), cycle_spec(8), cycle_spec(6)]
        out = engine.build_batch(specs)
        assert [e.host.n for e in out] == [6, 8, 6]
        assert out[0] is out[2]
        assert reg.metrics.count("batch_dedup") == 1
        assert reg.metrics.count("builds") == 2

    def test_parallel_workers_populate_disk(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        engine = BuildEngine(reg, max_workers=2)
        specs = [cycle_spec(6), EmbeddingSpec.make("grid", dims=(4, 4))]
        out = engine.build_batch(specs)
        assert len(out) == 2 and all(e is not None for e in out)
        assert len(reg.ls()) == 2
        # second batch is all cache hits: no further builds
        before = reg.metrics.count("builds")
        engine.build_batch(specs)
        assert reg.metrics.count("builds") == before

    def test_worker_errors_propagate(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        engine = BuildEngine(reg, max_workers=2)
        bad = [EmbeddingSpec.make("ccc", n=3), EmbeddingSpec.make("ccc", n=5)]
        with pytest.raises(ValueError):
            engine.build_batch(bad)
        assert reg.metrics.count("build_errors") >= 1

    def test_warm(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        assert BuildEngine(reg, max_workers=0).warm([cycle_spec()]) == 1
        assert cycle_spec() in reg


class TestRoutingService:
    def _service(self, tmp_path):
        return RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))

    def test_route_returns_disjoint_paths(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(8)
        response = svc.route(spec, RouteRequest((0, 1)))
        assert isinstance(response, RouteResponse)
        assert response.guest_edge == (0, 1)
        emb = svc.get_embedding(spec)
        assert response.width == emb.width
        used = set()
        for p in response.paths:
            for a, b in zip(p, p[1:]):
                eid = emb.host.edge_id(a, b)
                assert eid not in used  # pairwise edge-disjoint
                used.add(eid)

    def test_route_reversed_edge(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(6)
        fwd = svc.route(spec, RouteRequest((0, 1))).paths
        rev = svc.route(spec, RouteRequest((1, 0))).paths
        assert rev == tuple(tuple(reversed(p)) for p in fwd)

    def test_route_unknown_edge_raises(self, tmp_path):
        with pytest.raises(KeyError):
            self._service(tmp_path).route(cycle_spec(6), RouteRequest((0, 5)))

    def test_route_multicopy_gives_one_path_per_copy(self, tmp_path):
        svc = self._service(tmp_path)
        spec = EmbeddingSpec.make("ccc", n=4)
        emb = svc.get_embedding(spec)
        edge = next(iter(emb.copies[0].edge_paths))
        assert svc.route(spec, RouteRequest(edge)).width == emb.k

    def test_fault_tolerant_survives_w_minus_1_failures(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(8)
        emb = svc.get_embedding(spec)
        paths = svc.route(spec, RouteRequest((0, 1))).paths
        w = len(paths)
        assert w >= 4
        # kill every path but the last: fail the first link of each
        failed = {
            emb.host.edge_id(p[0], p[1]) for p in paths[:-1] if len(p) > 1
        }
        faults = FaultModel(emb.host, failed)
        out = svc.route_fault_tolerant(
            spec, RouteRequest((0, 1), message=b"survive", faults=faults)
        )
        assert out.delivered and out.message == b"survive"
        assert len(out.failed_paths) == w - 1
        assert out.alive_paths == (w - 1,)

    def test_fault_tolerant_loses_when_all_paths_die(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(8)
        emb = svc.get_embedding(spec)
        paths = svc.route(spec, RouteRequest((0, 1))).paths
        failed = {emb.host.edge_id(p[0], p[1]) for p in paths}
        out = svc.route_fault_tolerant(
            spec,
            RouteRequest(
                (0, 1), message=b"gone", faults=FaultModel(emb.host, failed)
            ),
        )
        assert not out.delivered and out.message is None
        assert svc.metrics.count("delivery_failures") == 1

    def test_pieces_needed_tradeoff(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(8)
        emb = svc.get_embedding(spec)
        paths = svc.route(spec, RouteRequest((0, 1))).paths
        w = len(paths)
        kill = lambda k: FaultModel(  # noqa: E731
            emb.host,
            {emb.host.edge_id(p[0], p[1]) for p in paths[:k] if len(p) > 1},
        )
        # need m=3 pieces: tolerates w-3 failures, not w-2
        assert svc.route_fault_tolerant(
            spec,
            RouteRequest((0, 1), b"x", faults=kill(w - 3), pieces_needed=3),
        ).delivered
        assert not svc.route_fault_tolerant(
            spec,
            RouteRequest((0, 1), b"x", faults=kill(w - 2), pieces_needed=3),
        ).delivered

    def test_no_faults_default_delivers(self, tmp_path):
        out = self._service(tmp_path).route_fault_tolerant(
            cycle_spec(6), RouteRequest((0, 1), message=b"clear skies")
        )
        assert out.delivered and out.message == b"clear skies"
        assert out.failed_paths == ()

    def test_bad_pieces_needed_rejected(self, tmp_path):
        svc = self._service(tmp_path)
        with pytest.raises(ValueError):
            svc.route_fault_tolerant(
                cycle_spec(6), RouteRequest((0, 1), b"x", pieces_needed=99)
            )

    def test_stats_surface(self, tmp_path):
        svc = self._service(tmp_path)
        svc.route(cycle_spec(6), RouteRequest((0, 1)))
        snap = svc.stats()
        assert snap["counters"]["routes"] == 1
        assert snap["timers"]["get_embedding"]["count"] == 1

    def test_disjoint_paths_single_embedding(self, tmp_path):
        svc = self._service(tmp_path)
        spec = EmbeddingSpec.make("large-cycle", n=4)
        emb = svc.get_embedding(spec)
        edge = next(iter(emb.edge_paths))
        assert len(disjoint_paths(emb, edge)) == 1

    def test_disjoint_paths_skips_copies_missing_the_edge(self):
        # regression: a multi-copy embedding where one copy stores neither
        # orientation used to fail the whole lookup instead of skipping
        from repro.core.embedding import Embedding, MultiCopyEmbedding
        from repro.hypercube.graph import Hypercube

        host = Hypercube(2)
        knows = Embedding(
            host=host, guest=None, vertex_map={0: 0, 1: 1},
            edge_paths={(1, 0): (1, 0)}, name="knows-reverse-only",
        )
        ignorant = Embedding(
            host=host, guest=None, vertex_map={2: 2, 3: 3},
            edge_paths={(2, 3): (2, 3)}, name="other-edges-only",
        )
        emb = MultiCopyEmbedding(
            host=host, guest=None, copies=[knows, ignorant]
        )
        assert disjoint_paths(emb, (0, 1)) == ((0, 1),)
        assert disjoint_paths(emb, (1, 0)) == ((1, 0),)
        with pytest.raises(KeyError):
            disjoint_paths(emb, (0, 2))


class TestBatchRouting:
    def _service(self, tmp_path):
        return RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))

    def test_batch_result_surface(self, tmp_path):
        svc = self._service(tmp_path)
        spec = cycle_spec(6)
        batch = svc.route_batch(spec, [(0, 1), RouteRequest((2, 1)), (1, 0)])
        assert isinstance(batch, BatchRouteResult)
        assert len(batch) == 3
        assert batch.total_paths == sum(batch.width(i) for i in range(3))
        assert [r.guest_edge for r in batch.requests] == [(0, 1), (2, 1), (1, 0)]
        first, last = batch[0], batch[-1]
        assert isinstance(first, RouteResponse)
        assert last.paths == tuple(
            tuple(reversed(p)) for p in first.paths
        )
        assert [r.guest_edge for r in batch] == [(0, 1), (2, 1), (1, 0)]

    def test_batch_matches_per_call_fuzzed(self, tmp_path):
        svc = self._service(tmp_path)
        rng = random.Random(11)
        for spec in (cycle_spec(8), EmbeddingSpec.make("ccc", n=4)):
            edges = list(svc.shard_for(spec).csr.edges)
            requests = []
            for _ in range(64):
                u, v = edges[rng.randrange(len(edges))]
                requests.append((v, u) if rng.random() < 0.5 else (u, v))
            batch = svc.route_batch(spec, requests)
            for i, edge in enumerate(requests):
                assert batch.paths(i) == svc.route(spec, RouteRequest(edge)).paths

    def test_batch_unknown_edge_raises(self, tmp_path):
        svc = self._service(tmp_path)
        with pytest.raises(KeyError):
            svc.route_batch(cycle_spec(6), [(0, 1), (0, 5)])

    def test_empty_batch(self, tmp_path):
        svc = self._service(tmp_path)
        batch = svc.route_batch(cycle_spec(6), [])
        assert len(batch) == 0 and batch.total_paths == 0

    def test_batch_observability(self, tmp_path):
        svc = self._service(tmp_path)
        svc.route_batch(cycle_spec(6), [(0, 1), (1, 2)])
        snap = svc.metrics.snapshot()
        assert snap["counters"]["routes"] == 2
        assert snap["counters"]["shard_misses"] == 1
        svc.route_batch(cycle_spec(6), [(2, 3)])
        assert svc.metrics.count("shard_hits") == 1
        assert snap["gauges"]["shards_active"] == 1

    def test_close_unlinks_shards(self, tmp_path):
        svc = self._service(tmp_path)
        svc.route_batch(cycle_spec(6), [(0, 1)])
        assert svc.shards.info() != {}
        svc.close()
        assert svc.shards.info() == {}


class TestMetrics:
    # the service layer now measures through repro.obs.MetricsRegistry;
    # the ServiceMetrics shim itself is covered in test_deprecation_shims
    def test_counters_and_timers(self):
        m = MetricsRegistry()
        m.incr("hits")
        m.incr("hits", 2)
        m.observe("lat", 0.5)
        with m.time("lat"):
            pass
        snap = m.snapshot()
        assert snap["counters"]["hits"] == 3
        assert snap["timers"]["lat"]["count"] == 2
        assert snap["timers"]["lat"]["max_s"] >= 0.5

    def test_reset(self):
        m = MetricsRegistry()
        m.incr("x")
        m.reset()
        assert m.snapshot()["counters"] == {}
        assert m.snapshot()["timers"] == {}

    def test_service_gauges_record_verified_shape(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        reg.get_or_build(cycle_spec())
        gauges = reg.metrics.snapshot()["gauges"]
        assert gauges["embedding_load{kind=cycle}"] == 1
        assert gauges["embedding_width{kind=cycle}"] >= 3


class _GatedService:
    """Stub service: echoes requests; ``route_batch`` can block on a gate.

    Lets the frontend tests park the drainer thread inside a batch call
    (``gate``) and observe exactly which requests coalesced into which
    batch (``batch_sizes``), with ``entered`` signalling that the drainer
    has actually started resolving.
    """

    def __init__(self, blocked=False):
        self.metrics = MetricsRegistry()
        self.batch_sizes = []
        self.gate = threading.Event()
        self.entered = threading.Event()
        self._lock = threading.Lock()
        if not blocked:
            self.gate.set()

    def shard_for(self, spec):
        return None

    def route_batch(self, spec, requests):
        self.entered.set()
        assert requests, "frontend must never issue an empty batch"
        assert self.gate.wait(timeout=5.0), "gate never released"
        with self._lock:
            self.batch_sizes.append(len(requests))
        return [req.guest_edge for req in requests]


class TestBatchingFrontend:
    # regression tests for the deadline-coalescing fix: max_wait_s bounds
    # how long the drainer *waits*, not how much it coalesces

    def test_zero_deadline_coalesces_queued_requests(self):
        svc = _GatedService(blocked=True)
        with BatchingFrontend(svc, spec=None, max_wait_s=0.0) as frontend:
            first = frontend.submit((0, 1))
            assert svc.entered.wait(timeout=5.0)
            # drainer is parked inside route_batch; these five pile up
            later = [frontend.submit((i, i + 1)) for i in range(1, 6)]
            svc.gate.set()
            assert first.result(timeout=5.0) == (0, 1)
            assert [f.result(timeout=5.0) for f in later] == [
                (i, i + 1) for i in range(1, 6)
            ]
        # one singleton batch (nothing else had arrived), then ONE batch
        # of five — not five batches of one, despite the zero deadline
        assert svc.batch_sizes == [1, 5]
        assert frontend.stats() == {
            "batches": 2, "served": 6, "mean_batch": 3.0,
        }

    def test_zero_deadline_lone_request_flushes_immediately(self):
        svc = _GatedService()
        with BatchingFrontend(svc, spec=None, max_wait_s=0.0) as frontend:
            assert frontend.submit((3, 4)).result(timeout=5.0) == (3, 4)
        assert svc.batch_sizes == [1]

    def test_zero_deadline_respects_max_batch(self):
        svc = _GatedService(blocked=True)
        with BatchingFrontend(
            svc, spec=None, max_batch=2, max_wait_s=0.0
        ) as frontend:
            first = frontend.submit((0, 1))
            assert svc.entered.wait(timeout=5.0)
            later = [frontend.submit((1, 2)) for _ in range(5)]
            svc.gate.set()
            for f in [first, *later]:
                f.result(timeout=5.0)
        assert svc.batch_sizes == [1, 2, 2, 1]

    def test_empty_queue_flush_on_stop(self):
        svc = _GatedService()
        frontend = BatchingFrontend(svc, spec=None).start()
        frontend.stop()
        # nothing was pending: no batch call, clean stats, restartable
        assert svc.batch_sizes == []
        assert frontend.stats() == {
            "batches": 0, "served": 0, "mean_batch": 0.0,
        }
        with frontend:
            assert frontend.submit((0, 1)).result(timeout=5.0) == (0, 1)
        assert svc.batch_sizes == [1]

    def test_stop_flushes_pending_requests(self):
        svc = _GatedService(blocked=True)
        frontend = BatchingFrontend(svc, spec=None, max_wait_s=0.0).start()
        first = frontend.submit((0, 1))
        assert svc.entered.wait(timeout=5.0)
        pending = [frontend.submit((1, 2)) for _ in range(3)]
        svc.gate.set()
        frontend.stop()
        for f in [first, *pending]:
            assert f.result(timeout=5.0) is not None
        assert sum(svc.batch_sizes) == 4

"""The memmapped artifact store and the registry tiers built on it.

Covers the instant-start contract end to end: a store file round-trips a
CSR field-identically (packed int edges and JSON tuple edges alike), every
corruption class is caught by the right checksum at the right time,
transient filesystem errors never delete a healthy artifact, legacy JSON
artifacts migrate in place, two racing processes produce exactly one
build, and a fresh service serves its first batch off the mapped file
without rebuilding anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import embed_cycle_load1
from repro.core.fast_verify import embedding_csr
from repro.service.registry import (
    EmbeddingRegistry,
    decode_embedding,
    make_artifact,
)
from repro.service.shards import attach_shard
from repro.service.specs import EmbeddingSpec, build_spec
from repro.service.store import (
    EAGER_VERIFY_LIMIT,
    PackedEdges,
    StoreIntegrityError,
    open_store,
    read_store_header,
    write_store,
)


def _csr(n=6):
    return embedding_csr(embed_cycle_load1(n))


def _write(tmp_path, csr, blob="{}", **kw):
    kw.setdefault("spec_key", "k" * 64)
    kw.setdefault("kind", "cycle")
    path = tmp_path / "artifact.rpstore"
    info = write_store(path, csr, blob, **kw)
    return path, info


def _flip_byte(path, offset):
    with open(path, "r+b") as fh:
        fh.seek(offset)
        byte = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([byte[0] ^ 0xFF]))


class TestRoundtrip:
    def test_packed_edges_field_identity(self, tmp_path):
        csr = _csr()
        path, info = _write(tmp_path, csr)
        assert info.edges_mode == "packed"
        view = open_store(path)
        try:
            mapped = view.csr
            assert mapped.host_n == csr.host_n
            for f in ("nodes", "path_offsets", "bundle_offsets", "path_reversed"):
                assert np.array_equal(getattr(mapped, f), getattr(csr, f)), f
            assert list(mapped.edges) == list(csr.edges)
            assert mapped.lookup is not None  # searchsorted path is armed
        finally:
            view.close()

    def test_packed_resolution_matches_fresh(self, tmp_path):
        csr = _csr()
        path, _ = _write(tmp_path, csr)
        view = open_store(path)
        try:
            batch = list(csr.edges[:8]) + [(v, u) for u, v in csr.edges[:8]]
            got = view.csr.take(batch)
            want = csr.take(batch)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            with pytest.raises(KeyError):
                view.csr.resolve([(0, 5)])  # not a guest edge
        finally:
            view.close()

    def test_tuple_vertex_edges_fall_back_to_json(self, tmp_path):
        csr = embedding_csr(build_spec(EmbeddingSpec.make("grid", dims=(4, 4))))
        path, info = _write(tmp_path, csr, kind="grid")
        assert info.edges_mode == "json"
        view = open_store(path)
        try:
            assert view.csr.edges == csr.edges  # nested tuples, hashable
            batch = list(csr.edges[:4])
            got = view.csr.take(batch)
            want = csr.take(batch)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        finally:
            view.close()

    def test_blob_rides_behind_the_arrays(self, tmp_path):
        blob = json.dumps({"payload": "x" * 2048})
        path, info = _write(tmp_path, _csr(), blob=blob)
        assert info.blob_bytes == len(blob.encode())
        view = open_store(path)
        try:
            assert view.blob_text() == blob
        finally:
            view.close()

    def test_header_metadata(self, tmp_path):
        path, info = _write(
            tmp_path, _csr(), spec_key="s" * 64, kind="cycle",
            params={"n": 6}, package_version="9.9.9", construction="cycle(n=6)",
        )
        header = read_store_header(path)
        assert header["spec_key"] == "s" * 64
        assert header["kind"] == "cycle"
        assert header["params"] == {"n": 6}
        assert header["package_version"] == "9.9.9"
        assert header["sha256"] == info.sha256
        assert header["payload"] == info.nbytes
        # every array offset is 8-aligned so int64 views map directly
        assert all(s["offset"] % 8 == 0 for s in header["arrays"])

    def test_write_leaves_no_temp_files(self, tmp_path):
        _write(tmp_path, _csr())
        assert list(tmp_path.glob("*.tmp")) == []

    def test_closed_view_refuses(self, tmp_path):
        path, _ = _write(tmp_path, _csr())
        view = open_store(path)
        view.close()
        with pytest.raises(StoreIntegrityError):
            view.blob_text()
        with pytest.raises(StoreIntegrityError):
            view.verify_payload()


class TestPackedEdges:
    def test_sequence_surface(self):
        uv = np.array([[0, 1], [2, 3], [4, 5]], dtype=np.int64)
        edges = PackedEdges(uv)
        assert len(edges) == 3
        assert edges[1] == (2, 3)
        assert edges[-1] == (4, 5)
        assert edges[:2] == [(0, 1), (2, 3)]
        assert list(edges) == [(0, 1), (2, 3), (4, 5)]
        assert all(isinstance(x, int) for e in edges for x in e)


class TestIntegrity:
    def test_not_a_store_file(self, tmp_path):
        bogus = tmp_path / "bogus.rpstore"
        bogus.write_bytes(b"not a store" * 10)
        with pytest.raises(StoreIntegrityError):
            open_store(bogus)
        with pytest.raises(StoreIntegrityError):
            read_store_header(bogus)

    def test_truncation_detected(self, tmp_path):
        path, _ = _write(tmp_path, _csr())
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size - 64)
        with pytest.raises(StoreIntegrityError):
            open_store(path)

    def test_payload_tamper_caught_eagerly_when_small(self, tmp_path):
        path, info = _write(tmp_path, _csr())
        assert info.nbytes <= EAGER_VERIFY_LIMIT  # so "auto" hashes on open
        _flip_byte(path, read_store_header(path)["data_start"])
        with pytest.raises(StoreIntegrityError):
            open_store(path)

    def test_lazy_mode_defers_payload_hash(self, tmp_path):
        path, _ = _write(tmp_path, _csr())
        _flip_byte(path, read_store_header(path)["data_start"])
        view = open_store(path, payload_verify="lazy")  # open succeeds ...
        try:
            with pytest.raises(StoreIntegrityError):
                view.verify_payload()  # ... the on-demand re-hash balks
        finally:
            view.close()

    def test_blob_tamper_caught_on_read_even_in_lazy_mode(self, tmp_path):
        path, _ = _write(tmp_path, _csr(), blob='{"k": "v"}')
        _flip_byte(path, read_store_header(path)["blob_offset"])
        view = open_store(path, payload_verify="lazy")
        try:
            with pytest.raises(StoreIntegrityError):
                view.blob_text()  # blob reads are always digest-checked
        finally:
            view.close()

    def test_expectations_pin_key_and_versions(self, tmp_path):
        path, _ = _write(
            tmp_path, _csr(), spec_key="a" * 64, package_version="1.2.3",
            artifact_version=1,
        )
        open_store(path, expect_key="a" * 64, expect_package_version="1.2.3",
                   expect_artifact_version=1).close()
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_key="b" * 64)
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_package_version="9.9.9")
        with pytest.raises(StoreIntegrityError):
            open_store(path, expect_artifact_version=2)

    def test_verify_mode_env_and_validation(self, tmp_path, monkeypatch):
        path, _ = _write(tmp_path, _csr())
        _flip_byte(path, read_store_header(path)["data_start"])
        monkeypatch.setenv("REPRO_STORE_VERIFY", "lazy")
        open_store(path).close()  # env wins: no eager hash, no error
        monkeypatch.setenv("REPRO_STORE_VERIFY", "eager")
        with pytest.raises(StoreIntegrityError):
            open_store(path)
        monkeypatch.setenv("REPRO_STORE_VERIFY", "bogus")
        with pytest.raises(ValueError):
            open_store(path)

    def test_header_layout_tamper_is_caught(self, tmp_path):
        # a same-length edit of an array offset re-points the nodes array;
        # the payload digest never covers the array table, the header
        # digest does
        csr = _csr()
        path, _ = _write(tmp_path, csr)
        size = csr.nodes.size
        raw = path.read_bytes()
        good = b'"name":"nodes","dtype":"<i8","size":%d,"offset":0}' % size
        assert raw.count(good) == 1
        path.write_bytes(raw.replace(good, good.replace(b":0}", b":8}")))
        with pytest.raises(StoreIntegrityError):
            open_store(path, payload_verify="eager")

    def test_malformed_value_under_a_valid_digest_is_integrity_error(self, tmp_path):
        import hashlib
        import struct

        path, _ = _write(tmp_path, _csr())
        prefix = struct.Struct("<8sQ32s")
        raw = path.read_bytes()
        magic, head_len, _ = prefix.unpack(raw[: prefix.size])
        head = raw[prefix.size : prefix.size + head_len]
        bad = head.replace(b'"host_n":6', b'"host_n":[]', 1)
        assert bad != head
        signed = prefix.pack(magic, len(bad), hashlib.sha256(bad).digest())
        path.write_bytes(signed + bad + raw[prefix.size + len(bad) :])
        with pytest.raises(StoreIntegrityError, match="malformed header"):
            open_store(path)

    def test_missing_file_raises_oserror_not_integrity(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_store(tmp_path / "absent.rpstore")


def _spec(n=6):
    return EmbeddingSpec.make("cycle", n=n)


class TestRegistryTiers:
    def test_get_store_promotes_to_warm(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path, promote_after=2)
        reg.get_or_build(_spec())
        fresh = EmbeddingRegistry(cache_dir=tmp_path, promote_after=2)
        first = fresh.get_store(_spec())
        assert first is not None
        assert fresh.metrics.count("warm_promotions") == 0
        second = fresh.get_store(_spec())
        assert fresh.metrics.count("warm_promotions") == 1
        third = fresh.get_store(_spec())
        assert third is second  # pinned: no re-open, no header parse
        assert fresh.metrics.count("warm_hits") == 1
        snap = fresh.stats()
        assert snap["warm_entries"] == 1
        assert "cache_hit_rate{tier=warm}" in snap["gauges"]

    def test_warm_eviction_drops_pin_only(self, tmp_path):
        reg = EmbeddingRegistry(
            cache_dir=tmp_path, promote_after=1, warm_capacity=1
        )
        for n in (6, 8):
            reg.get_or_build(_spec(n))
        first = reg.get_store(_spec(6))
        csr = first.csr
        reg.get_store(_spec(8))  # evicts the Q_6 pin
        assert reg.metrics.count("warm_evictions") == 1
        # the evicted view closed, but a holder's arrays stay mapped
        paths = csr.take([(0, 1)])
        assert paths[0].size > 0

    def test_transient_error_spares_the_artifact(self, tmp_path, monkeypatch):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)

        import repro.service.registry as registry_mod

        def flaky(*args, **kwargs):
            raise PermissionError("flaky mount")

        monkeypatch.setattr(registry_mod, "open_store", flaky)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is None
        assert fresh.get(spec) is None
        assert path.exists()  # NOT deleted: the file may be perfectly fine
        assert fresh.metrics.count("disk_transient") >= 1
        assert fresh.metrics.count("disk_corrupt") == 0

    def test_corrupt_artifact_is_removed(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        path = reg.path_for(spec)
        with open(path, "r+b") as fh:
            fh.truncate(64)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is None
        assert not path.exists()
        assert fresh.metrics.count("disk_corrupt") == 1

    def test_clear_sweeps_tmp_and_lock_orphans(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        reg.get_or_build(spec)
        kind_dir = reg.path_for(spec).parent
        (kind_dir / "deadbeef.rpstore.12345.abcd.tmp").write_bytes(b"orphan")
        (kind_dir / "deadbeef.lock").write_text("99999")
        (tmp_path / "stray.tmp").write_bytes(b"orphan")
        assert reg.clear() == 1  # one artifact, orphans not counted
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.lock")) == []
        assert reg.metrics.count("orphans_swept") == 3

    def test_legacy_json_fallback_and_migrate(self, tmp_path):
        spec = _spec()
        emb = build_spec(spec)
        emb.verify()
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        legacy = reg.legacy_path_for(spec)
        legacy.parent.mkdir(parents=True, exist_ok=True)
        legacy.write_text(make_artifact(spec, emb))
        assert reg.get(spec) is not None  # served off the JSON tier
        assert reg.metrics.count("legacy_hits") == 1
        out = reg.migrate(verify_payload=True)
        assert out == {"migrated": 1, "skipped": 0, "failed": 0}
        assert not legacy.exists()
        assert reg.path_for(spec).exists()
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        assert fresh.get_store(spec) is not None

    def test_shard_for_writes_the_store_of_a_legacy_artifact(self, tmp_path):
        from repro.service.api import RoutingService

        spec = _spec()
        emb = build_spec(spec)
        emb.verify()
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        reg.legacy_path_for(spec).write_text(make_artifact(spec, emb))
        svc = RoutingService(registry=reg)
        shard = svc.shard_for(spec)  # no rebuild: the JSON tier serves
        assert reg.metrics.count("builds") == 0
        assert shard.info.path == str(reg.path_for(spec))
        svc.close()

    def test_migrate_keeps_unreadable_artifacts(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        bad = tmp_path / ("f" * 64 + ".json")
        bad.parent.mkdir(parents=True, exist_ok=True)
        bad.write_text("{ not json")
        out = reg.migrate()
        assert out["failed"] == 1
        assert bad.exists()  # never destroy what cannot be replaced

    def test_migrate_skips_existing_binary(self, tmp_path):
        spec = _spec()
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        emb = reg.get_or_build(spec)
        reg.legacy_path_for(spec).write_text(make_artifact(spec, emb))
        out = reg.migrate()
        assert out == {"migrated": 0, "skipped": 1, "failed": 0}

    def test_ls_reports_both_tiers(self, tmp_path):
        spec = _spec()
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        emb = reg.get_or_build(spec)
        reg.legacy_path_for(spec).write_text(make_artifact(spec, emb))
        tiers = sorted(row["tier"] for row in reg.ls())
        assert tiers == ["legacy-json", "store"]

    def test_multicopy_roundtrip_through_binary_tier(self, tmp_path):
        spec = EmbeddingSpec.make("ccc", n=4)
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        built = reg.get_or_build(spec)
        fresh = EmbeddingRegistry(cache_dir=tmp_path)
        back = fresh.get(spec)  # materialized from the store blob
        assert back.k == built.k
        back.verify()
        view = fresh.get_store(spec)
        want = embedding_csr(built)
        batch = list(want.edges[:6]) + [(v, u) for u, v in want.edges[:6]]
        got = view.csr.take(batch)
        ref = want.take(batch)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref))


def _env():
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


_RACE_WORKER = """
import sys
from repro.service.registry import EmbeddingRegistry
from repro.service.specs import EmbeddingSpec

reg = EmbeddingRegistry(cache_dir=sys.argv[1])
spec = EmbeddingSpec.make("cycle", n=8)
emb = reg.get_or_build(spec)
assert emb is not None
print(reg.metrics.count("builds"))
"""


class TestCrossProcess:
    def test_two_processes_build_exactly_once(self, tmp_path):
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACE_WORKER, str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=_env(),
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=120) for p in procs]
        assert all(p.returncode == 0 for p in procs), outs
        builds = [int(out.strip()) for out, _ in outs]
        assert sum(builds) == 1, f"duplicate build: {builds}"
        # whoever won, the artifact on disk is whole and valid
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = EmbeddingSpec.make("cycle", n=8)
        view = reg.get_store(spec)
        assert view is not None
        view.verify_payload()
        assert list(tmp_path.rglob("*.tmp")) == []
        assert list(tmp_path.rglob("*.lock")) == []

    def test_dead_builders_lock_is_stolen(self, tmp_path):
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        spec = _spec()
        lock = reg._lock_path_for(spec)
        lock.parent.mkdir(parents=True, exist_ok=True)
        lock.write_text("999999999")  # a pid that cannot be alive
        emb = reg.get_or_build(spec)  # must not deadlock
        assert emb is not None
        assert reg.metrics.count("builds") == 1
        assert not lock.exists()

    def test_concurrent_admits_do_not_tear(self, tmp_path):
        spec = _spec()
        emb = build_spec(spec)
        emb.verify()
        text = make_artifact(spec, emb)
        import threading

        regs = [EmbeddingRegistry(cache_dir=tmp_path) for _ in range(4)]
        threads = [
            threading.Thread(target=r.admit_artifact, args=(spec, text, emb))
            for r in regs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        view = EmbeddingRegistry(cache_dir=tmp_path).get_store(spec)
        assert view is not None
        view.verify_payload()
        back = decode_embedding(
            json.loads(view.blob_text())["payload"], verify=False
        )
        back.verify()


class TestFileBackedServing:
    def test_cold_service_serves_off_the_file(self, tmp_path):
        from repro.service.api import RoutingService

        spec = _spec(8)
        warm = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        want = warm.route_batch(spec, [(0, 1), (3, 2)])
        warm.close()

        cold = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        got = cold.route_batch(spec, [(0, 1), (3, 2)])
        assert [got.paths(i) for i in range(2)] == [
            want.paths(i) for i in range(2)
        ]
        shard = cold.shard_for(spec)
        assert shard.info.path == str(cold.registry.path_for(spec))
        assert cold.metrics.count("builds") == 0
        cold.close()

    def test_malformed_header_is_corrupt_and_rebuilt(self, tmp_path):
        from repro.service.api import RoutingService, disjoint_paths

        spec = _spec(10)  # a two-digit host_n allows a same-length edit
        reg = EmbeddingRegistry(cache_dir=tmp_path)
        emb = reg.get_or_build(spec)
        path = reg.path_for(spec)
        raw = path.read_bytes()
        assert raw.count(b'"host_n":10,') == 1
        path.write_bytes(raw.replace(b'"host_n":10,', b'"host_n":"",'))

        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        got = svc.route_batch(spec, [(0, 1), (5, 4)])
        assert [got.paths(i) for i in range(2)] == [
            disjoint_paths(emb, (0, 1)), disjoint_paths(emb, (5, 4))
        ]
        assert svc.metrics.count("disk_corrupt") == 1
        assert svc.metrics.count("builds") == 1
        svc.close()

    def test_first_batch_on_empty_cache_builds_verifies_and_exports_once(
        self, tmp_path, monkeypatch
    ):
        import repro.service.api as api_mod
        import repro.service.registry as registry_mod
        from repro.core.embedding import MultiPathEmbedding
        from repro.service.api import RoutingService

        calls = {"build": 0, "verify": 0, "csr": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(registry_mod, "build_spec", counting("build", build_spec))
        # every module that can export a CSR on this path, imported by name
        for mod in (registry_mod, api_mod):
            monkeypatch.setattr(
                mod, "embedding_csr", counting("csr", embedding_csr), raising=False
            )
        monkeypatch.setattr(
            MultiPathEmbedding, "verify",
            counting("verify", MultiPathEmbedding.verify),
        )
        spec = _spec(8)
        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        svc.route_batch(spec, [(0, 1)])
        assert calls == {"build": 1, "verify": 1, "csr": 1}
        shard = svc.shard_for(spec)
        assert shard.info.path == str(svc.registry.path_for(spec))
        svc.close()

    def test_attach_shard_by_store_path(self, tmp_path):
        csr = _csr()
        path, _ = _write(tmp_path, csr, spec_key="w" * 64)
        view = attach_shard(str(path))
        assert view.info.path == str(path)
        assert view.info.spec_key == "w" * 64
        batch = list(csr.edges[:4])
        got = view.csr.take(batch)
        want = csr.take(batch)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        view.close()

"""Shard lifecycle: publish/attach/unpublish, integrity, multi-process.

A shard is the registry's store file, memmapped.  The publisher and every
worker map the same file with ``open_store``, so these tests exercise the
one safety story end to end: an attached file resolves the same answers as
the CSR it was written from, a corrupted file is refused at open, a
crashing worker leaves the file serving, and two workers can serve batches
off one file (the tier-1 shard smoke).
"""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import embed_cycle_load1
from repro.core.fast_verify import embedding_csr
from repro.service import EmbeddingRegistry, EmbeddingSpec, RoutingService
from repro.service.shards import ShardManager, attach_shard
from repro.service.store import (
    StoreIntegrityError,
    open_store,
    read_store_header,
    write_store,
)


def _csr(n=6):
    return embedding_csr(embed_cycle_load1(n))


def _store(tmp_path, csr, spec_key="k" * 64):
    path = tmp_path / "shard.rpstore"
    write_store(path, csr, "{}", spec_key=spec_key, kind="cycle")
    return path


def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


def _env():
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_worker(probe: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=_env(),
    )


class TestPublishAttach:
    def test_roundtrip_is_field_identical(self, tmp_path):
        csr = _csr()
        view = attach_shard(str(_store(tmp_path, csr, spec_key="t" * 64)))
        try:
            assert view.info.spec_key == "t" * 64
            assert view.info.num_paths == csr.num_paths
            assert list(view.csr.edges) == list(csr.edges)
            batch = list(csr.edges[:4]) + [(v, u) for u, v in csr.edges[:4]]
            a_nodes, a_po, a_ro = view.csr.take(batch)
            b_nodes, b_po, b_ro = csr.take(batch)
            assert (a_nodes == b_nodes).all()
            assert (a_po == b_po).all()
            assert (a_ro == b_ro).all()
        finally:
            view.close()

    def test_attached_arrays_are_read_only(self, tmp_path):
        view = open_store(_store(tmp_path, _csr()))
        with pytest.raises((ValueError, RuntimeError)):
            view.csr.nodes[0] = 99
        view.close()

    def test_unlinked_segment_cannot_be_attached(self, tmp_path):
        path = _store(tmp_path, _csr())
        path.unlink()
        with pytest.raises(FileNotFoundError):
            open_store(path)

    def test_payload_corruption_detected(self, tmp_path):
        path = _store(tmp_path, _csr())
        header = read_store_header(path)
        _flip_byte(path, header["data_start"] + header["payload"] - 1)
        with pytest.raises(StoreIntegrityError, match="checksum"):
            open_store(path, payload_verify="eager")

    def test_bad_magic_detected(self, tmp_path):
        path = _store(tmp_path, _csr())
        _flip_byte(path, 0)
        with pytest.raises(StoreIntegrityError, match="not a repro store file"):
            open_store(path)

    def test_dtype_contract_violation_detected(self, tmp_path):
        path = _store(tmp_path, _csr())
        prefix = struct.Struct("<8sQ32s")
        raw = path.read_bytes()
        magic, head_len, _ = prefix.unpack(raw[: prefix.size])
        head = raw[prefix.size : prefix.size + head_len]
        # same-length in-place header tamper: nodes dtype <i8 -> <i2
        tampered = head.replace(b'"dtype":"<i8"', b'"dtype":"<i2"', 1)
        path.write_bytes(raw[: prefix.size] + tampered + raw[prefix.size + head_len :])
        with pytest.raises(StoreIntegrityError, match="header checksum"):
            open_store(path)
        # even a re-signed header must honour the dtype contract
        signed = prefix.pack(magic, head_len, hashlib.sha256(tampered).digest())
        path.write_bytes(signed + tampered + raw[prefix.size + head_len :])
        with pytest.raises(StoreIntegrityError, match="dtype contract"):
            open_store(path)


class TestShardManager:
    def test_publish_mapped_caches_and_counts(self, tmp_path):
        svc = RoutingService(registry=EmbeddingRegistry(cache_dir=tmp_path))
        spec = EmbeddingSpec.make("cycle", n=6)
        first = svc.shard_for(spec)
        again = svc.shard_for(spec)
        assert again is first
        assert svc.metrics.count("shard_misses") == 1
        assert svc.metrics.count("shard_hits") == 1
        assert svc.metrics.snapshot()["gauges"]["shards_active"] == 1
        assert list(svc.shards.info()) == [spec.cache_key()]
        assert svc.shards.get(spec.cache_key()) is first
        assert svc.shards.get("absent") is None
        svc.close()

    def test_unlink_and_close(self, tmp_path):
        path = _store(tmp_path, _csr())
        mgr = ShardManager()
        view = mgr.publish_mapped("k", open_store(path))
        assert mgr.unlink("k") is True
        assert mgr.unlink("k") is False  # idempotent
        assert view.csr is None
        open_store(path).close()  # the file itself stays servable
        mgr.publish_mapped("k2", open_store(path))
        mgr.close()
        assert mgr.info() == {}
        mgr.close()  # close is idempotent too

    def test_shard_outlives_the_store_view_it_came_from(self, tmp_path):
        # the warm tier closes evicted views; a served shard must not care
        csr = _csr()
        store = open_store(_store(tmp_path, csr))
        with ShardManager() as mgr:
            shard = mgr.publish_mapped("k", store)
            assert shard is not store
            store.close()
            batch = list(csr.edges[:4])
            got, want = shard.csr.take(batch), csr.take(batch)
            assert all((g == w).all() for g, w in zip(got, want))


class TestMultiProcess:
    def test_worker_crash_leaves_segment_alive(self, tmp_path):
        path = _store(tmp_path, _csr(), spec_key="c" * 64)
        with ShardManager() as mgr:
            shard = mgr.publish_mapped("crashy", open_store(path))
            out = _run_worker(
                "import os;"
                "from repro.service.store import open_store;"
                f"view = open_store({str(path)!r});"
                "view.csr.take([view.csr.edges[0]]);"
                "print('attached-ok', flush=True);"
                "os._exit(17)"  # die without any cleanup
            )
            assert "attached-ok" in out.stdout
            assert out.returncode == 17
            # the publisher keeps serving, and the file still opens
            nodes, _, _ = shard.csr.take([shard.csr.edges[0]])
            assert nodes.size > 0
            view = open_store(path)
            assert view.info.spec_key == "c" * 64
            view.close()

    def test_two_workers_resolve_batches(self, tmp_path):
        csr = _csr()
        path = _store(tmp_path, csr)
        batch = list(csr.edges[:8]) + [(v, u) for u, v in csr.edges[:8]]
        _, _, request_offsets = csr.take(batch)
        expected = int(request_offsets[-1])
        probe = (
            "from repro.service.store import open_store;"
            f"view = open_store({str(path)!r});"
            f"batch = {batch!r};"
            "nodes, po, ro = view.csr.take(batch);"
            "print('paths', int(ro[-1]), flush=True);"
            "view.close()"
        )
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", probe],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env=_env(),
            )
            for _ in range(2)
        ]
        for worker in workers:
            out, err = worker.communicate(timeout=60)
            assert worker.returncode == 0, err
            assert f"paths {expected}" in out

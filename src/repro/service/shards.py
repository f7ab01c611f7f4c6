"""Published CSR shards — the serving substrate of ``route_batch``.

One *shard* is one embedding's full routing answer — the
:class:`~repro.core.fast_verify.PathCSR` arrays — served straight off the
registry's memmapped ``.rpstore`` file (:mod:`repro.service.store`).  The
file is the only form a served shard takes: other processes map the same
pages with :func:`~repro.service.store.open_store` on ``info.path``, and a
worker that dies, even by ``os._exit``, leaves nothing to clean up because
it never owned anything but its own mapping.

:class:`ShardManager` is the per-service map of published views: lookups
and publishes are serialized under one lock (lint R6 covers this module).
A :class:`ShardView` holds its own reference to the mapped arrays, so the
registry's warm tier closing an evicted
:class:`~repro.service.store.StoreView` never pulls a served CSR out from
under a request.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.core.fast_verify import PathCSR
from repro.obs.metrics import MetricsRegistry
from repro.service.store import StoreInfo, StoreView, open_store

__all__ = ["ShardView", "ShardManager", "attach_shard"]


class ShardView:
    """A published shard: ``.csr`` resolves batches straight off the file.

    ``close()`` drops this view's array references; the store file and any
    other mapping of it are untouched.
    """

    def __init__(self, csr: PathCSR, info: StoreInfo) -> None:
        self.csr = csr
        self.info = info

    def close(self) -> None:
        self.csr = None  # type: ignore[assignment]  # drop array views


def attach_shard(path: str) -> ShardView:
    """Map a store file read-only as a shard (worker side).

    Validates the file exactly as :func:`~repro.service.store.open_store`
    does; the returned view shares the publisher's page-cache pages.
    """
    store = open_store(path)
    return ShardView(store.csr, store.info)


class ShardManager:
    """The CSR shards one serving process has published, keyed by spec."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._shards: Dict[str, ShardView] = {}

    def get(self, key: str) -> Optional[ShardView]:
        with self._lock:
            return self._shards.get(key)

    def publish_mapped(self, key: str, store: StoreView) -> ShardView:
        """Serve a memmapped store artifact as the shard for ``key``.

        The shard wraps the store's zero-copy arrays in a view of its own,
        so closing ``store`` later does not close the shard.  A publish
        that loses a race keeps the first mapping.
        """
        view = ShardView(store.csr, store.info)
        with self._lock:
            winner = self._shards.setdefault(key, view)
        if winner is view:
            self.metrics.incr("shard_file_published")
        self._refresh_gauges()
        return winner

    def unlink(self, key: str) -> bool:
        """Unpublish one shard (its view closes; the store file stays)."""
        with self._lock:
            view = self._shards.pop(key, None)
        if view is None:
            return False
        view.close()
        self._refresh_gauges()
        return True

    def close(self) -> None:
        """Unpublish every shard; the manager stays usable afterwards."""
        with self._lock:
            views = list(self._shards.values())
            self._shards.clear()
        for view in views:
            view.close()
        self._refresh_gauges()

    def info(self) -> Dict[str, StoreInfo]:
        with self._lock:
            return {key: view.info for key, view in self._shards.items()}

    def _refresh_gauges(self) -> None:
        with self._lock:
            active = len(self._shards)
            total = sum(view.info.nbytes for view in self._shards.values())
        self.metrics.gauge("shards_active").set(active)
        self.metrics.gauge("shard_bytes").set(total)

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

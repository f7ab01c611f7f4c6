"""Vectorized link-bound simulator (numpy batch engine).

The dict-based :class:`repro.routing.simulator.StoreForwardSimulator` is
the reference implementation; this engine trades its per-packet Python
objects for numpy arrays — all packets advance in one vectorized step.
Measured (bench ``bench_perf``): break-even around 10^4 packets, ~2x at
10^5 (Q_14 permutations), growing with the number of packets in flight per
step — profile-first, per the optimization guidance in DESIGN.md.

Semantics: synchronous store-and-forward, at most one packet per directed
link per step, ties broken by *static priority* (packet injection order)
instead of per-link FIFO.  Both policies are work-conserving link-bound
schedules; makespans agree on contention-free workloads and stay within the
same congestion+dilation envelope otherwise (asserted in tests).

Following the hpc-parallel guidance: the hot loop does no Python-level
per-packet work — a ``lexsort`` groups packets by requested link and a
boolean diff picks each link's winner.  Recording follows the same rule:
with a recorder the engine accumulates per-link winner counts into one
numpy array and bulk-dumps it after the run; with ``recorder=None`` the
only cost is a single ``is None`` test per step (the <5% disabled-overhead
budget in ISSUE.md).

Implements the unified :class:`repro.routing.api.Simulator` protocol.
Unit service time only — atomic M-packet messages need the reference
engine.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.hypercube.graph import Hypercube
from repro.hypercube.pathcode import path_edge_matrix
from repro.obs.profile import profile_span
from repro.routing.api import ScheduleItem, SimResult, normalize_schedule

__all__ = ["FastStoreForward"]


class FastStoreForward:
    """Batch store-and-forward simulator over ``Q_n``."""

    engine = "fast-store-forward"

    def __init__(self, host: Hypercube):
        self.host = host

    def run(
        self,
        schedule: Iterable[ScheduleItem],
        *,
        max_steps: int = 10_000_000,
        recorder: Optional[Any] = None,
        faults: Optional[Any] = None,
    ) -> SimResult:
        """Run a packet schedule to completion.

        Returns a :class:`repro.routing.api.SimResult` and (when
        ``recorder`` is given) bulk-records per-link transmission
        counts and per-packet delivery steps.  Schedules with
        ``service_time != 1`` raise ``ValueError`` — use the reference
        :class:`~repro.routing.simulator.StoreForwardSimulator` for atomic
        multi-packet messages.

        ``faults`` (a :class:`repro.fault.FaultModel`) drops packets whose
        next hop is dead from ``faults.active_from`` onward — the same
        fail-stop semantics as the reference engine, field-for-field
        (dropped packets record ``done_steps`` of ``-1`` and are excluded
        from ``delivered``).
        """
        requests = normalize_schedule(schedule)
        if any(r.service_time != 1 for r in requests):
            raise ValueError(
                "FastStoreForward supports unit service time only; "
                "use StoreForwardSimulator for atomic multi-packet messages"
            )
        paths = [r.path for r in requests]
        releases = [r.release_step for r in requests]
        with profile_span("sim.fast_store_forward", packets=len(paths)):
            done_step, steps = self._run_arrays(
                paths, releases, max_steps, recorder, faults
            )
        # dropped packets carry done_step -1; makespan counts arrivals only
        makespan = max(0, int(done_step.max())) if done_step.size else 0
        return SimResult(
            makespan=makespan,
            delivered=int((done_step >= 0).sum()),
            injected=len(requests),
            steps=steps,
            done_steps=tuple(int(d) for d in done_step),
            engine=self.engine,
            recorder=recorder,
        )

    def _run_arrays(
        self,
        paths: List[Sequence[int]],
        releases: List[int],
        max_steps: int,
        recorder: Optional[Any],
        faults: Optional[Any] = None,
    ) -> Tuple[np.ndarray, int]:
        """Vectorized step loop; returns (per-packet done steps, steps run)."""
        num = len(paths)
        if num == 0:
            return np.zeros(0, dtype=np.int64), 0
        n = self.host.n
        dead_hop = None
        fault_from = 0
        if faults is not None and (faults.failed or faults.failed_nodes):
            dead_hop = faults.dead_link_mask()
            fault_from = faults.active_from
        # shared -1-padded edge-id encoding; validates every hop by XOR
        # popcount *before* any log2, so a zero-move hop (u == u) raises the
        # same clean ValueError the reference engine's edge_id would instead
        # of a divide-by-zero RuntimeWarning and an undefined float cast
        edges, lengths = path_edge_matrix(n, paths)
        done_step = np.zeros(num, dtype=np.int64)
        max_len = edges.shape[1]
        if max_len == 0:
            if recorder:
                recorder.add_deliveries(done_step)
            return done_step, 0

        hop = np.zeros(num, dtype=np.int64)
        release = np.asarray(releases, dtype=np.int64)
        priority = np.arange(num, dtype=np.int64)
        active = lengths > 0
        # per-directed-link winner tallies, allocated only when recording
        link_counts = (
            np.zeros(self.host.num_nodes * n, dtype=np.int64) if recorder else None
        )

        step = 0
        remaining = int(active.sum())
        while remaining > 0:
            step += 1
            if step > max_steps:
                raise RuntimeError(f"simulation exceeded {max_steps} steps")
            ready = active & (release <= step)
            idx = np.nonzero(ready)[0]
            if idx.size == 0:
                # jump straight to the next release
                step = int(release[active].min()) - 1
                continue
            want = edges[idx, hop[idx]]
            if dead_hop is not None and step >= fault_from:
                # drop packets whose next hop is dead, mirroring the
                # reference engine's top-of-step purge (done_step -1)
                doomed = dead_hop[want]
                if doomed.any():
                    kill = idx[doomed]
                    active[kill] = False
                    done_step[kill] = -1
                    remaining -= int(kill.size)
                    idx = idx[~doomed]
                    want = want[~doomed]
                    if idx.size == 0:
                        continue
            # one winner per link: sort by (link, priority), take group heads
            order = np.lexsort((priority[idx], want))
            sorted_links = want[order]
            head = np.empty(order.size, dtype=bool)
            head[0] = True
            np.not_equal(sorted_links[1:], sorted_links[:-1], out=head[1:])
            winners = idx[order[head]]
            if link_counts is not None:
                link_counts[sorted_links[head]] += 1  # winner links are unique
            hop[winners] += 1
            finished = winners[hop[winners] == lengths[winners]]
            if finished.size:
                active[finished] = False
                done_step[finished] = step
                remaining -= int(finished.size)
        if recorder:
            used = np.nonzero(link_counts)[0]
            recorder.add_link_counts(used, link_counts[used])
            recorder.add_deliveries(done_step[done_step >= 0])
        return done_step, step

"""Tests for the generic embedding utilities, Cannon matmul, and adaptive routing."""

import numpy as np
import pytest

from repro.apps.matmul import cannon_communication_steps, cannon_matmul
from repro.core import embed_cycle_load1
from repro.core.generic import shortest_path_embedding, widen_embedding
from repro.hypercube.graph import Hypercube
from repro.networks.cycle import DirectedCycle
from repro.networks.tree import random_binary_tree
from repro.routing.adaptive import adaptive_wormhole_experiment


class TestShortestPathEmbedding:
    def test_cycle_default_placement(self):
        emb = shortest_path_embedding(Hypercube(4), DirectedCycle(16))
        assert emb.load == 1
        assert emb.dilation <= 4

    def test_overloaded_guest_warns_and_reports_load(self):
        with pytest.warns(UserWarning, match="round-robin placement overloads"):
            emb = shortest_path_embedding(Hypercube(3), DirectedCycle(20))
        assert emb.load == 3  # ceil(20/8)
        # the verification report records the measured load
        report = emb.verify(strict=False)
        assert report.ok
        assert report.metrics["load"] == 3

    def test_explicit_overloaded_placement_does_not_warn(self):
        import warnings

        placement = {i: i % 8 for i in range(20)}
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            emb = shortest_path_embedding(
                Hypercube(3), DirectedCycle(20), placement
            )
        assert emb.load == 3

    def test_arbitrary_guest(self):
        tree = random_binary_tree(30, seed=1)
        emb = shortest_path_embedding(Hypercube(5), tree)
        emb.verify()

    def test_explicit_placement(self):
        placement = {i: 15 - i for i in range(16)}
        emb = shortest_path_embedding(
            Hypercube(4), DirectedCycle(16), placement
        )
        assert emb.vertex_map[0] == 15


class TestWidenEmbedding:
    def test_widen_cycle(self):
        base = shortest_path_embedding(Hypercube(5), DirectedCycle(32))
        wide = widen_embedding(base, 4)
        wide.verify()  # per-edge disjointness certified
        assert wide.width == 4

    def test_widen_preserves_vertex_map(self):
        base = shortest_path_embedding(Hypercube(4), DirectedCycle(16))
        wide = widen_embedding(base, 3)
        assert wide.vertex_map == base.vertex_map

    def test_width_bounds(self):
        base = shortest_path_embedding(Hypercube(4), DirectedCycle(16))
        with pytest.raises(ValueError):
            widen_embedding(base, 5)
        with pytest.raises(ValueError):
            widen_embedding(base, 0)

    def test_colocated_edges_trivial(self):
        tree = random_binary_tree(20, seed=2)
        base = shortest_path_embedding(Hypercube(3), tree)
        wide = widen_embedding(base, 2)
        for (u, v), paths in wide.edge_paths.items():
            if base.vertex_map[u] == base.vertex_map[v]:
                assert paths == ((base.vertex_map[u],),)


class TestCannon:
    @pytest.mark.parametrize("P", [2, 4])
    def test_numerics(self, P):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        assert np.allclose(cannon_matmul(a, b, P), a @ b)

    def test_identity(self):
        eye = np.eye(8)
        assert np.allclose(cannon_matmul(eye, eye, 4), eye)

    def test_invalid(self):
        with pytest.raises(ValueError):
            cannon_matmul(np.zeros((6, 6)), np.zeros((6, 6)), 4)
        with pytest.raises(ValueError):
            cannon_matmul(np.zeros((4, 4)), np.zeros((4, 6)), 2)

    def test_copy_overlap_halves_communication(self):
        res = cannon_communication_steps(16, 8)
        assert res["overlapped_steps"] == 8
        assert res["single_copy_steps"] == 16


class TestAdaptive:
    def test_adaptive_beats_oblivious(self):
        emb = embed_cycle_load1(8)
        res = adaptive_wormhole_experiment(emb, 128, flits=8, seed=3)
        assert res["adaptive"] <= res["oblivious"]

    def test_deterministic(self):
        emb = embed_cycle_load1(6)
        a = adaptive_wormhole_experiment(emb, 32, flits=4, seed=9)
        b = adaptive_wormhole_experiment(emb, 32, flits=4, seed=9)
        assert a == b

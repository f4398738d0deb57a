"""Accelerators: cell-list neighbor search."""

import numpy as np
import pytest

from repro.scoring.neighborlist import CellList, query_pairs


def _query(cl, center, r):
    """Stored indices within ``r`` of one center."""
    stored, _ = query_pairs(cl, np.asarray(center, float).reshape(1, 3), r)
    return stored


class TestCellList:
    def test_query_matches_brute_force(self, rng):
        pts = rng.normal(size=(200, 3)) * 10.0
        cl = CellList(pts, cell_size=4.0)
        for _ in range(10):
            center = rng.normal(size=3) * 8.0
            r = float(rng.uniform(1.0, 4.0))
            got = set(_query(cl, center, r))
            want = set(
                np.nonzero(np.linalg.norm(pts - center, axis=1) <= r)[0]
            )
            assert got == want

    def test_large_radius_widens_scan(self, rng):
        pts = rng.normal(size=(100, 3)) * 10.0
        cl = CellList(pts, cell_size=3.0)
        center = np.zeros(3)
        got = set(_query(cl, center, 12.0))
        want = set(np.nonzero(np.linalg.norm(pts, axis=1) <= 12.0)[0])
        assert got == want

    def test_empty_region(self, rng):
        pts = rng.normal(size=(50, 3))
        cl = CellList(pts, cell_size=2.0)
        assert _query(cl, [100.0, 100.0, 100.0], 1.0).size == 0

    def test_len(self, rng):
        assert len(CellList(rng.normal(size=(7, 3)))) == 7

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            CellList(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            CellList(np.zeros((3, 3)), cell_size=0.0)

    def test_query_pairs_within_radius(self, rng):
        pts = rng.normal(size=(60, 3)) * 6
        probes = rng.normal(size=(5, 3)) * 6
        cl = CellList(pts, cell_size=3.0)
        si, pi = query_pairs(cl, probes, 3.0)
        assert si.shape == pi.shape
        d = np.linalg.norm(pts[si] - probes[pi], axis=1)
        assert (d <= 3.0).all()
        # Completeness: count matches brute force.
        brute = (
            np.linalg.norm(
                pts[:, None, :] - probes[None, :, :], axis=-1
            )
            <= 3.0
        ).sum()
        assert si.size == brute

    def test_query_pairs_far_probes_empty(self, rng):
        cl = CellList(rng.normal(size=(10, 3)))
        si, pi = query_pairs(cl, np.full((2, 3), 99.0), 1.0)
        assert si.size == 0 and pi.size == 0

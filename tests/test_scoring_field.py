"""Hybrid field scorer: two-regime accuracy, bit-stability, plumbing.

The load-bearing properties (see ``repro/scoring/field.py``):

- in-box poses track the exact scorer to a small interpolation drift
  of the *clipped* fields -- overlapping pairs (the clash terms) are
  rescored exactly, so deep-clash scores agree to relative rounding;
  fully out-of-box poses match :class:`ExactScorer` *bitwise*;
- the clash-voxel candidate mask is a conservative superset: every
  atom within ``clash_radius`` of any receptor atom is flagged, so
  every overlapping pair receives its exact correction;
- maps are derived state -- shared (warm) and private (cold) builds
  agree bitwise in any ensure() order, so checkpoint resume under
  ``--scoring-method field`` cannot perturb a float;
- end-to-end wiring: factory, config, envs, CLI, telemetry, and
  interrupt/resume through the figure4 trainer stack.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import ci_scale_config
from repro.env.factory import make_env
from repro.scoring.field import (
    BRICKS_METRIC,
    FIELD_BYTES_METRIC,
    NEAR_ATOMS_METRIC,
    NEAR_FRACTION_METRIC,
    OOB_ATOMS_METRIC,
    FieldMaps,
    FieldScorer,
)
from repro.scoring.scorers import (
    SCORING_METHODS,
    ExactScorer,
    make_scorer,
)

#: Coarser-than-default lattice for tests: the small-complex box stays
#: tiny, builds stay ~ms, and the drift bounds below are still met.
SPACING = 0.5
#: Smaller-than-default box padding for the same reason (the default
#: is sized for full-length 2BSM docking trajectories).
PADDING = 6.0
#: Absolute drift bound vs exact at SPACING on calm poses of the
#: 120+10 test complex (measured worst ~3.5 -- interpolation of the
#: clipped fields; see field.py for the 2BSM-scale budget).
CALM_TOL = 6.0
#: Relative drift bound on larger-|score| poses: the dominating clash
#: terms come from the exact pair corrections, so drift stays a tiny
#: fraction of the total (measured ~1e-12 on deep clashes).
REL_TOL = 1e-4


@pytest.fixture(scope="module")
def pair(small_complex):
    lig = small_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return small_complex.receptor, template, lig.coords


@pytest.fixture(scope="module")
def scorers(pair):
    rec, template, _ = pair
    return (
        FieldScorer(rec, template, spacing=SPACING, padding=PADDING),
        ExactScorer(rec, template),
    )


@pytest.fixture(scope="module")
def paper_built():
    from repro.chem.builders import build_complex
    from repro.config import ComplexConfig

    return build_complex(ComplexConfig())


def _rot(p, axis, ang):
    axis = axis / np.linalg.norm(axis)
    c, s = np.cos(ang), np.sin(ang)
    centroid = p.mean(axis=0)
    rel = p - centroid
    return (
        centroid
        + rel * c
        + np.cross(axis, rel) * s
        + np.outer(rel @ axis, axis) * (1 - c)
    )


def _beyond_box(maps, coords, margin: float = 1.0):
    """``coords`` translated so every atom lies past the box's upper
    corner on all three axes (derived from the box, not hard-coded)."""
    upper = maps.origin + maps.spacing * (maps.shape - 1)
    return coords + (upper + margin - coords.min(axis=0))


def _voxel_lists(maps, pts):
    """``(in_box, candidate lists)``: each point's voxel CSR list, read
    from the brick layout (the bricks under ``pts`` must be built)."""
    in_box, idx, _ = maps.locate(pts)
    bricks, _, base_local = maps.corners(idx)
    rows = maps.brick_slot[bricks[:, 0]]
    assert (rows[in_box] >= 0).all()
    lists = []
    for row, loc, inside in zip(rows, base_local, in_box):
        s = maps.cand_start[row, loc]
        n = maps.cand_count[row, loc] if inside else 0
        lists.append(maps.cand_atoms[s : s + n])
    return in_box, lists


def _map_digest(rec, template, coords) -> str:
    """SHA-256 of the brick values and CSR counts built for one pose."""
    fld = FieldScorer(rec, template)
    fld.score(coords)
    maps = fld.maps
    h = hashlib.sha256(maps.values[: maps.n_built].tobytes())
    h.update(maps.cand_count[: maps.n_built].tobytes())
    h.update(maps.brick_slot.tobytes())
    return h.hexdigest()


def _drift_ok(se: float, sf: float) -> bool:
    """Within budget: absolute on calm poses, relative on huge ones."""
    return abs(se - sf) <= max(CALM_TOL, REL_TOL * abs(se))


# ---------------------------------------------------------------------------
# two-regime accuracy vs the exact scorer


class TestAccuracy:
    def test_random_jittered_poses(self, scorers, pair, rng):
        fld, exact = scorers
        _, _, coords = pair
        for _ in range(30):
            pose = coords + rng.normal(
                scale=0.5, size=coords.shape
            ) + rng.normal(scale=2.0, size=(1, 3))
            assert _drift_ok(exact.score(pose), fld.score(pose))

    def test_rotation_trajectory(self, scorers, pair, rng):
        fld, exact = scorers
        _, _, coords = pair
        pose = coords.copy()
        for _ in range(40):
            pose = _rot(pose, rng.normal(size=3), np.radians(5.0))
            assert _drift_ok(exact.score(pose), fld.score(pose))

    def test_torsion_actions_via_flex_engine(self, small_complex):
        from repro.metadock.engine import MetadockEngine

        eng = MetadockEngine(
            small_complex,
            shift_length=0.8,
            rotation_angle_deg=5.0,
            n_torsions=2,
            scoring_method="field",
            scoring_kwargs={"spacing": SPACING, "padding": PADDING},
        )
        ref = ExactScorer(eng.receptor, eng.template)
        rng = np.random.default_rng(5)
        for _ in range(40):
            eng.apply_action(int(rng.integers(0, eng.n_actions)))
            assert _drift_ok(ref.score(eng.ligand_coords()), eng.score())

    def test_deep_clash_tracks_exact(self, scorers, pair):
        # The clash-dominating overlap pairs are computed exactly, so
        # a deep clash agrees to relative float rounding (|score| is
        # ~1e15 here; only the smooth interpolated remainder differs).
        fld, exact = scorers
        rec, template, coords = pair
        clash = coords - coords.mean(axis=0) + rec.coords[0]
        se, sf = exact.score(clash), fld.score(clash)
        assert abs(se - sf) <= 1e-7 * abs(se)
        assert fld.near_fraction > 0.5

    def test_out_of_box_bitwise_exact(self, scorers, pair):
        # No silent boundary clamp: fully out-of-box poses are exact.
        fld, exact = scorers
        _, _, coords = pair
        far = _beyond_box(fld.maps, coords)
        assert fld.score(far) == exact.score(far)
        assert fld.near_fraction == 1.0

    def test_straddling_pose(self, scorers, pair):
        # Some atoms out of box, some far-field in box.
        fld, exact = scorers
        _, _, coords = pair
        pose = coords.copy()
        half = pose.shape[0] // 2
        pose[:half] = _beyond_box(fld.maps, coords)[:half]
        assert _drift_ok(exact.score(pose), fld.score(pose))
        assert 0.0 < fld.near_fraction < 1.0

    def test_error_shrinks_with_spacing(self, pair, rng):
        # Compared on poses hovering off the surface so the result is
        # interpolation-dominated (a coarser lattice also dilates the
        # near mask, which would otherwise mask its own error).
        rec, template, coords = pair
        exact = ExactScorer(rec, template)
        ring = coords - coords.mean(axis=0)
        ring = ring + rec.coords.mean(axis=0) + [0.0, 0.0, 10.0]
        poses = [
            ring + rng.normal(scale=0.3, size=ring.shape)
            for _ in range(10)
        ]
        errs = {}
        for spacing in (1.0, 0.25):
            fld = FieldScorer(rec, template, spacing=spacing, padding=PADDING)
            errs[spacing] = np.mean(
                [abs(fld.score(p) - exact.score(p)) for p in poses]
            )
        assert errs[0.25] < errs[1.0]


# ---------------------------------------------------------------------------
# near-field classification guarantee


class TestClassification:
    def test_candidate_mask_covers_overlaps(self, pair, rng):
        # The documented guarantee: the clash-voxel mask may over-flag
        # (its conservative dilation) but never under-flags -- every
        # atom within clash_radius of any receptor atom sits in a
        # flagged voxel, so its overlapping pairs get corrected.
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        for _ in range(25):
            pose = coords + rng.normal(
                scale=1.5, size=coords.shape
            ) + rng.normal(scale=3.0, size=(1, 3))
            fld.score(pose)  # builds the bricks under the pose
            in_box, lists = _voxel_lists(fld.maps, pose)
            flagged = np.array([c.size > 0 for c in lists])
            dmin = np.sqrt(
                ((pose[:, None, :] - rec.coords[None, :, :]) ** 2)
                .sum(axis=-1)
                .min(axis=1)
            )
            overlapping = dmin < fld.clash_radius
            assert (flagged | ~in_box)[overlapping].all()

    def test_candidate_table_matches_cell_list(self, pair, rng):
        # The voxel CSR table is a precomputed cell list: expanding it
        # for a probe and range-filtering must yield exactly the pairs
        # the reference CellList query finds at clash_radius.
        from repro.scoring.neighborlist import CellList, query_pairs

        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        maps = fld.maps
        cells = CellList(rec.coords, cell_size=maps.clash_radius)
        for _ in range(10):
            pose = coords + rng.normal(scale=1.0, size=coords.shape)
            fld.score(pose)  # builds the bricks under the pose
            _, lists = _voxel_lists(maps, pose)
            want_r, want_p = query_pairs(
                cells, pose, maps.clash_radius
            )
            got = set()
            for a, cand in enumerate(lists):
                d = np.linalg.norm(
                    rec.coords[cand] - pose[a], axis=1
                )
                for c in cand[d <= maps.clash_radius]:
                    got.add((int(c), a))
            assert got == set(
                zip(want_r.tolist(), want_p.tolist())
            )

    def test_near_fraction_tracks_pose(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        fld.score(_beyond_box(fld.maps, coords))
        assert fld.near_fraction == 1.0
        # A pose hovering just off the receptor surface but inside the
        # padded box is fully far-field (clash radius + dilation clear).
        ring = coords - coords.mean(axis=0)
        ring = ring + rec.coords.mean(axis=0) + [0.0, 0.0, 10.0]
        fld.score(ring)
        assert fld.near_fraction == 0.0


# ---------------------------------------------------------------------------
# bit-stability: maps are derived state


class TestMapSharing:
    def test_warm_equals_cold_bitwise(self, pair, rng):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        warm = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        pose = coords.copy()
        for _ in range(20):
            pose = pose + rng.normal(scale=0.4, size=pose.shape)
            cold = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
            assert warm.score(pose) == cold.score(pose)  # bitwise

    def test_ensure_order_independent(self, pair):
        # Maps built alongside other types == maps built alone.
        rec, template, coords = pair
        maps_a = FieldMaps(rec, spacing=1.0)
        maps_b = FieldMaps(rec, spacing=1.0)
        specs = [
            (3.5, 0.06, True, True),
            (3.1, 0.12, False, True),
            (2.8, 0.02, False, False),
        ]
        maps_a.ensure(specs, coords)  # one batched pass
        for s in reversed(specs):  # three passes, reverse order
            maps_b.ensure([s], coords)
        assert maps_a.build_count == 1 and maps_b.build_count == 3
        _assert_bricks_equal(maps_a, maps_b)

    def test_brick_build_order_and_grouping_independent(self, pair, rng):
        # The same bricks built all at once, or one point at a time in
        # reverse order, hold bitwise-equal values and CSR lists, and
        # score bitwise-equal.
        rec, template, coords = pair
        poses = [
            coords + rng.normal(scale=2.0, size=(1, 3)) for _ in range(6)
        ]
        pts = np.concatenate(poses)
        specs = FieldScorer(rec, template)._specs
        maps_a = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        maps_b = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        maps_a.ensure(specs, pts)
        for p in pts[::-1]:
            maps_b.ensure(specs, p[None])
        assert maps_a.build_count == 1 and maps_b.build_count > 1
        _assert_bricks_equal(maps_a, maps_b)
        fa = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps_a
        )
        fb = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps_b
        )
        for p in poses:
            assert fa.score(p) == fb.score(p)  # bitwise
        assert maps_a.n_built == maps_b.n_built  # nothing left to build

    def test_map_bytes_independent_of_blas_threads(
        self, paper_built, tmp_path
    ):
        # Node values come from per-node reductions that never go
        # through BLAS, so a single-threaded BLAS builds the same bytes
        # as this process's default threading (at paper scale, where a
        # brick's GEMV would be large enough for BLAS to thread).
        root = Path(__file__).resolve().parents[1]
        lig = paper_built.ligand_initial
        pair = (paper_built.receptor, lig, lig.coords)
        (tmp_path / "pair.pkl").write_bytes(pickle.dumps(pair))
        script = (
            "import pickle, sys\n"
            "from tests.test_scoring_field import _map_digest\n"
            "pair = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print(_map_digest(*pair))\n"
        )
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
        )
        single = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "pair.pkl")],
            env=env,
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        assert single.stdout.strip() == _map_digest(*pair)

    def test_ensure_noop_when_built(self, pair):
        rec, template, coords = pair
        maps = FieldMaps(rec, spacing=SPACING, padding=PADDING)
        s1 = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        s1.score(coords)
        builds = maps.build_count
        s2 = FieldScorer(
            rec, template, spacing=SPACING, padding=PADDING, cells=maps
        )
        s2.score(coords)
        assert maps.build_count == builds  # same types, no rebuild

    def test_score_batch_matches_singles(self, pair, rng):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        batch = np.concatenate(
            [
                coords[None] + rng.normal(scale=0.8, size=(5, 1, 3)),
                _beyond_box(fld.maps, coords)[None],
            ]
        )
        singles = np.array([fld.score(c) for c in batch])
        assert np.array_equal(fld.score_batch(batch), singles)

    def test_cells_validation(self, pair):
        rec, template, _ = pair
        with pytest.raises(TypeError, match="FieldMaps"):
            FieldScorer(rec, template, cells=object())
        maps = FieldMaps(rec, spacing=1.0)
        with pytest.raises(ValueError, match="spacing"):
            FieldScorer(rec, template, spacing=0.5, cells=maps)
        with pytest.raises(ValueError, match="clash_radius"):
            FieldScorer(
                rec, template, spacing=1.0, clash_radius=4.0, cells=maps
            )

    def test_parameter_validation(self, pair):
        rec, template, coords = pair
        with pytest.raises(ValueError, match="spacing"):
            FieldMaps(rec, spacing=0.0)
        with pytest.raises(ValueError, match="clash_radius"):
            FieldMaps(rec, clash_radius=-1.0)
        with pytest.raises(ValueError, match="dtype"):
            FieldMaps(rec, dtype="float16")
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        with pytest.raises(ValueError, match="shape"):
            fld.score(coords[:3])
        with pytest.raises(ValueError, match="coords_batch"):
            fld.score_batch(coords)

    def test_float32_maps_halve_memory(self, pair, rng):
        rec, template, coords = pair
        f64 = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        f32 = FieldScorer(
            rec, template, spacing=1.0, padding=PADDING, dtype="float32"
        )
        s64, s32 = f64.score(coords), f32.score(coords)
        # The brick table and the clash-voxel CSR (integer) are dtype-
        # independent; the float brick values themselves halve exactly.
        m64, m32 = f64.maps, f32.maps
        fixed = m64.nbytes() - m64.values.nbytes
        assert (m32.nbytes() - fixed) * 2 == m64.nbytes() - fixed
        assert s32 == pytest.approx(s64, rel=1e-3, abs=1.0)


def _assert_bricks_equal(maps_a, maps_b):
    """Same built bricks with bitwise-equal phi, per-spec combined
    values and CSR candidate lists, whatever the rows and spec slots."""
    built = np.flatnonzero(maps_a.brick_slot >= 0)
    np.testing.assert_array_equal(
        built, np.flatnonzero(maps_b.brick_slot >= 0)
    )
    assert set(maps_a._slot) == set(maps_b._slot)
    for brick in built:
        ra, rb = maps_a.brick_slot[brick], maps_b.brick_slot[brick]
        np.testing.assert_array_equal(
            maps_a.values[ra, 0], maps_b.values[rb, 0]
        )
        for spec in maps_a._slot:
            np.testing.assert_array_equal(
                maps_a.values[ra, 1 + maps_a.slot_of(spec)],
                maps_b.values[rb, 1 + maps_b.slot_of(spec)],
            )
        np.testing.assert_array_equal(
            maps_a.cand_count[ra], maps_b.cand_count[rb]
        )
        for loc in range(maps_a.cand_count.shape[1]):
            sa, sb = maps_a.cand_start[ra, loc], maps_b.cand_start[rb, loc]
            n = maps_a.cand_count[ra, loc]
            np.testing.assert_array_equal(
                maps_a.cand_atoms[sa : sa + n], maps_b.cand_atoms[sb : sb + n]
            )


# ---------------------------------------------------------------------------
# factory / config / env / CLI plumbing


class TestPlumbing:
    def test_factory(self, pair):
        rec, template, _ = pair
        s = make_scorer(
            "field", rec, template, spacing=0.75, clash_radius=3.5
        )
        assert isinstance(s, FieldScorer)
        assert s.spacing == 0.75 and s.clash_radius == 3.5
        assert "field" in SCORING_METHODS

    def test_config_accepts_field(self):
        cfg = ci_scale_config(
            episodes=1,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "dtype": "float32"},
        )
        assert cfg.scoring_method == "field"
        with pytest.raises(ValueError, match="runtime-only"):
            ci_scale_config(
                episodes=1,
                scoring_method="field",
                scoring_kwargs={"cells": None},
            )

    def test_make_env_wires_scorer(self, small_complex):
        cfg = ci_scale_config(
            episodes=1,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )
        env = make_env(cfg, small_complex)
        assert isinstance(env.engine.scorer, FieldScorer)
        assert env.engine.scorer.spacing == 1.0

    def test_cli_accepts_field(self):
        from repro.cli import build_parser

        p = build_parser()
        for cmd in ("figure4", "curriculum", "screen"):
            args = p.parse_args([cmd, "--scoring-method", "field"])
            assert args.scoring_method == "field"

    def test_lazy_build(self, pair):
        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
        assert fld._foff is None and fld._maps.n_built == 0
        fld.score(coords)
        assert fld._foff is not None and fld._maps.n_built > 0


# ---------------------------------------------------------------------------
# telemetry


class TestTelemetry:
    def test_span_gauge_and_histogram(self, small_complex):
        from repro.metadock.engine import MetadockEngine
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.spans import SpanTracer

        eng = MetadockEngine(
            small_complex,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )
        reg, tr = MetricsRegistry(), SpanTracer()
        eng.metrics = reg
        eng.tracer = tr
        assert eng.scorer.metrics is reg and eng.scorer.tracer is tr
        eng.reset()
        scorer = eng.scorer
        assert reg.get(FIELD_BYTES_METRIC).value == float(
            scorer.maps.nbytes()
        )
        assert reg.get(NEAR_FRACTION_METRIC).count >= 1
        assert "field-build" in str(tr.report())

    def test_metrics_attached_after_build(self, pair):
        from repro.telemetry.metrics import MetricsRegistry

        rec, template, coords = pair
        fld = FieldScorer(rec, template, spacing=1.0, padding=PADDING)
        fld.score(coords)
        reg = MetricsRegistry()
        fld.metrics = reg
        assert reg.get(FIELD_BYTES_METRIC).value > 0.0

    def test_regime_counters_and_bricks_gauge(self, pair):
        from repro.telemetry.metrics import MetricsRegistry

        rec, template, coords = pair
        straddle = coords.copy()
        half = coords.shape[0] // 2
        clash = coords - coords.mean(axis=0) + rec.coords[0]
        poses = np.stack([coords, straddle, clash])
        regs = []
        for batched in (False, True):
            fld = FieldScorer(rec, template, spacing=SPACING, padding=PADDING)
            poses[1, :half] = _beyond_box(fld.maps, coords)[:half]
            reg = MetricsRegistry()
            fld.metrics = reg
            if batched:
                fld.score_batch(poses)
            else:
                for p in poses:
                    fld.score(p)
            maps = fld.maps
            assert reg.get(BRICKS_METRIC).value == (
                maps.n_built / maps.n_bricks
            )
            assert 0.0 < reg.get(BRICKS_METRIC).value < 1.0
            assert reg.get(FIELD_BYTES_METRIC).value == maps.nbytes()
            assert reg.get(OOB_ATOMS_METRIC).value == half
            assert reg.get(NEAR_ATOMS_METRIC).value > 0
            regs.append(reg)
        # Batch mode adds exactly what sequential calls add.
        for name in (OOB_ATOMS_METRIC, NEAR_ATOMS_METRIC):
            assert regs[0].get(name).value == regs[1].get(name).value


# ---------------------------------------------------------------------------
# the box covers the episode; lazy bricks cover only what is visited


class TestEpisodeBox:
    def test_escape_sphere_inside_default_box(self, paper_built):
        # Every atom of a library ligand whose COM sits one step past
        # the escape sphere (4/3 x its initial COM distance, any
        # orientation) is inside the default box, so episodes never
        # take the out-of-box exact path.
        from repro.chem.transforms import random_rotation
        from repro.metadock.library import generate_library
        from repro.metadock.screening import _engine_for

        maps = FieldMaps(paper_built.receptor)
        rng = np.random.default_rng(7)
        dirs = np.concatenate(
            [np.eye(3), -np.eye(3), rng.normal(size=(20, 3))]
        )
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        library = generate_library(
            paper_built.config, 8, seed=0, max_atoms=45
        )
        for entry in library:
            eng = _engine_for(paper_built, entry.ligand)
            reach = 4.0 / 3.0 * eng.initial_com_distance() + 1.0
            lig = eng.built.ligand_initial
            rel = lig.coords - lig.center_of_mass()
            for d in dirs:
                rot = random_rotation(rng)
                pose = rel @ rot.T + eng.receptor_com + reach * d
                assert maps.locate(pose)[0].all(), (entry.compound_id, d)
        assert maps.n_built == 0  # locating builds nothing

    def test_walk_builds_a_small_share_of_the_box(self, paper_built):
        lig = paper_built.ligand_initial
        fld = FieldScorer(paper_built.receptor, lig)
        rng = np.random.default_rng(3)
        pose = lig.coords.copy()
        for _ in range(200):
            step = rng.normal(size=3)
            pose = pose + step / np.linalg.norm(step)
            fld.score(pose)
        maps = fld.maps
        full_box = (
            maps.n_bricks
            * maps.values.shape[1]
            * maps.values.shape[2]
            * maps.values.itemsize
        )
        assert fld.near_fraction == 0.0
        assert maps.nbytes() < 0.1 * full_box


# ---------------------------------------------------------------------------
# interrupt/resume bit-stability through the trainer stack


class TestFieldResume:
    def test_interrupt_resume_bit_exact(self, tmp_path):
        from repro.experiments.figure4 import build_agent_for_env
        from repro.rl.trainer import Trainer
        from repro.runtime import (
            RunInterrupted,
            RunLoop,
            RuntimeContext,
            ShutdownGuard,
        )

        cfg = ci_scale_config(
            episodes=5,
            seed=3,
            max_steps=12,
            scoring_method="field",
            scoring_kwargs={"spacing": 1.0, "padding": PADDING},
        )

        def make_trainer(on_episode_end=None):
            env = make_env(cfg)
            agent = build_agent_for_env(cfg, env)
            return env, agent, Trainer(
                env,
                agent,
                episodes=cfg.episodes,
                max_steps_per_episode=cfg.max_steps_per_episode,
                learning_start=cfg.learning_start,
                target_update_steps=cfg.target_update_steps,
                train_interval=cfg.train_interval,
                on_episode_end=on_episode_end,
            )

        rt_a = RuntimeContext(tmp_path / "a", checkpoint_every=2)
        env, agent_a, trainer = make_trainer()
        hist_a = RunLoop(rt_a, phase="t").run_episodes(trainer)
        env.close()

        guard = ShutdownGuard()

        def on_end(stats):
            if stats.episode == 2:
                guard.request_stop()

        rt_b = RuntimeContext(
            tmp_path / "b", checkpoint_every=2, guard=guard
        )
        env, _, trainer_b = make_trainer(on_episode_end=on_end)
        with pytest.raises(RunInterrupted):
            RunLoop(rt_b, phase="t").run_episodes(trainer_b)
        env.close()

        # Resume in a fresh stack: maps rebuild cold, which must not
        # perturb a single float (maps are derived state).
        rt_c = RuntimeContext(tmp_path / "b", checkpoint_every=2)
        env, agent_c, trainer_c = make_trainer()
        hist_b = RunLoop(rt_c, phase="t").run_episodes(trainer_c)
        env.close()

        assert hist_a.total_steps == hist_b.total_steps
        assert len(hist_a.episodes) == len(hist_b.episodes)
        for ea, eb in zip(hist_a.episodes, hist_b.episodes):
            da, db = dataclasses.asdict(ea), dataclasses.asdict(eb)
            assert set(da) == set(db)
            for k in da:
                va, vb = da[k], db[k]
                if isinstance(va, float) and va != va:
                    assert vb != vb, (k, va, vb)
                else:
                    assert va == vb, (k, va, vb)

        def deep_equal(a, b):
            if isinstance(a, dict):
                assert set(a) == set(b)
                for k in a:
                    deep_equal(a[k], b[k])
            elif isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert a == b or (a != a and b != b)

        deep_equal(agent_a.state_dict(), agent_c.state_dict())

"""Bitwise batch-vs-singles pins for every registered pose scorer.

The pose-major ``score_batch`` paths promise entries *bitwise equal* to
sequential single-pose ``score`` calls — not merely close.  These pins
exercise each scorer across the regimes that take different code paths:

- *calm* poses near the crystal pose (pure interpolation / cached-list
  fast paths);
- *clash* poses with a ligand atom placed exactly on a receptor atom
  (``MIN_DISTANCE`` clamps, field near-field pair corrections);
- *out-of-box* poses far outside the field box (exact-column
  fallbacks);
- a *mixed* batch concatenating all three.

Also pinned: empty-batch fast paths, batch shape validation, per-pose
``near_fraction`` / histogram telemetry in field batch mode, and the
cross-ligand ``score_field_group`` / ``score_pose_group`` front doors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.metadock.library import generate_library
from repro.scoring.field import (
    NEAR_FRACTION_METRIC,
    FieldMaps,
    FieldScorer,
    score_field_group,
)
from repro.scoring.scorers import (
    ExactScorer,
    SCORING_METHODS,
    make_scorer,
    score_pose_group,
)
from repro.telemetry.metrics import MetricsRegistry


def _pose_batches(built, rng):
    """(calm, clash, oob, mixed) pose batches around the crystal pose."""
    base = built.ligand_crystal.coords
    calm = base[None] + rng.normal(scale=0.3, size=(6,) + base.shape)
    clash = np.repeat(base[None], 3, axis=0)
    for j in range(3):
        # Ligand atom 0 exactly on a receptor atom: r == 0 before the
        # MIN_DISTANCE clamp, and inside the field clash radius.
        clash[j, 0] = built.receptor.coords[j * 7]
    # Past the default field box on one axis each (+x, -y, +z), derived
    # from the box rather than hard-coded offsets.
    maps = FieldMaps(built.receptor)
    lower = maps.origin
    upper = maps.origin + maps.spacing * (maps.shape - 1)
    oob = np.repeat(base[None], 3, axis=0)
    oob[0, :, 0] += upper[0] + 1.0 - base[:, 0].min()
    oob[1, :, 1] += lower[1] - 1.0 - base[:, 1].max()
    oob[2, :, 2] += upper[2] + 1.0 - base[:, 2].min()
    mixed = np.concatenate([calm, clash, oob], axis=0)
    return calm, clash, oob, mixed


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_batch_bitwise_matches_singles(small_complex, rng, method):
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    batches = _pose_batches(small_complex, rng)
    batch_scorer = make_scorer(method, rec, lig)
    single_scorer = make_scorer(method, rec, lig)
    for cb in batches:
        got = batch_scorer.score_batch(cb)
        ref = np.array([single_scorer.score(p) for p in cb])
        assert np.array_equal(got, ref), method
    # Re-scoring the mixed batch on the now-warm scorer (Verlet cache,
    # built maps) must reproduce the same floats.
    mixed = batches[-1]
    first = batch_scorer.score_batch(mixed)
    assert np.array_equal(batch_scorer.score_batch(mixed), first)


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_empty_batch_short_circuits(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    out = scorer.score_batch(np.empty((0, lig.n_atoms, 3)))
    assert out.shape == (0,)
    if method == "field":
        # k == 0 must return before triggering the lazy map build.
        assert scorer._foff is None and scorer._maps.n_built == 0


@pytest.mark.parametrize("method", SCORING_METHODS)
def test_batch_shape_validated(small_complex, method):
    lig = small_complex.ligand_crystal
    scorer = make_scorer(method, small_complex.receptor, lig)
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((2, lig.n_atoms + 1, 3)))
    with pytest.raises(ValueError, match="coords_batch"):
        scorer.score_batch(np.zeros((lig.n_atoms, 3)))


def test_field_batch_near_fraction_and_histogram(small_complex, rng):
    """Batch mode observes one histogram value per pose and leaves
    ``near_fraction`` at the last pose's value — as sequential calls."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    _, _, _, mixed = _pose_batches(small_complex, rng)

    batch_scorer = FieldScorer(rec, lig)
    batch_scorer.metrics = MetricsRegistry()
    got = batch_scorer.score_batch(mixed)

    single_scorer = FieldScorer(rec, lig)
    single_scorer.metrics = MetricsRegistry()
    ref = np.array([single_scorer.score(p) for p in mixed])

    assert np.array_equal(got, ref)
    assert batch_scorer.near_fraction == single_scorer.near_fraction
    h_batch = batch_scorer.metrics.get(NEAR_FRACTION_METRIC)
    h_single = single_scorer.metrics.get(NEAR_FRACTION_METRIC)
    assert h_batch.count == mixed.shape[0]
    assert h_batch.count == h_single.count
    assert h_batch.mean == h_single.mean
    assert h_batch.max == h_single.max
    # Clash poses force the exact path for at least one atom.
    assert h_batch.max > 0.0


def test_score_field_group_heterogeneous_shared_maps(small_complex, rng):
    """Different ligands sharing one FieldMaps fuse into one kernel and
    still reproduce each scorer's single-pose floats."""
    rec = small_complex.receptor
    library = generate_library(small_complex.config, 3, seed=7)
    maps = FieldMaps(rec)
    scorers = [
        FieldScorer(rec, e.ligand, cells=maps) for e in library
    ] + [FieldScorer(rec, small_complex.ligand_crystal, cells=maps)]
    entries = []
    for sc in scorers:
        pose = sc.ligand.coords + rng.normal(
            scale=0.3, size=sc.ligand.coords.shape
        )
        entries.append((sc, pose))
    got = score_field_group(entries)
    ref = np.array(
        [
            FieldScorer(rec, sc.ligand, cells=maps).score(pose)
            for sc, pose in entries
        ]
    )
    assert np.array_equal(got, ref)


def test_score_field_group_rejects_non_field_scorer(small_complex):
    lig = small_complex.ligand_crystal
    exact = ExactScorer(small_complex.receptor, lig)
    with pytest.raises(TypeError, match="FieldScorer"):
        score_field_group([(exact, lig.coords)])


def test_score_pose_group_mixed_scorers(small_complex, rng):
    """The rollout front door: field entries fuse, everything else goes
    through its own ``score()`` — each entry bitwise either way."""
    rec = small_complex.receptor
    lig = small_complex.ligand_crystal
    maps = FieldMaps(rec)
    scorers = [
        make_scorer("exact", rec, lig),
        FieldScorer(rec, lig, cells=maps),
        make_scorer("incremental", rec, lig),
        FieldScorer(rec, lig, cells=maps),
        make_scorer("incremental", rec, lig, cutoff=8.0),
    ]
    entries = [
        (
            sc,
            lig.coords
            + rng.normal(scale=0.3, size=lig.coords.shape),
        )
        for sc in scorers
    ]
    got = score_pose_group(entries)
    ref = np.array([sc.score(pose) for sc, pose in entries])
    assert np.array_equal(got, ref)
    assert got.shape == (len(entries),)


def test_score_pose_group_empty():
    assert score_pose_group([]).shape == (0,)

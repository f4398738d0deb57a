"""Pluggable scorers: exact oracle, registry and engine wiring."""

import numpy as np
import pytest

from repro.metadock.engine import MetadockEngine
from repro.scoring.composite import interaction_score
from repro.scoring.field import FieldScorer
from repro.scoring.incremental import IncrementalScorer
from repro.scoring.scorers import (
    SCORER_REGISTRY,
    SCORING_METHODS,
    ExactScorer,
    make_scorer,
    validate_scoring_kwargs,
)


@pytest.fixture(scope="module")
def pair(small_complex):
    lig = small_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return small_complex.receptor, template, lig.coords


class TestExactScorer:
    def test_matches_interaction_score(self, pair, small_complex):
        rec, template, coords = pair
        scorer = ExactScorer(rec, template)
        assert scorer.score(coords) == pytest.approx(
            interaction_score(small_complex.receptor, small_complex.ligand_crystal)
        )

    def test_batch_matches_single(self, pair, rng):
        rec, template, coords = pair
        scorer = ExactScorer(rec, template)
        batch = coords[None] + rng.normal(scale=1.0, size=(4, 1, 3))
        out = scorer.score_batch(batch)
        for k in range(4):
            assert out[k] == pytest.approx(scorer.score(batch[k]), rel=1e-9)


class TestScorerRegistry:
    def test_methods_are_the_registry(self):
        assert SCORING_METHODS == ("exact", "incremental", "field")
        assert SCORING_METHODS == tuple(SCORER_REGISTRY)

    def test_config_rejects_removed_methods(self):
        from repro.config import ci_scale_config

        for method in ("grid", "cutoff"):
            with pytest.raises(ValueError) as exc:
                ci_scale_config(4, scoring_method=method)
            assert repr(method) in str(exc.value)
            assert str(SCORING_METHODS) in str(exc.value)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown scoring method"):
            validate_scoring_kwargs("quantum", {})

    def test_unknown_kwarg_lists_valid_names(self):
        with pytest.raises(ValueError, match="cutoff"):
            validate_scoring_kwargs("incremental", {"cutof": 9.0})

    def test_type_mismatch(self):
        with pytest.raises(ValueError, match="must be int/float"):
            validate_scoring_kwargs("incremental", {"skin": "thick"})
        # bool is an int subclass but not a valid numeric kwarg value.
        with pytest.raises(ValueError, match="got bool"):
            validate_scoring_kwargs("incremental", {"cutoff": True})

    def test_runtime_only_kwarg(self):
        with pytest.raises(ValueError, match="runtime-only"):
            validate_scoring_kwargs("incremental", {"cells": None})
        # make_scorer's path allows it.
        validate_scoring_kwargs(
            "incremental", {"cells": None}, allow_runtime=True
        )

    def test_valid_kwargs_pass(self):
        validate_scoring_kwargs("exact", {})
        validate_scoring_kwargs(
            "incremental",
            {"cutoff": 12.0, "skin": 3, "shifted": True, "cell_size": None},
        )
        validate_scoring_kwargs("field", {"spacing": 0.8, "padding": 4.0})

    def test_config_rejects_bad_kwargs_at_construction(self):
        from repro.config import ci_scale_config

        with pytest.raises(ValueError, match="accepts no kwarg"):
            ci_scale_config(
                4, scoring_method="incremental", scoring_kwargs={"cutof": 9.0}
            )
        with pytest.raises(ValueError, match="runtime-only"):
            ci_scale_config(
                4, scoring_method="incremental", scoring_kwargs={"cells": None}
            )

    def test_make_scorer_validates(self, pair):
        rec, template, _ = pair
        with pytest.raises(ValueError, match="accepts no kwarg"):
            make_scorer("incremental", rec, template, cuttoff=9.0)


class TestFactoryAndEngine:
    def test_factory(self, pair):
        rec, template, _ = pair
        assert isinstance(make_scorer("exact", rec, template), ExactScorer)
        assert isinstance(
            make_scorer("incremental", rec, template, cutoff=9.0),
            IncrementalScorer,
        )
        assert isinstance(
            make_scorer("field", rec, template, spacing=2.0), FieldScorer
        )
        with pytest.raises(ValueError):
            make_scorer("quantum", rec, template)

    def test_engine_cutoff_mode(self, small_complex):
        exact_eng = MetadockEngine(small_complex)
        cut_eng = MetadockEngine(
            small_complex,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 1000.0, "shifted": False},
        )
        exact_eng.reset()
        cut_eng.reset()
        assert cut_eng.score() == pytest.approx(exact_eng.score(), rel=1e-9)

    def test_engine_scorer_used_for_batches(self, small_complex):
        eng = MetadockEngine(
            small_complex,
            scoring_method="incremental",
            scoring_kwargs={"cutoff": 12.0},
        )
        eng.reset()
        poses = [eng.pose, eng.pose.translated([1.0, 0, 0])]
        batch = eng.score_poses(poses)
        singles = [eng.score_pose(p) for p in poses]
        np.testing.assert_allclose(batch, singles)

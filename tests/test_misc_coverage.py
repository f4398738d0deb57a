"""Coverage for remaining behaviours: randomized resets, report driver,
cutoff brute-force parity, distance-dependent dielectric."""

import numpy as np
import pytest

from repro.env.docking_env import DockingEnv
from repro.metadock.engine import MetadockEngine


class TestRandomizedReset:
    def test_jitters_start_state(self, small_complex):
        rng = np.random.default_rng(0)
        env = DockingEnv(
            MetadockEngine(small_complex),
            randomize_reset=True,
            reset_rng=rng,
        )
        s1 = env.reset()
        s2 = env.reset()
        assert not np.array_equal(s1, s2)

    def test_jitter_is_small(self, small_complex):
        rng = np.random.default_rng(1)
        env = DockingEnv(
            MetadockEngine(small_complex),
            randomize_reset=True,
            reset_rng=rng,
        )
        env.reset()
        base = small_complex.ligand_initial.centroid()
        d = np.linalg.norm(env.engine.ligand_coords().mean(axis=0) - base)
        assert d < 3.0

    def test_disabled_without_rng(self, small_complex):
        env = DockingEnv(
            MetadockEngine(small_complex), randomize_reset=True
        )
        s1 = env.reset()
        s2 = env.reset()
        np.testing.assert_array_equal(s1, s2)


class TestCutoffBruteForceParity:
    def test_matches_masked_full_sum(self, small_complex):
        """Truncation oracle == full Eq. 1 restricted to in-range pairs."""
        from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
        from repro.scoring.reference import truncated_score

        rec = small_complex.receptor
        lig = small_complex.ligand_crystal
        template = lig.with_coords(lig.coords - lig.centroid())
        cutoff = 9.0
        got = truncated_score(rec, template, lig.coords, cutoff, shifted=False)

        # Brute force: all pairs within the cutoff.
        d = np.linalg.norm(
            rec.coords[:, None] - lig.coords[None, :], axis=-1
        )
        mask = d <= cutoff
        dc = np.maximum(d, MIN_DISTANCE)
        elec = COULOMB_CONSTANT * np.outer(rec.charges, template.charges) / dc
        sigma = 0.5 * (rec.sigma[:, None] + template.sigma[None, :])
        eps = np.sqrt(np.outer(rec.epsilon, template.epsilon))
        x6 = (sigma / dc) ** 6
        e_lj = 4 * eps * (x6 * x6 - x6)
        partial = float((elec[mask] + e_lj[mask]).sum())
        # H-bond correction recomputed via the module for eligible pairs:
        from repro.scoring import hbond as hb
        from repro.scoring.pairwise import direction_vectors

        elig = hb.eligible_pairs_mask(
            rec.hbond_donor, rec.hbond_acceptor,
            template.hbond_donor, template.hbond_acceptor,
        )
        dirs = direction_vectors(rec.coords, rec.bonds)
        cos, sin = hb.hbond_angle_factors(rec.coords, lig.coords, dirs)
        corr = hb.hbond_energy_matrix(dc, elig & mask, cos, sin, sigma, eps)
        partial += float(corr.sum())
        assert got == pytest.approx(-partial, rel=1e-9)


class TestDistanceDependentDielectric:
    def test_weakens_long_range_interactions(self, small_complex):
        from repro.scoring.composite import interaction_breakdown

        rec = small_complex.receptor
        lig = small_complex.ligand_initial  # well separated
        plain = interaction_breakdown(rec, lig)
        screened = interaction_breakdown(
            rec, lig, distance_dependent_dielectric=True
        )
        assert abs(screened.electrostatic) < abs(plain.electrostatic)
        # LJ and H-bond are untouched by the dielectric model.
        assert screened.lennard_jones == pytest.approx(plain.lennard_jones)
        assert screened.hydrogen_bond == pytest.approx(plain.hydrogen_bond)


class TestReportGeneration:
    def test_quick_report_contains_all_sections(self):
        from repro.experiments.reporting import generate_report

        text = generate_report(quick=True)
        for heading in (
            "Table 1",
            "Figures 1 & 3",
            "Equation 1 / Algorithm 1",
            "Figure 4",
            "Monte Carlo",
            "communication",
            "blind docking",
        ):
            assert heading in text, heading
        assert "report wall time" in text

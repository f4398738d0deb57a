"""Per-complex invariants are computed once, never on the step path.

The escape rule evaluates the receptor-ligand centre-of-mass distance on
every step.  Masses are looked up once per molecule, the engine keeps
the receptor centre of mass from construction, and the distance keeps
the exact floating-point expression of ``Molecule.center_of_mass`` so
every escape decision is unchanged bit for bit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.chem import elements as el
from repro.chem.molecule import Molecule
from repro.env.docking_env import DockingEnv
from repro.env.factory import make_env
from repro.env.flexible_env import FlexibleDockingEnv
from repro.metadock.engine import MetadockEngine
from repro.rl import replay as replay_mod
from repro.rl.replay import ReplayMemory
from repro.telemetry.spans import SpanTracer


def _rebuild(mol: Molecule, **kwargs) -> Molecule:
    """``mol``'s atoms through the plain constructor."""
    return Molecule(
        symbols=mol.symbols,
        coords=mol.coords,
        charges=mol.charges,
        sigma=mol.sigma,
        epsilon=mol.epsilon,
        hbond_donor=mol.hbond_donor,
        hbond_acceptor=mol.hbond_acceptor,
        **kwargs,
    )


def _reference_com(coords: np.ndarray, symbols) -> np.ndarray:
    m = el.masses(symbols)
    return (coords * m[:, None]).sum(axis=0) / m.sum()


class TestMoleculeMasses:
    @pytest.fixture()
    def mol(self, small_complex) -> Molecule:
        return small_complex.ligand_initial

    def test_from_symbols(self, mol):
        assert np.array_equal(mol.masses, el.masses(mol.symbols))

    def test_copy(self, mol):
        dup = mol.copy()
        assert np.array_equal(dup.masses, el.masses(dup.symbols))

    def test_subset(self, mol):
        sub = mol.subset([4, 0, 2])
        assert np.array_equal(sub.masses, el.masses(sub.symbols))

    def test_concatenate(self, mol, small_complex):
        joined = Molecule.concatenate([small_complex.receptor, mol])
        assert np.array_equal(joined.masses, el.masses(joined.symbols))

    def test_direct_construction_looks_masses_up(self, mol):
        assert np.array_equal(_rebuild(mol).masses, el.masses(mol.symbols))

    def test_with_coords_shares_masses(self, mol):
        assert mol.with_coords(mol.coords + 1.0).masses is mol.masses

    def test_masses_read_only(self, mol):
        assert not mol.masses.flags.writeable
        with pytest.raises(ValueError):
            mol.masses[0] = 1.0

    def test_pickled_masses_stay_read_only(self, mol):
        back = pickle.loads(pickle.dumps(mol))
        assert np.array_equal(back.masses, mol.masses)
        assert not back.masses.flags.writeable
        shared = back.with_coords(back.coords).masses
        assert np.shares_memory(shared, back.masses)

    def test_given_writeable_masses_are_copied(self, mol):
        given = el.masses(mol.symbols)
        out = _rebuild(mol, masses=given)
        assert given.flags.writeable
        assert out.masses is not given
        assert np.array_equal(out.masses, given)

    def test_masses_shape_validated(self, mol):
        with pytest.raises(ValueError):
            _rebuild(mol, masses=np.ones(mol.n_atoms + 1))


class TestComDistance:
    def test_bitwise_equal_to_reference_across_escape(self, small_complex):
        """A seeded walk from the initial pose out past the escape radius."""
        engine = MetadockEngine(
            small_complex, shift_length=0.8, rotation_angle_deg=5.0
        )
        engine.reset(observe=False)
        receptor = small_complex.receptor
        rec_com = _reference_com(receptor.coords, receptor.symbols)
        escape = 4.0 / 3.0 * small_complex.initial_com_distance
        rng = np.random.default_rng(7)
        crossed = False
        for _ in range(300):
            # +z (action 4) leads away from the pocket; mix in the rest.
            action = 4 if rng.random() < 0.4 else int(rng.integers(12))
            engine.apply_action(action)
            lig = engine.ligand_coords()
            ref = float(
                np.linalg.norm(
                    _reference_com(lig, engine.template.symbols) - rec_com
                )
            )
            got = engine.com_distance()
            assert got == ref
            crossed = crossed or got > escape
        assert crossed, "walk never left the escape sphere"

    def test_initial_com_distance_computed_once(self, small_complex):
        first = small_complex.initial_com_distance
        assert small_complex.initial_com_distance is first
        rec = small_complex.receptor
        lig = small_complex.ligand_initial
        ref = float(
            np.linalg.norm(
                _reference_com(lig.coords, lig.symbols)
                - _reference_com(rec.coords, rec.symbols)
            )
        )
        assert first == ref


class TestNoElementLookupsOnStepPath:
    @pytest.mark.parametrize("mode", ["descriptor", "compact"])
    def test_zero_lookups_over_200_steps(
        self, mode, tiny_run_config, small_complex, monkeypatch
    ):
        cfg = tiny_run_config.replace(
            observation_mode=mode, scoring_method="incremental"
        )
        env = make_env(cfg, small_complex)
        calls = []
        real = el.element

        def counting(symbol_or_number):
            calls.append(symbol_or_number)
            return real(symbol_or_number)

        monkeypatch.setattr(el, "element", counting)
        rng = np.random.default_rng(0)
        env.reset()
        for _ in range(200):
            _, _, done, _ = env.step(int(rng.integers(env.n_actions)))
            if done:
                env.reset()
        env.close()
        assert calls == []


class TestTerminationSpan:
    @pytest.mark.parametrize("kind", ["rigid", "flexible"])
    def test_one_span_per_step(self, kind, engine, small_complex):
        tracer = SpanTracer()
        if kind == "rigid":
            env = DockingEnv(engine)
        else:
            env = FlexibleDockingEnv(small_complex, n_torsions=2)
        env.tracer = tracer
        env.reset()
        rng = np.random.default_rng(3)
        steps = 0
        for _ in range(25):
            _, _, done, _ = env.step(int(rng.integers(env.n_actions)))
            steps += 1
            if done:
                env.reset()
        span = tracer.get("termination")
        assert span is not None and span.count == steps
        assert tracer.get("engine-step").count == steps


class TestDenseReplayFailsFast:
    def test_raises_with_estimate_and_modes(self, monkeypatch):
        """Table 1's 400k raw paper-scale states on a 7 GiB host."""
        monkeypatch.setattr(
            replay_mod, "physical_ram_bytes", lambda: 7 * 2**30
        )
        with pytest.raises(MemoryError) as exc:
            ReplayMemory(400_000, 10_059)
        msg = str(exc.value)
        assert "30.0 GiB" in msg and "7.0 GiB" in msg
        assert "400,000 x 10,059 x 4 B" in msg
        assert '"compact"' in msg and '"descriptor"' in msg

    def test_fitting_ring_allocates(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "physical_ram_bytes", lambda: 1 << 30)
        assert len(ReplayMemory(1000, 1000)) == 0

    def test_compact_ring_that_fits_allocates(self, monkeypatch):
        # Only the 10-float tail ring counts: 1000 x 10 x 4 B < 1 MiB.
        monkeypatch.setattr(replay_mod, "physical_ram_bytes", lambda: 1 << 20)
        mem = ReplayMemory(
            1000, 1000, static_prefix=np.zeros(990, dtype=np.float32)
        )
        assert mem.is_compact

    def test_compact_ring_raises_with_estimate(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "physical_ram_bytes", lambda: 1 << 20)
        with pytest.raises(MemoryError) as exc:
            ReplayMemory(
                1000, 1000, static_prefix=np.zeros(500, dtype=np.float32)
            )
        msg = str(exc.value)
        assert msg.startswith("compact replay")
        assert "(1,000 x 500 x 4 B)" in msg
        assert '"descriptor"' in msg and "replay_capacity" in msg

    def test_unknown_ram_allocates(self, monkeypatch):
        monkeypatch.setattr(replay_mod, "physical_ram_bytes", lambda: None)
        assert len(ReplayMemory(10, 10)) == 0

"""Sequential reference scorer -- the paper's Algorithm 1, generalized.

Algorithm 1 in the paper shows the sequential baseline for the
Lennard-Jones interactions: a triple loop over conformations, receptor
atoms, and ligand atoms accumulating ``4 eps (t12 - t6)``.  This module
implements that literal loop structure in pure Python for **all three**
Eq. 1 terms, serving two purposes:

1. *Parity oracle* -- ``tests/test_scoring_parity.py`` asserts the
   vectorized scorer matches this one to tight tolerance;
2. *Baseline* -- ``benchmarks/test_bench_scoring.py`` measures the
   speedup of the vectorized path over this loop, the Python analogue of
   the paper's sequential-vs-GPU comparison.

:func:`truncated_score` is the dense oracle for cutoff truncation: Eq. 1
restricted to the pairs within a cutoff, taken from the full distance
matrix.  The incremental scorer's drift bound is measured against it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.hbond import HBOND_DEPTH, HBOND_R0, hbond_coefficients
from repro.scoring.pairwise import direction_vectors


def sequential_lj_energy(receptor: Molecule, ligand: Molecule) -> float:
    """Algorithm 1 verbatim (single conformation): sequential LJ loop."""
    total = 0.0
    for j in range(receptor.n_atoms):
        rx, ry, rz = receptor.coords[j]
        sj = receptor.sigma[j]
        ej = receptor.epsilon[j]
        for k in range(ligand.n_atoms):
            dx = rx - ligand.coords[k, 0]
            dy = ry - ligand.coords[k, 1]
            dz = rz - ligand.coords[k, 2]
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            r = max(r, MIN_DISTANCE)
            sigma = 0.5 * (sj + ligand.sigma[k])
            eps = math.sqrt(ej * ligand.epsilon[k])
            term6 = (sigma / r) ** 6
            term12 = term6 * term6
            total += 4.0 * eps * (term12 - term6)
    return total


def sequential_score_algorithm1(
    receptor: Molecule,
    ligand: Molecule,
    conformations: Sequence[np.ndarray] | None = None,
) -> list[float]:
    """Algorithm 1 over ``N_CONFORMATION`` poses, full Eq. 1 energies.

    ``conformations`` is a sequence of ligand coordinate arrays; ``None``
    means the single current pose.  Returns the per-conformation *scores*
    (negated energies), mirroring ``S_energy[i]`` in the pseudocode.
    """
    if conformations is None:
        conformations = [ligand.coords]
    c_hb, d_hb = hbond_coefficients(HBOND_R0, HBOND_DEPTH)
    dirs = direction_vectors(receptor.coords, receptor.bonds)
    scores: list[float] = []
    for coords in conformations:
        coords = np.asarray(coords, dtype=float)
        scoring = 0.0
        for j in range(receptor.n_atoms):
            rxyz = receptor.coords[j]
            qj = receptor.charges[j]
            sj = receptor.sigma[j]
            ej = receptor.epsilon[j]
            dj = dirs[j]
            donor_j = bool(receptor.hbond_donor[j])
            acc_j = bool(receptor.hbond_acceptor[j])
            for k in range(coords.shape[0]):
                dx = coords[k, 0] - rxyz[0]
                dy = coords[k, 1] - rxyz[1]
                dz = coords[k, 2] - rxyz[2]
                r = math.sqrt(dx * dx + dy * dy + dz * dz)
                r = max(r, MIN_DISTANCE)
                # electrostatics
                scoring += COULOMB_CONSTANT * qj * ligand.charges[k] / r
                # Lennard-Jones
                sigma = 0.5 * (sj + ligand.sigma[k])
                eps = math.sqrt(ej * ligand.epsilon[k])
                term6 = (sigma / r) ** 6
                term12 = term6 * term6
                e_lj = 4.0 * eps * (term12 - term6)
                scoring += e_lj
                # hydrogen bond correction on eligible pairs
                eligible = (donor_j and bool(ligand.hbond_acceptor[k])) or (
                    acc_j and bool(ligand.hbond_donor[k])
                )
                if eligible:
                    if abs(dj[0]) < 1e-12 and abs(dj[1]) < 1e-12 and abs(
                        dj[2]
                    ) < 1e-12:
                        cos_t = 1.0
                    else:
                        # direction receptor->ligand against donor direction
                        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
                        norm = max(norm, 1e-9)
                        cos_t = (
                            dj[0] * dx + dj[1] * dy + dj[2] * dz
                        ) / norm
                        cos_t = min(1.0, max(0.0, cos_t))
                    sin_t = math.sqrt(max(0.0, 1.0 - cos_t * cos_t))
                    e_1210 = c_hb / r**12 - d_hb / r**10
                    scoring += cos_t * e_1210 - (1.0 - sin_t) * e_lj
        scores.append(-scoring)
    return scores


def truncated_score(
    receptor: Molecule,
    ligand: Molecule,
    coords: np.ndarray,
    cutoff: float,
    *,
    shifted: bool = True,
) -> float:
    """Eq. 1 score over the receptor-ligand pairs within ``cutoff``.

    Pairs are ``np.nonzero(d2 <= cutoff**2)`` of the full (m, n)
    squared-distance matrix -- the same squared-distance test
    :func:`repro.scoring.neighborlist.query_pairs` applies, so pairs on
    the cutoff sphere agree with the cell-list scorers.  ``shifted``
    uses the energy-shifted Coulomb form ``k q_i q_j (1/r - 1/Rc)``,
    continuous at the cutoff; unshifted, a cutoff beyond every pair
    distance gives the full Eq. 1 score.  ``ligand`` supplies topology
    and charges, ``coords`` its (m, 3) pose.
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    lig = np.asarray(coords, dtype=float)
    rec = receptor
    diff_all = lig[:, None, :] - rec.coords[None, :, :]  # (m, n, 3)
    flat = diff_all.reshape(-1, 3)
    d2 = np.einsum("ij,ij->i", flat, flat).reshape(diff_all.shape[:2])
    lig_idx, rec_idx = np.nonzero(d2 <= cutoff * cutoff)
    if rec_idx.size == 0:
        return 0.0
    diff = diff_all[lig_idx, rec_idx]
    r = np.maximum(np.sqrt(d2[lig_idx, rec_idx]), MIN_DISTANCE)
    inv = 1.0 / r
    if shifted:
        inv = inv - 1.0 / cutoff
    qq = rec.charges[rec_idx] * ligand.charges[lig_idx]
    e_el = COULOMB_CONSTANT * qq * inv
    sigma = 0.5 * (rec.sigma[rec_idx] + ligand.sigma[lig_idx])
    eps = np.sqrt(rec.epsilon[rec_idx] * ligand.epsilon[lig_idx])
    x6 = (sigma / r) ** 6
    e_lj = 4.0 * eps * (x6 * x6 - x6)
    energy = float(e_el.sum()) + float(e_lj.sum())
    eligible = hb.eligible_pairs_mask(
        rec.hbond_donor,
        rec.hbond_acceptor,
        ligand.hbond_donor,
        ligand.hbond_acceptor,
    )[rec_idx, lig_idx]
    if eligible.any():
        u = diff[eligible]
        dirs = direction_vectors(rec.coords, rec.bonds)[rec_idx[eligible]]
        cos = (dirs * u).sum(axis=1) / np.maximum(
            np.linalg.norm(u, axis=1), 1e-9
        )
        cos[(np.abs(dirs) < 1e-12).all(axis=1)] = 1.0
        np.clip(cos, 0.0, 1.0, out=cos)
        sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
        c_hb, d_hb = hbond_coefficients()
        r_el = r[eligible]
        e_1210 = c_hb / r_el**12 - d_hb / r_el**10
        energy += float((cos * e_1210 - (1.0 - sin) * e_lj[eligible]).sum())
    return -energy

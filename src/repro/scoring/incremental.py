"""Incremental Verlet-list pose scoring (cutoff + skin).

The RL action set moves the ligand at most ~1 A per step (Table 1), so
the set of receptor atoms within the cutoff of any ligand atom barely
changes between consecutive scores.  :class:`IncrementalScorer` exploits
this with the classic Verlet-list construction:

- the *pair list* holds every (receptor atom, ligand atom) pair within
  ``cutoff + skin`` of the ligand's position at the last *build*;
- the list provably covers every within-``cutoff`` pair as long as no
  ligand atom has moved more than ``skin / 2`` since the build (the
  receptor is static, so the usual skin/2-per-particle budget is all
  the ligand's — the guarantee is conservative);
- a *rebuild* is triggered only when the maximum ligand-atom
  displacement since the last build exceeds ``skin / 2``.

At build time everything per-pair scoring needs is gathered once into
preallocated flat tables — Coulomb charge products, combined
Lorentz-Berthelot sigma/epsilon, H-bond eligibility and receptor donor
directions — so the per-step kernel is pure vectorized arithmetic over
contiguous buffers with no per-step allocation and no Python-level
loops.

Bit-stability (checkpoint safety)
---------------------------------
The pair-list cache is *derived* state: it is never checkpointed, and a
resumed run starts with a cold cache.  The score must therefore be a
pure function of the pose, independent of when the list was last built.
Two properties guarantee this:

1. :func:`repro.scoring.neighborlist.query_pairs` returns pairs in a
   canonical order (ligand-atom-major, cells ascending, stored index
   ascending within a cell) that depends only on pair *membership*, not
   on where the query was centered; and
2. each evaluation first *compresses* the cached superset list to
   exactly the pairs with ``r <= cutoff`` — a subset whose content and
   order is the same whether the list was built at this pose or up to
   skin/2 away — and every reduction runs over those compressed arrays.

Hence a fresh scorer and a scorer carrying a warm cache produce
bit-identical floats for the same coordinates (pinned by
``tests/test_scoring_incremental.py``), and interrupt/resume of a run
using ``--scoring-method incremental`` stays bit-stable per
``docs/CHECKPOINTS.md``.

Accuracy matches the dense truncation oracle
:func:`repro.scoring.reference.truncated_score` at the same ``cutoff``
to within :data:`DRIFT_REL_BOUND` (same pair set, same per-pair
formulas; only floating-point association differs).  The truncation
error *versus the exact scorer* is the cutoff's accuracy knob,
quantified per cutoff in ``docs/PERFORMANCE.md`` and
``benchmarks/test_bench_score_step.py``.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, DEFAULT_CUTOFF, MIN_DISTANCE
from repro.scoring import hbond as hb
from repro.scoring.composite import as_pose_batch
from repro.scoring.neighborlist import CellList, query_pairs
from repro.scoring.pairwise import direction_vectors

#: Default Verlet skin, angstrom.  With the paper's 1 A shift actions a
#: 3 A skin re-lists every 2-4 shift steps in the worst case and far
#: less often under mixed shift/rotation policies (a 0.5 deg rotation
#: moves atoms only ~0.04 A); larger skins trade fewer rebuilds for more
#: candidate pairs per step.
DEFAULT_SKIN: float = 3.0

#: Documented bound on the relative score drift of the incremental
#: scorer versus the dense truncation oracle at the same cutoff
#: (``max |inc - ref| / max(1, |ref|)``, ``ref`` from
#: :func:`repro.scoring.reference.truncated_score`): identical pair set and
#: per-pair arithmetic, so only floating-point association differs.
#: Measured ~1e-15 on the 2BSM-scale bench trajectory; enforced by
#: benchmarks/test_bench_score_step.py.  The error versus the *exact*
#: scorer is the cutoff truncation itself — see the "Scoring kernels"
#: section of docs/PERFORMANCE.md for the measured truncation table and
#: the bound the bench enforces for it.
DRIFT_REL_BOUND: float = 1e-9

#: Telemetry metric names (registered lazily on the attached registry).
REBUILDS_METRIC = "scoring/neighborlist_rebuilds"
ACTIVE_PAIRS_METRIC = "scoring/active_pairs"


class IncrementalScorer:
    """Verlet-list scorer: cached cutoff+skin pairs, rebuilt on demand.

    Parameters
    ----------
    receptor, ligand:
        The static receptor and the ligand template (topology and
        charges; coordinates arrive per call).
    cutoff:
        Interaction cutoff in angstrom — the accuracy knob (pairs
        with ``r <= cutoff`` are scored, as in ``truncated_score``).
    skin:
        Extra list radius in angstrom — the cadence knob.
    shifted:
        Use the energy-shifted Coulomb form ``k q_i q_j (1/r - 1/Rc)``,
        continuous at the cutoff (matches ``truncated_score``).
    cell_size:
        Receptor cell-list bin edge; ``None`` picks ``(cutoff+skin)/2``,
        which measured fastest for list-radius-sized queries (bins equal
        to the query radius degenerate to scanning the whole receptor).

    Attributes
    ----------
    rebuild_count:
        Number of pair-list builds performed so far.
    active_pairs:
        Within-cutoff pair count of the most recent evaluation.
    tracer / metrics:
        Optional telemetry hooks (a ``SpanTracer`` and a
        ``MetricsRegistry``); wired automatically by ``MetadockEngine``.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        cutoff: float = DEFAULT_CUTOFF,
        skin: float = DEFAULT_SKIN,
        *,
        shifted: bool = True,
        cell_size: float | None = None,
        cells: CellList | None = None,
    ):
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if skin <= 0:
            raise ValueError("skin must be positive")
        self.receptor = receptor
        self.ligand = ligand
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.shifted = bool(shifted)
        self.tracer = None
        self.metrics = None
        self.rebuild_count = 0
        self.active_pairs = 0
        self._list_radius = self.cutoff + self.skin
        self._half_skin_sq = (0.5 * self.skin) ** 2
        self._cutoff_sq = self.cutoff * self.cutoff
        self._inv_cutoff = 1.0 / self.cutoff
        # A prebuilt ``cells`` (same receptor coords, list-radius bins)
        # skips the binning -- screening workers share one receptor cell
        # list across every ligand they score.
        if cells is not None:
            self._cells = cells
        else:
            if cell_size is None:
                cell_size = self._list_radius / 2.0
            self._cells = CellList(receptor.coords, cell_size=cell_size)
        self._dirs_full = direction_vectors(receptor.coords, receptor.bonds)
        self._iso_full = (np.abs(self._dirs_full) < 1e-12).all(axis=1)
        self._mask_full = hb.eligible_pairs_mask(
            receptor.hbond_donor,
            receptor.hbond_acceptor,
            ligand.hbond_donor,
            ligand.hbond_acceptor,
        )
        m = ligand.n_atoms
        self._ref = np.zeros((m, 3))
        self._disp = np.empty((m, 3))
        self._disp_row = np.empty(m)
        self._have_list = False
        self._n_pairs = 0
        self._any_elig = False
        self._cap = 0

    # -- capacity / buffers -------------------------------------------------
    def _ensure_capacity(self, n: int) -> None:
        """Grow the gather tables and work buffers to hold ``n`` pairs."""
        if n <= self._cap:
            return
        cap = max(n, self._cap + self._cap // 4 + 16)
        # Build-time gather tables (filled at rebuild, read every step).
        self._lig_idx = np.empty(cap, dtype=np.int64)
        self._rec_xyz = np.empty((cap, 3))
        # Rows: Coulomb-prescaled charge product k*q_r*q_l, combined
        # sigma (s_r+s_l)/2, and 4*sqrt(e_r*e_l) (the 12-6 prefactor) —
        # one (3, cap) block so the per-step compression is one call
        # over contiguous rows.
        self._static = np.empty((3, cap))
        self._elig = np.empty(cap, dtype=bool)
        self._dirs = np.empty((cap, 3))
        self._iso = np.empty(cap, dtype=bool)
        # Per-step work over the full candidate list ...
        self._lig_xyz = np.empty((cap, 3))
        self._diff = np.empty((cap, 3))
        self._r2 = np.empty(cap)
        self._act = np.empty(cap, dtype=bool)
        self._both = np.empty(cap, dtype=bool)
        # ... and over the compressed within-cutoff subset.
        self._c_static = np.empty((3, cap))
        self._c_r = np.empty(cap)
        self._c_inv = np.empty(cap)
        self._c_e = np.empty(cap)
        self._c_x = np.empty(cap)
        self._c_x6 = np.empty(cap)
        self._c_elj = np.empty(cap)
        self._c_elig = np.empty(cap, dtype=bool)
        self._cap = cap

    # -- list construction --------------------------------------------------
    def _rebuild(self, lig: np.ndarray) -> None:
        rec_idx, lig_idx = query_pairs(self._cells, lig, self._list_radius)
        n = int(rec_idx.size)
        self._ensure_capacity(n)
        self._n_pairs = n
        rec = self.receptor
        lig_mol = self.ligand
        if n:
            self._lig_idx[:n] = lig_idx
            np.take(rec.coords, rec_idx, axis=0, out=self._rec_xyz[:n])
            qq = self._static[0, :n]
            np.take(rec.charges, rec_idx, out=qq)
            qq *= lig_mol.charges[lig_idx]
            qq *= COULOMB_CONSTANT
            sig = self._static[1, :n]
            np.take(rec.sigma, rec_idx, out=sig)
            sig += lig_mol.sigma[lig_idx]
            sig *= 0.5
            eps = self._static[2, :n]
            np.take(rec.epsilon, rec_idx, out=eps)
            eps *= lig_mol.epsilon[lig_idx]
            np.sqrt(eps, out=eps)
            eps *= 4.0
            self._elig[:n] = self._mask_full[rec_idx, lig_idx]
            self._any_elig = bool(self._elig[:n].any())
            if self._any_elig:
                np.take(
                    self._dirs_full, rec_idx, axis=0, out=self._dirs[:n]
                )
                np.take(self._iso_full, rec_idx, out=self._iso[:n])
        else:
            self._any_elig = False
        self._ref[:] = lig
        self._have_list = True
        self.rebuild_count += 1
        if self.metrics is not None:
            self.metrics.inc(REBUILDS_METRIC)

    def _needs_rebuild(self, lig: np.ndarray) -> bool:
        if not self._have_list:
            return True
        d = self._disp
        np.subtract(lig, self._ref, out=d)
        d *= d
        d.sum(axis=1, out=self._disp_row)
        return bool(self._disp_row.max() > self._half_skin_sq)

    # -- scoring -------------------------------------------------------------
    def score(self, coords: np.ndarray) -> float:
        lig = np.asarray(coords, dtype=float)
        if lig.shape != (self.ligand.n_atoms, 3):
            raise ValueError(
                f"coords must have shape ({self.ligand.n_atoms}, 3)"
            )
        if self._needs_rebuild(lig):
            if self.tracer is not None:
                with self.tracer.span("neighborlist-rebuild"):
                    self._rebuild(lig)
            else:
                self._rebuild(lig)
        return self._score_cached(lig)

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        """Scores for (k, m, 3) poses; reuses the Verlet cache across poses.

        Poses within skin/2 of the current reference are scored off the
        cached list; a pose farther away triggers a rebuild centered on
        it (exactly as :meth:`score` would).  Batches of *nearby*
        candidate poses — vector-env steps, local pose refinement —
        therefore share one pair list; scattered batches degrade
        gracefully to one list build per pose.

        Pose-major vectorized: poses are scanned into maximal segments
        covered by one pair list (the same per-pose displacement test
        :meth:`score` applies, in the same order, so rebuild decisions
        match the sequential loop exactly), and each segment's per-pair
        terms are computed in one vectorized pass over the shared gather
        tables with only the per-pose reductions running per pose —
        each entry bitwise-equal to a sequential :meth:`score` call.
        """
        cb = as_pose_batch(coords_batch, self.ligand.n_atoms)
        k = cb.shape[0]
        out = np.empty(k)
        if k == 0:
            return out
        i = 0
        while i < k:
            if self._needs_rebuild(cb[i]):
                if self.tracer is not None:
                    with self.tracer.span("neighborlist-rebuild"):
                        self._rebuild(cb[i])
                else:
                    self._rebuild(cb[i])
            # Maximal run of poses the current list covers: the first
            # pose whose max displacement from the build reference
            # exceeds skin/2 ends the segment (it would trigger a
            # rebuild in the sequential loop too).
            j = i + 1
            if j < k:
                disp = cb[j:] - self._ref
                d2 = np.einsum("kij,kij->ki", disp, disp).max(axis=1)
                bad = np.flatnonzero(d2 > self._half_skin_sq)
                j = k if bad.size == 0 else j + int(bad[0])
            self._score_cached_batch(cb[i:j], out[i:j])
            i = j
        return out

    def _score_cached_batch(self, seg: np.ndarray, out: np.ndarray) -> None:
        """Vectorized :meth:`_score_cached` over list-covered poses.

        Every per-pair term is elementwise, so one pass over the
        ``(g, n)`` candidate block produces exactly the values the
        single-pose path would; the compressed arrays are laid out
        pose-major so every floating-point *reduction* runs per pose
        over a contiguous slice of the same length, in the same op
        order — bitwise-identical to ``g`` sequential calls (including
        the per-pose ``active_pairs`` gauge updates).
        """
        n = self._n_pairs
        g = seg.shape[0]
        if n == 0:
            out[:] = 0.0
            self.active_pairs = 0
            if self.metrics is not None:
                for _ in range(g):
                    self.metrics.set(ACTIVE_PAIRS_METRIC, 0)
            return
        if self._any_elig:
            c_hb, d_hb = hb.hbond_coefficients()
        elig_n = self._elig[:n]
        # Chunk poses so the (chunk, n) temporaries stay bounded.
        chunk = max(1, 2_000_000 // max(1, n))
        for s0 in range(0, g, chunk):
            s1 = min(s0 + chunk, g)
            poses = seg[s0:s1]
            gg = s1 - s0
            ligx = poses[:, self._lig_idx[:n], :]
            diff = ligx - self._rec_xyz[:n][None, :, :]
            r2 = np.einsum("gij,gij->gi", diff, diff)
            act = r2 <= self._cutoff_sq
            na = act.sum(axis=1).astype(np.int64)
            bounds = np.zeros(gg + 1, dtype=np.int64)
            np.cumsum(na, out=bounds[1:])
            # Pose-major compression: pose p owns rows
            # bounds[p]:bounds[p+1] of every compressed array below —
            # the same subset, content and order, score() compresses.
            flat_act = act.reshape(-1)
            c_r = r2.reshape(-1)[flat_act]
            np.sqrt(c_r, out=c_r)
            np.maximum(c_r, MIN_DISTANCE, out=c_r)
            cols = np.nonzero(act)[1]
            c_static = self._static[:, :n][:, cols]
            c_inv = 1.0 / c_r
            if self.shifted:
                c_inv -= self._inv_cutoff
            e = c_static[0] * c_inv
            # Lennard-Jones, cube-then-square exactly as _score_cached.
            x = c_static[1] / c_r
            x6 = x * x
            x6 *= x
            x6 *= x6
            e_lj = x6 * x6
            e_lj -= x6
            e_lj *= c_static[2]
            for p in range(gg):
                na_p = int(na[p])
                self.active_pairs = na_p
                if self.metrics is not None:
                    self.metrics.set(ACTIVE_PAIRS_METRIC, na_p)
                if na_p == 0:
                    out[s0 + p] = 0.0
                    continue
                lo, hi = int(bounds[p]), int(bounds[p + 1])
                energy = float(e[lo:hi].sum())
                energy += float(e_lj[lo:hi].sum())
                if self._any_elig:
                    act_p = act[p]
                    c_elig = np.compress(act_p, elig_n)
                    if c_elig.any():
                        both = np.logical_and(act_p, elig_n)
                        d_el = np.compress(c_elig, c_r[lo:hi])
                        u = np.compress(both, diff[p], axis=0)
                        dirs = np.compress(both, self._dirs[:n], axis=0)
                        iso = np.compress(both, self._iso[:n])
                        e_lj_sub = np.compress(c_elig, e_lj[lo:hi])
                        norm = np.maximum(
                            np.linalg.norm(u, axis=1), 1e-9
                        )
                        cos = (dirs * u).sum(axis=1) / norm
                        cos[iso] = 1.0
                        np.clip(cos, 0.0, 1.0, out=cos)
                        sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
                        e_1210 = c_hb / d_el**12 - d_hb / d_el**10
                        energy += float(
                            (cos * e_1210 - (1.0 - sin) * e_lj_sub).sum()
                        )
                out[s0 + p] = -energy

    def _score_cached(self, lig: np.ndarray) -> float:
        n = self._n_pairs
        if n == 0:
            self.active_pairs = 0
            if self.metrics is not None:
                self.metrics.set(ACTIVE_PAIRS_METRIC, 0)
            return 0.0
        # Squared distances over the full candidate list.
        ligx = self._lig_xyz[:n]
        np.take(lig, self._lig_idx[:n], axis=0, out=ligx)
        diff = self._diff[:n]
        np.subtract(ligx, self._rec_xyz[:n], out=diff)
        r2 = self._r2[:n]
        np.einsum("ij,ij->i", diff, diff, out=r2)
        # Compress to the exact within-cutoff pair set.  This subset
        # (content *and* order) is a pure function of the pose, so every
        # reduction below is bit-stable across rebuild states.
        act = self._act[:n]
        np.less_equal(r2, self._cutoff_sq, out=act)
        na = int(np.count_nonzero(act))
        self.active_pairs = na
        if self.metrics is not None:
            self.metrics.set(ACTIVE_PAIRS_METRIC, na)
        if na == 0:
            return 0.0
        c_r = self._c_r[:na]
        np.compress(act, r2, out=c_r)
        np.sqrt(c_r, out=c_r)
        np.maximum(c_r, MIN_DISTANCE, out=c_r)
        c_static = self._c_static[:, :na]
        np.compress(act, self._static[:, :n], axis=1, out=c_static)
        # Electrostatics (optionally energy-shifted at the cutoff).
        c_inv = self._c_inv[:na]
        np.divide(1.0, c_r, out=c_inv)
        if self.shifted:
            c_inv -= self._inv_cutoff
        e = self._c_e[:na]
        np.multiply(c_static[0], c_inv, out=e)
        energy = float(e.sum())
        # Lennard-Jones: 4 eps ((sig/r)^12 - (sig/r)^6), cube-then-square
        # like lennard_jones_energy_matrix.
        x = self._c_x[:na]
        np.divide(c_static[1], c_r, out=x)
        x6 = self._c_x6[:na]
        np.multiply(x, x, out=x6)
        x6 *= x
        x6 *= x6
        e_lj = self._c_elj[:na]
        np.multiply(x6, x6, out=e_lj)
        e_lj -= x6
        e_lj *= c_static[2]
        energy += float(e_lj.sum())
        # Hydrogen-bond correction on eligible pairs (small subset; the
        # transient selections here are tiny).
        if self._any_elig:
            c_elig = self._c_elig[:na]
            np.compress(act, self._elig[:n], out=c_elig)
            if c_elig.any():
                both = self._both[:n]
                np.logical_and(act, self._elig[:n], out=both)
                d_el = np.compress(c_elig, c_r)
                u = np.compress(both, diff, axis=0)
                dirs = np.compress(both, self._dirs[:n], axis=0)
                iso = np.compress(both, self._iso[:n])
                e_lj_sub = np.compress(c_elig, e_lj)
                norm = np.maximum(np.linalg.norm(u, axis=1), 1e-9)
                cos = (dirs * u).sum(axis=1) / norm
                cos[iso] = 1.0
                np.clip(cos, 0.0, 1.0, out=cos)
                sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
                c_hb, d_hb = hb.hbond_coefficients()
                e_1210 = c_hb / d_el**12 - d_hb / d_el**10
                energy += float(
                    (cos * e_1210 - (1.0 - sin) * e_lj_sub).sum()
                )
        return -energy

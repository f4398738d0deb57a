"""Hybrid precomputed-field pose scoring (AutoDock-style receptor maps).

The incremental Verlet scorer still touches receptor atoms on every
step; the next order of magnitude comes from tabulating the rigid
receptor's fields once and reducing a pose evaluation to O(ligand
atoms) trilinear interpolations.  :class:`FieldScorer` is a *hybrid*
two-regime scorer built around :class:`FieldMaps`:

Far field (interpolated)
------------------------
Every Eq. 1 term decomposes per ligand atom (each pair contains exactly
one ligand atom), so the receptor's contribution to a ligand atom of a
given *type* is a pure scalar field of position and can be tabulated:

- an electrostatic potential map ``phi(x) = k sum_j q_j / r_j``
  (multiplied by the ligand charge at evaluation time -- exact per
  atom);
- per distinct ligand ``(sigma, epsilon)`` type one repulsion /
  dispersion map pair ``rep_t(x) = sum_j 4 sqrt(eps_j eps_t)
  ((sigma_j+sigma_t)/2)^12 / r_j^12`` and the ``^6`` analogue -- the
  *exact* Lorentz-Berthelot arithmetic-sigma combination (no
  geometric-mean approximation that would let LJ factorize);
- per H-bond eligibility class (ligand donor/acceptor flags) an
  angular-weighted 12-10 map ``sum_j cos(theta_j(x)) (C/r^12 -
  D/r^10)`` over the class-eligible receptor atoms, plus per (type x
  class) the ``(1 - sin(theta_j(x)))``-weighted repulsion/dispersion
  pair carrying the ``- (1 - sin) e_lj`` part of the Eq. 1 correction.
  ``theta_j(x)`` depends only on the receptor donor direction and the
  grid position, so the full angular term tabulates exactly (the
  H-bond term is not dropped or made isotropic).

Near field (exact pairwise)
---------------------------
Interpolating ``r^-12`` spikes is hopeless, so the maps never contain
them: every kernel is tabulated with the pair distance *clipped from
below* at ``clash_radius`` (``f_clip(r) = f(max(r, clash_radius))``),
which bounds the fields' curvature everywhere and makes trilinear
interpolation uniformly well-behaved -- including *inside* the
receptor.  Exactness near the surface is restored pairwise: ligand
atoms within ``clash_radius`` of a receptor atom are rescored through
the exact pairwise path -- each overlapping pair's full Eq. 1 energy
at the true (MIN_DISTANCE-clamped, like the exact scorer) distance
replaces its clipped-kernel contribution analytically.  Overlap
detection reuses the cell-list idea of
:mod:`repro.scoring.neighborlist` at voxel granularity: the build
precomputes, for every grid voxel, the receptor atoms that could
overlap an atom inside it (a CSR candidate table over the same node
distances the maps integrate), so at score time candidates arrive in
one gather with no spatial query at all, and a distance check keeps
the actual ``r < clash_radius`` pairs (the table is validated against
:func:`~repro.scoring.neighborlist.query_pairs` on a receptor
``CellList`` in the tests).  The clash-dominating terms are therefore
computed exactly, pair by pair, while everything smooth stays two
table lookups per atom.

The box and its lazy bricks
---------------------------
The lattice box is the receptor extent plus :data:`DEFAULT_PADDING`
(44 A) on every side, sized so the box of the paper-scale complex
contains the whole episode: the escape sphere (4/3 x the initial COM
distance) grown by a 45-atom ligand's radius and one step.  Node
values are computed only in bricks of ``BRICK**3`` nodes that an
interpolation corner touches, on first touch -- a trajectory builds
the volume it visits, and volume never visited costs one brick-table
entry, so the large box is free.  Atoms outside the box still take
the exact full-column path -- no silent clamp to the box boundary;
box padding exceeds ``clash_radius``, so out-of-box atoms can have no
overlapping pairs.

Error budget (PR 5 truncation-policy style)
-------------------------------------------
A pose whose atoms are all out-of-box scores *bit-identically* to
:class:`~repro.scoring.scorers.ExactScorer` (same kernels, same
reduction order).  For in-box atoms the only error source is trilinear
interpolation of the clipped fields, whose curvature is bounded by the
kernels at ``r = clash_radius``; overlapping pairs -- where the exact
and clipped kernels diverge by up to ~1e15 -- contribute their
difference exactly.  The documented per-step score-change bounds at
the default ``spacing``/``clash_radius`` are
:data:`FIELD_CALM_STEP_BOUND` (calm docking regime) and
:data:`FIELD_CLASH_REL_BOUND` (clash regime, dominated by the exact
pair corrections), measured at 2BSM scale by
``benchmarks/test_bench_score_step.py`` and tabulated per spacing in
docs/PERFORMANCE.md ("Scoring kernels").

Bit-stability (checkpoint safety)
---------------------------------
Maps are *derived* state: never checkpointed, resumed runs start cold.
Which bricks exist, and in which order they were built, depends on
what was scored before -- so every node value must be a pure function
of (receptor, node position, atom type) alone.  It is: each value is
accumulated independently of which other types or bricks share a
build pass, squared distances are formed per axis, and every per-node
reduction runs through ``np.einsum`` rather than BLAS (a BLAS GEMV's
per-row result depends on the chunk's row count and thread count).
The overlap-pair enumeration follows the candidate lists' canonical
node-major, receptor-ascending order, and the pair corrections are
pure functions of the pose, so a warm (shared / previously-built)
scorer and a cold one produce bit-identical floats for the same
coordinates, whatever the build order, grouping or BLAS thread count
(pinned by ``tests/test_scoring_field.py``), and interrupt/resume
under ``--scoring-method field`` stays bit-exact per
docs/CHECKPOINTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.chem.molecule import Molecule
from repro.constants import COULOMB_CONSTANT, MIN_DISTANCE
from repro.scoring import electrostatics as elec
from repro.scoring import hbond as hb
from repro.scoring import lennard_jones as lj
from repro.scoring.composite import ScoringTables, as_pose_batch
from repro.scoring.pairwise import direction_vectors, pairwise_distances

#: Default lattice spacing, angstrom.  The error-vs-spacing table in
#: docs/PERFORMANCE.md motivates the default: with the clipped kernels
#: 1.0 A already keeps calm-regime per-step drift well under
#: :data:`FIELD_CALM_STEP_BOUND`, and the compact maps stay
#: cache-resident (halving the spacing grew the maps 8x and measurably
#: *slowed* the gather at 2BSM scale).
DEFAULT_SPACING: float = 1.0
#: Default box padding beyond the receptor extent, angstrom.  Sized so
#: the box of the paper-scale complex (``ComplexConfig()``) contains
#: the whole episode: the escape sphere (4/3 x the initial COM
#: distance, ~46.7 A around the receptor COM, reaching ~29.1 A past
#: the receptor extent on the pocket side) plus the radius of a
#: 45-atom library ligand (<= ~11.6 A) plus one 1 A step is ~41.7 A.
#: Out-of-box atoms fall back to exact full columns, which is correct
#: but ~200x slower per atom; bricks are built lazily, so volume never
#: visited costs one brick-table entry.  Must exceed ``clash_radius``
#: so out-of-box atoms cannot have overlapping pairs (enforced at
#: construction).
DEFAULT_PADDING: float = 44.0
#: Default near-field (exact-pair) radius, angstrom.  Map kernels are
#: clipped at this distance; pairs closer than it are rescored through
#: the exact pairwise path.  Beyond it the clipped fields are smooth
#: enough for trilinear interpolation.
DEFAULT_CLASH_RADIUS: float = 3.0
#: Default map storage dtype ("float32" halves map memory; error impact
#: measured in BENCH_score_step.json).
DEFAULT_DTYPE: str = "float64"

#: Documented per-step score-change drift bound vs ExactScorer in the
#: calm docking regime (|score| < 1e4) at the default spacing / clash
#: radius, kcal/mol.  Measured at 2BSM scale by the score bench (see
#: BENCH_score_step.json and docs/PERFORMANCE.md); enforced with margin
#: there.
FIELD_CALM_STEP_BOUND: float = 25.0
#: Documented relative per-step drift bound on clash steps: the
#: clash-dominating overlap pairs are computed exactly, so both scorers
#: are dominated by the same clamped pairs and only the smooth
#: interpolated remainder differs (measured ~8e-5 at the defaults).
FIELD_CLASH_REL_BOUND: float = 1e-3

#: Gauge reporting the field maps' memory footprint (brick table plus
#: every allocated per-brick array).
FIELD_BYTES_METRIC = "scoring/field_bytes"
#: Histogram over the per-call fraction of ligand atoms routed through
#: the exact pairwise path (overlapping or out-of-box atoms;
#: ``repro inspect`` renders its mean/max).
NEAR_FRACTION_METRIC = "scoring/near_field_fraction"

#: Counter of ligand atoms scored outside the box (full exact columns).
OOB_ATOMS_METRIC = "scoring/field_oob_atoms"
#: Counter of in-box ligand atoms with overlapping pairs (exact pair
#: corrections).
NEAR_ATOMS_METRIC = "scoring/field_near_atoms"
#: Gauge of the built fraction of the box's bricks (built / total).
BRICKS_METRIC = "scoring/field_bricks"

_VALID_DTYPES = ("float32", "float64")

#: Nodes per brick edge.  A built brick holds BRICK**3 nodes: small
#: bricks keep a trajectory from building much beyond the volume it
#: visits (8^3 bricks would build ~2.4x the nodes of a policy screen),
#: and one brick's (nodes x receptor atoms) temporaries stay a few MB.
BRICK = 4
BRICK_NODES = BRICK**3
#: Local (x, y, z) node offsets inside a brick, in local-index order
#: (z fastest), and the strides mapping them back to the local index.
_LOCAL3 = np.stack(
    np.unravel_index(np.arange(BRICK_NODES), (BRICK,) * 3), axis=1
)
_LOCAL_STRIDES = np.array([BRICK * BRICK, BRICK, 1], dtype=np.int64)
#: The 8 voxel corners in trilinear weight order (z fastest).
_CORNERS = np.array(
    [[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
)


def _with_rows(a: np.ndarray, n: int) -> np.ndarray:
    """``a``, or a zero-padded copy with at least ``n`` rows (capacity
    doubles, so appending rows one build at a time stays linear)."""
    if n <= a.shape[0]:
        return a
    out = np.zeros((max(n, 2 * a.shape[0]),) + a.shape[1:], dtype=a.dtype)
    out[: a.shape[0]] = a
    return out


def _atom_type_specs(ligand: Molecule) -> tuple[list[tuple], np.ndarray]:
    """Distinct (sigma, epsilon, donor, acceptor) tuples + per-atom ids.

    Ligand atoms draw their parameters from the small element palette
    (:mod:`repro.chem.elements`), so the distinct-type count is a
    handful regardless of ligand size -- per-type maps stay cheap and
    different library ligands share maps whenever they share elements.
    """
    specs: list[tuple] = []
    seen: dict[tuple, int] = {}
    ids = np.empty(ligand.n_atoms, dtype=np.int64)
    for i in range(ligand.n_atoms):
        s = (
            float(ligand.sigma[i]),
            float(ligand.epsilon[i]),
            bool(ligand.hbond_donor[i]),
            bool(ligand.hbond_acceptor[i]),
        )
        if s not in seen:
            seen[s] = len(specs)
            specs.append(s)
        ids[i] = seen[s]
    return specs, ids


class FieldMaps:
    """Lazily built, brick-tiled per-type receptor field maps.

    The lattice spans the receptor extent plus ``padding`` on every
    side, but node values exist only in *bricks* of ``BRICK**3`` nodes
    that an interpolation corner has touched: :meth:`ensure` builds the
    bricks under a batch of points, and fills a newly seen atom-type
    spec in on every brick already built.  Each built brick owns one
    row of :attr:`values` -- ``[phi, combined(spec 0), combined(spec
    1), ...]`` x ``BRICK**3`` nodes, contiguous -- plus that brick's
    near-field CSR candidate lists (node-major, receptor atoms
    ascending) in :attr:`cand_start` / :attr:`cand_count` /
    :attr:`cand_atoms`.  :attr:`brick_slot` maps a brick index to its
    row, or -1 while unbuilt.

    One instance serves every ligand scored against its receptor:
    screening workers build it once per worker and pass it to each
    :class:`FieldScorer` via ``cells=`` (mirroring the cell-list
    sharing of the incremental scorer).  Every node value is a pure
    function of (receptor, node position, spec), whatever the build
    order, grouping or BLAS thread count, so shared and private builds
    are bitwise identical.
    """

    def __init__(
        self,
        receptor: Molecule,
        *,
        spacing: float = DEFAULT_SPACING,
        padding: float = DEFAULT_PADDING,
        clash_radius: float = DEFAULT_CLASH_RADIUS,
        dtype: str = DEFAULT_DTYPE,
    ):
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        if clash_radius <= 0:
            raise ValueError("clash_radius must be positive")
        if padding <= clash_radius:
            raise ValueError(
                "padding must exceed clash_radius (out-of-box atoms "
                "must have no overlapping pairs)"
            )
        if dtype not in _VALID_DTYPES:
            raise ValueError(
                f"dtype must be one of {_VALID_DTYPES}, got {dtype!r}"
            )
        self.receptor = receptor
        self.spacing = float(spacing)
        self.padding = float(padding)
        self.clash_radius = float(clash_radius)
        self.dtype = str(dtype)
        self._np_dtype = np.dtype(dtype)
        #: Kernel clip distance (exact-path MIN_DISTANCE still applies
        #: below it, on the pair-correction side).
        self.clip_radius = max(self.clash_radius, MIN_DISTANCE)
        self.origin = receptor.coords.min(axis=0) - padding
        upper = receptor.coords.max(axis=0) + padding
        self.shape = np.ceil((upper - self.origin) / spacing).astype(int) + 1
        #: Candidate radius for the clash-voxel table: a receptor atom
        #: within this of a voxel's base node is a candidate for every
        #: point inside the voxel, so an atom in a voxel with no
        #: candidates provably has no receptor atom within clash_radius
        #: (node-to-anywhere-in-voxel <= spacing * sqrt(3)).
        self.flag_radius = self.clash_radius + self.spacing * np.sqrt(3.0)
        self._inv_spacing = 1.0 / self.spacing
        self._upper = self.shape.astype(float) - 1.0
        self._max_idx = self.shape - 2
        # Brick grid and the per-(base-local-node, corner) addressing
        # tables: corner k of a voxel whose base node sits at local
        # position l of brick b lies at local position _corner_local[l,
        # k] of brick b + _corner_dbrick[l, k].
        grid = -(-self.shape // BRICK)
        self.brick_grid = grid
        self.n_bricks = int(np.prod(grid))
        self._brick_strides = np.array(
            [grid[1] * grid[2], grid[2], 1], dtype=np.int64
        )
        corner = _LOCAL3[:, None, :] + _CORNERS[None, :, :]
        cross = corner >= BRICK
        self._corner_dbrick = cross.astype(np.int64) @ self._brick_strides
        self._corner_local = (corner - BRICK * cross) @ _LOCAL_STRIDES
        #: Brick table: brick index -> row of the per-brick arrays, -1
        #: while unbuilt.
        self.brick_slot = np.full(self.n_bricks, -1, dtype=np.int64)
        #: Built bricks (rows in use of the per-brick arrays below).
        self.n_built = 0
        # Per-brick storage, rows grown by doubling.  values[row, 0]
        # is phi; values[row, 1 + slot_of(spec)] is that spec's full
        # non-electrostatic clipped-field energy.
        self.values = np.empty((0, 1, BRICK_NODES), dtype=self._np_dtype)
        self.cand_start = np.empty((0, BRICK_NODES), dtype=np.int64)
        self.cand_count = np.empty((0, BRICK_NODES), dtype=np.int32)
        self.cand_atoms = np.empty(0, dtype=np.int32)
        self._cand_used = 0
        # Combined-slot addressing: every distinct atom-type spec ever
        # ensured gets a stable slot, so every ligand scored against
        # this receptor gathers from the same array -- the property the
        # fused cross-ligand batch path (:func:`score_field_group`)
        # relies on.  Slots are append-only.
        self._slot: dict[tuple, int] = {}
        # H-bond receptor topology: full-length outward directions for
        # the pair corrections, plus the donor/acceptor subset the map
        # build iterates over.
        dirs_full = direction_vectors(receptor.coords, receptor.bonds)
        self.dirs_full = dirs_full
        self.iso_full = (np.abs(dirs_full) < 1e-12).all(axis=1)
        rel = np.flatnonzero(receptor.hbond_donor | receptor.hbond_acceptor)
        self._hrel = rel
        self._hdirs = dirs_full[rel]
        self._haniso = np.flatnonzero(~self.iso_full[rel])
        self._rec_xyz = [np.ascontiguousarray(c) for c in receptor.coords.T]
        self._work: dict | None = None
        self.build_count = 0

    # -- class topology ----------------------------------------------------
    def class_eligible(self, cls: tuple[bool, bool]) -> np.ndarray:
        """Positions *within the h-relevant subset* eligible for ``cls``.

        ``cls`` is the ligand-side (donor, acceptor) flag pair; a
        receptor atom is eligible iff (receptor donor and ligand
        acceptor) or (receptor acceptor and ligand donor) -- the same
        rule as :func:`repro.scoring.hbond.eligible_pairs_mask`.
        """
        don_l, acc_l = cls
        rec = self.receptor
        rel = self._hrel
        elig = np.zeros(rel.size, dtype=bool)
        if acc_l:
            elig |= rec.hbond_donor[rel].astype(bool)
        if don_l:
            elig |= rec.hbond_acceptor[rel].astype(bool)
        return np.flatnonzero(elig)

    # -- accessors ---------------------------------------------------------
    def nbytes(self) -> int:
        """Map storage in bytes: the brick table plus every allocated
        per-brick array (values and the clash-voxel CSR table)."""
        return sum(
            a.nbytes
            for a in (
                self.brick_slot,
                self.values,
                self.cand_start,
                self.cand_count,
                self.cand_atoms,
            )
        )

    def slot_of(self, spec: tuple) -> int:
        """Combined-value slot of an ensured atom-type spec."""
        return self._slot[spec]

    # -- addressing --------------------------------------------------------
    def locate(self, pts: np.ndarray):
        """``(in_box, idx, t)`` for ``(n, 3)`` points: the in-box mask,
        each point's voxel base node (clipped into the lattice) and its
        fractional offset inside that voxel."""
        frac = (pts - self.origin) * self._inv_spacing
        in_box = ((frac >= 0.0) & (frac <= self._upper)).all(axis=1)
        idx = np.floor(frac).astype(np.int64)
        np.clip(idx, 0, self._max_idx, out=idx)
        return in_box, idx, frac - idx

    def corners(self, idx: np.ndarray):
        """``(bricks, local, base_local)`` of voxel base nodes ``idx``.

        ``bricks`` / ``local`` are ``(n, 8)``: the brick index and the
        local node index of each of the voxel's 8 corners, in trilinear
        weight order (z fastest); ``base_local`` is the base node's
        local index (corner 0 lies in ``bricks[:, 0]``).
        """
        base_brick = (idx // BRICK) @ self._brick_strides
        base_local = (idx % BRICK) @ _LOCAL_STRIDES
        bricks = base_brick[:, None] + self._corner_dbrick[base_local]
        return bricks, self._corner_local[base_local], base_local

    # -- construction ------------------------------------------------------
    def ensure(self, specs, points=None) -> bool:
        """Build what scoring ``points`` with ``specs`` still lacks.

        ``specs`` is an iterable of ``(sigma, epsilon, donor,
        acceptor)`` tuples; a spec not seen before is filled in on
        every brick already built.  ``points`` (``(n, 3)`` coordinates,
        optional) adds the bricks under the 8 interpolation corners of
        every in-box point.  Returns True iff a build ran.  Node values
        are independent of batching: a brick or spec built alone and
        one built alongside others yield bitwise-identical values.
        """
        new = [s for s in dict.fromkeys(specs) if s not in self._slot]
        for s in new:
            self._slot[s] = len(self._slot)
        built = False
        if new:
            grown = np.zeros(
                (self.values.shape[0], 1 + len(self._slot), BRICK_NODES),
                dtype=self._np_dtype,
            )
            grown[:, : self.values.shape[1]] = self.values
            self.values = grown
            if self.n_built:
                bricks = np.flatnonzero(self.brick_slot >= 0)
                self._fill(bricks, new, base=False)
                built = True
        if points is not None:
            in_box, idx, _ = self.locate(np.asarray(points, dtype=float))
            bricks = np.unique(self.corners(idx[in_box])[0])
            bricks = bricks[self.brick_slot[bricks] < 0]
            if bricks.size:
                self._allocate(bricks)
                self._fill(bricks, list(self._slot), base=True)
                built = True
        if built:
            self.build_count += 1
        return built

    def _allocate(self, bricks: np.ndarray) -> None:
        """Give newly built ``bricks`` the next rows of the per-brick
        arrays."""
        need = self.n_built + bricks.size
        self.values = _with_rows(self.values, need)
        self.cand_start = _with_rows(self.cand_start, need)
        self.cand_count = _with_rows(self.cand_count, need)
        self.brick_slot[bricks] = np.arange(self.n_built, need)
        self.n_built = need

    def _brick_axes(self, brick: int) -> list[np.ndarray]:
        """The x, y and z coordinates of one brick's node planes
        (node ``(i, j, k)`` of the brick sits at ``(x[i], y[j],
        z[k])``; local index ``i*BRICK**2 + j*BRICK + k``)."""
        b3 = np.unravel_index(brick, self.brick_grid)
        local = np.arange(BRICK)
        return [
            self.origin[a]
            + self.spacing * (BRICK * int(b3[a]) + local).astype(float)
            for a in range(3)
        ]

    def _fill(self, bricks, specs, base: bool) -> None:
        """Compute ``specs`` (and, with ``base``, phi and the candidate
        lists) for the allocated ``bricks``, one brick at a time."""
        plan = self._plan(specs)
        dt = self._np_dtype
        for brick in bricks:
            row = self.brick_slot[brick]
            axes = self._brick_axes(int(brick))
            phi, cand, combined = self._node_values(axes, plan, base)
            for spec, vals in zip(specs, combined):
                self.values[row, 1 + self._slot[spec]] = vals.astype(dt)
            if base:
                self.values[row, 0] = phi.astype(dt)
                node_r, atom_c = cand
                counts = np.bincount(node_r, minlength=BRICK_NODES)
                start = self._cand_used
                end = start + atom_c.size
                self.cand_atoms = _with_rows(self.cand_atoms, end)
                self.cand_atoms[start:end] = atom_c
                self.cand_count[row] = counts
                self.cand_start[row, 0] = start
                np.cumsum(counts[:-1], out=self.cand_start[row, 1:])
                self.cand_start[row, 1:] += start
                self._cand_used = end

    def _plan(self, specs):
        """Per-pass weight tables for the distinct components of ``specs``.

        Per-type receptor weight vectors are ``4 sqrt(eps_j eps_t)``
        times powers of the *arithmetic* sigma combination
        ``(sigma_j + sigma_t)/2`` -- the exact Lorentz-Berthelot pair
        coefficients.
        """
        rec = self.receptor
        lj_keys = list(dict.fromkeys((s[0], s[1]) for s in specs))
        hb_pairs = []
        for s in specs:
            cls = (s[2], s[3])
            if (cls[0] or cls[1]) and self.class_eligible(cls).size:
                if ((s[0], s[1]), cls) not in hb_pairs:
                    hb_pairs.append(((s[0], s[1]), cls))
        w12 = []
        w6 = []
        for sig_t, eps_t in lj_keys:
            sig_pair = 0.5 * (rec.sigma + sig_t)
            eps_pair = 4.0 * np.sqrt(rec.epsilon * eps_t)
            s6 = sig_pair**6
            w6.append(eps_pair * s6)
            w12.append(eps_pair * s6 * s6)
        classes = {}
        for key, cls in hb_pairs:
            sel = self.class_eligible(cls)
            gsel = self._hrel[sel]
            k = lj_keys.index(key)
            entry = classes.setdefault(cls, (sel, [], [], []))
            entry[1].append(key)
            entry[2].append(w12[k][gsel])
            entry[3].append(w6[k][gsel])
        n = rec.n_atoms
        return {
            "specs": specs,
            "lj_keys": lj_keys,
            "w12": np.array(w12).reshape(len(lj_keys), n),
            "w6": np.array(w6).reshape(len(lj_keys), n),
            "classes": {
                cls: (sel, keys, np.array(a), np.array(b))
                for cls, (sel, keys, a, b) in classes.items()
            },
        }

    def _node_values(self, axes, plan, base):
        """Values of one brick's nodes (``axes`` from
        :meth:`_brick_axes`) for one build plan.

        Returns ``(phi, (node, atom) candidate pairs, combined)`` --
        phi and candidates only with ``base``; ``combined`` is
        ``(len(specs), BRICK**3)`` float64.  A node's squared distance
        to atom ``j`` is ``(dx^2 + dy^2) + dz^2`` of its own per-axis
        differences -- a brick has only ``BRICK`` distinct values per
        axis, so the per-axis terms are computed once and broadcast --
        and every reduction runs per node through ``np.einsum`` (never
        a BLAS GEMV/GEMM, whose per-row result depends on the chunk's
        row count and the thread count).  A node's value therefore
        does not depend on which nodes share its pass.

        The (nodes x receptor atoms) temporaries live in buffers kept
        across bricks: fresh multi-MB arrays per brick cost more in
        page faults than the arithmetic on them.
        """
        n = self.receptor.n_atoms
        rel = self._hrel
        if self._work is None:
            self._work = {
                name: np.empty((BRICK_NODES, n))
                for name in ("r2", "inv_r2", "inv_r6", "inv_r12")
            }
            self._work.update(
                {
                    name: np.empty((BRICK_NODES, rel.size))
                    for name in ("e", "i12", "i6")
                }
            )
            self._work["mask"] = np.empty((BRICK_NODES, n), dtype=bool)
        w = self._work
        grid = (BRICK, BRICK, BRICK, n)
        diff = [np.subtract.outer(ax, c) for ax, c in zip(axes, self._rec_xyz)]
        sq = [d * d for d in diff]
        r2 = w["r2"]
        np.add(
            (sq[0][:, None, :] + sq[1][None, :, :])[:, :, None, :],
            sq[2][None, None, :, :],
            out=r2.reshape(grid),
        )
        phi = cand = None
        if base:
            # Candidates from the same distances the maps integrate:
            # nonzero is row-major, so the CSR lists come out
            # node-major with atoms ascending -- the canonical order
            # the pair corrections sum in.
            close = np.less_equal(r2, self.flag_radius**2, out=w["mask"])
            node_r, atom_c = np.nonzero(close)
            cand = (node_r, atom_c.astype(np.int32))
        # Every kernel sees the distance clipped at clash_radius
        # (f_clip), so the fields stay smooth even on nodes inside
        # receptor atoms.
        np.maximum(r2, self.clip_radius**2, out=r2)
        inv_r2 = np.divide(1.0, r2, out=w["inv_r2"])
        inv_r6 = w["inv_r6"]
        if base:
            phi = COULOMB_CONSTANT * np.einsum(
                "ij,j->i", np.sqrt(inv_r2, out=inv_r6), self.receptor.charges
            )
        np.multiply(inv_r2, inv_r2, out=inv_r6)
        inv_r6 *= inv_r2
        inv_r12 = np.multiply(inv_r6, inv_r6, out=w["inv_r12"])
        rep = np.einsum("ij,kj->ki", inv_r12, plan["w12"])
        disp = np.einsum("ij,kj->ki", inv_r6, plan["w6"])
        hb1210 = {}
        hb_lj = {}
        if plan["classes"]:
            c_hb, d_hb = hb.hbond_coefficients()
            i12 = np.take(inv_r12, rel, axis=1, out=w["i12"])
            i6 = np.take(inv_r6, rel, axis=1, out=w["i6"])
            e_1210 = np.take(r2, rel, axis=1, out=w["e"])
            e_1210 *= -d_hb
            e_1210 += c_hb  # c - d r^2, times r^-12 below
            e_1210 *= i12
            aniso = self._haniso
            if aniso.size:
                # Angular weights where the receptor atom has a donor
                # direction (isotropic atoms weigh 1): cos(theta_j(x))
                # = dir_j . (x - a_j) / r_clip -- the clipped-distance
                # normalization is deliberate, the pair corrections
                # subtract exactly this convention.
                cols = rel[aniso]
                hd = self._hdirs[aniso]
                proj = [diff[a][:, cols] * hd[:, a] for a in range(3)]
                cos = np.empty(grid[:3] + (cols.size,))
                np.add(
                    (proj[0][:, None, :] + proj[1][None, :, :])[
                        :, :, None, :
                    ],
                    proj[2][None, None, :, :],
                    out=cos,
                )
                cos = cos.reshape(BRICK_NODES, cols.size)
                cos *= np.sqrt(inv_r2[:, cols])
                np.clip(cos, 0.0, 1.0, out=cos)
                oms = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
                np.subtract(1.0, oms, out=oms)  # now (1 - sin)
                e_1210[:, aniso] *= cos
                i12[:, aniso] *= oms
                i6[:, aniso] *= oms
            for cls, (sel, keys, w12, w6) in plan["classes"].items():
                if sel.size < rel.size:
                    e, a12, a6 = e_1210[:, sel], i12[:, sel], i6[:, sel]
                else:
                    e, a12, a6 = e_1210, i12, i6
                hb1210[cls] = e.sum(axis=1)
                hrep = np.einsum("ij,kj->ki", a12, w12)
                hdisp = np.einsum("ij,kj->ki", a6, w6)
                for k, key in enumerate(keys):
                    hb_lj[(key, cls)] = (hrep[k], hdisp[k])
        combined = np.empty((len(plan["specs"]), BRICK_NODES))
        lj_keys = plan["lj_keys"]
        for i, (sig, eps, don, acc) in enumerate(plan["specs"]):
            k = lj_keys.index((sig, eps))
            c = combined[i]
            np.subtract(rep[k], disp[k], out=c)
            cls = (don, acc)
            if cls in hb1210:
                hrep, hdisp = hb_lj[((sig, eps), cls)]
                c += hb1210[cls]
                c -= hrep
                c += hdisp
        return phi, cand, combined


class FieldScorer:
    """Two-regime hybrid scorer: interpolated fields, exact clash pairs.

    Maps build lazily: the bricks under an in-box atom's 8
    interpolation corners are built on first touch, always through
    :meth:`FieldMaps.ensure` (under a "field-build" tracer span when a
    tracer is attached).  After each build the ``scoring/field_bytes``
    and ``scoring/field_bricks`` gauges are set; every call observes
    its exact-path atom fraction in ``scoring/near_field_fraction`` and
    adds its out-of-box and near-field atom counts to the
    ``scoring/field_oob_atoms`` / ``scoring/field_near_atoms``
    counters.  Pass a prebuilt ``cells`` :class:`FieldMaps` over the
    same receptor to share maps across ligands -- screening workers
    build one per receptor per worker.

    The hot path folds each ligand atom's full clipped-field energy
    into two trilinear lookups -- phi (times the atom charge) and the
    atom type's *combined* value ``rep - disp + hb1210 - hb_rep +
    hb_disp`` -- gathered for all atoms in a single fused fancy index
    over the maps' per-brick values.  Overlapping pairs then add their
    exact-vs-clipped energy difference pairwise.
    """

    def __init__(
        self,
        receptor: Molecule,
        ligand: Molecule,
        spacing: float = DEFAULT_SPACING,
        padding: float = DEFAULT_PADDING,
        clash_radius: float = DEFAULT_CLASH_RADIUS,
        dtype: str = DEFAULT_DTYPE,
        *,
        cells: "FieldMaps | None" = None,
    ):
        if cells is not None:
            if not isinstance(cells, FieldMaps):
                raise TypeError(
                    "cells must be a prebuilt FieldMaps, got "
                    f"{type(cells).__name__}"
                )
            mismatched = [
                name
                for name, mine in (
                    ("spacing", float(spacing)),
                    ("padding", float(padding)),
                    ("clash_radius", float(clash_radius)),
                    ("dtype", str(dtype)),
                )
                if getattr(cells, name) != mine
            ]
            if mismatched:
                raise ValueError(
                    "prebuilt FieldMaps parameters differ from the "
                    f"scorer's for: {', '.join(mismatched)}"
                )
            self._maps = cells
        else:
            self._maps = FieldMaps(
                receptor,
                spacing=spacing,
                padding=padding,
                clash_radius=clash_radius,
                dtype=dtype,
            )
        self.receptor = receptor
        self.ligand = ligand
        self.spacing = self._maps.spacing
        self.padding = self._maps.padding
        self.clash_radius = self._maps.clash_radius
        self.dtype = self._maps.dtype
        self._tables = ScoringTables.build(receptor, ligand)
        self._specs, self._spec_ids = _atom_type_specs(ligand)
        self._charges = np.asarray(ligand.charges, dtype=float)
        # Built lazily: per-atom offset of the atom's combined value
        # inside a brick row of FieldMaps.values (phi sits at 0).
        self._foff: np.ndarray | None = None
        self._tracer = None
        self._metrics = None
        #: Exact-path atom fraction of the most recent evaluation
        #: (atoms with overlapping pairs or outside the box).
        self.near_fraction = 0.0

    # -- telemetry ---------------------------------------------------------
    @property
    def tracer(self):
        """Optional :class:`~repro.telemetry.spans.SpanTracer`."""
        return self._tracer

    @tracer.setter
    def tracer(self, value) -> None:
        self._tracer = value

    @property
    def metrics(self):
        """Optional :class:`~repro.telemetry.metrics.MetricsRegistry`."""
        return self._metrics

    @metrics.setter
    def metrics(self, value) -> None:
        self._metrics = value
        self._publish_size()

    def _publish_size(self) -> None:
        if self._metrics is not None and self._foff is not None:
            maps = self._maps
            self._metrics.set(FIELD_BYTES_METRIC, float(maps.nbytes()))
            self._metrics.set(BRICKS_METRIC, maps.n_built / maps.n_bricks)

    # -- lazy build --------------------------------------------------------
    @property
    def maps(self) -> FieldMaps:
        """The shared field maps, with this ligand's types ensured."""
        self._ensure_built()
        return self._maps

    def _ensure(self, points=None) -> None:
        """Every build goes through :meth:`FieldMaps.ensure`."""
        if self._tracer is not None:
            with self._tracer.span("field-build"):
                built = self._maps.ensure(self._specs, points)
        else:
            built = self._maps.ensure(self._specs, points)
        if built:
            self._publish_size()

    def _ensure_built(self) -> None:
        if self._foff is not None:
            return
        self._ensure()
        slots = np.array(
            [self._maps.slot_of(s) for s in self._specs], dtype=np.int64
        )
        self._foff = (slots[self._spec_ids] + 1) * BRICK_NODES
        self._publish_size()

    def _brick_rows(self, idx, pts):
        """``(rows, local, base_local)`` for in-box voxels ``idx``.

        ``rows`` holds the :attr:`FieldMaps.values` row of each of the
        8 corners' bricks, building any missing brick (for the points
        ``pts`` that touch one) first.
        """
        maps = self._maps
        bricks, local, base_local = maps.corners(idx)
        rows = maps.brick_slot[bricks]
        missing = rows < 0
        if missing.any():
            self._ensure(pts[missing.any(axis=1)])
            rows = maps.brick_slot[bricks]
        return rows, local, base_local

    # -- scoring -----------------------------------------------------------
    def _interp_energy(self, ib, rows, local, t) -> float:
        """Fused two-lookup interpolation over the in-box atoms ``ib``.

        One fancy gather pulls all 8 corners of both each atom's phi
        and its type's combined value from the per-brick values; the
        ligand charge folds into the phi corner weights so a single
        reduction yields the total.
        """
        b = ib.size
        values = self._maps.values
        addr = np.empty((2 * b, 8), dtype=np.int64)
        np.multiply(rows, values.shape[1] * BRICK_NODES, out=addr[:b])
        addr[:b] += local
        np.add(addr[:b], self._foff[ib][:, None], out=addr[b:])
        corners = values.reshape(-1).take(addr)
        tx, ty, tz = t[:, 0], t[:, 1], t[:, 2]
        ex, ey, ez = 1.0 - tx, 1.0 - ty, 1.0 - tz
        p00 = ex * ey
        p01 = ex * ty
        p10 = tx * ey
        p11 = tx * ty
        w = np.empty((2 * b, 8))
        w[:b, 0] = p00 * ez
        w[:b, 1] = p00 * tz
        w[:b, 2] = p01 * ez
        w[:b, 3] = p01 * tz
        w[:b, 4] = p10 * ez
        w[:b, 5] = p10 * tz
        w[:b, 6] = p11 * ez
        w[:b, 7] = p11 * tz
        w[b:] = w[:b]
        w[:b] *= self._charges[ib][:, None]
        return float(np.einsum("pc,pc->", corners, w))

    def _pair_correction(self, lig, rec_i, lig_i) -> float:
        """Exact-vs-clipped Eq. 1 energy difference of overlapping pairs.

        For each pair the clipped-kernel contribution (what the maps
        tabulated, same conventions as ``_node_values``) is subtracted
        and the exact-path energy at the MIN_DISTANCE-clamped true
        distance added -- so clash terms come out exact while the
        interpolated total needs no per-atom branching.
        """
        rec = self.receptor
        maps = self._maps
        u = lig[lig_i] - rec.coords[rec_i]
        r = np.sqrt((u * u).sum(axis=1))
        r_md = np.maximum(r, MIN_DISTANCE)
        r_c = np.maximum(r, maps.clip_radius)
        inv_md = 1.0 / r_md
        inv_c = 1.0 / r_c
        # Electrostatics: k q_j q_i (1/r_exact - 1/r_clip).
        e = (
            COULOMB_CONSTANT
            * rec.charges[rec_i]
            * self._charges[lig_i]
            * (inv_md - inv_c)
        )
        # Lennard-Jones, arithmetic-sigma Lorentz-Berthelot.
        sig = 0.5 * (rec.sigma[rec_i] + self.ligand.sigma[lig_i])
        epsp = 4.0 * np.sqrt(
            rec.epsilon[rec_i] * self.ligand.epsilon[lig_i]
        )
        s6 = sig**6
        w12 = epsp * s6 * s6
        w6 = epsp * s6
        i6_md = inv_md**6
        i6_c = inv_c**6
        lj_md = w12 * (i6_md * i6_md) - w6 * i6_md
        lj_c = w12 * (i6_c * i6_c) - w6 * i6_c
        e += lj_md - lj_c
        # H-bond correction on eligible pairs: replace the clipped
        # cos/(1-sin)-weighted terms with the exact-path ones.
        elig = (
            rec.hbond_donor[rec_i] & self.ligand.hbond_acceptor[lig_i]
        ) | (rec.hbond_acceptor[rec_i] & self.ligand.hbond_donor[lig_i])
        if elig.any():
            sel = np.flatnonzero(elig)
            ri, li = rec_i[sel], lig_i[sel]
            dirs = maps.dirs_full[ri]
            dot = (dirs * u[sel]).sum(axis=1)
            # Exact-path angular convention (hbond_angle_factors):
            # unit vector at the true distance, 1e-9 floor.
            cos_e = dot / np.maximum(r[sel], 1e-9)
            cos_e[maps.iso_full[ri]] = 1.0
            np.clip(cos_e, 0.0, 1.0, out=cos_e)
            sin_e = np.sqrt(np.maximum(0.0, 1.0 - cos_e * cos_e))
            # Map-side angular convention: normalized by the clipped
            # distance (see FieldMaps._node_values).
            cos_c = dot * inv_c[sel]
            cos_c[maps.iso_full[ri]] = 1.0
            np.clip(cos_c, 0.0, 1.0, out=cos_c)
            sin_c = np.sqrt(np.maximum(0.0, 1.0 - cos_c * cos_c))
            c_hb, d_hb = hb.hbond_coefficients()
            i10_md = i6_md[sel] * inv_md[sel] ** 4
            i10_c = i6_c[sel] * inv_c[sel] ** 4
            e1210_md = c_hb * (i10_md * inv_md[sel] ** 2) - d_hb * i10_md
            e1210_c = c_hb * (i10_c * inv_c[sel] ** 2) - d_hb * i10_c
            corr = cos_e * e1210_md - (1.0 - sin_e) * lj_md[sel]
            corr -= cos_c * e1210_c - (1.0 - sin_c) * lj_c[sel]
            e[sel] += corr
        return float(e.sum())

    def _exact_energy(self, lig: np.ndarray, ex: np.ndarray) -> float:
        """Full Eq. 1 column energy for out-of-box ligand atoms.

        Same kernels, arrays, and reduction order as the exact scorer
        restricted to these columns -- a pose routed entirely through
        this path scores bit-identically to ``ExactScorer``.
        """
        t = self._tables
        rec = self.receptor
        d = pairwise_distances(rec.coords, lig[ex])
        e = elec.electrostatic_energy(
            rec.charges, self.ligand.charges[ex], d
        )
        e += lj.lennard_jones_energy_pre(
            t.sig_full[:, ex], t.eps_full[:, ex], d
        )
        if t.rows_any:
            cos_t, sin_t = hb.hbond_angle_factors(
                t.rec_sub, lig[ex], t.dirs_sub
            )
            e += hb.hbond_energy(
                d[t.rows],
                t.mask_sub[:, ex],
                cos_t,
                sin_t,
                t.sig_sub[:, ex],
                t.eps_sub[:, ex],
            )
        return e

    def score(self, coords: np.ndarray) -> float:
        lig = np.asarray(coords, dtype=float)
        m = self.ligand.n_atoms
        if lig.shape != (m, 3):
            raise ValueError(f"coords must have shape ({m}, 3)")
        self._ensure_built()
        maps = self._maps
        in_box, idx, t = maps.locate(lig)
        energy = 0.0
        n_oob = n_near = 0
        if in_box.all():
            ib = np.arange(m)
        else:
            ib = np.flatnonzero(in_box)
            idx, t = idx[ib], t[ib]
        if ib.size:
            rows, local, base_local = self._brick_rows(idx, lig[ib])
            energy += self._interp_energy(ib, rows, local, t)
        if ib.size < m:
            oob = np.flatnonzero(~in_box)
            energy += self._exact_energy(lig, oob)
            n_oob = oob.size
        if ib.size:
            node = rows[:, 0] * BRICK_NODES + base_local
            counts = maps.cand_count.reshape(-1)[node]
            near = counts > 0
            if near.any():
                flagged = ib[near]
                counts = counts[near].astype(np.int64)
                # CSR expansion of the voxel candidate lists, then an
                # exact distance check keeps true overlaps.
                total = int(counts.sum())
                cum = np.zeros(counts.size, dtype=np.int64)
                np.cumsum(counts[:-1], out=cum[1:])
                rank = np.arange(total, dtype=np.int64)
                rank -= np.repeat(cum, counts)
                rank += np.repeat(
                    maps.cand_start.reshape(-1)[node[near]], counts
                )
                cand = maps.cand_atoms.take(rank).astype(np.int64)
                lig_i = np.repeat(flagged, counts)
                diff = self.receptor.coords.take(cand, axis=0)
                diff -= lig.take(lig_i, axis=0)
                d2 = np.einsum("ij,ij->i", diff, diff)
                keep = d2 <= maps.clash_radius * maps.clash_radius
                if keep.any():
                    rec_i = np.compress(keep, cand)
                    lig_i = np.compress(keep, lig_i)
                    energy += self._pair_correction(lig, rec_i, lig_i)
                    n_near = np.unique(lig_i).size
        self.near_fraction = (n_oob + n_near) / m
        if self._metrics is not None:
            self._observe(self.near_fraction, n_oob, n_near)
        return -energy

    def _observe(self, fraction, n_oob, n_near) -> None:
        self._metrics.observe(NEAR_FRACTION_METRIC, fraction)
        self._metrics.inc(OOB_ATOMS_METRIC, float(n_oob))
        self._metrics.inc(NEAR_ATOMS_METRIC, float(n_near))

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        """Scores for (k, m, 3) poses; bitwise-equal per entry to
        :meth:`score`.

        Pose-major fused path: per chunk of poses, one trilinear corner
        gather / einsum over the shared bricks covers every in-box atom
        of every pose, the voxel CSR candidate table is expanded across
        all flagged atoms at once, and only the per-pose scalar
        reductions (contiguous-slice einsums, rare exact columns, pair
        corrections) remain in Python.  Every floating-point reduction
        stays per-pose over the same arrays in the same order as
        :meth:`score`, so entries are bitwise identical to sequential
        single-pose calls.  ``near_fraction`` ends at the last pose's
        value, the near-field histogram observes one value per pose and
        the regime counters add the same atom counts, exactly as
        sequential calls would.
        """
        m = self.ligand.n_atoms
        cb = as_pose_batch(coords_batch, m)
        k = cb.shape[0]
        out = np.empty(k)
        if k == 0:
            return out
        self._ensure_built()
        # Chunk so the (2*rows, 8) corner/weight temporaries stay a few
        # MB (see docs/PERFORMANCE.md "Batched pose evaluation").
        step = max(1, _BATCH_CHUNK_ROWS // max(1, m))
        for s in range(0, k, step):
            e = min(s + step, k)
            scores, n_oob, n_near = _fused_scores(
                [self] * (e - s), cb[s:e].reshape(-1, 3), [m] * (e - s)
            )
            out[s:e] = scores
            fracs = (n_oob + n_near) / m
            if self._metrics is not None:
                for f, o, n in zip(fracs, n_oob, n_near):
                    self._observe(float(f), o, n)
            self.near_fraction = float(fracs[-1])
        return out


#: Ligand-atom rows per fused chunk in :meth:`FieldScorer.score_batch`:
#: bounds the (2*rows, 8) float64 corner + weight temporaries to ~4 MB.
_BATCH_CHUNK_ROWS = 16384


def _fused_scores(scorers, pts, sizes):
    """Fused field evaluation of ``len(sizes)`` poses over shared maps.

    ``scorers[i]`` scores the pose occupying rows
    ``starts[i]:starts[i]+sizes[i]`` of ``pts`` (float64 ``(R, 3)``).
    All scorers must share one :class:`FieldMaps` and have their types
    ensured (they gather from its per-brick values -- their per-atom
    slot offsets address it directly, which is what lets heterogeneous
    ligands fuse); missing bricks are built through ``scorers[0]``.

    Returns ``(scores, n_oob, n_near)``: per pose, its score and its
    out-of-box and near-field (pair-corrected) atom counts.  Each
    score is bitwise-equal to ``scorers[i].score(pose_i)``, and the
    counts equal that call's: the batched stages are elementwise or
    per-row (identical values regardless of batch), while every
    floating-point *reduction* -- the corner einsum, the exact-column
    energy, the pair-correction sum -- runs per pose over contiguous
    slices laid out exactly like the single-pose arrays, in the same
    accumulation order (interpolation, out-of-box columns, pair
    corrections).
    """
    k = len(sizes)
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    s0 = scorers[0]
    maps = s0._maps
    in_box, idx, t = maps.locate(pts)
    item_of = np.repeat(np.arange(k, dtype=np.int64), sizes)
    ib_all = np.flatnonzero(in_box)
    item_ib = item_of[ib_all]
    b_counts = np.bincount(item_ib, minlength=k).astype(np.int64)
    ib_bounds = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(b_counts, out=ib_bounds[1:])
    n_ib = ib_all.size
    corners = w = None
    pair_e = pair_bounds = uniq_cum = None
    if n_ib:
        rows, local, base_local = s0._brick_rows(idx[ib_all], pts[ib_all])
        # Trilinear corner weights for every in-box row (same
        # elementwise ops and column order as _interp_energy).
        t_ib = t[ib_all]
        tx, ty, tz = t_ib[:, 0], t_ib[:, 1], t_ib[:, 2]
        ex, ey, ez = 1.0 - tx, 1.0 - ty, 1.0 - tz
        p00 = ex * ey
        p01 = ex * ty
        p10 = tx * ey
        p11 = tx * ty
        pw = np.empty((n_ib, 8))
        pw[:, 0] = p00 * ez
        pw[:, 1] = p00 * tz
        pw[:, 2] = p01 * ez
        pw[:, 3] = p01 * tz
        pw[:, 4] = p10 * ez
        pw[:, 5] = p10 * tz
        pw[:, 6] = p11 * ez
        pw[:, 7] = p11 * tz
        # Row layout replicates the single-pose addr/w arrays pose by
        # pose: pose i's 2*b_i rows start at 2*ib_bounds[i], phi rows
        # first, type rows after -- so the per-pose einsum below runs
        # over a contiguous slice shaped exactly like _interp_energy's.
        foff_rows = np.concatenate([sc._foff for sc in scorers])
        ch_rows = np.concatenate([sc._charges for sc in scorers])
        ranks = np.arange(n_ib, dtype=np.int64) - ib_bounds[item_ib]
        pos_phi = 2 * ib_bounds[item_ib] + ranks
        pos_typ = pos_phi + b_counts[item_ib]
        values = maps.values
        base_addr = rows * (values.shape[1] * BRICK_NODES)
        base_addr += local
        addr = np.empty((2 * n_ib, 8), dtype=np.int64)
        addr[pos_phi] = base_addr
        addr[pos_typ] = base_addr + foff_rows[ib_all][:, None]
        w = np.empty((2 * n_ib, 8))
        w[pos_typ] = pw
        w[pos_phi] = pw * ch_rows[ib_all][:, None]
        corners = values.reshape(-1).take(addr)
        # Batched near-field candidate expansion (same CSR arithmetic
        # as score(), across all flagged atoms of all poses at once).
        node = rows[:, 0] * BRICK_NODES + base_local
        counts = maps.cand_count.reshape(-1)[node]
        nz = np.flatnonzero(counts)
        if nz.size:
            counts = counts[nz].astype(np.int64)
            total = int(counts.sum())
            cum = np.zeros(counts.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=cum[1:])
            rank = np.arange(total, dtype=np.int64)
            rank -= np.repeat(cum, counts)
            rank += np.repeat(maps.cand_start.reshape(-1)[node[nz]], counts)
            cand = maps.cand_atoms.take(rank).astype(np.int64)
            lig_rows = np.repeat(ib_all[nz], counts)
            diff = maps.receptor.coords.take(cand, axis=0)
            diff -= pts.take(lig_rows, axis=0)
            d2 = np.einsum("ij,ij->i", diff, diff)
            keep = d2 <= maps.clash_radius * maps.clash_radius
            if keep.any():
                pair_rec = np.compress(keep, cand)
                pair_row = np.compress(keep, lig_rows)
                pair_itm = np.compress(keep, np.repeat(item_ib[nz], counts))
                pair_bounds = np.searchsorted(pair_itm, np.arange(k + 1))
                pair_e = _pair_energies(
                    scorers, maps, pts, pair_rec, pair_row, ch_rows
                )
                # Unique corrected ligand atoms per pose (the
                # near-field count): pair_row is non-decreasing and
                # pose slices never share rows, so first-occurrence
                # flags prefix-sum into per-slice unique counts.
                firsts = np.empty(pair_row.size, dtype=np.int64)
                firsts[0] = 1
                firsts[1:] = pair_row[1:] != pair_row[:-1]
                uniq_cum = np.zeros(pair_row.size + 1, dtype=np.int64)
                np.cumsum(firsts, out=uniq_cum[1:])
    scores = np.empty(k)
    n_oob = np.zeros(k, dtype=np.int64)
    n_near = np.zeros(k, dtype=np.int64)
    for i in range(k):
        m_i = int(sizes[i])
        b = int(b_counts[i])
        energy = 0.0
        if b:
            o = 2 * int(ib_bounds[i])
            energy += float(
                np.einsum(
                    "pc,pc->", corners[o : o + 2 * b], w[o : o + 2 * b]
                )
            )
        if b < m_i:
            lo, hi = int(starts[i]), int(starts[i + 1])
            oob = np.flatnonzero(~in_box[lo:hi])
            energy += scorers[i]._exact_energy(pts[lo:hi], oob)
            n_oob[i] = oob.size
        if pair_bounds is not None:
            p0, p1 = int(pair_bounds[i]), int(pair_bounds[i + 1])
            if p1 > p0:
                # Same floats as _pair_correction's final e.sum(): the
                # slice is contiguous with identical length and values.
                energy += float(pair_e[p0:p1].sum())
                n_near[i] = uniq_cum[p1] - uniq_cum[p0]
        scores[i] = -energy
    return scores, n_oob, n_near


def _pair_energies(scorers, maps, pts, pair_rec, pair_row, ch_rows):
    """Per-pair exact-vs-clipped corrections across all poses at once.

    The elementwise chain of :meth:`FieldScorer._pair_correction`
    evaluated over every kept (receptor, ligand-row) pair of the fused
    batch -- per-pair values are independent of batch composition, so
    each pose's contiguous slice sums to exactly what its own
    ``_pair_correction`` call would return.  Ligand-side parameters are
    gathered through concatenated per-scorer rows, which is what lets
    heterogeneous ligands share the batch.
    """
    rec = maps.receptor
    sig_rows = np.concatenate([sc.ligand.sigma for sc in scorers])
    eps_rows = np.concatenate([sc.ligand.epsilon for sc in scorers])
    don_rows = np.concatenate([sc.ligand.hbond_donor for sc in scorers])
    acc_rows = np.concatenate(
        [sc.ligand.hbond_acceptor for sc in scorers]
    )
    u = pts[pair_row] - rec.coords[pair_rec]
    r = np.sqrt((u * u).sum(axis=1))
    r_md = np.maximum(r, MIN_DISTANCE)
    r_c = np.maximum(r, maps.clip_radius)
    inv_md = 1.0 / r_md
    inv_c = 1.0 / r_c
    e = (
        COULOMB_CONSTANT
        * rec.charges[pair_rec]
        * ch_rows[pair_row]
        * (inv_md - inv_c)
    )
    sig = 0.5 * (rec.sigma[pair_rec] + sig_rows[pair_row])
    epsp = 4.0 * np.sqrt(rec.epsilon[pair_rec] * eps_rows[pair_row])
    s6 = sig**6
    w12 = epsp * s6 * s6
    w6 = epsp * s6
    i6_md = inv_md**6
    i6_c = inv_c**6
    lj_md = w12 * (i6_md * i6_md) - w6 * i6_md
    lj_c = w12 * (i6_c * i6_c) - w6 * i6_c
    e += lj_md - lj_c
    elig = (rec.hbond_donor[pair_rec] & acc_rows[pair_row]) | (
        rec.hbond_acceptor[pair_rec] & don_rows[pair_row]
    )
    if elig.any():
        sel = np.flatnonzero(elig)
        ri = pair_rec[sel]
        dirs = maps.dirs_full[ri]
        dot = (dirs * u[sel]).sum(axis=1)
        cos_e = dot / np.maximum(r[sel], 1e-9)
        cos_e[maps.iso_full[ri]] = 1.0
        np.clip(cos_e, 0.0, 1.0, out=cos_e)
        sin_e = np.sqrt(np.maximum(0.0, 1.0 - cos_e * cos_e))
        cos_c = dot * inv_c[sel]
        cos_c[maps.iso_full[ri]] = 1.0
        np.clip(cos_c, 0.0, 1.0, out=cos_c)
        sin_c = np.sqrt(np.maximum(0.0, 1.0 - cos_c * cos_c))
        c_hb, d_hb = hb.hbond_coefficients()
        i10_md = i6_md[sel] * inv_md[sel] ** 4
        i10_c = i6_c[sel] * inv_c[sel] ** 4
        e1210_md = c_hb * (i10_md * inv_md[sel] ** 2) - d_hb * i10_md
        e1210_c = c_hb * (i10_c * inv_c[sel] ** 2) - d_hb * i10_c
        corr = cos_e * e1210_md - (1.0 - sin_e) * lj_md[sel]
        corr -= cos_c * e1210_c - (1.0 - sin_c) * lj_c[sel]
        e[sel] += corr
    return e


def score_field_group(entries) -> np.ndarray:
    """Score one pose per :class:`FieldScorer` in fused evaluations.

    ``entries`` is a sequence of ``(scorer, coords)`` pairs -- the
    scorers may wrap *different ligands* (heterogeneous atom counts and
    types).  Entries are grouped by their shared :class:`FieldMaps`
    instance; each group evaluates through one fused kernel over the
    maps' per-brick values, so a screening shard's ligands against one
    receptor batch into a single gather.  Per-entry results (score,
    ``near_fraction``, the near-field histogram observation and regime
    counters) are bitwise-equal to calling ``scorer.score(coords)``
    sequentially.
    """
    n = len(entries)
    out = np.empty(n)
    if n == 0:
        return out
    prepared = []
    for sc, coords in entries:
        if not isinstance(sc, FieldScorer):
            raise TypeError(
                "score_field_group entries must pair FieldScorer "
                f"instances with coords, got {type(sc).__name__}"
            )
        lig = np.asarray(coords, dtype=float)
        m = sc.ligand.n_atoms
        if lig.shape != (m, 3):
            raise ValueError(f"coords must have shape ({m}, 3)")
        sc._ensure_built()
        prepared.append((sc, lig, m))
    groups: dict[int, list[int]] = {}
    for i, (sc, _, _) in enumerate(prepared):
        groups.setdefault(id(sc._maps), []).append(i)
    for idxs in groups.values():
        scorers = [prepared[i][0] for i in idxs]
        sizes = [prepared[i][2] for i in idxs]
        pts = np.concatenate([prepared[i][1] for i in idxs], axis=0)
        scores, n_oob, n_near = _fused_scores(scorers, pts, sizes)
        for j, i in enumerate(idxs):
            sc = scorers[j]
            out[i] = scores[j]
            sc.near_fraction = float(n_oob[j] + n_near[j]) / sizes[j]
            if sc._metrics is not None:
                sc._observe(sc.near_fraction, n_oob[j], n_near[j])
    return out

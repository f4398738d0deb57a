"""Pluggable pose scorers: the exact oracle and two fast paths.

The engine needs "coordinates -> score" with different speed/accuracy
trades (the GPU METADOCK plays the same game with spot-local windows):

- :class:`ExactScorer` -- full Eq. 1 over all pairs (the default and the
  correctness reference);
- ``IncrementalScorer`` ("incremental") -- Eq. 1 truncated at a cutoff
  over a cached Verlet pair list (see :mod:`repro.scoring.incremental`;
  its truncation oracle is :func:`repro.scoring.reference.truncated_score`);
- ``FieldScorer`` ("field") -- hybrid per-ligand-type field maps with an
  exact near-field/out-of-box path (near-exact and the fastest
  production kernel; see :mod:`repro.scoring.field`).

All scorers share the one-pose ``score(coords)`` and many-pose
``score_batch(coords_batch)`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol

import numpy as np

from repro.chem.molecule import Molecule
from repro.scoring.composite import (  # noqa: F401 (as_pose_batch re-exported)
    ScoringTables,
    as_pose_batch,
    interaction_breakdown,
    score_pose_batch,
)
from repro.scoring.field import FieldScorer, score_field_group
from repro.scoring.incremental import IncrementalScorer


class PoseScorer(Protocol):
    """Coordinates -> METADOCK score (higher = better)."""

    def score(self, coords: np.ndarray) -> float: ...

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray: ...


class ExactScorer:
    """Full Eq. 1 over all receptor x ligand pairs.

    The static-topology arrays — H-bond eligibility mask, receptor donor
    directions, combined LJ matrices — are built **once** here and reused
    for every ``score``/``score_batch`` call (they depend only on
    topology, never on the pose).  Results are bit-identical to
    rebuilding them per call.
    """

    def __init__(self, receptor: Molecule, ligand: Molecule):
        self.receptor = receptor
        self.ligand = ligand
        self._tables = ScoringTables.build(receptor, ligand)

    def score(self, coords: np.ndarray) -> float:
        return interaction_breakdown(
            self.receptor,
            self.ligand.with_coords(coords),
            tables=self._tables,
        ).score

    def score_batch(self, coords_batch: np.ndarray) -> np.ndarray:
        return score_pose_batch(
            self.receptor, self.ligand, coords_batch, tables=self._tables
        )


def score_pose_group(entries) -> np.ndarray:
    """Score one ``(scorer, coords)`` pose per entry, fusing where possible.

    The cross-ligand batching front door used by the screening rollout:
    entries whose scorer is a :class:`~repro.scoring.field.FieldScorer`
    are routed through :func:`~repro.scoring.field.score_field_group`
    (one fused gather per shared :class:`FieldMaps`, covering
    heterogeneous ligands against one receptor); every other scorer
    falls back to its single-pose ``score()``.  Entry ``i``'s result is
    bitwise-equal to ``entries[i][0].score(entries[i][1])``, including
    scorer-side telemetry, evaluated in entry order within each path.
    """
    entries = list(entries)
    out = np.empty(len(entries))
    field_idx = []
    for i, (scorer, coords) in enumerate(entries):
        if isinstance(scorer, FieldScorer):
            field_idx.append(i)
        else:
            out[i] = scorer.score(coords)
    if field_idx:
        fused = score_field_group([entries[i] for i in field_idx])
        for j, i in enumerate(field_idx):
            out[i] = fused[j]
    return out


@dataclass(frozen=True)
class ScorerEntry:
    """One registered scoring method: factory + declared kwargs.

    ``kwargs`` maps each accepted keyword to its allowed value types;
    ``runtime_only`` names kwargs that are legal when constructing a
    scorer in-process (shared in-memory caches) but meaningless in a
    JSON config.
    """

    factory: Callable[..., PoseScorer]
    kwargs: Mapping[str, tuple[type, ...]] = field(default_factory=dict)
    runtime_only: frozenset[str] = frozenset()


_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))

#: Method name -> :class:`ScorerEntry`; the single source of truth for
#: valid ``scoring_method`` / ``scoring_kwargs`` combinations.
SCORER_REGISTRY: dict[str, ScorerEntry] = {
    "exact": ScorerEntry(factory=ExactScorer),
    "incremental": ScorerEntry(
        factory=IncrementalScorer,
        kwargs={
            "cutoff": _NUMBER,
            "skin": _NUMBER,
            "shifted": (bool,),
            "cell_size": _OPTIONAL_NUMBER,
            "cells": (object,),
        },
        runtime_only=frozenset({"cells"}),
    ),
    "field": ScorerEntry(
        factory=FieldScorer,
        kwargs={
            "spacing": _NUMBER,
            "padding": _NUMBER,
            "clash_radius": _NUMBER,
            "dtype": (str,),
            "cells": (object,),
        },
        runtime_only=frozenset({"cells"}),
    ),
}

#: Valid ``make_scorer`` / config ``scoring_method`` strings.
SCORING_METHODS: tuple[str, ...] = tuple(SCORER_REGISTRY)


def validate_scoring_kwargs(
    method: str,
    kwargs: Mapping[str, Any],
    *,
    allow_runtime: bool = False,
) -> None:
    """Check ``scoring_kwargs`` against the registry; raise on misuse.

    Called from ``DQNDockingConfig.__post_init__`` (``allow_runtime``
    False -- a typo or a runtime-only kwarg in a run config fails at
    construction, not deep inside a worker) and from
    :func:`make_scorer` (``allow_runtime`` True).
    """
    entry = SCORER_REGISTRY.get(method)
    if entry is None:
        raise ValueError(
            f"unknown scoring method {method!r}; scoring_method must be "
            f"one of {SCORING_METHODS}"
        )
    for name, value in kwargs.items():
        allowed = entry.kwargs.get(name)
        if allowed is None:
            valid = ", ".join(sorted(entry.kwargs)) or "none"
            raise ValueError(
                f"scoring method {method!r} accepts no kwarg {name!r} "
                f"(valid: {valid})"
            )
        if name in entry.runtime_only:
            if not allow_runtime:
                raise ValueError(
                    f"scoring kwarg {name!r} is runtime-only (a shared "
                    "in-memory cache) and cannot appear in a config's "
                    "scoring_kwargs"
                )
            continue
        if not isinstance(value, allowed) or (
            isinstance(value, bool) and bool not in allowed
        ):
            expected = "/".join(t.__name__ for t in allowed)
            raise ValueError(
                f"scoring kwarg {name!r} for method {method!r} must be "
                f"{expected}, got {type(value).__name__} ({value!r})"
            )


def make_scorer(
    method: str,
    receptor: Molecule,
    ligand: Molecule,
    **kwargs,
) -> PoseScorer:
    """Scorer factory keyed by config string (thin registry shim)."""
    validate_scoring_kwargs(method, kwargs, allow_runtime=True)
    return SCORER_REGISTRY[method].factory(receptor, ligand, **kwargs)

"""Bench: scorer-method ablation (exact vs incremental truncation).

The engine's speed/accuracy dial, quantified: per-pose latency of each
method and the incremental scorer's truncation error against the exact
Eq. 1 evaluation -- the CPU analogue of METADOCK's windowed-GPU
evaluation choices.
"""

import numpy as np
import pytest

from repro.scoring.incremental import IncrementalScorer
from repro.scoring.scorers import ExactScorer


@pytest.fixture(scope="module")
def scorer_setup(bench_complex):
    lig = bench_complex.ligand_crystal
    template = lig.with_coords(lig.coords - lig.centroid())
    return bench_complex.receptor, template, lig.coords


def test_bench_exact_scorer(benchmark, scorer_setup):
    rec, template, coords = scorer_setup
    scorer = ExactScorer(rec, template)
    s = benchmark(scorer.score, coords)
    assert np.isfinite(s)


def test_bench_incremental_scorer(benchmark, scorer_setup):
    rec, template, coords = scorer_setup
    scorer = IncrementalScorer(rec, template, cutoff=12.0)
    s = benchmark(scorer.score, coords)
    assert np.isfinite(s)


def test_scorer_accuracy_ladder(scorer_setup):
    """Shifted-cutoff error shrinks with radius, under 5% at 20 A."""
    rec, template, coords = scorer_setup
    exact = ExactScorer(rec, template).score(coords)
    rows = []
    for cutoff in (12.0, 16.0, 20.0):
        s = IncrementalScorer(rec, template, cutoff=cutoff).score(coords)
        rows.append((f"incremental {cutoff:.0f} A", s, abs(s - exact)))
    print(f"\nexact score: {exact:.3f}")
    for name, s, err in rows:
        print(f"  {name:<16} score {s:10.3f}   |err| {err:8.3f}")
    errs = [r[2] for r in rows]
    assert errs[2] <= errs[1] <= errs[0]
    assert errs[2] < 0.05 * max(abs(exact), 1.0)

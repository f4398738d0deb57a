"""Self-tests of the benchmark harness: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import io
import json
import time
from contextlib import redirect_stdout

import pytest

import harness

harness.ensure_src_on_path()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- span arithmetic -----------------------------------------------------------
def test_self_times_subtract_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["mid", 1.0, 7.0, 0, None],
        ["leaf", 2.0, 3.0, 1, None],
        ["leaf", 4.0, 6.0, 1, None],
        ["side", 8.0, 9.5, 0, None],
        ["next", 11.0, 12.0, -1, None],
    ]
    assert harness.self_times(spans) == pytest.approx([2.5, 3.0, 1.0, 2.0, 1.5, 1.0])
    assert harness.covered_seconds(spans) == pytest.approx(11.0)
    assert sum(harness.self_times(spans)) == pytest.approx(11.0)


class _Nest:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.003)


def test_nested_wrappers_record_parents_and_self_time():
    rec = harness.SpanRecorder()
    targets = [
        (_Nest, "outer", "t.outer", None, False),
        (_Nest, "inner", "t.inner", lambda args, out: 1, False),
    ]
    with harness.Patches(rec, targets):
        assert _Nest().outer() == "done"
    names = [s[0] for s in rec.spans]
    assert names == ["t.outer", "t.inner", "t.inner"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]
    assert [s[4] for s in rec.spans] == [None, 1, 1]
    own = harness.self_times(rec.spans)
    outer = rec.spans[0][2] - rec.spans[0][1]
    inner = sum(s[2] - s[1] for s in rec.spans[1:])
    assert own[0] == pytest.approx(outer - inner, abs=1e-12)
    assert own[0] >= 0.002 and inner >= 0.006


def test_span_closes_when_the_wrapped_call_raises():
    class Boom:
        def go(self):
            raise KeyError("x")

    rec = harness.SpanRecorder()
    with harness.Patches(rec, [(Boom, "go", "t.go", None, False)]):
        with pytest.raises(KeyError):
            Boom().go()
        rec.open("after")
    assert rec.spans[0][2] >= rec.spans[0][1] > 0
    assert rec.spans[1][3] == -1


# -- percentile rule -----------------------------------------------------------
@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (40, 75.0), (100, 90.0), (200, 95.0),
     (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert harness.tail_percentile(n) == expected


def test_percentile_interpolates():
    assert harness.percentile([4, 1, 3, 2], 50.0) == 2.5
    assert harness.percentile(range(101), 99.0) == 99.0


# -- wrappers restore the program ------------------------------------------------
def test_patches_restore_every_original():
    targets = layers.targets()
    before = [(owner, attr, owner.__dict__.get(attr)) for owner, attr, *_ in targets]
    patches = harness.Patches(harness.SpanRecorder(), targets)
    patches.install()
    assert all(owner.__dict__.get(attr) is not orig for owner, attr, orig in before)
    patches.remove()
    for owner, attr, orig in before:
        assert owner.__dict__.get(attr) is orig, (owner, attr)


def _plain_training(seed: int):
    from repro.rl.trainer import Trainer

    wl = workloads.TrainWorkload("train-descriptor", "descriptor", "tiny")
    inputs = wl.setup(seed)
    history = Trainer(
        inputs.env,
        inputs.agent,
        episodes=3,
        max_steps_per_episode=40,
        learning_start=32,
        target_update_steps=25,
    ).run()
    return history.episodes


def test_trainer_unchanged_after_and_under_tracing():
    reference = _plain_training(3)
    rec = harness.SpanRecorder()
    patches = harness.Patches(rec, layers.targets())
    with patches:
        traced = _plain_training(3)
    assert rec.spans, "tracing recorded nothing"
    after = _plain_training(3)
    assert traced == reference
    assert after == reference


# -- output checks -------------------------------------------------------------
def test_drift_check_uses_both_regimes():
    coords = None
    window = [(coords, 0.0, False), (coords, 50.0, False), (coords, 1e6, True),
              (coords, 0.0, False)]
    exact = [0.0, 160.0, 1e6 + 5e3, 7.0]
    # step 1: calm, drift 110 > 100; step 2: clash, rel drift 5e3/1e6 ok;
    # step 3 follows an episode end and is not compared.
    assert workloads.drift_failures(window, exact, "incremental") == [1]
    assert workloads.drift_failures(window, exact, "field") == [1, 2]


# -- smoke runs ------------------------------------------------------------------
def _bench_spec():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_metric_tables_match_benchmark_json():
    spec = _bench_spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        workloads.make_workloads()
    )


@pytest.mark.parametrize("workload", sorted(workloads.make_workloads("tiny")))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_smoke(workload, trace, tmp_path):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main([
            "--workload", workload, "--seed", "1", "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny", "--out-dir", str(tmp_path),
        ])
    assert code == 0
    lines = buf.getvalue().strip().splitlines()
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _bench_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert record["seed"] == 1 and record["config"]
    assert record["error_rate"]["value"] == 0.0
    if trace:
        assert 0.0 < result["metrics"]["trace.coverage"]["value"] <= 1.0 + 1e-9
        assert not list(tmp_path.glob("spans-*.jsonl")), "worker spans not merged"
    else:
        assert result["metrics"]["ops_per_s"]["value"] > 0

"""Which program entry points the traced run wraps, and the per-layer report.

Span names are ``<layer>.<entry point>``; the layers are the modules
under ``src/repro``.  :func:`targets` lists the wrapped callables and
:func:`per_layer` turns the recorded spans plus the workload's own
counts into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

from harness import covered_seconds, median, percentile, self_times, tail_percentile

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS = {
    "chem.build_complex_s": "s",
    "metadock.apply_action_us": "us",
    "metadock.com_distance_us": "us",
    "metadock.crystal_rmsd_us": "us",
    "metadock.score_poses_us_per_pose": "us",
    "metadock.poses_per_call": "count",
    "metadock.escape_frac": "ratio",
    "scoring.score_us": "us",
    "scoring.score_calls": "count/op",
    "scoring.rebuild_ratio": "ratio",
    "scoring.batch_us_per_pose": "us",
    "scoring.batch_calls": "count/op",
    "scoring.field_build_s": "s",
    "scoring.exact_atom_frac": "ratio",
    "env.step_us": "us",
    "env.step_self_us": "us",
    "env.encode_us": "us",
    "env.comm_exchange_us": "us",
    "env.reset_ms": "ms",
    "rl.act_self_us": "us",
    "rl.remember_us": "us",
    "rl.learn_self_ms": "ms",
    "rl.replay_sample_us": "us",
    "rl.learn_per_step": "ratio",
    "rl.replay_bytes": "bytes",
    "nn.predict_us": "us",
    "nn.forward_ms": "ms",
    "nn.backward_ms": "ms",
    "nn.optimizer_step_ms": "ms",
    "nn.policy_forward_us": "us",
    "screening.shard_busy_s": "s",
    "screening.overhead_s": "s",
    "screening.rollout_step_us": "us",
    "screening.forward_passes": "count/op",
    "screening.score_batch_calls": "count/op",
    "screening.evaluations_per_ligand": "count/op",
    "train.step_p50_us": "us",
    "train.step_tail_us": "us",
    "train.step_tail_pct": "%",
    "train.step_samples": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _n_items(args, out) -> int:
    return len(args[1])


def _near_fractions(args, out) -> list:
    """[entries, summed near_fraction, field entries] of one group call."""
    fracs = [
        float(sc.near_fraction)
        for sc, _ in args[0]
        if hasattr(sc, "near_fraction")
    ]
    return [len(args[0]), sum(fracs), len(fracs)]


def _rollout(args, out) -> list:
    """[forward passes, escape endings, rollouts] of one rollout call."""
    results, stats = out
    escapes = sum(r.termination == "escape" for r in results)
    return [stats.forward_passes, escapes, len(results)]


def targets() -> list[tuple]:
    """(owner, attribute, span name, count, boundary) for every wrapper."""
    from repro.chem import builders
    from repro.env.comm import RamComm
    from repro.env.docking_env import DockingEnv
    from repro.env.observation import CompactCodec, DescriptorCodec, RawCodec
    from repro.metadock.engine import MetadockEngine
    from repro.nn.network import MLP
    from repro.nn.optimizers import Optimizer
    from repro.rl.agent import DQNAgent
    from repro.rl.replay import ReplayMemory
    from repro.scoring import scorers
    from repro.scoring.field import FieldMaps, FieldScorer
    from repro.scoring.incremental import IncrementalScorer
    from repro.screening import driver

    out = [
        (builders, "build_complex", "chem.build_complex", None, False),
        (MetadockEngine, "apply_action", "metadock.apply_action", None, False),
        (MetadockEngine, "com_distance", "metadock.com_distance", None, False),
        (MetadockEngine, "crystal_rmsd", "metadock.crystal_rmsd", None, False),
        (MetadockEngine, "score_poses", "metadock.score_poses", _n_items, False),
        (FieldMaps, "ensure", "scoring.field_build", lambda a, o: int(bool(o)), False),
        (scorers, "score_pose_group", "scoring.score_pose_group", _near_fractions, False),
        (DockingEnv, "step", "env.step", None, False),
        (DockingEnv, "reset", "env.reset", None, False),
        (RamComm, "exchange", "env.comm_exchange", None, False),
        (DQNAgent, "act", "rl.act", None, False),
        (DQNAgent, "remember", "rl.remember", None, False),
        (DQNAgent, "learn", "rl.learn", None, False),
        (ReplayMemory, "sample", "rl.replay_sample", None, False),
        (MLP, "predict", "nn.predict", None, False),
        (MLP, "forward", "nn.forward", None, False),
        (MLP, "backward", "nn.backward", None, False),
        (Optimizer, "step", "nn.optimizer_step", None, False),
        (driver, "run_screening", "screening.run_screening", None, False),
        (driver, "_run_shard", "screening.shard", None, True),
        (driver, "greedy_rollout", "screening.greedy_rollout", _rollout, False),
        (driver, "screen_ligand", "screening.screen_ligand", None, False),
    ]
    for cls in (IncrementalScorer, FieldScorer, scorers.ExactScorer):
        out.append((cls, "score", "scoring.score", None, False))
        out.append((cls, "score_batch", "scoring.score_batch", _n_items, False))
    for cls in (RawCodec, CompactCodec, DescriptorCodec):
        out.append((cls, "encode", "env.encode", None, False))
    return out


def _durations(spans, own, name, parent=None, self_time=False):
    """Durations (or self times) of spans called ``name``, optionally
    only those directly under a span called ``parent``."""
    out = []
    for i, s in enumerate(spans):
        if s[0] != name:
            continue
        if parent is not None and (s[3] < 0 or spans[s[3]][0] != parent):
            continue
        out.append(own[i] if self_time else s[2] - s[1])
    return out


def _subset(spans: list[list], keep: list[int]) -> list[list]:
    """The spans at indices ``keep`` (ascending), parents re-indexed;
    a parent outside the subset becomes top level."""
    where = {old: new for new, old in enumerate(keep)}
    return [
        spans[i][:3] + [where.get(spans[i][3], -1)] + spans[i][4:] for i in keep
    ]


def _med(values, scale: float) -> float:
    return median(values) * scale if values else 0.0


def per_layer(
    all_spans: list[list],
    *,
    n_local: int,
    windows: list,
    ops: int,
    traced_wall: float,
    untraced_wall: float,
    untraced_op_times: list,
    stats: dict,
    is_train: bool,
) -> dict:
    """Every per-layer metric (0 where the workload never runs the layer).

    ``all_spans`` come from the traced pass: the first ``n_local``
    recorded sequentially (by this process or a training slice it waited
    for), then any from screening pool workers.  Only spans that start
    inside a timed window count, except ``chem.build_complex``, which
    runs in set-up.  Pool-worker time runs in parallel, so only the
    sequential spans count towards coverage of the timed wall.  Counts with
    unit ``count/op`` are divided by the segment's ops.
    """
    timed = [
        i
        for i, s in enumerate(all_spans)
        if any(t0 <= s[1] <= t1 for t0, t1 in windows)
    ]
    spans = _subset(all_spans, timed)
    n_local = sum(1 for i in timed if i < n_local)
    own = self_times(spans)
    d = lambda name, **kw: _durations(spans, own, name, **kw)  # noqa: E731
    count = lambda name: sum(1 for s in spans if s[0] == name)  # noqa: E731
    per_op = lambda x: x / ops if ops else 0.0  # noqa: E731
    m: dict[str, float] = {}

    m["chem.build_complex_s"] = _med(
        [s[2] - s[1] for s in all_spans if s[0] == "chem.build_complex"], 1.0
    )
    m["metadock.apply_action_us"] = _med(d("metadock.apply_action"), 1e6)
    m["metadock.com_distance_us"] = _med(d("metadock.com_distance"), 1e6)
    m["metadock.crystal_rmsd_us"] = _med(d("metadock.crystal_rmsd"), 1e6)
    poses = [s for s in spans if s[0] == "metadock.score_poses" and s[4]]
    m["metadock.score_poses_us_per_pose"] = _med(
        [(s[2] - s[1]) / s[4] for s in poses], 1e6
    )
    m["metadock.poses_per_call"] = (
        sum(s[4] for s in poses) / len(poses) if poses else 0.0
    )
    rollouts = [s for s in spans if s[0] == "screening.greedy_rollout"]
    if is_train:
        episodes = stats.get("episodes_completed", 0)
        escapes = stats.get("escapes", 0)
    else:
        episodes = sum(s[4][2] for s in rollouts)
        escapes = sum(s[4][1] for s in rollouts)
    m["metadock.escape_frac"] = escapes / episodes if episodes else 0.0

    score_calls = count("scoring.score")
    m["scoring.score_us"] = _med(d("scoring.score"), 1e6)
    m["scoring.score_calls"] = per_op(score_calls)
    m["scoring.rebuild_ratio"] = (
        stats.get("rebuilds", 0) / score_calls if score_calls else 0.0
    )
    batches = [
        s
        for s in spans
        if s[0] in ("scoring.score_batch", "scoring.score_pose_group")
    ]
    sizes = [s[4] if isinstance(s[4], int) else s[4][0] for s in batches]
    m["scoring.batch_us_per_pose"] = _med(
        [(s[2] - s[1]) / k for s, k in zip(batches, sizes) if k], 1e6
    )
    m["scoring.batch_calls"] = per_op(len(batches))
    screens = [s for s in spans if s[0] == "screening.run_screening"]
    builds = [s[2] - s[1] for s in spans if s[0] == "scoring.field_build" and s[4]]
    m["scoring.field_build_s"] = sum(builds) / len(screens) if screens else 0.0
    groups = [s[4] for s in spans if s[0] == "scoring.score_pose_group"]
    field_entries = sum(g[2] for g in groups)
    m["scoring.exact_atom_frac"] = (
        sum(g[1] for g in groups) / field_entries if field_entries else 0.0
    )

    m["env.step_us"] = _med(d("env.step"), 1e6)
    m["env.step_self_us"] = _med(d("env.step", self_time=True), 1e6)
    m["env.encode_us"] = _med(d("env.encode"), 1e6)
    m["env.comm_exchange_us"] = _med(d("env.comm_exchange"), 1e6)
    m["env.reset_ms"] = _med(d("env.reset"), 1e3)

    m["rl.act_self_us"] = _med(d("rl.act", self_time=True), 1e6)
    m["rl.remember_us"] = _med(d("rl.remember"), 1e6)
    m["rl.learn_self_ms"] = _med(d("rl.learn", self_time=True), 1e3)
    m["rl.replay_sample_us"] = _med(d("rl.replay_sample"), 1e6)
    steps = count("env.step")
    m["rl.learn_per_step"] = count("rl.learn") / steps if steps else 0.0
    m["rl.replay_bytes"] = float(stats.get("replay_bytes", 0))

    m["nn.predict_us"] = _med(d("nn.predict", parent="rl.act"), 1e6)
    m["nn.forward_ms"] = _med(d("nn.forward", parent="rl.learn"), 1e3)
    m["nn.backward_ms"] = _med(d("nn.backward"), 1e3)
    m["nn.optimizer_step_ms"] = _med(d("nn.optimizer_step"), 1e3)
    m["nn.policy_forward_us"] = _med(
        d("nn.predict", parent="screening.greedy_rollout"), 1e6
    )

    busy, overhead = [], []
    shards = [s for s in spans if s[0] == "screening.shard"]
    workers = max(1, int(stats.get("workers", 1)))
    for sc in screens:
        b = sum(s[2] - s[1] for s in shards if sc[1] <= s[1] <= sc[2])
        busy.append(b)
        overhead.append((sc[2] - sc[1]) - b / workers)
    m["screening.shard_busy_s"] = _med(busy, 1.0)
    m["screening.overhead_s"] = _med(overhead, 1.0)
    m["screening.rollout_step_us"] = _med(
        [(s[2] - s[1]) / s[4][0] for s in rollouts if s[4][0]], 1e6
    )
    m["screening.forward_passes"] = per_op(stats.get("forward_passes", 0))
    m["screening.score_batch_calls"] = per_op(stats.get("score_batch_calls", 0))
    m["screening.evaluations_per_ligand"] = (
        0.0 if is_train else per_op(stats.get("evaluations", 0))
    )

    samples = len(untraced_op_times) if is_train else 0
    tail = tail_percentile(samples)
    m["train.step_p50_us"] = (
        percentile(untraced_op_times, 50.0) * 1e6 if samples else 0.0
    )
    m["train.step_tail_us"] = (
        percentile(untraced_op_times, tail) * 1e6 if tail else 0.0
    )
    m["train.step_tail_pct"] = tail or 0.0
    m["train.step_samples"] = float(samples)

    m["trace.coverage"] = (
        covered_seconds(spans[:n_local]) / traced_wall if traced_wall > 0 else 0.0
    )
    m["trace.overhead"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
    )
    if list(m) != list(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics out of sync with PER_LAYER_UNITS")
    return m

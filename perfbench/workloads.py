"""The benchmark's workloads: paper-scale training and library screening.

Every workload is a closed loop driven from one process: the next
operation starts when the previous one has finished.  An operation
("op") is one environment step for ``train-*`` and one ligand for
``screen-*``.  :meth:`Workload.run` builds the inputs from the workload
seed, drives the real program entry point --
:meth:`repro.rl.trainer.Trainer.run` or
:func:`repro.screening.driver.run_screening` -- for a given number of
seconds, and checks what it produced.

Why each workload exists, and which layer numbers should move which
end-to-end number on it, is in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.chem import builders
from repro.config import ComplexConfig, DQNDockingConfig
from repro.env import factory
from repro.experiments import figure4
from repro.metadock.library import generate_library
from repro.screening import driver
from repro.telemetry.callbacks import TrainerCallback

import harness

#: Complex seed for workload seed 0 (the ``ComplexConfig`` default).
BASE_COMPLEX_SEED = ComplexConfig().seed

#: Independent training runs (complex + agent) measured in one run.
TRAIN_SLICES = 4
#: Warm-up transitions stored in replay before each slice's clock starts.
WARMUP_STEPS = 64
#: Consecutive visited poses per slice re-scored with ``ExactScorer``.
CHECK_WINDOW = 16
#: Seconds to wait for a slice process to exit after it sent its result.
SLICE_JOIN_TIMEOUT = 60
#: Set-ups per screening run; ``setup_s`` is their median.
SCREEN_SETUPS = 3
#: Weights seed of the screen-policy Q-net, the same for every workload
#: seed: an untrained net's action preferences decide how long its
#: rollouts run, so a per-seed net would make the run-to-run spread a
#: draw over policies rather than a measure of the program.
POLICY_SEED = 0

#: Per-step score-change budgets (docs/PERFORMANCE.md): calm-regime
#: absolute drift (kcal/mol) and clash-regime relative drift.
DRIFT_BUDGET = {"incremental": (100.0, 1e-2), "field": (25.0, 1e-3)}
#: Scores below this magnitude at both ends of a step are "calm".
CALM_SCORE = 1e4

#: Test-only reduced complex (not a benchmark workload).
TINY_COMPLEX = dict(
    receptor_atoms=120,
    ligand_atoms=10,
    receptor_radius=9.0,
    pocket_depth=3.5,
    initial_offset=7.0,
    rotatable_bonds=2,
)


def complex_config(seed: int, scale: str) -> ComplexConfig:
    """The complex for a workload seed: paper-sized unless ``scale="tiny"``."""
    extra = TINY_COMPLEX if scale == "tiny" else {}
    return ComplexConfig(seed=BASE_COMPLEX_SEED + seed, **extra)


def _finite(x) -> bool:
    return math.isfinite(float(x))


@dataclass
class Segment:
    """What one run of a workload did.

    ``wall`` is the summed length of the timed ``windows``; set-up,
    warm-up and output checks run outside them.  ``plan`` records the
    work done (steps per training slice, or the number of screens) so a
    traced pass can repeat exactly the same work.
    """

    ops: int = 0
    failed: int = 0
    wall: float = 0.0
    windows: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    #: Per-op time samples (seconds) for the latency percentiles.
    op_times: list = field(default_factory=list)
    plan: list = field(default_factory=list)
    #: Workload-specific numbers for the per-layer report.
    stats: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    #: Peak RSS (process plus children) when the last timed window ended.
    peak_rss_mb: float = 0.0

    @property
    def rate(self) -> float:
        return self.ops / self.wall if self.wall > 0 else 0.0

    def window(self, t0: float, t1: float) -> None:
        self.windows.append((t0, t1))
        self.wall += t1 - t0


class Workload:
    name = ""
    op = ""

    def __init__(self, scale: str = "paper"):
        self.scale = scale

    def config(self, seed: int) -> dict:
        """The exact configuration a run with ``seed`` uses."""
        raise NotImplementedError

    def run(self, seed, seconds, out_dir, plan=None, setups=None, recorder=None) -> Segment:
        """Set up from ``seed`` and measure for ``seconds``, or repeat the
        work ``plan`` describes (a previous segment's ``plan``).
        ``setups`` overrides how often set-up is timed; ``recorder`` is
        the span recorder of a traced pass."""
        raise NotImplementedError


# -- training ----------------------------------------------------------------
class _Stop(Exception):
    """Raised from the step callback to end a segment at its deadline."""


class _StepGate(TrainerCallback):
    """Counts and checks every step, samples poses, enforces the deadline."""

    def __init__(self, env, deadline: float, max_steps: int, expect_loss: bool):
        self.env = env
        self.deadline = deadline
        self.max_steps = max_steps
        self.expect_loss = expect_loss
        self.steps = 0
        self.bad_steps: set[int] = set()
        self.stamps: list[float] = []
        #: (ligand coords, fast score, episode ended) per sampled step.
        self.window: list[tuple] = []

    def on_step(self, info) -> None:
        now = time.perf_counter()
        self.stamps.append(now)
        ok = _finite(info.max_q) and _finite(info.score)
        if self.expect_loss and not _finite(info.loss):
            ok = False
        if not ok:
            self.bad_steps.add(self.steps)
        if len(self.window) < CHECK_WINDOW:
            coords = self.env.engine.ligand_coords().copy()
            self.window.append((coords, float(info.score), bool(info.done)))
        self.steps += 1
        if now >= self.deadline or self.steps >= self.max_steps:
            raise _Stop


def drift_failures(window, exact_scores, method: str) -> list[int]:
    """Indices of sampled steps whose score change leaves the budget.

    Step ``t`` -> ``t+1`` is compared only inside one episode.  The
    change reported by the fast scorer must match the exact change to
    within the scorer's calm bound (absolute) or clash bound (relative).
    """
    calm_bound, clash_bound = DRIFT_BUDGET[method]
    bad = []
    for t in range(len(window) - 1):
        if window[t][2]:
            continue
        d_fast = window[t + 1][1] - window[t][1]
        d_exact = exact_scores[t + 1] - exact_scores[t]
        drift = abs(d_fast - d_exact)
        calm = abs(exact_scores[t]) < CALM_SCORE and abs(
            exact_scores[t + 1]
        ) < CALM_SCORE
        if calm:
            ok = drift <= calm_bound
        else:
            ok = drift / max(1.0, abs(d_exact)) <= clash_bound
        if not ok:
            bad.append(t + 1)
    return bad


@dataclass
class TrainInputs:
    cfg: DQNDockingConfig
    env: object
    agent: object
    global_step: int


class TrainWorkload(Workload):
    """The Figure-4 loop with the Table-1 agent, in the epsilon-floor regime.

    A run trains ``TRAIN_SLICES`` independent agents, each on its own
    complex, one after the other, and measures each for an equal share
    of the seconds.  Step cost depends strongly on where the ligand
    roams (in contact with the receptor, far out, escaping), so one
    trajectory per run would make the run-to-run spread mostly a matter
    of which trajectory the seed drew.
    """

    op = "env step"
    scoring_method = "incremental"

    def __init__(self, name: str, observation_mode: str, scale: str = "paper"):
        super().__init__(scale)
        self.name = name
        self.observation_mode = observation_mode

    @staticmethod
    def slice_seeds(seed: int) -> list[int]:
        return [TRAIN_SLICES * seed + k for k in range(TRAIN_SLICES)]

    def run_config(self, slice_seed: int) -> DQNDockingConfig:
        extra = {}
        if self.scale == "tiny":
            extra = dict(hidden_size=30, replay_capacity=4096)
        return DQNDockingConfig(
            observation_mode=self.observation_mode,
            scoring_method=self.scoring_method,
            trainer="sync",
            seed=slice_seed,
            complex=complex_config(slice_seed, self.scale),
            **extra,
        )

    def config(self, seed: int) -> dict:
        seeds = self.slice_seeds(seed)
        cfg = self.run_config(seeds[0])
        return {
            "run_config": dataclasses.asdict(cfg),
            "slice_seeds": seeds,
            "per_slice": "seed = slice seed; complex.seed = %d + slice seed"
            % BASE_COMPLEX_SEED,
            "start_global_step": self.floor_step(cfg),
            "warmup_steps": WARMUP_STEPS,
            "learning": "every step",
            "checked_steps_per_slice": CHECK_WINDOW,
        }

    @staticmethod
    def floor_step(cfg: DQNDockingConfig) -> int:
        """First global step at which epsilon sits at its floor."""
        anneal = math.ceil(
            (cfg.epsilon_start - cfg.epsilon_final) / cfg.epsilon_decay
        )
        return cfg.initial_exploration_steps + anneal

    def setup(self, slice_seed: int) -> TrainInputs:
        """Complex, env, agent (with its replay) and the first reset."""
        cfg = self.run_config(slice_seed)
        built = builders.build_complex(cfg.complex)
        env = factory.make_env(cfg, built)
        agent = figure4.build_agent_for_env(cfg, env)
        env.reset()
        return TrainInputs(cfg, env, agent, self.floor_step(cfg))

    def _train(self, inputs: TrainInputs, gate, learning_start: int, history):
        from repro.rl.trainer import Trainer

        cfg = inputs.cfg
        trainer = Trainer(
            inputs.env,
            inputs.agent,
            episodes=10**9,
            max_steps_per_episode=cfg.max_steps_per_episode,
            learning_start=learning_start,
            target_update_steps=cfg.target_update_steps,
            train_interval=cfg.train_interval,
            callbacks=[gate],
        )
        try:
            trainer.run(global_step=inputs.global_step, history=history)
        except _Stop:
            pass
        inputs.global_step += gate.steps

    def run(self, seed, seconds, out_dir, plan=None, setups=None, recorder=None) -> Segment:
        """Run the slices one after the other, each in its own forked
        process, so every slice starts from the same memory state and
        reports its own peak RSS; ``setup_s`` and ``peak_rss_mb`` are the
        medians over slices.  Spans a ``recorder`` collects in a slice
        are sent back and appended to this process's spans."""
        seg = Segment()
        seg.stats = dict.fromkeys(
            ("episodes_completed", "escapes", "rebuilds", "replay_bytes",
             "checked_steps"),
            0,
        )
        peaks = []
        ctx = multiprocessing.get_context("fork")
        for k, slice_seed in enumerate(self.slice_seeds(seed)):
            steps = plan[k] if plan is not None else None
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=self._slice_process,
                args=(send, slice_seed, seconds / TRAIN_SLICES, steps, recorder),
            )
            proc.start()
            send.close()
            try:
                out = recv.recv()
            except EOFError:
                out = {"errors": [f"slice {slice_seed} died without a result"]}
            finally:
                recv.close()
                proc.join(SLICE_JOIN_TIMEOUT)
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            seg.errors += out["errors"]
            if "window" not in out:
                seg.ops += 1
                seg.failed += 1
                seg.plan.append(0)
                continue
            seg.setup_times.append(out["setup_s"])
            seg.window(*out["window"])
            seg.plan.append(out["steps"])
            seg.ops += out["steps"]
            seg.failed += out["failed"]
            seg.op_times += out["op_times"]
            peaks.append(out["peak_rss_mb"])
            for key, value in out["stats"].items():
                if key == "replay_bytes":
                    seg.stats[key] = max(seg.stats[key], value)
                else:
                    seg.stats[key] += value
            if recorder is not None:
                base = len(recorder.spans)
                recorder.spans += [
                    sp[:3] + [sp[3] + base if sp[3] >= 0 else -1] + sp[4:]
                    for sp in out["spans"]
                ]
        seg.peak_rss_mb = harness.median(peaks) if peaks else 0.0
        return seg

    def _slice_process(self, conn, slice_seed, seconds, steps, recorder) -> None:
        """Body of one slice's process: set up, warm up, measure, check."""
        out: dict = {"errors": []}
        try:
            if recorder is not None:
                recorder.adopt_child()
            out.update(self._slice(slice_seed, seconds, steps))
            if recorder is not None:
                out["spans"] = recorder.spans
        except Exception:
            out["errors"].append(traceback.format_exc())
        conn.send(out)
        conn.close()

    def _slice(self, slice_seed: int, seconds: float, steps) -> dict:
        """Train for ``seconds``, or for exactly ``steps`` steps if given."""
        from repro.rl.trainer import TrainingHistory

        t0 = time.perf_counter()
        inputs = self.setup(slice_seed)
        setup_s = time.perf_counter() - t0
        # Fill replay past one minibatch so every timed step learns.
        warm = _StepGate(inputs.env, math.inf, WARMUP_STEPS, False)
        self._train(inputs, warm, 10**12, TrainingHistory())

        scorer = inputs.env.engine.scorer
        rebuilds0 = getattr(scorer, "rebuild_count", 0)
        history = TrainingHistory()
        errors = []
        t0 = time.perf_counter()
        if steps is None:
            gate = _StepGate(inputs.env, t0 + seconds, 10**12, True)
        else:
            gate = _StepGate(inputs.env, math.inf, steps, True)
        try:
            self._train(inputs, gate, 0, history)
        except Exception:
            errors.append(traceback.format_exc())
            gate.bad_steps.add(gate.steps)
            gate.steps += 1
        t1 = time.perf_counter()
        peak = harness.peak_rss_mb()
        # The output check runs after the peak is read: re-score the
        # sampled poses exactly and compare per-step score changes.
        engine = inputs.env.engine
        exact = self.exact_scores(engine.receptor, engine.template, gate.window)
        gate.bad_steps.update(
            drift_failures(gate.window, exact, self.scoring_method)
        )
        return {
            "setup_s": setup_s,
            "window": (t0, t1),
            "steps": gate.steps,
            "failed": len(gate.bad_steps),
            "op_times": np.diff(gate.stamps).tolist(),
            "peak_rss_mb": peak,
            "errors": errors,
            "stats": {
                "episodes_completed": len(history.episodes),
                "escapes": sum(e.termination == "escape" for e in history.episodes),
                "rebuilds": getattr(scorer, "rebuild_count", 0) - rebuilds0,
                "replay_bytes": int(inputs.agent.replay.nbytes()),
                "checked_steps": len(gate.window),
            },
        }

    @staticmethod
    def exact_scores(receptor, template, window) -> list[float]:
        from repro.scoring.scorers import ExactScorer

        exact = ExactScorer(receptor, template)
        return [exact.score(coords) for coords, _, _ in window]


# -- screening ---------------------------------------------------------------
@dataclass
class ScreenInputs:
    built: object
    library: list
    config: object


class ScreenWorkload(Workload):
    """Repeated ``run_screening`` calls over consecutive library chunks."""

    op = "ligand"

    def __init__(
        self,
        name: str,
        *,
        strategy: str,
        scoring_method: str,
        scoring_kwargs: dict,
        workers: int,
        ligands_per_screen: int,
        library_size: int,
        max_atoms: int | None = None,
        scale: str = "paper",
    ):
        super().__init__(scale)
        self.name = name
        self.strategy = strategy
        self.scoring_method = scoring_method
        self.scoring_kwargs = scoring_kwargs
        self.workers = workers
        self.ligands_per_screen = ligands_per_screen
        self.library_size = library_size
        self.max_atoms = max_atoms
        if scale == "tiny":
            self.ligands_per_screen = min(4, ligands_per_screen)
            self.library_size = 8

    def screening_config(self, seed: int, policy_dir: Path | None):
        return driver.ScreeningConfig(
            strategy=self.strategy,
            seed=seed,
            workers=self.workers,
            scoring_method=self.scoring_method,
            scoring_kwargs=dict(self.scoring_kwargs),
            policy_path=str(policy_dir) if policy_dir is not None else None,
            **({"shard_size": 2} if self.scale == "tiny" else {}),
        )

    def config(self, seed: int) -> dict:
        policy_dir = None
        if self.strategy == "policy":
            policy_dir = Path(self.policy_dir_name(seed))
        record = dataclasses.asdict(self.screening_config(seed, policy_dir))
        return {
            "screening_config": record,
            "complex": dataclasses.asdict(complex_config(seed, self.scale)),
            "library": {
                "size": self.library_size,
                "seed": seed,
                "max_atoms": self.max_atoms,
                "ligands_per_screen": self.ligands_per_screen,
            },
            "policy": self.policy_record() if self.strategy == "policy" else None,
        }

    def policy_dir_name(self, seed: int) -> str:
        return f"policy-{self.name}-seed{seed}"

    def policy_record(self) -> dict:
        from repro.chem.descriptors import pocket_feature_dim

        hidden = 30 if self.scale == "tiny" else 135
        return {
            "observation_mode": "descriptor",
            "input_dim": pocket_feature_dim(self.max_atoms, 2 * self.max_atoms),
            "hidden": [hidden, hidden],
            "activation": "relu",
            "weights_seed": POLICY_SEED,
            "trained": False,
        }

    def setup(self, seed: int, out_dir: Path) -> ScreenInputs:
        built = builders.build_complex(complex_config(seed, self.scale))
        library = generate_library(
            built.config, self.library_size, seed=seed, max_atoms=self.max_atoms
        )
        policy_dir = None
        if self.strategy == "policy":
            policy_dir = out_dir / self.policy_dir_name(seed)
            self.write_policy(built, library, policy_dir)
        return ScreenInputs(built, library, self.screening_config(seed, policy_dir))

    def write_policy(self, built, library, path: Path) -> None:
        """An untrained descriptor-mode Q-net, written as a run directory.

        ``load_policy`` reads the observation mode and activation from
        ``manifest.json`` and the weights from ``checkpoints/*.npz``.
        The input is wide enough for any library ligand (shorter rows
        are zero-padded by the rollout).
        """
        from repro.chem.descriptors import pocket_feature_dim
        from repro.nn.checkpoints import save_network
        from repro.nn.network import build_mlp

        record = self.policy_record()
        dim = record["input_dim"]
        ligands = [built.ligand_initial] + [e.ligand for e in library]
        widest = max(pocket_feature_dim(m.n_atoms, m.n_bonds) for m in ligands)
        if widest > dim:
            raise ValueError(f"library ligand needs {widest} inputs, policy has {dim}")
        net = build_mlp(
            dim,
            tuple(record["hidden"]),
            12,
            activation=record["activation"],
            rng=np.random.default_rng(record["weights_seed"]),
            dtype=np.float32,
        )
        (path / "checkpoints").mkdir(parents=True, exist_ok=True)
        save_network(net, path / "checkpoints" / "policy.npz")
        manifest = {"config": {k: record[k] for k in ("observation_mode", "activation")}}
        (path / "manifest.json").write_text(json.dumps(manifest))

    def _chunk(self, inputs: ScreenInputs, j: int) -> list:
        n = self.ligands_per_screen
        chunks = len(inputs.library) // n
        start = (j % chunks) * n
        return inputs.library[start : start + n]

    def evaluation_cap(self, config) -> int:
        """Most scorer evaluations one ligand may use.

        Metaheuristic searches stop once the budget is reached, so they
        may exceed it by at most one generation's evaluations; a policy
        rollout scores its start pose plus one pose per step.
        """
        if config.strategy == "policy":
            return config.policy_max_steps + 1
        from repro.metadock.strategies import STRATEGY_PRESETS

        p = STRATEGY_PRESETS[config.strategy](config.budget)
        generation = p.n_combine + p.n_best_select * p.improve_iterations
        return config.budget + generation - 1

    def check(self, result, chunk, config) -> int:
        """Failed ligands of one screen (missing, duplicate, non-finite,
        out of order, or over the evaluation cap)."""
        from repro.screening.plan import ranking_key

        cap = self.evaluation_cap(config)
        seen: dict[int, int] = {}
        bad: set[int] = set()
        for hit in result.ranking:
            i = int(hit["library_index"])
            seen[i] = seen.get(i, 0) + 1
            if (
                not 0 <= i < len(chunk)
                or hit["compound_id"] != chunk[i].compound_id
                or not _finite(hit["best_score"])
                or not 0 < int(hit["evaluations"]) <= cap
            ):
                bad.add(i)
        bad |= {i for i, k in seen.items() if k != 1}
        bad |= set(range(len(chunk))) - set(seen)
        keys = [ranking_key(h) for h in result.ranking]
        for a, b in zip(keys, keys[1:]):
            if a > b:
                bad |= set(range(len(chunk)))
                break
        return len(bad)

    def run(self, seed, seconds, out_dir, plan=None, setups=SCREEN_SETUPS, recorder=None) -> Segment:
        """Screen consecutive library chunks, one ``run_screening`` call
        each, until the next screen would end nearer past the deadline
        than before it; with ``plan``, screen exactly ``plan[0]`` chunks."""
        seg = Segment()
        for _ in range(setups):
            inputs = None
            gc.collect()
            t0 = time.perf_counter()
            inputs = self.setup(seed, out_dir)
            seg.setup_times.append(time.perf_counter() - t0)
        walls: list[float] = []
        evaluations = forward = batches = 0
        start = time.perf_counter()
        while plan is None or len(walls) < plan[0]:
            chunk = self._chunk(inputs, len(walls))
            t0 = time.perf_counter()
            try:
                result = driver.run_screening(inputs.built, chunk, inputs.config)
            except Exception:
                seg.errors.append(traceback.format_exc())
                seg.failed += len(chunk)
                seg.ops += len(chunk)
                break
            t1 = time.perf_counter()
            seg.window(t0, t1)
            walls.append(t1 - t0)
            seg.ops += len(chunk)
            seg.failed += self.check(result, chunk, inputs.config)
            evaluations += sum(int(h["evaluations"]) for h in result.ranking)
            forward += result.policy_forward_passes
            batches += result.score_batch_calls
            if plan is None and t1 - start + 0.5 * float(np.mean(walls)) >= seconds:
                break
        seg.peak_rss_mb = harness.peak_rss_mb()
        seg.plan = [len(walls)]
        seg.op_times = [w / self.ligands_per_screen for w in walls]
        seg.stats = {
            "screens": len(walls),
            "screen_walls": walls,
            "workers": inputs.config.workers,
            "evaluations": evaluations,
            "forward_passes": forward,
            "score_batch_calls": batches,
        }
        return seg


def make_workloads(scale: str = "paper") -> dict[str, Workload]:
    """The four workloads by name (``scale="tiny"`` only for self-tests)."""
    workers = min(2, harness.usable_cores())
    wl = [
        TrainWorkload("train-compact", "compact", scale),
        TrainWorkload("train-descriptor", "descriptor", scale),
        ScreenWorkload(
            "screen-search",
            strategy="scatter",
            scoring_method="incremental",
            scoring_kwargs={},
            workers=workers,
            ligands_per_screen=16,
            library_size=128,
            scale=scale,
        ),
        ScreenWorkload(
            "screen-policy",
            strategy="policy",
            scoring_method="field",
            scoring_kwargs={"spacing": 2.0},
            workers=1,
            ligands_per_screen=32,
            library_size=64,
            max_atoms=45,
            scale=scale,
        ),
    ]
    return {w.name: w for w in wl}

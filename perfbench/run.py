"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train-descriptor --seed 0 --seconds 24 --trace 0
    python3 perfbench/run.py --workload train-descriptor --seed 0 --seconds 24 --trace 1

``--trace 0`` measures the workload untraced for ``--seconds`` (setting
it up several times; ``setup_s`` is the median) and prints the
end-to-end metrics.  ``--trace 1`` measures it untraced for half the
seconds, repeats exactly the same work with the layer wrappers
installed, and prints the per-layer metrics; the spans are written to
``.perfbench_out/``.  The last line of standard output is
always one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the full record (seed, exact
workload config, host, every number with its unit).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import harness

#: End-to-end metric name -> unit.
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        choices=("paper", "tiny"),
        default="paper",
        help="'tiny' shrinks every input for the harness self-tests",
    )
    p.add_argument("--out-dir", default=str(harness.ROOT / ".perfbench_out"))
    return p.parse_args(argv)


def _metric_block(values: dict, units: dict) -> dict:
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units}


def run_untraced(workload, args, out_dir):
    seg = workload.run(args.seed, args.seconds, out_dir)
    values = {
        "ops_per_s": seg.rate,
        "setup_s": harness.median(seg.setup_times),
        "peak_rss_mb": seg.peak_rss_mb,
    }
    extra = {"setup_samples_s": seg.setup_times}
    return _metric_block(values, END_TO_END_UNITS), seg, extra


def run_traced(workload, args, out_dir):
    """Measure half the seconds untraced, then repeat exactly that work
    with the wrappers installed; the two walls give the overhead."""
    import layers

    plain = workload.run(args.seed, args.seconds / 2, out_dir, setups=1)
    recorder = harness.SpanRecorder(child_dir=out_dir)
    with harness.Patches(recorder, layers.targets()):
        seg = workload.run(
            args.seed, math.inf, out_dir, plan=plain.plan, setups=1, recorder=recorder
        )
    local = recorder.spans
    spans = local + recorder.collect_children()
    values = layers.per_layer(
        spans,
        n_local=len(local),
        windows=seg.windows,
        ops=seg.ops,
        traced_wall=seg.wall,
        untraced_wall=plain.wall,
        untraced_op_times=plain.op_times,
        stats=seg.stats,
        is_train=workload.name.startswith("train"),
    )
    path = out_dir / f"{workload.name}-seed{args.seed}-spans.json"
    path.write_text(
        json.dumps({"spans": spans, "local": len(local), "windows": seg.windows})
    )
    seg.ops += plain.ops
    seg.failed += plain.failed
    seg.errors += plain.errors
    extra = {
        "spans_file": str(path),
        "untraced_wall_s": plain.wall,
        "untraced_ops_per_s": plain.rate,
        "work_repeated": plain.plan == seg.plan,
    }
    return _metric_block(values, layers.PER_LAYER_UNITS), seg, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    harness.ensure_src_on_path()
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    table = workloads.make_workloads(args.scale)
    if args.workload not in table:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(table)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = table[args.workload]
    out_dir = harness.make_out_dir(args.out_dir)
    runner = run_traced if args.trace else run_untraced
    metrics, seg, extra = runner(workload, args, out_dir)

    host = harness.host_record()
    error_rate = seg.failed / seg.ops if seg.ops else 1.0
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "op": workload.op,
        "config": workload.config(args.seed),
        "host": host,
        "wall_s": seg.wall,
        "error_rate": {"value": error_rate, "unit": "failed/attempted"},
        "stats": seg.stats,
        **extra,
        "metrics": metrics,
    }
    if not args.trace:
        if workload.name.startswith("train"):
            record["train_steps_per_s"] = {"value": seg.rate, "unit": "steps/s"}
        else:
            record["screen_ligands_per_min"] = {
                "value": seg.rate * 60.0,
                "unit": "ligands/min",
            }
    if workload.name == "screen-search":
        record["core_starved"] = host["nproc"] < 2
    for err in seg.errors:
        print(err, file=sys.stderr)
    print(json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": seg.failed == 0 and not seg.errors and seg.ops > 0,
                "attempted": max(1, seg.ops),
                "failed": seg.failed if seg.ops else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of evpkit: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload evp-scaled --seed 1 --seconds 15 --trace 0

Operations run back to back in whole rounds (every round is the same list of
operations) for about ``--seconds``; times are reported at a reference clock
speed (``calibrate.py``). Answers are checked after the timed loop by an LP
oracle independent of evpkit (``checker.py``). The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics from a traced run with ``--trace 1``. ``--self-test`` feeds the
checker deliberately wrong answers instead. See README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one BLAS thread: the benchmark measures a single caller
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that the checker rejects wrong answers")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


class Loop:
    """What one timed loop measured."""

    def __init__(self):
        self.durations = []    # wall time per operation
        self.scaled = []       # the same at reference speed (calibrate.py)
        self.records = []      # (op, answer key, error) per operation
        self.answers = {}      # answer key -> check data, once per answer
        self.rounds = 0
        self.wall = 0.0

    def round_s(self):
        """Mean scaled time of one round."""
        return sum(self.scaled) / self.rounds


def run_rounds(ops, seconds, tracer=None):
    """Whole rounds, at least one; another round starts only while it can
    be expected to end within ``seconds`` of the start."""
    import calibrate

    loop = Loop()
    speed = calibrate.Speedometer()
    starts = []
    clock = time.perf_counter
    start = clock()
    while loop.rounds == 0 or \
            (clock() - start) * (loop.rounds + 1) / loop.rounds <= seconds:
        for op in ops:
            if tracer is not None:
                tracer.begin_op()
            t = clock()
            try:
                result, error = op.run(), None
            except Exception as exc:  # an operation failure, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            loop.durations.append(clock() - t)
            starts.append(t)
            if tracer is not None:
                tracer.end_op()
            key = None
            if error is None:
                key, data = op.record(result)
                loop.answers.setdefault(key, data)
            loop.records.append((op, key, error))
            speed.maybe_mark()
        loop.rounds += 1
    loop.wall = clock() - start
    speed.mark()
    loop.scaled = [speed.scale(t, d) for t, d in zip(starts, loop.durations)]
    return loop


def verify(records, answers):
    """Check every distinct answer once; returns (failed, wrong)."""
    import checker

    verdicts = {key: checker.check_record(data)
                for key, data in answers.items()}
    failed = wrong = 0
    for op, key, error in records:
        problems = [error] if error is not None else verdicts[key]
        if problems:
            failed += 1
            wrong += error is None
            if failed <= 5:
                print(f"FAILED {op.kind} #{op.index}: {problems[:2]}",
                      file=sys.stderr)
    return failed, wrong


def setup_samples(args):
    """``setup_s`` in fresh interpreters: import evpkit, generate, load.

    Returns the wall times and the same at reference speed, each scaled by
    a kernel timing the probe takes right after its set-up."""
    import calibrate

    raw, samples = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw.append(probe["setup_s"])
        samples.append(probe["setup_s"] * calibrate.REFERENCE_S
                       / probe["kernel_s"])
    return raw, samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, loop, setup_factor, n_inputs, overhead_s):
    """Per-operation means over the traced operations, times at reference
    speed (each operation scaled like its wall time); see README.md."""
    n_ops = len(tracer.ops)
    totals = tracer.per_op_totals(
        [s / d for s, d in zip(loop.scaled, loop.durations)])
    setup_load = tracer.setup["io.load"]
    op_load = totals["io.load"]
    load_calls = setup_load.count + op_load.count
    load_time = setup_load.incl * setup_factor + op_load.incl

    def per_op(group, field):
        return getattr(totals[group], field) / n_ops

    return {
        "io.load_s": metric(load_time / load_calls if load_calls else 0.0,
                            "s"),
        "io.load_calls": metric(setup_load.count / n_inputs, "count"),
        "io.report_s": metric(per_op("io.report", "incl"), "s"),
        "cli.dispatch_s": metric(per_op("cli.dispatch", "self_s"), "s"),
        "geometry.minkowski_calls": metric(
            per_op("geometry.minkowski", "count"), "count"),
        "geometry.minkowski_s": metric(per_op("geometry.minkowski", "incl"),
                                       "s"),
        "geometry.functional_s": metric(
            per_op("geometry.functional", "incl"), "s"),
        "scalarize.gz_calls": metric(per_op("scalarize.gz", "count"),
                                     "count"),
        "scalarize.gz_s": metric(per_op("scalarize.gz", "incl"), "s"),
        "instances.ti_check_s": metric(per_op("instances.ti_check", "incl"),
                                       "s"),
        "instances.relation_matrix_s": metric(
            per_op("instances.relation_matrix", "incl"), "s"),
        "instances.check_assumptions_s": metric(
            per_op("instances.check_assumptions", "incl"), "s"),
        "instances.preceq_calls": metric(per_op("instances.preceq", "count"),
                                         "count"),
        "engine.solve_s": metric(per_op("engine.solve", "incl"), "s"),
        "engine.steps": metric(sum(tracer.engine_steps) / n_ops, "count"),
        "solvers.certify_s": metric(per_op("solvers.front", "self_s"), "s"),
        "product.validate_fmap_s": metric(
            per_op("product.validate_fmap", "incl"), "s"),
        "product.graph_order_s": metric(
            per_op("product.graph_order", "incl"), "s"),
        "product.prec_calls": metric(per_op("product.graph_order", "outer"),
                                     "count"),
        "trace.overhead_s": metric(overhead_s, "s"),
    }


def measure(args, workloads, run_dir):
    import calibrate
    import spans

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        kernel_before = calibrate.kernel_time()
        tracer.install()
    items = workloads.build(args.workload, args.seed, run_dir)
    if tracer is not None:
        tracer.uninstall()
        setup_factor = 2 * calibrate.REFERENCE_S / (
            kernel_before + calibrate.kernel_time())
    ops = workloads.operations(args.workload, items, run_dir)
    ops[0].run()                          # warm-up, untimed and unchecked

    summary = {"workload": args.workload, "seed": args.seed,
               "inputs": len(items), "ops_per_round": len(ops)}
    if tracer is None:
        loop = run_rounds(ops, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_raw, setup = setup_samples(args)
        metrics = {
            "op_s.p50": metric(statistics.median(loop.scaled), "s"),
            "ops_per_s": metric(len(loop.scaled) / sum(loop.scaled), "1/s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        by_kind = {}
        for (op, *_), dt in zip(loop.records, loop.scaled):
            by_kind.setdefault(op.kind, []).append(dt)
        summary.update(
            rounds=loop.rounds, loop_s=loop.wall,
            op_samples=len(loop.scaled), setup_samples=setup,
            kind_p50={k: statistics.median(v)
                      for k, v in sorted(by_kind.items())},
            wall_op_s_p50=statistics.median(loop.durations),
            wall_ops_per_s=len(loop.durations) / sum(loop.durations),
            wall_setup_s=statistics.median(setup_raw),
            durations=loop.durations, scaled=loop.scaled)
        records, answers = loop.records, loop.answers
    else:
        base = run_rounds(ops, 0)
        tracer.install()
        try:
            loop = run_rounds(ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
        overhead = loop.round_s() - base.round_s()
        records = base.records + loop.records
        answers = {**base.answers, **loop.answers}
        metrics = layer_metrics(tracer, loop, setup_factor, len(items),
                                overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        summary.update(rounds=loop.rounds, loop_s=loop.wall,
                       untraced_round_s=base.round_s(),
                       overhead_share=overhead / base.round_s(),
                       trace_file=str(trace_path.relative_to(ROOT)))
        tracer.write(trace_path, summary)
    failed, wrong = verify(records, answers)
    result = {"correct": wrong == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    summary["result"] = result
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({k: v for k, v in summary.items()
                      if k not in ("result", "durations", "scaled")}))
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "evpkit" / "__init__.py").is_file():
        print(f"evpkit sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS and not (
            args.self_test and args.workload is None):
        print(f"--workload must be one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, run_dir)
            setup_s = time.perf_counter() - started
            import calibrate
            print(json.dumps({"setup_s": setup_s,
                              "kernel_s": calibrate.kernel_time()}))
            return 0
        if args.self_test:
            import selftest
            return selftest.run(args, workloads, run_dir)
        measure(args, workloads, run_dir)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

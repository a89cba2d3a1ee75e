"""Run one workload of the whole-run benchmark (or all three) and report.

Usage, from the repository root::

    python3 perfbench/run.py --workload droplet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped and
calibrates their host times by the reference kernel of
:mod:`perfbench.reference`; ``--trace 1`` is the separate attribution run
that reports the per-layer metrics.  Every metric is printed with its unit
and sample count; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every output check passed.  ``--workload all`` runs
the three workloads in one process and prefixes each metric with its
workload; with ``--trace 1`` it also fails when a per-layer metric reads
zero on every workload (unless declared must-stay-zero in
:mod:`perfbench.catalog`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: episodes per measured run (at least), and the droplet / wave set-ups
#: timed in the run's set-up block
MIN_EPISODES = 3
SETUP_REPEATS = 41


def _import_path() -> None:
    """Import the program from this checkout's ``src`` and the benchmark as
    the ``perfbench`` package; refuse to run without the program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if p not in ("", here)]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": _commit(),
        "machine": platform.machine(),
    }


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """Metrics of one workload plus its check outcome."""

    def __init__(self):
        self.metrics = {}      # name -> (value, unit, samples)
        self.attempted = 0
        self.failed = 0
        self.problems = []     # check failures other than failed ops
        self.notes = []        # human-readable lines beside the metrics

    def add(self, name, value, unit, samples):
        self.metrics[name] = (float(value), unit, int(samples))

    def count(self, episodes):
        for ep in episodes:
            self.attempted += ep.attempted
            self.failed += ep.failed


def _same_sim(episodes, res: Result, what: str) -> None:
    keys = {ep.sim_key() for ep in episodes}
    if len(keys) != 1:
        res.problems.append(f"simulated figures differ across {what}")


def measure(workload: str, seed: int, seconds: float) -> Result:
    """The end-to-end metrics, with nothing wrapped."""
    from perfbench import catalog, workloads as W
    from perfbench.reference import Calibration

    inputs = W.derive_inputs(workload, seed)
    W.warm_up(inputs)
    res = Result()
    calibration = Calibration()
    mode = W.Mode(calibration=calibration)
    episodes = []
    if workload == "restart":
        # each episode's share of the run covers its set-up (the growth)
        # and its cycles; every episode runs at least MIN_SAMPLES cycles
        for _ in range(MIN_EPISODES):
            ep = W.restart_episode(inputs, mode, W.MIN_SAMPLES,
                                   seconds / MIN_EPISODES)
            episodes.append(ep)
            if ep.failed:
                break
    else:
        while True:
            ep = W.sim_episode(inputs, mode)
            episodes.append(ep)
            loop = sum(e.loop_s for e in episodes)
            samples = sum(len(e.op_s) for e in episodes)
            if ep.failed or (len(episodes) >= MIN_EPISODES
                             and loop >= seconds
                             and samples >= W.MIN_SAMPLES):
                break
    res.count(episodes)
    _same_sim(episodes, res, "episodes of one seed")

    # calibrated host seconds: CPU seconds / the run's host slowness
    scale = calibration.scale
    if workload == "restart":
        # three growths of seconds each, spread over the run
        setups = [ep.setup_s for ep in episodes]
        setup_scale = scale
    else:
        # a set-up takes tens of milliseconds: time a block of them, each
        # next to its own reference slices
        setups, setup_scale = _setup_block(W, inputs)
    per_leaf_us = [s / scale / n * 1e6 for ep in episodes
                   for s, n in zip(ep.op_s, ep.op_leaves)]
    timed = [ep for ep in episodes if ep.loop_s > 0]
    sim_ops = episodes[0].op_sim_us
    if len(per_leaf_us) < 2 or len(sim_ops) < 2:
        res.problems.append("too few ops completed")
        return res
    res.notes.append(
        f"reference kernel: {len(calibration.slices)} slices, mean "
        f"{statistics.mean(calibration.slices) * 1e3:.3f} ms, host slowness "
        f"{scale:.4f} (every host time below is CPU seconds / slowness)")
    res.notes.append(
        f"uncalibrated: setup_s {statistics.median(setups):.6g}, "
        f"leaf_steps_per_s "
        f"{statistics.median(ep.leaf_steps / ep.loop_s for ep in timed):.6g}")
    values = {
        "setup_s": (statistics.median(setups) / setup_scale, len(setups)),
        "leaf_steps_per_s": (statistics.median(
            ep.leaf_steps / ep.loop_s for ep in timed) * scale, len(timed)),
        "op_us_per_leaf_p50": (statistics.median(per_leaf_us),
                               len(per_leaf_us)),
        "op_us_per_leaf_p90": (_p90(per_leaf_us), len(per_leaf_us)),
        "peak_rss_mb": (_peak_rss_mb(), 1),
        "sim_makespan_ms": (episodes[0].sim_makespan_ms, 1),
        "sim_op_us_p50": (statistics.median(sim_ops), len(sim_ops)),
        "sim_op_us_p90": (_p90(sim_ops), len(sim_ops)),
        "nvbm_bytes_written": (episodes[0].nvbm_bytes_written, 1),
    }
    for name, (unit, _better) in catalog.END_TO_END.items():
        res.add(name, values[name][0], unit, values[name][1])
    return res


def _setup_block(W, inputs):
    """SETUP_REPEATS droplet / wave set-ups in CPU seconds, with the
    slowness of the block's own reference slices."""
    from perfbench.reference import Calibration

    calibration = Calibration()
    setups = []
    for _ in range(SETUP_REPEATS):
        calibration.tick()
        setups.append(W.sim_setup(inputs)[2])
    calibration.tick()
    return setups, calibration.scale


#: per-layer metric -> (span name, column of SpanRecorder.by_name): 0 calls,
#: 1 self seconds, 2 inclusive seconds
SPAN_METRICS = {
    "solver.advect_s": ("solver.advect", 1),
    "solver.criterion_s": ("solver.criterion", 1),
    "solver.vof_cell_calls": ("solver.criterion", 0),
    "solver.self_s": ("solver.step", 1),
    "octree.adapt_s": ("octree.adapt", 1),
    "octree.balance_s": ("octree.balance", 1),
    "core.persist_s": ("core.persist", 1),
    "core.gc_s": ("core.gc", 1),
    "core.drain_s": ("core.drain", 1),
    "core.restore_s": ("core.restore", 1),
    "core.scrub_s": ("core.scrub", 1),
    "core.republish_s": ("core.republish", 2),
}


def attribute(workload: str, seed: int) -> Result:
    """The per-layer metrics: an untraced reference run, a span-traced run
    and a profiled run of the same seed, whose simulated figures must all
    agree exactly."""
    from perfbench import catalog, workloads as W

    inputs = W.derive_inputs(workload, seed)
    W.warm_up(inputs)
    modes = {"reference": W.Mode(probes=True), "traced": W.Mode(trace=True),
             "profiled": W.Mode(profile=True)}
    episodes = {}
    for name, mode in modes.items():
        if workload == "restart":
            episodes[name] = W.restart_episode(inputs, mode, W.MIN_SAMPLES, 0)
        else:
            episodes[name] = W.sim_episode(inputs, mode)
    res = Result()
    res.count(episodes.values())
    _same_sim(episodes.values(), res, "the reference, traced and profiled runs")

    ref, traced = episodes["reference"], episodes["traced"]
    recorder = modes["traced"].recorder
    spans = recorder.by_name()  # name -> (calls, self s, inclusive s)
    values = dict(traced.counts)
    samples = {}
    for metric, (span, column) in SPAN_METRICS.items():
        row = spans.get(span, (0, 0.0, 0.0))
        values[metric] = row[column]
        samples[metric] = row[0]
    values["nvbm.flush_calls"] = sum(modes["traced"].flushes.values())
    profile = modes["profiled"].profile_s
    values["nvbm.self_s"] = profile.get("nvbm", 0.0)
    values["obs.self_s"] = profile.get("obs", 0.0)
    for absent in ("obs.spans", "core.overlap_ratio_min", "core.ue_repaired",
                   "octree.refined", "octree.coarsened"):
        values.setdefault(absent, 0)  # the workload has no such part
    if workload == "restart":
        values["trace.slowdown"] = (statistics.median(traced.op_s)
                                    / statistics.median(ref.op_s))
    else:
        values["trace.slowdown"] = ((ref.leaf_steps / ref.loop_s)
                                    / (traced.leaf_steps / traced.loop_s))
        total, covered = recorder.root_balance()
        if abs(total - covered) > 1e-9 * max(1.0, total):
            res.problems.append(
                f"step span self times sum to {covered!r} s, step spans "
                f"to {total!r} s")
    for metric, (unit, _better) in catalog.PER_LAYER.items():
        if metric not in values:
            res.problems.append(f"per-layer metric {metric} not measured")
            continue
        res.add(metric, values[metric], unit, samples.get(metric, 1))
    return res


def _print_table(workload: str, res: Result) -> None:
    print(f"== {workload}: attempted={res.attempted} failed={res.failed} "
          f"failed_fraction={res.failed / max(1, res.attempted):g}")
    for name, (value, unit, n) in res.metrics.items():
        print(f"  {name:28s} {value:16.6g} {unit:14s} n={n}")
    for note in res.notes:
        print(f"  ({note})")
    for problem in res.problems:
        print(f"  CHECK FAILED: {problem}")


def _vacuous(per_workload) -> list:
    """Per-layer metrics that read zero on every workload (and declared
    must-stay-zero metrics that do not)."""
    from perfbench import catalog

    problems = []
    for metric in catalog.PER_LAYER:
        zero_on = {w for w, res in per_workload.items()
                   if res.metrics.get(metric, (0.0,))[0] == 0.0}
        declared = {w for m, w in catalog.MUST_STAY_ZERO if m == metric}
        if zero_on == set(per_workload) and not declared:
            problems.append(f"{metric} reads zero on every workload")
        for w in declared & set(per_workload) - zero_on:
            problems.append(f"{metric} must stay zero on {w}")
    restart = per_workload.get("restart")
    if restart is not None and \
            restart.metrics.get("core.ue_repaired", (0.0,))[0] <= 0:
        problems.append("restart repaired no planted fault")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("droplet", "wave", "restart", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measured loop seconds per run (--trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_path()
    from perfbench.workloads import WORKLOADS

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = _environment(args)
    print("perfbench env: " + json.dumps(env, sort_keys=True))
    per_workload = {}
    for w in names:
        try:
            if args.trace:
                res = attribute(w, args.seed)
            else:
                res = measure(w, args.seed, args.seconds)
        except Exception:  # noqa: BLE001 - report the failure, then go on
            traceback.print_exc(file=sys.stderr)
            res = Result()
            res.attempted = res.failed = 1
        per_workload[w] = res
        _print_table(w, res)
    problems = [f"{w}: {p}" for w, r in per_workload.items()
                for p in r.problems]
    if args.trace and args.workload == "all":
        problems += _vacuous(per_workload)
    for problem in problems:
        print(f"perfbench: CHECK FAILED {problem}", file=sys.stderr)

    def key(w, m):
        return m if len(names) == 1 else f"{w}.{m}"

    metrics = {key(w, m): {"value": v, "unit": u}
               for w, r in per_workload.items()
               for m, (v, u, _n) in r.metrics.items()}
    attempted = sum(r.attempted for r in per_workload.values())
    failed = sum(r.failed for r in per_workload.values())
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

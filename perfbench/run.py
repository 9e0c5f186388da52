"""Benchmark of the xrmimo simulator: one workload per run.

    python3 perfbench/run.py --workload sens-clean --seed 1 --seconds 28 --trace 0

Builds the workload's inputs from ``--seed``, then repeats rounds of the
workload's calls into the public entry points for about ``--seconds``,
checking every output.  With ``--trace 0`` it reports the end-to-end metrics;
set-up (a fresh-interpreter ``import xrmimo`` and an in-process build of the
inputs) is sampled between rounds, spread over the run, and its median
taken.  With ``--trace 1`` it alternates traced and untraced rounds and
reports per-layer self times, exact per-layer counts and the tracing
overhead, and writes the spans to ``.perfbench_out/trace-<workload>.jsonl``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sens-clean", "sens-noisy", "uplink", "uplink-replay")
SETUP_REPEATS = 5  # traced runs: set-ups whose layer spans are timed
SETUP_SAMPLES = 7  # untraced runs: set-up samples spread over the run
MIN_ROUNDS = 3
BLAS_THREADS = "1"
MAX_ERRORS_SHOWN = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "call_ms_p50": "ms", "call_ms_p90": "ms",
                    "work_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: (kind, span or counter names).  "ms" is the mean self
# time per call of the named spans, "ns_per_item" the self time per work item;
# counts and ratios come from the counting round, one pass over the calls.
KIND_UNITS = {"ms": "ms", "ns_per_item": "ns", "count": "count", "max": "se", "ratio": "ratio"}
PER_LAYER = {
    "features.observe_ms": ("ms", "features.observe"),
    "payload.encode_ms": ("ms", "payload.encode_payload"),
    "biterrors.corrupt_ms": ("ms", "biterrors.corrupt"),
    "payload.decode_ms": ("ms", "payload.decode_payload"),
    "matching.match_ms": ("ms", "matching.match_features"),
    "solver.solve_ms": ("ms", "solver.solve_pose"),
    "pipeline.run_pipeline_ms": ("ms", "pipeline.run_pipeline"),
    "scene.generate_ms": ("ms", "scene.generate_scene"),
    "trajectory.generate_ms": ("ms", "trajectory.generate_trajectory"),
    "config.build_ms": ("ms", "config.build_config"),
    "mimo.generate_channel_ms": ("ms", "mimo.generate_channel"),
    "mimo.load_channels_ms": ("ms", "mimo.load_channels"),
    "mimo.condition_ms": ("ms", "mimo.channel_condition"),
    "mimo.zf_equalizer_ms": ("ms", "mimo.zf_equalizer"),
    "mimo.zf_noise_gain_ms": ("ms", "mimo.zf_noise_gain"),
    "mimo.ber_curve_ms": ("ms", "mimo.ber_curve"),
    "modem.modulate_ns_per_symbol": ("ns_per_item", "modem.modulate"),
    "modem.demodulate_ns_per_symbol": ("ns_per_item", "modem.demodulate"),
    "frames.transmission_latency_ms": ("ms", "frames.transmission_latency"),
    "linkbudget.snr_target_ms": ("ms", "linkbudget.snr_target_for_ber"),
    "linkbudget.tx_power_ms": ("ms", "linkbudget.required_tx_power"),
    "studies.latency_ms": ("ms", "studies.run_latency_study"),
    "studies.ber_ms": ("ms", "studies.run_ber_study"),
    "studies.power_ms": ("ms", "studies.run_power_study"),
    "sandbox.frames": ("count", "sandbox.frames"),
    "features.observed": ("count", "features.observed"),
    "payload.decoded": ("count", "payload.decoded"),
    "payload.phantoms": ("count", "payload.phantoms"),
    "biterrors.flipped_bits": ("count", "biterrors.flipped_bits"),
    "matching.accepted": ("count", "matching.accepted"),
    "solver.inliers": ("count", "solver.inliers"),
    "solver.unsolved": ("count", "solver.unsolved"),
    "mimo.skipped_subcarriers": ("count", "mimo.skipped_subcarriers"),
    "mimo.bits_simulated": ("count", "mimo.bits_simulated"),
    "mimo.ber_max_z": ("max", "mimo.ber_max_z"),
    "matching.yield": ("ratio", ("matching.accepted", "payload.decoded")),
    "solver.solved_ratio": ("ratio", ("solver.solved", "sandbox.frames")),
    "solver.inlier_ratio": ("ratio", ("solver.inliers", "matching.accepted_solved")),
}


class Outcomes:
    """Operations attempted and failed, and work done."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.work = 0.0

    def record(self, errors) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:MAX_ERRORS_SHOWN - len(self.errors)])


def run_round(load, outcomes, call, tracer, references=None, labels=None):
    """One pass of ``call`` over the workload's ops.

    Returns the seconds each call took (None for a call that raised), the
    seconds the direct children of each call's root span cover, and each
    call's reference output.  ``labels`` maps call ids to ops.
    """
    times = []
    covered = 0.0
    refs = []
    for index, op in enumerate(load.ops):
        call_id = tracer.new_call()
        if labels is not None:
            labels[call_id] = op
        root = tracer.mark()
        start = time.perf_counter()
        try:
            out = call(op)
        except Exception as exc:  # a failed call is counted, and the run goes on
            times.append(None)
            outcomes.record([f"{op}: {type(exc).__name__}: {exc}"])
            refs.append(None)
            continue
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        covered += tracer.child_time(root)
        outcomes.work += load.work(op, out)
        errors = load.check(op, out)
        if references is not None:
            errors += (load.compare(out, references[index]) if references[index] is not None
                       else ["no untraced reference output"])
        outcomes.record(errors)
        refs.append(load.reference(out))
    return times, covered, refs


def spent(times) -> float:
    return sum(t for t in times if t is not None)


def make_load(name, seed, scratch):
    if name.startswith("sens-"):
        from sandbox_load import SandboxLoad
        return SandboxLoad(name, seed)
    from uplink_load import UplinkLoad
    return UplinkLoad(name, seed, scratch)


def import_cpu_seconds() -> float:
    """CPU seconds of ``import xrmimo`` after numpy and scipy, in a fresh interpreter."""
    code = ("import time, numpy, scipy; start = time.process_time(); import xrmimo; "
            "print(time.process_time() - start, xrmimo.__file__)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    if not Path(out[1]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"xrmimo was imported from {out[1]}")
    return float(out[0])


def timed_setup(make, tracer):
    """(a freshly built load, CPU seconds its construction and set-up took)."""
    start = time.process_time()
    load = make()
    load.setup(tracer)
    return load, time.process_time() - start


def untraced_metrics(make, seconds, outcomes, tracer) -> dict:
    """Whole rounds for about ``seconds``, with set-up sampled between them.

    A warm-up import (bytecode caches, page cache) and a warm-up set-up (the
    harness's own imports) are not timed.  Then SETUP_SAMPLES set-ups, each a
    fresh-interpreter import and an in-process build of the inputs, are taken
    evenly over the run, so that set-up sees the same host as the rounds.
    Set-up is timed in CPU seconds: a page-cache miss or a wait for a core,
    which depend on what else the host runs, does not count; set-up work does.
    Rounds go on while the last round still fits in ``seconds``, and at least
    MIN_ROUNDS are run.  Times come from the median round, each call's
    median over the rounds: a shared host's speed shifts for seconds at a
    time, and a median ignores the slow rounds.  The call percentiles are taken
    over the median round's main calls, so they do not jump between calls of
    different ops whose times overlap.
    """
    import_cpu_seconds()
    load, _ = timed_setup(make, tracer)
    imports, setups = [], []

    def sample_setup():
        imports.append(import_cpu_seconds())
        setups.append(timed_setup(make, tracer)[1])

    start = time.perf_counter()
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + spent(rounds[-1]) <= seconds:
        elapsed = time.perf_counter() - start
        while len(imports) < min(SETUP_SAMPLES, 1 + (SETUP_SAMPLES - 1) * elapsed / seconds):
            sample_setup()
        rounds.append(run_round(load, outcomes, load.call, tracer)[0])
    while len(imports) < SETUP_SAMPLES:
        sample_setup()
    # The median round: each op's median call time over the rounds.
    median_round = {op: statistics.median(t for t in op_times if t is not None)
                    for op, op_times in zip(load.ops, zip(*rounds))
                    if any(t is not None for t in op_times)}
    wall_s = sum(median_round.values())
    calls_ms = sorted(1e3 * t for op, t in median_round.items() if load.is_main(op))
    print(f"rounds: {len(rounds)}; main calls per round: {len(calls_ms)}")
    round_s = [spent(r) for r in rounds]
    print(f"round seconds: min {min(round_s):.3f} median {statistics.median(round_s):.3f} "
          f"max {max(round_s):.3f}; measured for {time.perf_counter() - start:.1f} s")
    print(f"set-up samples: {len(imports)}; import CPU s: "
          + " ".join(f"{t:.3f}" for t in imports)
          + "; build CPU s: " + " ".join(f"{t:.4f}" for t in setups))
    # Calls that raised have no time; if every call of an op raised, the
    # run is already failed and its times read 0.
    return {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "wall_s": wall_s,
        "call_ms_p50": percentile(calls_ms, 50) if calls_ms else 0.0,
        "call_ms_p90": percentile(calls_ms, 90) if calls_ms else 0.0,
        "work_per_s": outcomes.work / len(rounds) / wall_s if wall_s else 0.0,
    }


def traced_metrics(load, seconds, outcomes, tracer, setup_span) -> dict:
    """Alternate traced and untraced rounds after a reference and a counting round.

    The counting round is never timed: on sens-* it is the stage-by-stage
    replay of ``run_pipeline``, checked bit for bit against the reference.
    Pairs go on while the last pair still fits in ``seconds``; one always runs.
    """
    start = time.perf_counter()
    _, _, references = run_round(load, outcomes, load.call, tracer)
    counts = Counter()
    run_round(load, outcomes, lambda op: load.counted_call(op, counts), tracer, references)
    traced, untraced, windows = [], [], [setup_span]
    covered = 0.0
    labels = {}
    while not traced or time.perf_counter() - start + traced[-1] + untraced[-1] <= seconds:
        first = tracer.mark()
        with load.trace_scope(tracer):
            times, inside, _ = run_round(load, outcomes, lambda op: load.traced_call(op, tracer),
                                         tracer, references, labels)
        traced.append(spent(times))
        covered += inside
        windows.append((first, tracer.mark()))
        untraced.append(spent(run_round(load, outcomes, load.call, tracer)[0]))

    layers = {}
    for first, last in windows:
        for name, (own, calls, work) in tracer.self_times(first, last).items():
            entry = layers.setdefault(name, [0.0, 0, 0])
            entry[0] += own
            entry[1] += calls
            entry[2] += work
    metrics = {}
    for metric, (kind, source) in PER_LAYER.items():
        if kind == "ms":
            own, calls, _ = layers.get(source, (0.0, 0, 0))
            metrics[metric] = 1e3 * own / calls if calls else 0.0
        elif kind == "ns_per_item":
            own, _, work = layers.get(source, (0.0, 0, 0))
            metrics[metric] = 1e9 * own / work if work else 0.0
        elif kind in ("count", "max"):
            metrics[metric] = counts[source]
        else:
            num, den = (counts[s] for s in source)
            metrics[metric] = num / den if den else 0.0
    # Each traced round is paired with the untraced round that follows it.
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    # Share of traced call time inside the layer functions the entry point calls.
    metrics["trace.coverage"] = covered / sum(traced)
    print(f"traced rounds: {len(traced)}; untraced rounds: {len(untraced)}; "
          f"spans: {len(tracer.spans)}")
    print_breakdown(tracer, windows[1:], labels, load.group)
    return metrics


def print_breakdown(tracer, windows, labels, group) -> None:
    """Mean self ms per call of each layer, for each group of calls."""
    table = {}
    for first, last in windows:
        for (call, name), (own, calls, _) in tracer.self_times(first, last, True).items():
            if call in labels:
                entry = table.setdefault(group(labels[call]), {}).setdefault(name, [0.0, 0])
                entry[0] += own
                entry[1] += calls
    for key, layers in sorted(table.items()):
        means = sorted(((1e3 * own / calls, name) for name, (own, calls) in layers.items()),
                       reverse=True)
        print(f"self ms per call, {key}: " + ", ".join(f"{n} {m:.3f}" for m, n in means))


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def conditions(numpy, scipy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "xrmimo" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS threads must be pinned before numpy loads OpenBLAS.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import xrmimo
    from tracing import NullTracer, Tracer

    if not Path(xrmimo.__file__).resolve().is_relative_to(SRC):
        print(f"error: xrmimo was imported from {xrmimo.__file__}", file=sys.stderr)
        return 2

    # Skipped subcarriers are checked from the study output, not its log line.
    logging.getLogger("xrmimo").setLevel(logging.ERROR)
    print("conditions: " + json.dumps(conditions(numpy, scipy)))
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else NullTracer()
    outcomes = Outcomes()
    make = functools.partial(make_load, args.workload, args.seed, scratch)
    try:
        if args.trace:
            first = tracer.mark()
            for _ in range(SETUP_REPEATS):
                load, _ = timed_setup(make, tracer)
            metrics = traced_metrics(load, args.seconds, outcomes, tracer,
                                     (first, tracer.mark()))
            tracer.write(OUT / f"trace-{args.workload}.jsonl")
            units = {m: KIND_UNITS[kind] for m, (kind, _) in PER_LAYER.items()}
            units.update({"trace.overhead_ratio": "ratio", "trace.coverage": "ratio"})
        else:
            metrics = untraced_metrics(make, args.seconds, outcomes, tracer)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(f"fail_ratio {outcomes.failed}/{outcomes.attempted} "
          f"(base: {outcomes.attempted} run_pipeline or study calls)")
    for error in outcomes.errors:
        print(f"failure: {error}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

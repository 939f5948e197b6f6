"""One benchmark run: set-up timing, the timed closed loop, the gate, and
the result. ``run.py`` calls ``run`` after pinning BLAS threads, so this
module may import numpy and ia_lab at the top.
"""

from __future__ import annotations

import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibrate
import gate
import tracing
import workloads
from run import BLAS_ENV

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5


def machine_facts(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": vendor,
            "blas_threads": blas_threads_in_effect(),
            "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
            "seed": seed}


def blas_threads_in_effect():
    """Thread count the OpenBLAS bundled with numpy reports, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def measure_setup(src: Path, workload: str) -> list:
    """Wall time of fresh processes that import ia_lab and run one trial of
    the workload's first configuration, ``SETUP_REPEATS`` times, as
    (raw seconds, calibration seconds in that process)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, env=env, check=True, stdout=subprocess.PIPE,
                             text=True, timeout=120)
        wall = time.perf_counter() - t0
        probe = json.loads(out.stdout.splitlines()[-1])
        samples.append((wall - probe["calibration_total_s"], probe["calibration_s"]))
    return samples


@dataclass
class Round:
    ok: int
    attempted: int
    busy: float  # seconds spent inside ia_lab calls
    traced: bool
    errors: list  # tracebacks of units that raised
    units: list  # ((case index, key), successful trials, busy seconds)
    errored: int = 0  # trials in those units
    calib: float = 0.0  # calibration seconds around the round


def trials_per_s(rounds) -> float:
    """Successful trials per scaled second, each distinct input counted once.

    Each input's successes and scaled time are averaged over the times the
    run made it, then summed over inputs. Inputs differ in cost (a failing
    trial costs less than a passing one), and a run that ends part-way
    through a pass over its pool would otherwise weight some inputs twice.
    """
    per_input = {}
    for r in rounds:
        scale = calibrate.REFERENCE_S / r.calib
        for key, ok, busy in r.units:
            acc = per_input.setdefault(key, [0, 0.0, 0])
            acc[0] += ok
            acc[1] += busy * scale
            acc[2] += 1
    busy = sum(b / n for _, b, n in per_input.values())
    return sum(ok / n for ok, _, n in per_input.values()) / busy if busy else 0.0


def play_round(workload, units, obs, probe_path, tracer, ids) -> Round:
    """Run one round's units back to back; bookkeeping is not timed."""
    rnd = Round(0, 0, 0.0, tracer is not None, [], [])
    for index, key in units:
        if tracer is not None:
            unit = next(ids)
            tracer.begin_unit(unit, unit if index < 0 else -1)
        t0 = time.perf_counter()
        try:
            result = workloads.run_unit(workload, index, key, probe_path)
        except Exception:
            busy = time.perf_counter() - t0
            trials = 1 if index < 0 else workload.cases[index].trials
            result = workloads.UnitResult(attempted=trials, ok=0)
            rnd.errored += trials
            rnd.errors.append(traceback.format_exc())
        else:
            busy = time.perf_counter() - t0
            obs.add(index, key, result)
        rnd.busy += busy
        rnd.ok += result.ok
        rnd.attempted += result.attempted
        rnd.units.append(((index, key), result.ok, busy))
    return rnd


def measure(workload, seed, seconds, obs, probe_path, tracer):
    """Closed loop for ``seconds``: whole rounds, alternating untraced and
    traced rounds when ``tracer`` is given. The calibration loop runs
    between rounds, and each round gets the mean of the two around it."""
    schedule = workloads.rounds(workload, seed)
    ids = itertools.count()
    play_round(workload, next(schedule), obs, probe_path, None, ids)  # warm-up
    calibrate.seconds()  # warm-up
    done = []
    start = time.perf_counter()
    before = calibrate.seconds()
    for n in itertools.count():
        if time.perf_counter() - start >= seconds:
            break
        units = next(schedule)
        if tracer is not None and n % 2:
            with tracing.traced(tracer):
                rnd = play_round(workload, units, obs, probe_path, tracer, ids)
        else:
            rnd = play_round(workload, units, obs, probe_path, None, ids)
        after = calibrate.seconds()
        rnd.calib = (before + after) / 2
        before = after
        done.append(rnd)
    return done, start


def metric(value, unit):
    return {"value": value, "unit": unit}


def run(args, src: Path) -> int:
    """Run ``args.workload``; print the metrics and the JSON result line and
    return the exit code."""
    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    probe_path = OUT_DIR / f"probe-channels-{os.getpid()}.json"

    facts = machine_facts(args.seed)
    print("machine " + json.dumps(facts), flush=True)
    setup = [] if args.trace else measure_setup(src, workload.name)
    obs = gate.Observations(workload)
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds, origin = measure(workload, args.seed, args.seconds, obs,
                                 probe_path, tracer)
    finally:
        probe_path.unlink(missing_ok=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = gate.check(obs, gate.load_reference(REFERENCE))
    errors = [e for r in rounds for e in r.errors]
    attempted = sum(r.attempted for r in rounds)
    finished = sum(r.ok for r in rounds)
    failed = verdict.failed + sum(r.errored for r in rounds)
    correct = not verdict.problems and not errors and failed == 0

    info = {"rounds": len(rounds), "attempted": attempted, "finished": finished,
            "failed_fraction": 1.0 - finished / attempted,
            "raw_trials_per_s": finished / sum(r.busy for r in rounds),
            "calibration_s": statistics.median(r.calib for r in rounds),
            "round_log": [[r.ok, r.attempted, r.busy, r.calib, r.traced] for r in rounds],
            "newly_passing": verdict.newly_passing,
            "fingerprinted_seeds": verdict.fingerprints}
    if args.trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics = {name: metric(value, unit) for name, (value, unit) in
                   tracing.layer_metrics(tracer, sum(r.attempted for r in traced)).items()}
        fast, slow = trials_per_s(untraced), trials_per_s(traced)
        metrics["trace.untraced_trials_per_s"] = metric(fast, "1/s")
        metrics["trace.traced_trials_per_s"] = metric(slow, "1/s")
        metrics["trace.overhead_pct"] = metric(
            100.0 * (fast - slow) / fast if fast else 0.0, "%")
        metrics["trials.failed_fraction"] = metric(info["failed_fraction"], "1")
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl", origin)
    else:
        info["setup_samples"] = [{"raw_s": raw, "calibration_s": c} for raw, c in setup]
        info["raw_setup_s"] = statistics.median(raw for raw, _ in setup)
        metrics = {"trials_per_s": metric(trials_per_s(rounds), "1/s"),
                   "setup_s": metric(statistics.median(
                       raw * calibrate.REFERENCE_S / c for raw, c in setup), "s"),
                   "peak_rss_mb": metric(peak_rss_mb, "MB")}
        print(f"failed_fraction = {info['failed_fraction']:.6g} 1 "
              f"({attempted - finished} of {attempted} trials did not finish)")
        print(f"unscaled: trials_per_s = {info['raw_trials_per_s']:.6g} 1/s, "
              f"setup_s = {info['raw_setup_s']:.6g} s, calibration loop "
              f"{info['calibration_s'] * 1e3:.4g} ms")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in verdict.problems + errors:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"gate: {'pass' if correct else 'FAIL'}; {verdict.fingerprints} channel "
          f"fingerprints, {len(verdict.problems)} problems, {len(errors)} errors")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT_DIR / f"result-{workload.name}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "why": workload.why,
                   "machine": facts, "info": info, "problems": verdict.problems,
                   "errors": errors, "result": result}, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1

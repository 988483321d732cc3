"""uwbloc benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sweep,locate,design,detect} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics: set-up time in fresh
processes, then units of the workload for ``S`` seconds, then the fixed
reference sweep (and, for ``design``, the reference design) that the
accuracy metrics come from; times are rescaled by the machine's speed (see
``clock.py``). ``--trace 1`` runs a fixed number of units sized from ``S``,
even ones with every layer boundary traced and odd ones untraced, and
prints the per-layer metrics and the tracing overhead. Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON report with the machine facts,
output digests, computed counts and every check that failed. A failed
check makes the exit code 1. The program is built from ``src/`` of the
checkout; without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from clock import Clock
from tracer import SPAN_NAMES, SpanStats, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
# Every workload's accuracy metrics come from this fixed sweep, run after the
# timed phase: accuracy on seed-drawn inputs is heavy-tailed (one trial in a
# few hundred is off by ~10 cm) and would swing by half between seeds.
REFERENCE_SEED = 1312
REFERENCE_TRIALS = 4

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from uwbloc import simulate; simulate.load_default_pulse_set(); "
    "print('ready', flush=True)"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_ok_frac": "ratio",
    "pos_err_mean_cm": "cm",
    "toa_rmse_ps": "ps",
    "design_objective": "1",
    "peak_rss_mb": "MB",
}

FAILURE_TYPES = ("DegenerateGeometryError", "NoRealSolutionError", "NoValidFixError", "ValueError")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.ms_p50": "ms",
                      f"{name}.ms_p95": "ms", f"{name}.self_s": "s"})
    units.update({
        "channel.propagate.fft_bins": "bins",
        "channel.propagate.tap_bins": "bins",
        "channel.sample_cir.taps_mean": "taps",
        "waveform.add_awgn.samples_mean": "samples",
        "ranging.toa_dirty_template.samples_mean": "samples",
        "positioning.candidates_mean": "count",
        **{f"positioning.failures.{t}": "count" for t in FAILURE_TYPES},
        "pulses.fitness.fft_bytes": "bytes",
        "bench.self_s": "s",
        "trace.wall_s": "s",
        "trace.self_sum_s": "s",
        "trace.ops": "count",
        "trace.ops_per_s_traced": "op/s",
        "trace.ops_per_s_untraced": "op/s",
        "trace.overhead_frac": "ratio",
    })
    return units


# -- machine and run facts -----------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_facts() -> dict:
    facts: dict = {"threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"))
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = int(fn())
                return facts
    return facts


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "uwbloc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_facts(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


# -- measurements --------------------------------------------------------

def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until it has imported uwbloc
    and loaded and verified the default pulse set: (raw, rescaled) per probe.

    Start-up is interpreter work, so it is rescaled with the ``trial``
    kernel, sampled just before and after each probe.
    """
    clock = Clock("trial")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        clock.sample(force=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        clock.sample(force=True)
        raw.append(t1 - t0)
        scaled.append(clock.scaled(t0, t1))
    return raw, scaled


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct)) if values else 0.0


def run_for(workload, seconds: float, clock) -> list:
    """Run units 0, 1, 2, ... until ``seconds`` of unit time have passed (at least one)."""
    steps = []
    spent = 0.0
    i = 0
    while spent < seconds:
        clock.sample()
        st = _guarded_step(workload, i)
        steps.append(st)
        spent += st.end - st.start - clock.paused(st.start, st.end)
        i += 1
    clock.sample(force=True)
    return steps


def _guarded_step(workload, i: int):
    from workloads import Step

    start = time.perf_counter()
    try:
        st = workload.step(i)
    except Exception as exc:  # one unit's crash is a counted failure, not the end of the run
        st = Step(ops=workload.unit_ops)
        st.fail(type(exc).__name__, workload.unit_ops)
        st.check_failures.append(f"unit {i} raised {type(exc).__name__}: {exc}")
    st.start, st.end = start, time.perf_counter()
    return st


def check_steps(workload, steps) -> tuple[list[str], dict]:
    for st in steps:
        if st.payload is not None:
            workload.check(st)
        st.failed = min(st.failed, st.ops)
    bad, facts = workload.summary(steps)
    bad = [msg for st in steps for msg in st.check_failures] + bad
    return bad, facts


def count_by_type(steps, attr: str = "failure_types") -> dict[str, int]:
    out: dict[str, int] = {}
    for st in steps:
        for k, v in getattr(st, attr).items():
            out[k] = out.get(k, 0) + v
    return out


def digests(steps) -> dict:
    return {
        "units": len(steps),
        "first": steps[0].digest if steps else "",
        "all": hashlib.sha256("".join(st.digest for st in steps).encode()).hexdigest(),
    }


def reference_accuracy(pulse_set) -> tuple[float, float, list[str]]:
    """Mean position error (cm) and ToA RMSE (ps) of the fixed reference sweep."""
    from uwbloc import simulate
    from workloads import mean_error_checks, trial_range_checks

    cfg = simulate.SimConfig(trials=REFERENCE_TRIALS, master_seed=REFERENCE_SEED)
    result = simulate.sweep_snr(cfg, pulse_set)
    trials = [t for snr in sorted(result.trials) for t in result.trials[snr]]
    errs = [t.position_error_m for t in trials if t.position_error_m is not None]
    toa = [e for t in trials for e in t.toa_err_s]
    by_snr = {snr: [t.position_error_m for t in ts if t.position_error_m is not None]
              for snr, ts in result.trials.items()}
    bad = trial_range_checks(trials, "reference") + mean_error_checks(by_snr, "reference")
    pos_cm = float(np.mean(errs)) * 100 if errs else float("nan")
    return pos_cm, float(np.sqrt(np.mean(np.square(toa)))) * 1e12, bad


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def latencies_ms(steps, per: int, duration) -> list[float]:
    return [duration(a, b) * 1e3 / per for st in steps for a, b in st.intervals]


def tail_facts(lat: list[float], pct: float) -> dict:
    tail = percentile(lat, pct)
    return {"percentile": pct, "samples": len(lat),
            "samples_beyond": sum(1 for x in lat if x > tail)}


# -- the two kinds of run ------------------------------------------------

def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    from uwbloc import pulses, simulate, spectrum
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    setup_raw, setup = measure_setup()
    clock = Clock(cls.clock_kernel)
    ps = simulate.load_default_pulse_set()
    # the objective needs the mask check, which the default loader skips
    ps_checked = pulses.load_pulse_set(pulses.pulse_set_to_json(ps), mask=spectrum.fcc_like_mask())

    tracer = Tracer(cls.clock_spans)
    for span in cls.clock_spans:  # sample the machine speed inside long units too
        tracer.observe(span, lambda *_: clock.sample())
    workload = cls(seed, OUT / f"{name}-seed{seed}", tracer, ps_checked)
    with tracer:
        steps = run_for(workload, seconds, clock)
    bad, wl_facts = check_steps(workload, steps)
    pos_cm, toa_ps, ref_bad = reference_accuracy(ps)
    objective, obj_bad = workload.reference_objective()
    bad += ref_bad + obj_bad

    attempted = sum(st.ops for st in steps)
    failed = sum(st.failed for st in steps)
    wall = sum(clock.scaled(st.start, st.end) for st in steps)
    raw_wall = sum(st.end - st.start - clock.paused(st.start, st.end) for st in steps)
    lat = latencies_ms(steps, cls.latency_ops, clock.scaled)
    raw_lat = latencies_ms(steps, cls.latency_ops, lambda a, b: b - a)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": attempted / wall,
        "op_ms_p50": percentile(lat, 50.0),
        "op_ms_tail": percentile(lat, cls.tail_pct),
        "ops_ok_frac": 1.0 - failed / attempted,
        "pos_err_mean_cm": pos_cm,
        "toa_rmse_ps": toa_ps,
        "design_objective": objective,
        "peak_rss_mb": peak_rss_mb(),
    }
    for key, value in values.items():
        if not math.isfinite(value):
            bad.append(f"{key} is not finite")
            values[key] = 0.0
    kernel = clock.kernel_s
    report = {
        "time_scaling": {
            "kernel": clock.kind,
            "kernel_ref_s": clock.ref_s,
            "kernel_samples": len(kernel),
            "kernel_s_median": statistics.median(kernel),
            "kernel_s_min": min(kernel),
            "kernel_s_max": max(kernel),
        },
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "setup_samples_s": setup_raw,
            "unit_wall_s": raw_wall,
            "ops_per_s": attempted / raw_wall,
            "op_ms_p50": percentile(raw_lat, 50.0),
            "op_ms_tail": percentile(raw_lat, cls.tail_pct),
        },
        "op_latency_tail": tail_facts(lat, cls.tail_pct),
        "failures_by_type": count_by_type(steps),
        "no_fix_by_type": count_by_type(steps, "no_fix"),
        "digests": digests(steps),
        "workload_facts": wl_facts,
        "reference_sweep": {"master_seed": REFERENCE_SEED, "trials": REFERENCE_TRIALS},
    }
    return values, report, attempted, failed, bad


def traced(name: str, seed: int, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    from uwbloc import simulate
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    units = max(1, math.ceil(seconds * cls.nominal_ops_per_s / 2 / cls.unit_ops))
    # Even units run traced and odd units untraced, interleaved, so both halves
    # see the same machine load and the same state of the program's caches.
    tracer = Tracer()
    counts = install_counters(tracer)
    plain_tracer = Tracer(cls.clock_spans)
    with tracer, tracer.root("bench"):
        ps = simulate.load_default_pulse_set()
    workload = cls(seed, OUT / f"{name}-seed{seed}-traced", tracer, ps)
    plain = cls(seed, OUT / f"{name}-seed{seed}-plain", plain_tracer, ps)
    steps, plain_steps = [], []
    traced_wall = plain_wall = 0.0
    for j in range(units):
        with tracer, tracer.root("bench") as root:
            steps.append(_guarded_step(workload, 2 * j))
        traced_wall += root.duration
        with plain_tracer:
            t0 = time.perf_counter()
            plain_steps.append(_guarded_step(plain, 2 * j + 1))
            plain_wall += time.perf_counter() - t0
    wall = sum(tracer.stats["bench"].durations)

    bad, wl_facts = check_steps(workload, steps + plain_steps)
    self_sum = sum(st.self_s for st in tracer.stats.values())
    if abs(self_sum - wall) > 1e-6 + 1e-9 * wall:
        bad.append(f"span self times sum to {self_sum} s, not the traced wall {wall} s")

    attempted = sum(st.ops for st in steps)
    failed = sum(st.failed for st in steps)
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        st = tracer.stats.get(span, SpanStats())
        ms = [d * 1e3 for d in st.durations]
        values[f"{span}.calls"] = len(st.durations)
        values[f"{span}.ms_p50"] = percentile(ms, 50.0)
        values[f"{span}.ms_p95"] = percentile(ms, 95.0)
        values[f"{span}.self_s"] = st.self_s
    values.update(counts.metrics())
    traced_ops = attempted
    attempted += sum(st.ops for st in plain_steps)
    failed += sum(st.failed for st in plain_steps)
    ops_plain = sum(st.ops for st in plain_steps) / plain_wall
    values.update({
        "bench.self_s": tracer.stats["bench"].self_s,
        "trace.wall_s": wall,
        "trace.self_sum_s": self_sum,
        "trace.ops": traced_ops,
        "trace.ops_per_s_traced": traced_ops / traced_wall,
        "trace.ops_per_s_untraced": ops_plain,
        "trace.overhead_frac": ops_plain / (traced_ops / traced_wall) - 1.0,
    })

    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(spans_path, "w") as fh:
        for rec in tracer.records:
            fh.write(json.dumps(rec) + "\n")
    report = {
        "units_traced": units,
        "units_untraced": units,
        "failures_by_type": count_by_type(steps + plain_steps),
        "no_fix_by_type": count_by_type(steps + plain_steps, "no_fix"),
        "digests": digests(steps),
        "computed_counts": {k: v for k, v in values.items()
                            if k.endswith(".calls") or k in counts.names},
        "waiting": "none: one thread, no queues or pools, so no span ever waits",
        "spans_file": str(spans_path.relative_to(ROOT)),
        "workload_facts": wl_facts,
    }
    return values, report, attempted, failed, bad


class Counters:
    """Work counts computed from the inputs and outputs of traced calls."""

    names = (
        "channel.propagate.fft_bins", "channel.propagate.tap_bins",
        "channel.sample_cir.taps_mean", "waveform.add_awgn.samples_mean",
        "ranging.toa_dirty_template.samples_mean", "positioning.candidates_mean",
        *(f"positioning.failures.{t}" for t in FAILURE_TYPES),
        "pulses.fitness.fft_bytes",
    )

    def __init__(self):
        self.totals = {n: 0 for n in self.names}
        self.samples: dict[str, list[int]] = {}

    def add(self, name: str, value: int) -> None:
        self.totals[name] += value

    def sample(self, name: str, value: int) -> None:
        self.samples.setdefault(name, []).append(value)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.totals)
        for name in self.names:
            if name.endswith("_mean"):
                vals = self.samples.get(name, [])
                out[name] = sum(vals) / len(vals) if vals else 0.0
        return out


def install_counters(tracer) -> Counters:
    from workloads import failure_type

    c = Counters()

    def on_propagate(args, kwargs, out):
        cir = args[2] if len(args) > 2 else kwargs["cir"]
        bins = out.samples.size // 2 + 1
        c.add("channel.propagate.fft_bins", bins)
        c.add("channel.propagate.tap_bins", bins * len(cir.taps))

    def on_fitness(args, kwargs, out):
        ev, pop = args[0], args[1]
        nfft = ev.cfg.nfft
        rows = pop.shape[0] * pop.shape[1]
        c.add("pulses.fitness.fft_bytes", rows * (nfft * 8 + (nfft // 2 + 1) * 16))

    def on_trial(args, kwargs, out):
        if out.failure is not None:
            kind = failure_type(out.failure)
            if kind in FAILURE_TYPES:
                c.add(f"positioning.failures.{kind}", 1)

    tracer.observe("channel.propagate", on_propagate)
    tracer.observe("channel.sample_cir",
                   lambda a, k, out: c.sample("channel.sample_cir.taps_mean", len(out.taps)))
    tracer.observe("waveform.add_awgn",
                   lambda a, k, out: c.sample("waveform.add_awgn.samples_mean", a[0].samples.size))
    tracer.observe("ranging.toa_dirty_template",
                   lambda a, k, out: c.sample("ranging.toa_dirty_template.samples_mean",
                                              a[0].samples.size))
    tracer.observe("positioning.bancroft_solve",
                   lambda a, k, out: c.sample("positioning.candidates_mean", len(out)))
    tracer.observe("pulses._Evaluator.fitness", on_fitness)
    tracer.observe("simulate.run_trial", on_trial)
    return c


# -- entry point ---------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "locate", "design", "detect"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "uwbloc" / "__init__.py").is_file():
        print(f"uwbloc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import uwbloc

    if Path(uwbloc.__file__).resolve().parent != (SRC / "uwbloc").resolve():
        print(f"imported uwbloc from {uwbloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    facts = machine_facts()
    run = traced if args.trace else end_to_end
    values, report, attempted, failed, bad = run(args.workload, args.seed, args.seconds)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        **report, "check_failures": bad,
    }
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())

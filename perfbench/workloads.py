"""The four benchmark workloads: sweep, locate, design and detect.

Each workload turns the run seed into a stream of units of work and runs
unit ``i`` on demand through ``step(i)``. A unit holds one or more
operations: a sweep block of ``SWEEP_TRIALS`` scenarios x 7 SNR points
(one operation per trial), one locate trial, one design of
``DESIGN_GENERATIONS`` generations (one operation per generation), or one
detect pair. ``step`` only runs and records; ``check`` verifies a unit's
outputs after the timed phase, and ``summary`` makes the checks that need
every unit.

Layer functions are always called through their module attribute
(``channel.apply_signature``, never a name imported into this file), so a
:class:`tracer.Tracer` installed around the run sees the call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from uwbloc import channel, cli, detection, pulses, simulate, spectrum, waveform

from tracer import Tracer

SWEEP_TRIALS = 2  # scenarios per sweep block; each is reused at all 7 SNR points
LOCATE_SNR_DB = 30.0
DETECT_SNR_DB = 30.0
DESIGN_GENERATIONS = 50  # feasible for every seed tried, about 4.5 s per design
REFERENCE_DESIGN_SEED = 20260808  # the seed the packaged default pulse set came from

# Acceptance bounds on mean position error, as the README states them.
MEAN_ERROR_BOUND_M = 0.07  # every SNR >= 10 dB
MEAN_ERROR_BOUND_HIGH_SNR_M = 0.025  # every SNR >= 30 dB
RANGE_TOA_TOLERANCE_M = 1e-12

DETECT_EXPECTED = {
    "free_space": "free_space",
    "wood_door": "artificial_only",
    "brick_wall": "artificial_only",
    "human": "human_present",
    "human_behind_door": "human_present",
    "human_behind_wall": "human_present",
}


def derive_seed(seed: int, index: int) -> int:
    """Seed of unit ``index`` of a run: a pure function of (run seed, index)."""
    ss = np.random.SeedSequence(entropy=(seed, index))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Step:
    """What one unit of work did; filled by ``step``, completed by ``check``."""

    ops: int
    failed: int = 0
    start: float = 0.0
    end: float = 0.0
    # (start, end) perf_counter times of each latency sample
    intervals: list[tuple[float, float]] = field(default_factory=list)
    failure_types: dict[str, int] = field(default_factory=dict)
    # trials the solver left without a fix, by error type: a recorded outcome
    # of the simulation (sweep.csv's fix_failure_rate), not a failed operation
    no_fix: dict[str, int] = field(default_factory=dict)
    check_failures: list[str] = field(default_factory=list)
    digest: str = ""
    payload: object = None

    def fail(self, kind: str, ops: int = 1) -> None:
        self.failed += ops
        self.failure_types[kind] = self.failure_types.get(kind, 0) + ops

    def record_no_fix(self, trial) -> None:
        if trial.failure is not None:
            kind = failure_type(trial.failure)
            self.no_fix[kind] = self.no_fix.get(kind, 0) + 1


def trial_range_checks(trials, label: str) -> list[str]:
    """range = c * ToA for every anchor of every trial (acceptance criterion 7)."""
    c = channel.SPEED_OF_LIGHT
    bad = []
    for t in trials:
        worst = max(
            max(abs(r - c * toa) for r, toa in zip(t.range_m, t.toa_s)),
            max(abs(re - c * te) for re, te in zip(t.range_err_m, t.toa_err_s)),
        )
        if not worst < RANGE_TOA_TOLERANCE_M:
            bad.append(f"{label} trial {t.trial_id} at {t.snr_db} dB: "
                       f"|range - c*toa| = {worst:.3e} m")
    return bad


def mean_error_checks(errors_by_snr: dict[float, list[float]], label: str) -> list[str]:
    bad = []
    for snr, errs in sorted(errors_by_snr.items()):
        if not errs:
            bad.append(f"{label}: no fix at {snr} dB")
            continue
        mean = float(np.mean(errs))
        bound = MEAN_ERROR_BOUND_HIGH_SNR_M if snr >= 30.0 else MEAN_ERROR_BOUND_M
        if snr >= 10.0 and not mean <= bound:
            bad.append(f"{label}: mean position error {mean * 100:.3f} cm at {snr} dB "
                       f"exceeds {bound * 100:.1f} cm")
    return bad


def failure_type(failure: str) -> str:
    """Exception type name recorded by run_trial in ``TrialResult.failure``."""
    return failure.split(":", 1)[0]


class Workload:
    name = ""
    unit_ops = 1
    latency_ops = 1  # operations one latency interval covers
    nominal_ops_per_s = 1.0  # sizes the fixed unit count of a traced run
    tail_pct = 90.0
    clock_spans: tuple[str, ...] = ()  # spans an untraced run still needs
    clock_kernel = "trial"  # the machine-speed kernel like this workload's hot loop

    def __init__(self, seed: int, out_dir: Path, tracer: Tracer, pulse_set):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.pulse_set = pulse_set

    def step(self, i: int) -> Step:
        raise NotImplementedError

    def check(self, step: Step) -> None:
        """Verify one unit's outputs; a failed check fails the unit's operations."""

    def summary(self, steps: list[Step]) -> tuple[list[str], dict]:
        """Checks over every unit, and facts for the report."""
        return [], {}

    def reference_objective(self) -> tuple[float, list[str]]:
        """Objective of the pulse set the workload's accuracy rests on."""
        return float(self.pulse_set.objective), []


class Sweep(Workload):
    """``uwbloc sweep`` through ``cli.main``: the figure-producing path."""

    name = "sweep"
    unit_ops = SWEEP_TRIALS * len(simulate.SimConfig().snr_grid_db)
    nominal_ops_per_s = 12.0
    clock_spans = ("simulate.run_trial", "simulate.sweep_snr")

    def __init__(self, *args):
        super().__init__(*args)
        self._results: list = []
        self.tracer.observe("simulate.sweep_snr", lambda a, k, r: self._results.append(r))

    def step(self, i: int) -> Step:
        out = self.out_dir / "sweep"
        before = len(self.tracer.records)
        del self._results[:]
        argv = ["sweep", "--seed", str(derive_seed(self.seed, i)),
                "--trials", str(SWEEP_TRIALS), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        st = Step(ops=self.unit_ops)
        st.intervals = [(r[3], r[4]) for r in self.tracer.records[before:]
                        if r[2] == "simulate.run_trial"]
        if code != 0 or len(self._results) != 1:
            st.fail(f"exit_{code}", self.unit_ops)
            return st
        result = self._results[0]
        trials = [t for snr in sorted(result.trials) for t in result.trials[snr]]
        for t in trials:
            st.record_no_fix(t)
        files = b"".join((out / n).read_bytes() for n in ("sweep.csv", "fixes.csv"))
        st.digest = sha256_bytes(files)
        st.payload = trials
        return st

    def check(self, step: Step) -> None:
        if step.payload is None:
            return
        bad = trial_range_checks(step.payload, "sweep")
        step.check_failures += bad
        if bad:
            step.fail("check", len(bad))

    def summary(self, steps):
        by_snr: dict[float, list[float]] = {}
        for st in steps:
            for t in st.payload or ():
                by_snr.setdefault(t.snr_db, [])
                if t.position_error_m is not None:
                    by_snr[t.snr_db].append(t.position_error_m)
        facts = {"mean_position_error_cm_by_snr": {
            str(s): (float(np.mean(e)) * 100 if e else None) for s, e in sorted(by_snr.items())}}
        return mean_error_checks(by_snr, "sweep"), facts


class Locate(Workload):
    """Independent trials at 30 dB, each a fresh scenario, as ``uwbloc locate`` runs them."""

    name = "locate"
    nominal_ops_per_s = 10.0

    def __init__(self, *args):
        super().__init__(*args)
        self.cfg = simulate.SimConfig()

    def step(self, i: int) -> Step:
        seed = derive_seed(self.seed, i)
        t0 = time.perf_counter()
        res = simulate.run_trial(self.cfg, LOCATE_SNR_DB, seed)
        st = Step(ops=1, intervals=[(t0, time.perf_counter())], payload=res)
        st.record_no_fix(res)
        st.digest = sha256_bytes(json.dumps(
            [res.truth, res.toa_s, res.range_m, res.position_error_m]).encode())
        return st

    def check(self, step: Step) -> None:
        bad = trial_range_checks([step.payload], "locate")
        step.check_failures += bad
        if bad:
            step.fail("check")

    def summary(self, steps):
        errs = [st.payload.position_error_m for st in steps
                if st.payload.position_error_m is not None]
        facts = {"mean_position_error_cm": float(np.mean(errs)) * 100 if errs else None}
        return mean_error_checks({LOCATE_SNR_DB: errs}, "locate"), facts


class Design(Workload):
    """``design_pulses`` at the default population with a reduced generation budget."""

    name = "design"
    unit_ops = DESIGN_GENERATIONS
    nominal_ops_per_s = 11.0
    clock_spans = ("pulses._Evaluator.fitness",)
    clock_kernel = "spectra"

    def step(self, i: int) -> Step:
        cfg = pulses.DesignConfig(generations=DESIGN_GENERATIONS, seed=derive_seed(self.seed, i))
        before = len(self.tracer.records)
        st = Step(ops=self.unit_ops)
        try:
            ps = pulses.design_pulses(cfg)
        except pulses.InfeasibleDesignError:
            st.fail("InfeasibleDesignError", self.unit_ops)
            ps = None
        # one generation = from the end of one fitness evaluation to the end of the next
        ends = [r[4] for r in self.tracer.records[before:] if r[2] == "pulses._Evaluator.fitness"]
        st.intervals = list(zip(ends, ends[1:]))
        if ps is not None:
            st.digest = sha256_bytes(json.dumps(pulses.pulse_set_to_json(ps)).encode())
        st.payload = (cfg, ps)
        return st

    def check(self, step: Step) -> None:
        cfg, ps = step.payload
        if ps is None:
            return
        bad = self._design_checks(cfg, ps)
        step.check_failures += bad
        if bad:
            step.fail("check", self.unit_ops)

    @staticmethod
    def _design_checks(cfg, ps) -> list[str]:
        worst = max(spectrum.mask_violation(*spectrum.psd(p, cfg.nfft), cfg.mask)
                    for p in ps.pulses)
        gram = pulses.orthogonality_matrix(ps)
        off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
        rowsum = float(np.max(np.abs(ps.coeffs.sum(axis=1))))
        bad = []
        if not worst <= cfg.tol_mask_db:
            bad.append(f"design seed {cfg.seed}: mask exceedance {worst:.3f} dB")
        if not off <= cfg.tol_orthogonality:
            bad.append(f"design seed {cfg.seed}: Gram off-diagonal {off:.3g}")
        if not rowsum < 1e-9:
            bad.append(f"design seed {cfg.seed}: coefficient row sum {rowsum:.3g}")
        if not np.all(ps.effectiveness > 0.0):
            bad.append(f"design seed {cfg.seed}: a pulse has zero effectiveness")
        return bad

    def summary(self, steps):
        objs = [st.payload[1].objective for st in steps if st.payload and st.payload[1]]
        return [], {"objectives": objs}

    def reference_objective(self):
        """Objective of one design from a fixed seed: a pure function of the code."""
        cfg = pulses.DesignConfig(generations=DESIGN_GENERATIONS, seed=REFERENCE_DESIGN_SEED)
        try:
            ps = pulses.design_pulses(cfg)
        except pulses.InfeasibleDesignError as exc:
            return float("nan"), [f"reference design infeasible: {exc}"]
        return float(ps.objective), self._design_checks(cfg, ps)


class Detect(Workload):
    """tx/rx pairs over the six material kinds at 30 dB, each verdict checked.

    A unit is one round of six pairs, one per kind. Its latency is the
    round's time divided by six: a single pair's latency is bimodal (the
    human kinds pad the FFT about ten-fold), and the median of an even mix
    would sit in the gap between the two modes.
    """

    name = "detect"
    unit_ops = len(channel.MATERIAL_KINDS)
    latency_ops = unit_ops
    nominal_ops_per_s = 200.0
    tail_pct = 95.0
    clock_kernel = "spectra"

    def step(self, i: int) -> Step:
        pairs = []
        t0 = time.perf_counter()
        for k, kind in enumerate(channel.MATERIAL_KINDS):
            seed = derive_seed(self.seed, i * self.unit_ops + k)
            tx = self.pulse_set.pulses[seed % self.pulse_set.pulse_count]
            sig = channel.material_response(kind)
            rx = channel.apply_signature(tx, sig)
            rx = waveform.add_awgn(rx, DETECT_SNR_DB, seed)
            pairs.append((kind, detection.classify(detection.estimate_transfer(tx, rx))))
        st = Step(ops=self.unit_ops, payload=pairs, intervals=[(t0, time.perf_counter())])
        st.digest = sha256_bytes(json.dumps(
            [(kind, v.label, v.mean_attenuation_db, v.phase_nonlinearity) for kind, v in pairs]
        ).encode())
        return st

    def check(self, step: Step) -> None:
        for kind, verdict in step.payload:
            if verdict.label != DETECT_EXPECTED[kind]:
                step.check_failures.append(f"detect {kind}: labelled {verdict.label}")
                step.fail("wrong_label")


WORKLOADS = {w.name: w for w in (Sweep, Locate, Design, Detect)}


"""Monte-Carlo positioning sweeps over SNR and their CSV emission.

A trial has two halves. The scenario (``build_scenario``) is the target
position and, per anchor, the channel realization and the noiseless
received burst, cut to the samples the ToA estimator reads, with the mean
power of the whole record; it does not depend on SNR. The channel is linear
and time-invariant, so each anchor's pulse is propagated once and
``make_burst`` overlap-adds the received pulse into the received burst, on
a record as long as ``propagate`` returns for the whole burst.
The measurement (``run_trial``) adds noise to that burst, at an SNR against
the whole record's power, estimates every ToA and solves for position.
A trial that builds its own scenario (``uwbloc locate``) at a finite SNR
starts one helper thread drawing its noise records, then builds the
scenario: numpy runs the Gaussian draw, a measurement's largest cost,
without the GIL, but after the first record the helper mostly waits for the
GIL until the trial joins it. A sweep's trials are given their scenario and
draw inline, since its cell runner already puts a worker on every core. The
helper draws the same records from the same seeds, so no output depends on
which thread drew them.
Anchor i sends pulse i mod the set's pulse count, and each anchor's burst
arrives on its own record: anchors are separated in time, so no record
holds two bursts and the pulses' orthogonality is not what separates them.

A sweep's cell is one trial index: ``sweep_snr`` hands the trial indices,
and a ``measure`` that builds a trial's scenario once and measures it at
every SNR point, to the cell runner ``_run_cells``. It deals the cells
round-robin among one worker per usable core (this process and forked ones)
and merges the results in cell order; ``sweep_snr`` only aggregates them.

Reproducibility: every seed derives in ``_stream`` from ``SeedSequence``
entropy (PCG64 streams): the noise of trial t at SNR index s from
``(master_seed, s, t)`` and its scenario (target and channels) from
``(master_seed, t)``, so every SNR point reuses the same scenarios and the
error-vs-SNR curves are paired comparisons. Neither the loop order nor the
worker count enters the seeds, and each SNR row aggregates its trials in
trial order, so sweeps at one master seed write byte-identical CSV files.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import traceback
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, get_type_hints

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    ChannelProfile,
    _record_length,
    propagate,
    sample_cir,
)
from .positioning import (
    Anchor,
    PositionFix,
    RoomBounds,
    bancroft_solve,
    position_error,
    select_solution,
)
from .pulses import PulseSet, load_pulse_set
from .ranging import (
    calibration_samples,
    make_burst,
    range_from_toa,
    read_window,
    toa_dirty_template,
)
from .spectrum import SpectralMask
from .waveform import (
    Waveform,
    _add_noise,
    _unit_noise,
    add_awgn,
    json_number,
    read_csv,
    write_csv,
)

__all__ = [
    "ConfigError",
    "SimConfig",
    "TrialResult",
    "SweepRow",
    "SweepResult",
    "Scenario",
    "default_anchors",
    "trial_seed",
    "build_scenario",
    "run_trial",
    "sweep_snr",
    "emit_csv",
    "config_from_json",
    "config_to_json",
    "read_input",
    "load_default_pulse_set",
]


class ConfigError(ValueError):
    """A configuration file or value is invalid."""


# Longest received record, in samples, that a config may ask for: the ToA
# estimator's read window, one sample short of (symbol_count + 1) symbols of
# symbol_duration / dt samples each. The default config's is 20,999 samples,
# 1/800 of this; a longer one is a typo (ns written as seconds), not a simulation.
MAX_RECORD_SAMPLES = 2**24
# Largest |SNR|, in dB, of a finite snr point. One float64 rounding step is
# 2.2e-16 of a value, 313 dB in power: past +300 dB the noise is below a
# rounding step of the signal, and past -300 dB the signal is below one of the
# noise, so neither runs a different trial. The noise scale 10^(SNR / 10) also
# leaves the float range near +-3,080 dB.
MAX_SNR_DB = 300.0


def default_anchors() -> tuple[Anchor, ...]:
    """Four reference nodes in the upper corners of the 6 x 6 x 3 m room."""
    return (
        Anchor("a0", (0.0, 0.0, 3.0)),
        Anchor("a1", (6.0, 0.0, 3.0)),
        Anchor("a2", (0.0, 6.0, 3.0)),
        Anchor("a3", (6.0, 6.0, 3.0)),
    )


@dataclass(frozen=True)
class SimConfig:
    room: RoomBounds = field(default_factory=lambda: RoomBounds((0.0, 0.0, 0.0), (6.0, 6.0, 3.0)))
    anchors: tuple[Anchor, ...] = field(default_factory=default_anchors)
    pulse_set: str | None = None  # path to a pulse-set JSON; None = packaged default
    channel: ChannelProfile = field(default_factory=ChannelProfile)
    symbol_duration: float = 50e-9
    symbol_count: int = 20
    snr_grid_db: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    trials: int = 100
    master_seed: int = 12345
    placement_inset: float = 0.1

    def __post_init__(self) -> None:
        if not 1 <= self.trials <= sys.maxsize:  # _run_cells takes the trial range's len()
            raise ConfigError(f"trials must be >= 1 and <= {sys.maxsize}, got {self.trials}")
        if self.master_seed < 0:  # numpy seeds are non-negative
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        if not self.snr_grid_db:
            raise ConfigError("snr grid must be non-empty")
        if len(set(self.snr_grid_db)) != len(self.snr_grid_db):
            # a sweep keys its trials by SNR point, so a repeat would overwrite one
            raise ConfigError(f"snr grid repeats a point: {list(self.snr_grid_db)}")
        if any(math.isnan(snr) or snr == -math.inf for snr in self.snr_grid_db):
            # +inf stays valid: it runs a noiseless trial
            raise ConfigError(f"snr points must be numbers or +inf: {list(self.snr_grid_db)}")
        if any(abs(snr) > MAX_SNR_DB for snr in self.snr_grid_db if snr != math.inf):
            raise ConfigError(f"snr_grid_db points must be within +-{MAX_SNR_DB:g} dB or +inf, "
                              f"got {list(self.snr_grid_db)}")
        if len(self.anchors) < 4:
            raise ConfigError("need at least 4 anchors")
        ids = [a.id for a in self.anchors]
        for anchor_id in ids:
            if ids.count(anchor_id) > 1:  # ToAs and ranges are reported by anchor id
                raise ConfigError(f"anchors repeat the id {anchor_id!r}")
        if self.symbol_count < 2:
            raise ConfigError("symbol_count must be >= 2")
        for name in ("symbol_duration", "placement_inset"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.symbol_duration > 0 and self.placement_inset >= 0):
            raise ConfigError("symbol_duration must be positive and placement_inset non-negative")
        # build_scenario draws x and y between the insets; z is the floor
        if not all(lo + self.placement_inset <= hi - self.placement_inset
                   for lo, hi in zip(self.room.minimum[:2], self.room.maximum[:2])):
            raise ConfigError(f"placement_inset {self.placement_inset} leaves no placement box")
        # ToA is read modulo one symbol, so a longer range would alias to a short one
        ambiguity_m = SPEED_OF_LIGHT * self.symbol_duration
        corners = itertools.product(*zip(self.room.minimum, self.room.maximum))
        reach_m = max(math.dist(a.position, c) for c in corners for a in self.anchors)
        if reach_m >= ambiguity_m:
            raise ConfigError(
                f"an anchor is {reach_m:.2f} m from a room corner, at or beyond the "
                f"{ambiguity_m:.2f} m range ambiguity c*symbol_duration")


@dataclass(frozen=True, slots=True)
class TrialResult:
    """One trial's measurement; ``uwbloc locate`` prints it (``config_to_json``).

    ``snr_db`` is in dB; ``truth``, ``range_m``, ``range_err_m``,
    ``position_error_m`` and the fix's position, ``clock_bias`` and
    ``residual_rms`` are in metres, ``toa_s`` and ``toa_err_s`` in seconds.
    The per-anchor tuples are in anchor order, errors are estimate minus
    truth, and an anchor without a usable ToA gets NaN entries, which
    ``uwbloc locate`` prints as null so its record stays strict JSON. A trial
    without a fix has ``fix`` and ``position_error_m`` None and ``failure``
    naming its error. ``trial_id`` is the sweep's trial index, 0 outside one.
    """

    trial_id: int
    snr_db: float
    truth: tuple[float, float, float]
    toa_s: tuple[float, ...]
    range_m: tuple[float, ...]
    toa_err_s: tuple[float, ...]
    range_err_m: tuple[float, ...]
    fix: PositionFix | None
    failure: str | None
    position_error_m: float | None


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    toa_nmse: float
    range_nmse: float
    mean_position_error_m: float
    position_nmse: float
    fix_failure_rate: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    trials: dict[float, tuple[TrialResult, ...]]


@lru_cache(maxsize=1)
def load_default_pulse_set() -> PulseSet:
    """The pulse set shipped with the package (regenerable via the CLI).

    Loaded and verified once per process; its arrays are read-only because
    every caller shares the one cached set.
    """
    data = resources.files("uwbloc").joinpath("data/default_pulse_set.json").read_text()
    ps = load_pulse_set(json.loads(data))
    for arr in (ps.coeffs, ps.effectiveness, ps.objective_history,
                *(p.samples for p in ps.pulses)):
        arr.flags.writeable = False
    return ps


def _resolve_pulses(cfg: SimConfig, pulse_set: PulseSet | None) -> PulseSet:
    """The pulse set a config runs with, checked against its symbol duration."""
    ps = pulse_set
    if ps is None:
        ps = (read_input(cfg.pulse_set, load_pulse_set) if cfg.pulse_set is not None
              else load_default_pulse_set())
    try:
        record = read_window(cfg.symbol_duration, ps.dt, cfg.symbol_count)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if record > MAX_RECORD_SAMPLES:
        raise ConfigError(
            f"symbol_duration {cfg.symbol_duration} s x (symbol_count {cfg.symbol_count} + 1) "
            f"is a {record}-sample record at dt={ps.dt}, more than {MAX_RECORD_SAMPLES}")
    # propagate's record spans the latest tap (channel._record_length), so its reach
    # has the read window's cap. The latest tap's mean delay is below
    # min_excess_delay + delay_spread_target + tap_count_max mean spacings; the
    # delays are random, so four times that is checked.
    ch = cfg.channel
    reach = 4 * (ch.min_excess_delay + ch.delay_spread_target
                 + ch.tap_count_max * ch.mean_tap_spacing)
    if reach / ps.dt > MAX_RECORD_SAMPLES:
        raise ConfigError(
            f"channel reach 4 x (min_excess_delay + delay_spread_target + tap_count_max x "
            f"mean_tap_spacing) is {reach:.3g} s, {reach / ps.dt:.3g} samples at dt={ps.dt}, "
            f"more than {MAX_RECORD_SAMPLES}")
    pulse = max(ps.pulses, key=len)
    symbol, calibration = round(cfg.symbol_duration / ps.dt), calibration_samples(pulse)
    if symbol < calibration:
        raise ConfigError(
            f"symbol_duration {cfg.symbol_duration} s is {symbol} samples at dt={ps.dt}, "
            f"shorter than the ToA estimator's {calibration}-sample calibration template "
            f"(the {len(pulse)}-sample pulse plus {calibration - len(pulse)} of the delay "
            "interpolator)")
    return ps


def _stream(entropy: int | tuple[int, ...], child: int | None = None) -> np.random.SeedSequence:
    """The stream every seed derives from: ``SeedSequence(entropy)``, or its
    ``child``-th spawned child; an integer seed is its first word (``_word``).
    A cell's scenario and noise seeds are the words of ``(master_seed,
    trial_index)`` and ``(master_seed, snr_index, trial_index)``. Children 0
    and 1 + k of a scenario seed draw the target and anchor k's channel, and
    child k of a noise seed draws anchor k's noise (``_anchor_noise_seed``).

    The streams overlap (an open finding): ``SeedSequence`` zero-pads its
    entropy, so ``trial_seed(m, s, 0) == scenario_seed(m, s)``; and when
    ``run_trial`` builds its own scenario, anchor k's noise seed is anchor
    k-1's channel seed.
    """
    return np.random.SeedSequence(entropy, spawn_key=() if child is None else (child,))


def _word(stream: np.random.SeedSequence) -> int:
    return int(stream.generate_state(1, dtype=np.uint64)[0])


def trial_seed(master_seed: int, snr_index: int, trial_index: int) -> int:
    """Noise seed of a trial at an SNR index (``_stream``)."""
    return _word(_stream((master_seed, snr_index, trial_index)))


def scenario_seed(master_seed: int, trial_index: int) -> int:
    """Seed of the SNR-independent part of a trial, its target and channels (``_stream``)."""
    return _word(_stream((master_seed, trial_index)))


def _anchor_noise_seed(seed: int, anchor_index: int) -> int:
    """Seed of anchor ``anchor_index``'s noise record in a trial of noise seed ``seed``."""
    return _word(_stream(seed, anchor_index))


@dataclass(frozen=True)
class Scenario:
    """The SNR-independent half of a trial.

    ``received[i]`` is anchor i's noiseless received burst, cut to the
    ``read_window`` samples the ToA estimator reads; its samples are
    read-only, because every SNR point of a sweep measures the same
    scenario. ``powers[i]`` is the mean power of the whole received record,
    as long as ``propagate`` returns for the burst and zero-padded to at
    least ``(symbol_count + 1)`` symbols: the SNR reference of its noise.
    """

    truth: tuple[float, float, float]
    distances: tuple[float, ...]
    pulses: tuple[Waveform, ...]
    received: tuple[Waveform, ...]
    powers: tuple[float, ...]


def build_scenario(cfg: SimConfig, pulse_set: PulseSet | None, seed: int) -> Scenario:
    """Draw a target and the anchor channels from ``seed`` and receive every burst.

    ``seed`` spawns one stream for the target and one CIR stream per anchor,
    in anchor order (``_stream``). Each anchor's pulse is propagated
    once, and ``make_burst`` overlap-adds the received pulse into the burst:
    the channel is linear and time-invariant, so this is the burst
    ``make_burst`` sends, received through the same channel. ``make_burst``
    builds the record at the length ``propagate`` returns for that burst
    (``channel._record_length``), which is zero-padded further only where it
    ends within the read window, as a line-of-sight-only record can. Both
    records differ only where the tap filter, circular over its record,
    wraps the taps' sinc tails: within each copy's record here, within the
    whole record there. At a default scenario's distances that is at most
    about 5e-3 of the peak.
    """
    ps = _resolve_pulses(cfg, pulse_set)
    truth_rng = np.random.default_rng(_stream(seed, 0))

    inset = cfg.placement_inset
    x, y = (float(truth_rng.uniform(lo + inset, hi - inset))
            for lo, hi in zip(cfg.room.minimum[:2], cfg.room.maximum[:2]))
    truth = (x, y, float(cfg.room.minimum[2]))  # the target stands on the floor

    window = read_window(cfg.symbol_duration, ps.dt, cfg.symbol_count)
    symbol = round(cfg.symbol_duration / ps.dt)  # whole: read_window checked it
    distances, pulses, received, powers = [], [], [], []
    for idx, anchor in enumerate(cfg.anchors):
        pulse = ps.pulses[idx % ps.pulse_count]
        dist = float(np.linalg.norm(np.asarray(truth) - np.asarray(anchor.position)))
        cir = sample_cir(cfg.channel, _word(_stream(seed, 1 + idx)))
        length = _record_length(symbol * cfg.symbol_count, dist, cir, ps.dt)
        samples = make_burst(propagate(pulse, dist, cir), cfg.symbol_duration,
                             cfg.symbol_count, length).samples
        if length <= window:  # zero-padded to (symbol_count + 1) whole symbols
            samples = np.concatenate([samples, np.zeros(window + 1 - length)])
        powers.append(float(np.mean(samples**2)))
        samples = samples[:window]
        samples.flags.writeable = False
        distances.append(dist)
        pulses.append(pulse)
        received.append(Waveform(samples, ps.dt))
    return Scenario(truth, tuple(distances), tuple(pulses), tuple(received), tuple(powers))


def _build_scenario_drawing_noise(cfg: SimConfig, seed: int) -> tuple[Scenario, list[np.ndarray]]:
    """``build_scenario(cfg, None, seed)`` and every anchor's unit noise record,
    the one ``add_awgn`` draws from ``seed`` over the read window, drawn on a
    helper thread joined before this returns; after its first record it
    mostly waits for the GIL, which the build rarely releases, until joined.

    The helper calls no layer function a tracer wraps, so every span stays
    on the calling thread. A failed draw is raised here, once the scenario
    is built.
    """
    ps = _resolve_pulses(cfg, None)
    size = read_window(cfg.symbol_duration, ps.dt, cfg.symbol_count)
    drawn: list = []

    def draw() -> None:
        try:
            drawn.append([_unit_noise(size, _anchor_noise_seed(seed, k))
                          for k in range(len(cfg.anchors))])
        except BaseException as exc:  # raised again on the calling thread
            drawn.append(exc)

    helper = threading.Thread(target=draw, name="uwbloc noise draw")
    helper.start()
    try:
        scenario = build_scenario(cfg, ps, seed)
    finally:
        helper.join()
    if isinstance(drawn[0], BaseException):
        raise drawn[0]
    return scenario, drawn[0]


def run_trial(
    cfg: SimConfig,
    snr_db: float,
    seed: int,
    trial_id: int = 0,
    scenario: Scenario | None = None,
) -> TrialResult:
    """Range a target from every anchor at ``snr_db`` and solve for position.

    ``seed`` drives the noise. ``scenario`` is a prebuilt ``Scenario``, so a
    sweep can hold the scenario fixed while varying SNR; it carries its
    pulses. Without one, the scenario is built from ``seed`` with the pulse
    set ``cfg`` names, and at a finite SNR each anchor's unit noise record
    is drawn on a helper thread that overlaps the build only in part and is
    joined before the scenario is used (``_build_scenario_drawing_noise``);
    the result is bit-identical to drawing inline, as a given scenario's
    trial does, and no thread outlives the call.
    The fix is the one ``select_solution`` accepts in ``cfg.room``.
    Failures are recorded in the result rather than raised: an anchor
    without a usable ToA gets NaN ToA and range entries and skips the solve;
    solver failures (degenerate geometry, no real root) and a fix that the
    acceptance rule rejects (every candidate outside the room, or a clock
    bias past the gate) leave the trial without a fix. Fully deterministic
    for fixed (cfg, snr_db, seed, scenario).
    """
    noise = None
    if scenario is None and math.isfinite(snr_db):
        scenario, noise = _build_scenario_drawing_noise(cfg, seed)
    elif scenario is None:
        scenario = build_scenario(cfg, None, seed)

    toas, ranges, toa_errs, range_errs = [], [], [], []
    failure: str | None = None
    for idx, (dist, pulse, rx, power) in enumerate(zip(scenario.distances, scenario.pulses,
                                                       scenario.received, scenario.powers)):
        if noise is None:
            rx = add_awgn(rx, snr_db, _anchor_noise_seed(seed, idx), power=power)
        else:
            rx = _add_noise(rx, snr_db, power, noise[idx])
        try:
            est = toa_dirty_template(rx, cfg.symbol_duration, cfg.symbol_count, template=pulse)
            toa, rng_m = est.toa, range_from_toa(est)
        except ValueError as exc:  # no usable signal at this anchor
            failure = failure or f"{type(exc).__name__}: {exc}"
            toa = rng_m = math.nan
        toas.append(toa)
        ranges.append(rng_m)
        toa_errs.append(toa - dist / SPEED_OF_LIGHT)
        range_errs.append(rng_m - dist)

    fix: PositionFix | None = None
    pos_err: float | None = None
    if failure is None:
        try:
            fix = select_solution(bancroft_solve(list(cfg.anchors), ranges), cfg.room)
            pos_err = position_error(fix, scenario.truth)
        except ValueError as exc:  # NoValidFixError and the solver's errors among them
            failure = f"{type(exc).__name__}: {exc}"
            fix = None

    return TrialResult(
        trial_id=trial_id,
        snr_db=snr_db,
        truth=scenario.truth,
        toa_s=tuple(toas),
        range_m=tuple(ranges),
        toa_err_s=tuple(toa_errs),
        range_err_m=tuple(range_errs),
        fix=fix,
        failure=failure,
        position_error_m=pos_err,
    )


def _run_cells(keys: range, measure: Callable[[int], list]) -> list:
    """Every key's ``measure(key)`` results, concatenated in key order.

    The keys are dealt round-robin to one worker per usable core
    (``len(os.sched_getaffinity(0))``, at most one per key; ``taskset`` sets
    it): this process measures the first share, and a fork-context
    ``multiprocessing`` process per other share measures its own and sends
    the results back through a one-way pipe. A worker's exception is raised
    here, chained from a RuntimeError naming the worker, once the workers
    still pending are killed; one that would not unpickle becomes a
    RuntimeError of its traceback's last line. An interrupted worker prints
    multiprocessing's "Process sweep worker ..." traceback to stderr.
    """
    def send_share(conn, share: range) -> None:  # a worker's whole life
        from multiprocessing.reduction import ForkingPickler
        try:
            message = (None, [measure(key) for key in share])
        except Exception as exc:  # an interrupt is left to multiprocessing, which prints it
            text = traceback.format_exc()
            message = (exc, text)
            try:
                ForkingPickler.loads(ForkingPickler.dumps(exc))
            except Exception:
                message = (RuntimeError(text.splitlines()[-1]), text)
        conn.send(message)

    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(keys))
    shares = [keys[w::workers] for w in range(workers)]
    pending = []
    try:
        if workers > 1:
            import multiprocessing  # here, so that a one-worker run never imports it
            context = multiprocessing.get_context("fork")
            for share in shares[1:]:
                receive, send = context.Pipe(duplex=False)
                worker = context.Process(target=send_share, name=f"sweep worker (cells {share})",
                                         args=(send, share))
                worker.start()
                send.close()
                pending.append((worker, receive))
        measured = [[measure(key) for key in shares[0]]]
        while pending:
            worker, receive = pending[0]
            with receive:
                try:
                    failure, value = receive.recv()
                except EOFError:  # it ended before it sent them whole
                    failure = value = None
            worker.join()
            del pending[0]
            if failure is not None:
                raise failure from RuntimeError(f"in {worker.name}:\n{value}")
            if value is None:
                raise RuntimeError(f"{worker.name} sent no results; exit status {worker.exitcode}")
            measured.append(value)
    finally:  # reached with workers pending only on a failure, so their results go unread
        for worker, receive in pending:
            receive.close()
            worker.kill()
            worker.join()
    return [r for i in range(len(keys)) for r in measured[i % workers][i // workers]]


def sweep_snr(cfg: SimConfig, pulse_set: PulseSet | None = None) -> SweepResult:
    """Run trials at every SNR point and aggregate the error statistics.

    Each trial index is a cell of ``_run_cells`` that builds its scenario
    once and measures it at every SNR point. Rows are ordered by ascending
    SNR. range NMSE is normalized by (c * symbol_duration)^2 and position
    NMSE by the room diagonal squared. Failed trials are excluded from
    position means and surfaced via fix_failure_rate; the NaN entries of
    anchors without a ToA are excluded from the ToA and range NMSE.
    """
    ps = _resolve_pulses(cfg, pulse_set)
    diag2 = float(np.sum((np.asarray(cfg.room.maximum) - np.asarray(cfg.room.minimum)) ** 2))
    tsym2 = cfg.symbol_duration**2
    snrs = sorted(cfg.snr_grid_db)

    def measure(trial: int) -> list[TrialResult]:
        scenario = build_scenario(cfg, ps, scenario_seed(cfg.master_seed, trial))
        return [run_trial(cfg, snr, trial_seed(cfg.master_seed, si, trial), trial_id=trial,
                          scenario=scenario) for si, snr in enumerate(snrs)]

    by_snr: dict[float, list[TrialResult]] = {snr: [] for snr in snrs}
    for res in _run_cells(range(cfg.trials), measure):
        by_snr[res.snr_db].append(res)

    rows = []
    for snr, results in by_snr.items():
        toa_sq = [e**2 for r in results for e in r.toa_err_s if not math.isnan(e)]
        rng_sq = [e**2 for r in results for e in r.range_err_m if not math.isnan(e)]
        pos_errs = [r.position_error_m for r in results if r.position_error_m is not None]
        failures = sum(1 for r in results if r.failure is not None)
        rows.append(
            SweepRow(
                snr_db=float(snr),  # a config built in code may hold an int
                toa_nmse=float(np.mean(toa_sq) / tsym2) if toa_sq else math.nan,
                range_nmse=(float(np.mean(rng_sq) / (SPEED_OF_LIGHT**2 * tsym2))
                            if rng_sq else math.nan),
                mean_position_error_m=float(np.mean(pos_errs)) if pos_errs else math.nan,
                position_nmse=float(np.mean(np.square(pos_errs)) / diag2) if pos_errs else math.nan,
                fix_failure_rate=failures / len(results),
            )
        )
    return SweepResult(rows=tuple(rows),
                       trials={snr: tuple(results) for snr, results in by_snr.items()})


def emit_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    """Write one row per SNR point with >= 9 significant digits."""
    names = [f.name for f in fields(SweepRow)]
    write_csv(path, names, ([getattr(r, n) for n in names] for r in rows))


# -- configuration files ------------------------------------------------------

_MASK_KEYS = ("f_lo_hz", "f_hi_hz", "limit_dbm_per_mhz")


def _numbers(values: Iterable, name: str) -> tuple:
    return tuple(json_number(v, name) for v in values)


def _anchor_from_json(entry: dict) -> Anchor:
    if not isinstance(entry["id"], str):
        raise ValueError(f"anchor id must be a string, got {entry['id']!r}")
    return Anchor(entry["id"], tuple(json_number(entry[k], k) for k in "xyz"))


# JSON forms of the config fields that are not plain JSON values, by field name:
# the one place that knows the room, anchor, mask and SNR grid file formats
_FIELD_CODECS = {
    "room": (lambda r: {"min": list(r.minimum), "max": list(r.maximum)},
             lambda obj: RoomBounds(_numbers(obj["min"], "min"), _numbers(obj["max"], "max"))),
    "anchors": (lambda anchors: [{"id": a.id, **dict(zip("xyz", a.position))} for a in anchors],
                lambda obj: tuple(map(_anchor_from_json, obj))),
    "mask": (lambda mask: [dict(zip(_MASK_KEYS, seg)) for seg in mask.segments],
             lambda obj: SpectralMask(tuple(tuple(json_number(s[k], k) for k in _MASK_KEYS)
                                            for s in obj))),
    "snr_grid_db": (list, lambda obj: _numbers(obj, "an snr point")),
}

def config_to_json(cfg) -> dict:
    """JSON object of a config, ``detect`` verdict or ``TrialResult``, one key
    per field; a nested dataclass becomes an object. The CLI writes
    ``mask.json``, the verdict and the ``locate`` record with it; every
    config field round-trips through it and ``config_from_json``.
    """
    obj = {}
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if f.name in _FIELD_CODECS:
            val = _FIELD_CODECS[f.name][0](val)
        elif is_dataclass(val):
            val = config_to_json(val)
        obj[f.name] = val
    return obj


def config_from_json(obj: object, cls: type = SimConfig):
    """Inverse of ``config_to_json``: a ``cls`` config (SimConfig by default).

    Unknown keys are rejected so typos fail loudly; they, every value whose
    JSON type does not fit its field (a number is a ``json_number``, an
    anchor id a string), and every invalid value raise ConfigError naming
    the config key.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{cls.__name__} config must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} config keys: {sorted(unknown)}")
    types = get_type_hints(cls)
    kwargs = {}
    for key, val in obj.items():
        where = f"{cls.__name__} config key {key!r}"
        try:
            if key in _FIELD_CODECS:
                val = _FIELD_CODECS[key][1](val)
            elif is_dataclass(types[key]):
                val = config_from_json(val, types[key])
            elif types[key] in (int, float):
                val = json_number(val, key, integer=types[key] is int)
            elif not isinstance(val, (str, type(None))):  # pulse_set, the one str | None field
                raise ValueError(f"{key} must be a string or null, got {val!r}")
        except KeyError as exc:
            raise ConfigError(f"{where} lacks the key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        kwargs[key] = val
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__} config value: {exc}") from exc


def read_input(path: str | Path, decode: Callable[[object], object]):
    """Parse a user-supplied file and decode the parsed value.

    ``.json`` files are parsed as JSON, every other file as a CSV table
    (``read_csv``). A parse, decode or validation failure raises ConfigError
    naming the path; an OSError, such as a missing file, propagates.
    """
    path = Path(path)
    try:
        value = json.loads(path.read_text()) if path.suffix.lower() == ".json" else read_csv(path)
        return decode(value)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise ConfigError(f"{path}: {type(exc).__name__}: {exc}") from exc

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
Anchor i sends pulse i mod the set's pulse count, and each anchor's burst
arrives on its own record: anchors are separated in time, so no record
holds two bursts and the pulses' orthogonality is not what separates them.
``sweep_snr`` loops trial-outer, SNR-inner: it builds one scenario per trial
index, measures it at every SNR point, then drops it, so each worker holds
one scenario at a time and each one is built once instead of once per SNR
point. The trial indices are shared round-robin among one worker per core
the process may run on: the calling process and forked children, whose
results are merged back in trial order.

Reproducibility scheme: the per-trial seed derives from
``SeedSequence(entropy=(master_seed, snr_index, trial_index))`` (PCG64
streams) and drives the noise draws; the scenario (target position and
per-anchor channel realizations) derives from
``SeedSequence(entropy=(master_seed, trial_index))`` so every SNR point of a
sweep reuses the same scenarios and the error-vs-SNR curves are paired
comparisons rather than scenario lotteries. Sub-streams are spawned in a
fixed order. Neither the loop order nor the worker count enters the seeds,
and each SNR row aggregates its trials in trial order, so two sweeps with
the same master seed produce byte-identical CSV files.

The seed families overlap (an open finding): ``SeedSequence`` zero-pads its
entropy, so ``trial_seed(m, s, 0) == scenario_seed(m, s)``; and when ``run_trial``
builds its own scenario, anchor k's noise seed is anchor k-1's CIR seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, get_type_hints

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
from .waveform import Waveform, add_awgn, json_number, read_csv, write_csv

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
    out_dir: str = "out"
    floor_only: bool = True
    placement_inset: float = 0.1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
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
        if len(self.anchors) < 4:
            raise ConfigError("need at least 4 anchors")
        if self.symbol_count < 2:
            raise ConfigError("symbol_count must be >= 2")
        for name in ("symbol_duration", "placement_inset"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.symbol_duration > 0 and self.placement_inset >= 0):
            raise ConfigError("symbol_duration must be positive and inset non-negative")
        # build_scenario draws x and y, and z unless floor_only, between the insets
        axes = slice(2 if self.floor_only else 3)
        if not all(lo + self.placement_inset <= hi - self.placement_inset
                   for lo, hi in zip(self.room.minimum[axes], self.room.maximum[axes])):
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
    pulse = max(ps.pulses, key=len)
    symbol, calibration = round(cfg.symbol_duration / ps.dt), calibration_samples(pulse)
    if symbol < calibration:
        raise ConfigError(
            f"symbol_duration {cfg.symbol_duration} s is {symbol} samples at dt={ps.dt}, "
            f"shorter than the ToA estimator's {calibration}-sample calibration template "
            f"(the {len(pulse)}-sample pulse plus {calibration - len(pulse)} of the delay "
            "interpolator)")
    return ps


def trial_seed(master_seed: int, snr_index: int, trial_index: int) -> int:
    """Noise seed of a trial, distinct per (master, snr, trial) but not from the
    scenario seeds: ``trial_seed(m, s, 0) == scenario_seed(m, s)`` (an open finding)."""
    ss = np.random.SeedSequence(entropy=(master_seed, snr_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def scenario_seed(master_seed: int, trial_index: int) -> int:
    """Seed of the SNR-independent part of a trial (target and channels)."""
    ss = np.random.SeedSequence(entropy=(master_seed, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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

    ``SeedSequence(seed)`` spawns one stream for the target and one CIR
    stream per anchor, in anchor order. Each anchor's pulse is propagated
    once, and ``make_burst`` overlap-adds the received pulse into the burst:
    the channel is linear and time-invariant, so this is the burst
    ``make_burst`` sends, received through the same channel. The record is
    cut or zero-padded to the length ``propagate`` returns for that burst
    (``channel._record_length``). Both records differ only where the tap
    filter, circular over its record, wraps the taps' sinc tails: within
    each copy's record here, within the whole record there. At a default
    scenario's distances that is at most about 5e-3 of the peak.
    """
    ps = _resolve_pulses(cfg, pulse_set)
    streams = np.random.SeedSequence(seed).spawn(1 + len(cfg.anchors))
    truth_rng = np.random.default_rng(streams[0])

    lo = np.asarray(cfg.room.minimum) + cfg.placement_inset
    hi = np.asarray(cfg.room.maximum) - cfg.placement_inset
    x = truth_rng.uniform(lo[0], hi[0])
    y = truth_rng.uniform(lo[1], hi[1])
    z = cfg.room.minimum[2] if cfg.floor_only else truth_rng.uniform(lo[2], hi[2])
    truth = (float(x), float(y), float(z))

    window = read_window(cfg.symbol_duration, ps.dt, cfg.symbol_count)
    symbol = round(cfg.symbol_duration / ps.dt)  # whole: read_window checked it
    distances, pulses, received, powers = [], [], [], []
    for idx, anchor in enumerate(cfg.anchors):
        pulse = ps.pulses[idx % ps.pulse_count]
        dist = float(np.linalg.norm(np.asarray(truth) - np.asarray(anchor.position)))
        cir_seed = int(streams[1 + idx].generate_state(1, dtype=np.uint64)[0])
        cir = sample_cir(cfg.channel, cir_seed)
        burst = make_burst(propagate(pulse, dist, cir), cfg.symbol_duration,
                           cfg.symbol_count).samples
        length = _record_length(symbol * cfg.symbol_count, dist, cir, ps.dt)
        # zero-padded to at least (symbol_count + 1) whole symbols
        samples = np.zeros(max(length, window + 1))
        samples[: min(length, burst.size)] = burst[:length]
        powers.append(float(np.mean(samples**2)))
        samples = samples[:window]
        samples.flags.writeable = False
        distances.append(dist)
        pulses.append(pulse)
        received.append(Waveform(samples, ps.dt))
    return Scenario(truth, tuple(distances), tuple(pulses), tuple(received), tuple(powers))


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
    set ``cfg`` names.
    The fix is the one ``select_solution`` accepts in ``cfg.room``.
    Failures are recorded in the result rather than raised: an anchor
    without a usable ToA gets NaN ToA and range entries and skips the solve;
    solver failures (degenerate geometry, no real root) and a fix that the
    acceptance rule rejects (every candidate outside the room, or a clock
    bias past the gate) leave the trial without a fix. Fully deterministic
    for fixed (cfg, snr_db, seed, scenario).
    """
    if scenario is None:
        scenario = build_scenario(cfg, None, seed)
    noise_streams = np.random.SeedSequence(seed).spawn(len(cfg.anchors))

    toas, ranges, toa_errs, range_errs = [], [], [], []
    failure: str | None = None
    for stream, dist, pulse, rx, power in zip(noise_streams, scenario.distances,
                                              scenario.pulses, scenario.received, scenario.powers):
        noise_seed = int(stream.generate_state(1, dtype=np.uint64)[0])
        rx = add_awgn(rx, snr_db, noise_seed, power=power)
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


def _measure_share(cfg: SimConfig, ps: PulseSet, snrs: list[float],
                   share: range) -> list[TrialResult]:
    """Every trial of ``share`` at every SNR point, one scenario held at a time."""
    results = []
    for ti in share:
        scenario = build_scenario(cfg, ps, scenario_seed(cfg.master_seed, ti))
        for si, snr in enumerate(snrs):
            results.append(run_trial(
                cfg, snr, trial_seed(cfg.master_seed, si, ti), trial_id=ti, scenario=scenario))
        del scenario  # else the next build would run while this one is still held
    return results


def _fork_share(cfg: SimConfig, ps: PulseSet, snrs: list[float],
                share: range) -> tuple[int, BinaryIO, range]:
    """Measure ``share`` in a forked child; its pid, the pipe it answers on, and the share.

    The child pickles ``(None, results)``, or ``(exception, traceback text)``
    if it failed, to the pipe and ends with ``os._exit``, so nothing of the
    parent's (exit handlers, buffered output) runs twice.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((None, _measure_share(cfg, ps, snrs, share)))
            except Exception as exc:  # an interrupt ends the child with code 1 below
                text = traceback.format_exc()
                try:
                    payload = pickle.dumps((exc, text))
                    pickle.loads(payload)
                except Exception:  # an exception the parent could not unpickle
                    payload = pickle.dumps((RuntimeError(text.splitlines()[-1]), text))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb"), share


def _join_share(pid: int, pipe: BinaryIO, share: range) -> list[TrialResult]:
    """The results a forked worker sends, once it has been reaped; its failure raised."""
    try:
        with pipe:
            failure, value = pickle.load(pipe)
    except (EOFError, pickle.UnpicklingError):  # it ended before it sent them whole
        failure = value = None
    finally:
        _, status = os.waitpid(pid, 0)
    where = f"sweep worker {pid} (trials {share})"
    if failure is not None:
        raise failure from RuntimeError(f"in {where}:\n{value}")
    if value is None:
        raise RuntimeError(f"{where} sent no results; exit status "
                           f"{os.waitstatus_to_exitcode(status)}")
    return value


def sweep_snr(cfg: SimConfig, pulse_set: PulseSet | None = None) -> SweepResult:
    """Run trials at every SNR point and aggregate the error statistics.

    Each trial index builds its scenario once and measures it at every SNR
    point. The trial indices are dealt round-robin to one worker per usable
    core (``len(os.sched_getaffinity(0))``, at most ``cfg.trials``): this
    process measures the first share and a child forked per other share
    measures the rest, each holding one scenario at a time. The results are
    merged in trial order, so every result is the same for any worker count,
    and ``taskset`` sets the count. A worker's exception is raised here,
    once every child is reaped. Rows are ordered by ascending SNR. range
    NMSE is normalized by (c * symbol_duration)^2 and position NMSE by the
    room diagonal squared.
    Failed trials are excluded from position means and surfaced via
    fix_failure_rate; the NaN entries of anchors without a ToA are excluded
    from the ToA and range NMSE.
    """
    ps = _resolve_pulses(cfg, pulse_set)
    diag2 = float(np.sum((np.asarray(cfg.room.maximum) - np.asarray(cfg.room.minimum)) ** 2))
    tsym2 = cfg.symbol_duration**2
    snrs = sorted(cfg.snr_grid_db)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), cfg.trials)
    shares = [range(w, cfg.trials, workers) for w in range(workers)]
    pending: list[tuple[int, BinaryIO, range]] = []
    try:
        for share in shares[1:]:
            pending.append(_fork_share(cfg, ps, snrs, share))
        measured = _measure_share(cfg, ps, snrs, shares[0])
        while pending:
            measured += _join_share(*pending.pop(0))
    finally:  # reached with workers pending only on a failure, so their results go unread
        for pid, pipe, _ in pending:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    by_snr: dict[float, list[TrialResult]] = {snr: [] for snr in snrs}
    for res in sorted(measured, key=lambda r: r.trial_id):
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

# JSON value types a non-numeric scalar field accepts, by annotation; an int
# or float field's value is a json_number
_SCALAR_TYPES = {
    bool: ("true or false", (bool,)),
    str: ("a string", (str,)),
    str | None: ("a string or null", (str, type(None))),
}


def config_to_json(cfg) -> dict:
    """JSON object of a config dataclass, one key per field.

    The CLI writes the ``detect`` verdict and ``mask.json`` with it; every
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
            elif types[key] in _SCALAR_TYPES:
                expected, accepted = _SCALAR_TYPES[types[key]]
                if type(val) not in accepted:
                    raise ValueError(f"{key} must be {expected}, got {val!r}")
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

import dataclasses
import itertools
import json
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwbloc import cli, positioning, simulate
from uwbloc.channel import (
    SPEED_OF_LIGHT,
    ChannelProfile,
    ChannelRealization,
    _record_length,
    propagate,
    sample_cir,
)
from uwbloc.detection import ARTIFICIAL_FLOOR_DB, DetectionThresholds
from uwbloc.positioning import Anchor, RoomBounds
from uwbloc.pulses import (
    DEFAULT_DT,
    MAX_GENERATIONS,
    MAX_SPLINE_ORDER,
    DesignConfig,
    load_pulse_set,
    pulse_set_to_json,
)
from uwbloc.ranging import TDT_TRAINING_PATTERN, make_burst, read_window, toa_dirty_template
from uwbloc.simulate import (
    MAX_SNR_DB,
    ConfigError,
    SimConfig,
    SweepRow,
    build_scenario,
    config_from_json,
    config_to_json,
    default_anchors,
    emit_csv,
    load_default_pulse_set,
    read_input,
    run_trial,
    scenario_seed,
    sweep_snr,
    trial_seed,
)
from uwbloc.spectrum import SpectralMask
from uwbloc.waveform import Waveform, waveform_from_json

from conftest import waveform_to_json

# 35 dB, 100 trials, master seed 12345, pinned since per-pulse propagation;
# abs=0, since approx's default absolute tolerance exceeds the value itself
TOA_NMSE_BASELINE_35DB = 4.8538068075859e-13


# a 20 cm cube with anchors on its top corners: its ranges stay inside the
# 45 cm ambiguity of a 1.5 ns symbol
SMALL_ROOM = dict(
    room=RoomBounds((0.0, 0.0, 0.0), (0.2, 0.2, 0.2)),
    anchors=tuple(Anchor(f"a{i}", (x, y, 0.2))
                  for i, (x, y) in enumerate([(0, 0), (0.2, 0), (0, 0.2), (0.2, 0.2)])),
    placement_inset=0.02)


@pytest.fixture(scope="module")
def tiny_cfg():
    return SimConfig(snr_grid_db=(20.0, 30.0), trials=3)


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert len(cfg.anchors) == 4
        assert cfg.trials == 100

    def test_round_trip(self, tmp_path, tiny_cfg):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_json(tiny_cfg), indent=2))
        back = read_input(path, config_from_json)
        assert back == tiny_cfg

    def test_unknown_key_rejected(self):
        obj = config_to_json(SimConfig())
        obj["snr_list"] = [10]
        with pytest.raises(ConfigError):
            config_from_json(obj)

    def test_unknown_channel_key_rejected(self):
        obj = config_to_json(SimConfig())
        obj["channel"]["taps"] = 3
        with pytest.raises(ConfigError):
            config_from_json(obj)

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            SimConfig(trials=0)
        with pytest.raises(ConfigError):
            SimConfig(snr_grid_db=())
        with pytest.raises(ConfigError):
            SimConfig(anchors=default_anchors()[:3])
        with pytest.raises(ConfigError):
            config_from_json({"trials": "many"})
        with pytest.raises(ConfigError):
            config_from_json({"anchors": "anchors.json"})
        with pytest.raises(ConfigError):
            config_from_json({"channel": [20, 40]})

    def test_integers_decode_as_floats(self):
        # a JSON integer is a valid float value, and the config compares equal
        obj = {"placement_inset": 0, "snr_grid_db": [10, 20], "channel": {"decay_constant": 1}}
        assert config_from_json(obj) == SimConfig(
            placement_inset=0.0, snr_grid_db=(10.0, 20.0),
            channel=ChannelProfile(decay_constant=1.0))

    def test_repeated_snr_point_rejected(self):
        # a sweep keys its trials by SNR point, so a repeat would lose one point's trials
        with pytest.raises(ConfigError, match="repeats"):
            SimConfig(snr_grid_db=(30.0, 30.0), trials=2)
        with pytest.raises(ConfigError):
            config_from_json({"snr_grid_db": [20, 30, 30.0]})

    def test_non_numeric_snr_point_rejected(self):
        for bad in (math.nan, -math.inf):
            with pytest.raises(ConfigError, match="snr"):
                SimConfig(snr_grid_db=(30.0, bad), trials=2)
        with pytest.raises(ConfigError):
            config_from_json(json.loads('{"snr_grid_db": [20, NaN]}'))

    @pytest.mark.parametrize("snr", [-4000.0, -3090.0, -300.5, 300.5, 4000.0, 1e308])
    def test_snr_point_past_the_noise_scaling_rejected(self, snr):
        # each of these once ended a trial in an OverflowError, a ZeroDivisionError
        # or a non-finite record, outside the trial's failure handling
        with pytest.raises(ConfigError, match="snr_grid_db"):
            SimConfig(snr_grid_db=(30.0, snr), trials=2)
        SimConfig(snr_grid_db=(-MAX_SNR_DB, MAX_SNR_DB, math.inf), trials=2)

    def test_infinite_snr_point_runs(self):
        # +inf is the noiseless sentinel of add_awgn, not a malformed point
        result = sweep_snr(SimConfig(snr_grid_db=(math.inf,), trials=1))
        (trial,) = result.trials[math.inf]
        assert trial.failure is None and trial.fix is not None
        assert max(abs(e) for e in trial.toa_err_s) < 1e-12

    def test_placement_box_must_survive_the_inset(self):
        # the default room is 6 x 6 x 3 m; targets stand on the floor, so z is never drawn
        SimConfig(placement_inset=3.0)  # x and y narrow to one point
        for inset in (3.5, 4.0):
            with pytest.raises(ConfigError, match="placement_inset"):
                SimConfig(placement_inset=inset)

    def test_range_aliasing_room_rejected(self):
        # ToA wraps at c * symbol_duration = 14.99 m; the default room's
        # worst anchor-to-corner distance is 9 m, a 20 x 20 x 3 m room's 28.4 m
        room = RoomBounds((0.0, 0.0, 0.0), (20.0, 20.0, 3.0))
        anchors = tuple(Anchor(f"a{i}", (x, y, 3.0))
                        for i, (x, y) in enumerate([(0, 0), (20, 0), (0, 20), (20, 20)]))
        SimConfig()
        with pytest.raises(ConfigError, match="ambiguity"):
            SimConfig(room=room, anchors=anchors)
        with pytest.raises(ConfigError, match="ambiguity"):
            config_from_json({"room": {"min": [0, 0, 0], "max": [20, 20, 3]},
                              "anchors": [{"id": a.id, "x": a.position[0], "y": a.position[1],
                                           "z": a.position[2]} for a in anchors]})
        SimConfig(room=room, anchors=anchors, symbol_duration=100e-9)

    def test_overlong_record_rejected_before_allocating(self, default_pulses, monkeypatch):
        # 50 s symbols would ask build_scenario for a 146 TiB burst record,
        # sized once propagate has returned the received pulse
        def unreachable(*args, **kwargs):
            raise AssertionError("a pulse was propagated for a rejected config")

        monkeypatch.setattr(simulate, "propagate", unreachable)
        cfg = SimConfig(symbol_duration=50.0, snr_grid_db=(30.0,), trials=1)
        with pytest.raises(ConfigError, match="record"):
            sweep_snr(cfg, default_pulses)
        with pytest.raises(ConfigError, match="record"):
            run_trial(cfg, 30.0, seed=1)

    @pytest.mark.parametrize("channel", [
        # locate once ran for minutes on a propagate record of about 2e7 samples
        {"delay_spread_target": 1e-3, "mean_tap_spacing": 1e-4, "decay_constant": 1e-4},
        {"min_excess_delay": 1.0},
    ])
    def test_channel_reach_past_the_record_cap_rejected(self, default_pulses, channel):
        cfg = SimConfig(channel=ChannelProfile(**channel))
        with pytest.raises(ConfigError, match="channel reach"):
            simulate._resolve_pulses(cfg, default_pulses)

    def test_channel_reach_limit(self, default_pulses):
        # the default profile reaches 4 x (2 + 60 + 40 x 5) ns; min_excess_delay adds 4x itself
        cap_s = simulate.MAX_RECORD_SAMPLES * default_pulses.dt / 4 - 262e-9
        for scale, accepted in ((0.99, True), (1.01, False)):
            cfg = SimConfig(channel=ChannelProfile(min_excess_delay=scale * cap_s))
            if accepted:
                simulate._resolve_pulses(cfg, default_pulses)
            else:
                with pytest.raises(ConfigError, match="channel reach"):
                    simulate._resolve_pulses(cfg, default_pulses)

    def test_record_limit_is_inclusive(self, default_pulses):
        n_sym = round(SimConfig().symbol_duration / default_pulses.dt)
        longest = simulate.MAX_RECORD_SAMPLES // n_sym - 1
        simulate._resolve_pulses(SimConfig(symbol_count=longest), default_pulses)
        with pytest.raises(ConfigError, match="record"):
            simulate._resolve_pulses(SimConfig(symbol_count=longest + 1), default_pulses)

    @pytest.mark.parametrize("symbol_duration, symbols", [
        (1.3e-9, 26), (1.5e-9, 30), (2e-9, 40), (2.85e-9, 57)])
    def test_symbol_shorter_than_calibration_template_rejected(self, default_pulses,
                                                               symbol_duration, symbols):
        # the estimator calibrates on the pulse delayed by a fraction of a sample,
        # 26 + 32 = 58 samples: every trial of a shorter symbol would fail
        cfg = SimConfig(symbol_duration=symbol_duration, snr_grid_db=(30.0,), trials=2,
                        **SMALL_ROOM)
        message = f"is {symbols} samples .* 58-sample calibration template .* 26-sample pulse"
        with pytest.raises(ConfigError, match=message):
            sweep_snr(cfg, default_pulses)
        with pytest.raises(ConfigError, match=message):
            run_trial(cfg, 30.0, seed=1)

    @pytest.mark.parametrize("symbol_duration", [2.9e-9, 3e-9])
    def test_symbol_holding_the_calibration_template_runs(self, default_pulses,
                                                          symbol_duration):
        cfg = SimConfig(symbol_duration=symbol_duration, snr_grid_db=(30.0,), trials=2,
                        **SMALL_ROOM)
        for trial in sweep_snr(cfg, default_pulses).trials[30.0]:
            assert not any(math.isnan(t) for t in trial.toa_s)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_field_round_trips(self, data):
        spacing = data.draw(_other_than(_floats(1e-12, 1e-6), 5e-9))
        excess = data.draw(_other_than(_floats(0.0, 1e-6), 2e-9))
        channel_kwargs = {
            "tap_count_min": data.draw(st.integers(1, 19)),
            "tap_count_max": data.draw(st.integers(41, 80)),
            "mean_tap_spacing": spacing,
            "decay_constant": data.draw(_other_than(_floats(1e-12, 1e-6), 20e-9)),
            # at most 100 taps on average to reach it, inside ChannelProfile's 128
            "delay_spread_target": data.draw(_other_than(
                _floats(1e-12, min(1e-6, excess + 100 * spacing)), 60e-9)),
            "mpc_relative_gain": data.draw(_other_than(_floats(1e-3, 1.0), 0.35)),
            "min_excess_delay": excess,
        }
        lo = data.draw(st.tuples(*[_floats(-5.0, 5.0)] * 3))
        hi = tuple(v + data.draw(_floats(0.5, 4.0)) for v in lo)
        anchor_xyz = st.tuples(*[_floats(a - 1.0, b + 1.0) for a, b in zip(lo, hi)])
        anchors = data.draw(st.lists(
            st.builds(Anchor, st.text(max_size=6), anchor_xyz), min_size=4, max_size=6,
            unique_by=lambda a: a.id))
        kwargs = {
            "room": RoomBounds(lo, hi),
            "anchors": tuple(anchors),
            "pulse_set": data.draw(st.text(min_size=1, max_size=20)),
            "channel": ChannelProfile(**channel_kwargs),
            "symbol_duration": data.draw(_other_than(_floats(40e-9, 1e-6), 50e-9)),
            "symbol_count": data.draw(_other_than(st.integers(2, 500), 20)),
            "snr_grid_db": tuple(data.draw(st.lists(_floats(-50.0, 100.0), min_size=1, unique=True))),
            "trials": data.draw(_other_than(st.integers(1, 10**6), 100)),
            "master_seed": data.draw(_other_than(st.integers(0, 2**63), 12345)),
            # at most 0.2 m, so the placement box survives the smallest 0.5 m room
            "placement_inset": data.draw(_other_than(_floats(0.0, 0.2), 0.1)),
        }
        assert set(channel_kwargs) == {f.name for f in dataclasses.fields(ChannelProfile)}
        assert set(kwargs) == {f.name for f in dataclasses.fields(SimConfig)}
        cfg = SimConfig(**kwargs)
        assert config_from_json(json.loads(json.dumps(config_to_json(cfg)))) == cfg

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_design_field_round_trips(self, data):
        # a mask of 1-5 contiguous segments, one of them a forbidden (-inf) band
        edges = sorted(data.draw(st.lists(_floats(0.0, 2e10), min_size=2, max_size=6,
                                          unique=True)))
        limits = data.draw(st.lists(_floats(-120.0, 0.0), min_size=len(edges) - 1,
                                    max_size=len(edges) - 1))
        limits[data.draw(st.integers(0, len(limits) - 1))] = -math.inf
        spline_order = data.draw(_other_than(st.integers(1, MAX_SPLINE_ORDER), 4))
        basis_count = data.draw(_other_than(st.integers(max(spline_order, 2), 60), 30))
        dt = data.draw(_other_than(_floats(1e-12, 1e-9), DEFAULT_DT))
        kwargs = {
            "pulse_count": data.draw(_other_than(st.integers(1, basis_count - 1), 4)),
            "basis_count": basis_count,
            "spline_order": spline_order,
            # at most 4,001 samples, inside the audit's 4,096-point FFT
            "pulse_duration": data.draw(_other_than(_floats(dt, 4000 * dt), 1.28e-9)),
            "mask": SpectralMask(tuple(zip(edges, edges[1:], limits))),
            "dt": dt,
            # 20 x 59 pulses x 2 x 4,001 samples stays inside MAX_DESIGN_VALUES
            "population": data.draw(st.integers(1, 20)),
            "generations": data.draw(_other_than(st.integers(1, MAX_GENERATIONS), 500)),
            "seed": data.draw(_other_than(st.integers(0, 2**63), 0)),
        }
        assert set(kwargs) == {f.name for f in dataclasses.fields(DesignConfig)}
        cfg = DesignConfig(**kwargs)
        decoded = config_from_json(json.loads(json.dumps(config_to_json(cfg))), DesignConfig)
        assert decoded == cfg

    @settings(max_examples=60, deadline=None)
    @given(attenuation_db=st.floats(min_value=ARTIFICIAL_FLOOR_DB, allow_infinity=False),
           nonlinearity_rad=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_every_threshold_field_round_trips(self, attenuation_db, nonlinearity_rad):
        th = DetectionThresholds(attenuation_db, nonlinearity_rad)
        text = json.dumps(config_to_json(th), allow_nan=False)
        assert config_from_json(json.loads(text), DetectionThresholds) == th

    @pytest.mark.parametrize("key, value", [
        *(("attenuation_db", v) for v in (math.nan, math.inf, -math.inf, 2.9, -5.0)),
        *(("nonlinearity_rad", v) for v in (math.nan, math.inf, -math.inf, 0.0, -0.3)),
    ])
    def test_a_threshold_out_of_range_is_rejected_by_its_key(self, key, value):
        with pytest.raises(ConfigError, match=key):
            config_from_json({key: value}, DetectionThresholds)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_number_written_as_a_string_bool_or_null_is_rejected(self, data, default_pulses):
        # every JSON input file reads its numbers by one rule, and names the key of a bad one
        obj, decode, is_config = data.draw(st.sampled_from([
            (config_to_json(SimConfig()), config_from_json, True),
            (config_to_json(DesignConfig()), lambda o: config_from_json(o, DesignConfig), True),
            (pulse_set_to_json(default_pulses), load_pulse_set, False),
            (waveform_to_json(default_pulses.pulses[0]), waveform_from_json, False),
        ]))
        path = data.draw(st.sampled_from(_numeric_leaves(obj)))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(st.sampled_from([str(parent[path[-1]]), True, None]))
        keys = [key for key in path if isinstance(key, str)]
        with pytest.raises(ValueError, match="must be (a number|an integer)") as info:
            decode(obj)
        # a config names its own key and the innermost one; a pulse set or waveform its key
        for key in {keys[0], keys[-1]} if is_config else {keys[-1]}:
            assert key in str(info.value)


def _numeric_leaves(obj, path=()):
    """Paths to every number in a parsed JSON value."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for key, val in items for leaf in _numeric_leaves(val, path + (key,))]
    return [path] if type(obj) in (int, float) else []


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _other_than(strategy, default):
    return strategy.filter(lambda v: v != default)


class TestTrialSeeds:
    def test_documented_scheme_is_deterministic(self):
        assert trial_seed(1, 2, 3) == trial_seed(1, 2, 3)
        assert trial_seed(1, 2, 3) != trial_seed(1, 2, 4)

    def test_no_collisions_across_sweep(self):
        cfg = SimConfig()
        seeds = {
            trial_seed(cfg.master_seed, si, ti)
            for si in range(len(cfg.snr_grid_db))
            for ti in range(cfg.trials)
        }
        assert len(seeds) == len(cfg.snr_grid_db) * cfg.trials

    def test_scenarios_shared_across_snr(self, default_pulses, tiny_cfg):
        # the error-vs-SNR curves are paired: a trial index reuses its target
        # and channels at every SNR point, only the noise differs
        result = sweep_snr(tiny_cfg, default_pulses)
        low, high = (result.trials[s] for s in sorted(result.trials))
        for a, b in zip(low, high):
            assert a.truth == b.truth
            assert a.toa_err_s != b.toa_err_s


class TestRunTrial:
    @settings(max_examples=25, deadline=None)
    @given(snr_db=st.floats(-MAX_SNR_DB, MAX_SNR_DB) | st.just(math.inf),
           seed=st.integers(0, 2**32 - 1))
    def test_every_accepted_snr_runs_a_trial(self, snr_db, seed):
        # failures at a hopeless SNR are recorded in the result, never raised
        cfg = SimConfig(snr_grid_db=(snr_db,))
        res = run_trial(cfg, snr_db, seed)
        assert res.snr_db == snr_db and len(res.toa_s) == len(cfg.anchors)

    def test_deterministic(self):
        cfg = SimConfig()
        a = run_trial(cfg, 20.0, seed=77)
        b = run_trial(cfg, 20.0, seed=77)
        assert a == b

    def test_noiseless_error_below_grid_floor(self):
        cfg = SimConfig()
        res = run_trial(cfg, math.inf, trial_seed(cfg.master_seed, 0, 0))
        assert res.failure is None
        assert res.position_error_m <= 0.015

    def test_truth_on_floor_within_inset(self):
        cfg = SimConfig()
        for ti in range(5):
            res = run_trial(cfg, math.inf, trial_seed(1, 0, ti))
            x, y, z = res.truth
            assert z == 0.0
            assert 0.1 <= x <= 5.9 and 0.1 <= y <= 5.9

    def test_exact_linear_ranging_relation(self):
        cfg = SimConfig()
        res = run_trial(cfg, 20.0, seed=99)
        for toa_err, rng_err in zip(res.toa_err_s, res.range_err_m):
            assert abs(rng_err - SPEED_OF_LIGHT * toa_err) < 1e-12

    def test_per_anchor_arrays_match_anchor_count(self):
        cfg = SimConfig()
        res = run_trial(cfg, 30.0, seed=5)
        for field in (res.toa_s, res.range_m, res.toa_err_s, res.range_err_m):
            assert len(field) == len(cfg.anchors)

    def test_no_thread_outlives_the_trial(self):
        before = threading.active_count()
        run_trial(SimConfig(), 30.0, seed=5)
        assert threading.active_count() == before

    @pytest.mark.parametrize("name", ["sample_cir", "_unit_noise"])  # the scenario, the noise
    def test_no_thread_outlives_a_trial_that_raises(self, monkeypatch, name):
        class Sentinel(Exception):
            pass

        draw = simulate._unit_noise

        def slow_draw(*args, **kwargs):  # outlasts a failed build unless the trial joins it
            time.sleep(0.02)
            return draw(*args, **kwargs)

        def fail(*args, **kwargs):
            raise Sentinel(name)

        monkeypatch.setattr(simulate, "_unit_noise", slow_draw)
        monkeypatch.setattr(simulate, name, fail)
        before = threading.active_count()
        with pytest.raises(Sentinel, match=name):
            run_trial(SimConfig(), 30.0, seed=5)
        assert threading.active_count() == before

    def test_solver_failure_recorded_not_raised(self, monkeypatch):
        # the smallest positive bias gate turns every fix into a recorded failure
        monkeypatch.setattr(positioning, "BIAS_GATE_M", math.ulp(0.0))
        cfg = SimConfig()
        res = run_trial(cfg, math.inf, seed=3)
        assert res.failure is not None
        assert res.fix is None and res.position_error_m is None
        assert len(res.range_m) == 4  # ranging results survive the failure

    def test_toa_failure_recorded_not_raised(self, default_pulses, monkeypatch):
        estimate = simulate.toa_dirty_template
        calls = []

        def dead_second_anchor(*args, **kwargs):
            calls.append(None)
            if len(calls) % 4 == 2:
                raise ValueError("objective carries no timing structure; no usable signal")
            return estimate(*args, **kwargs)

        monkeypatch.setattr(simulate, "toa_dirty_template", dead_second_anchor)
        cfg = SimConfig(snr_grid_db=(30.0,), trials=2)
        res = run_trial(cfg, 30.0, seed=5)
        assert res.failure == "ValueError: objective carries no timing structure; no usable signal"
        assert res.fix is None and res.position_error_m is None
        for entries in (res.toa_s, res.range_m, res.toa_err_s, res.range_err_m):
            assert math.isnan(entries[1])
            assert all(math.isfinite(e) for i, e in enumerate(entries) if i != 1)

        result = sweep_snr(cfg, default_pulses)
        row = result.rows[0]
        assert row.fix_failure_rate == 1.0
        assert math.isnan(row.mean_position_error_m)
        finite = [e for t in result.trials[30.0] for i, e in enumerate(t.toa_err_s) if i != 1]
        expect_toa = np.mean(np.square(finite)) / cfg.symbol_duration**2
        assert row.toa_nmse == pytest.approx(expect_toa, rel=1e-12)
        assert math.isfinite(row.range_nmse)


FIVE_ANCHORS = default_anchors() + (Anchor("a4", (3.0, 3.0, 3.0)),)


def count_thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started from now on, in start order."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def full_records(cfg, scenario, seed):
    """Each anchor's received burst of ``build_scenario(cfg, ., seed)``, zero-padded
    to (symbol_count + 1) whole symbols and not cut to the read window.

    The pulse is propagated once, and its pattern-signed copies are added one
    symbol apart, in symbol order, on a record as long as propagating the
    whole ``make_burst`` burst returns.
    """
    streams = np.random.SeedSequence(seed).spawn(1 + len(cfg.anchors))
    n = round(cfg.symbol_duration / scenario.pulses[0].dt)
    records = []
    for idx, (dist, pulse) in enumerate(zip(scenario.distances, scenario.pulses)):
        cir_seed = int(streams[1 + idx].generate_state(1, dtype=np.uint64)[0])
        cir = sample_cir(cfg.channel, cir_seed)
        length = len(propagate(make_burst(pulse, cfg.symbol_duration, cfg.symbol_count), dist, cir))
        rx = propagate(pulse, dist, cir).samples
        record = np.zeros(max(length, (cfg.symbol_count + 1) * n))
        for s, sign in zip(range(cfg.symbol_count), itertools.cycle(TDT_TRAINING_PATTERN)):
            stop = min(s * n + rx.size, length)
            record[s * n : stop] += sign * rx[: stop - s * n]
        records.append(Waveform(record, pulse.dt))
    return records


class TestScenario:
    # the default records outrun the window; 200 ns symbols x 2 need padding
    @pytest.mark.parametrize("kwargs", [{}, {"symbol_duration": 200e-9, "symbol_count": 2}])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_records_are_the_read_window_and_powers_the_padded_record(self, default_pulses,
                                                                       kwargs, seed):
        cfg = SimConfig(**kwargs)
        scenario = build_scenario(cfg, default_pulses, seed)
        window = read_window(cfg.symbol_duration, default_pulses.dt, cfg.symbol_count)
        full = full_records(cfg, scenario, seed)
        assert len(scenario.powers) == len(scenario.received) == len(cfg.anchors)
        for rx, power, record in zip(scenario.received, scenario.powers, full):
            assert len(record) > window
            assert np.array_equal(rx.samples, record.samples[:window])
            assert power == float(np.mean(record.samples**2))

    @pytest.mark.parametrize("snr_db", [10.0, 40.0])
    def test_trial_equals_noising_the_full_records(self, default_pulses, snr_db):
        # the oracle scenario holds each whole padded record and its own power,
        # so add_awgn draws noise over all of it
        cfg = SimConfig()
        seed = scenario_seed(cfg.master_seed, 4)
        scenario = build_scenario(cfg, default_pulses, seed)
        full = full_records(cfg, scenario, seed)
        oracle = dataclasses.replace(
            scenario, received=tuple(full),
            powers=tuple(float(np.mean(r.samples**2)) for r in full))
        noise_seed = trial_seed(cfg.master_seed, 0, 4)
        result = run_trial(cfg, snr_db, noise_seed, scenario=scenario)
        assert result.failure is None
        assert result == run_trial(cfg, snr_db, noise_seed, scenario=oracle)

    @pytest.mark.parametrize("anchors", [default_anchors(), FIVE_ANCHORS], ids=["4", "5"])
    @pytest.mark.parametrize("snr_db", [10.0, 30.0, math.inf])
    def test_prebuilt_equals_seeded(self, default_pulses, monkeypatch, anchors, snr_db):
        # without a scenario, the trial seed draws it, and a finite SNR's noise is
        # drawn on one helper thread meanwhile; both schedules share one arithmetic
        cfg = SimConfig(anchors=anchors)
        started = count_thread_starts(monkeypatch)
        for trial in range(3):
            seed = trial_seed(cfg.master_seed, 2, trial)
            prebuilt = run_trial(cfg, snr_db, seed,
                                 scenario=build_scenario(cfg, default_pulses, seed))
            assert len(started) == (trial if math.isfinite(snr_db) else 0)
            seeded = run_trial(cfg, snr_db, seed)
            assert len(started) == (trial + 1 if math.isfinite(snr_db) else 0)
            np.testing.assert_equal(dataclasses.asdict(seeded), dataclasses.asdict(prebuilt))

    def test_seeded_equals_prebuilt_under_a_short_switch_interval(self, default_pulses):
        # the helper and the trial hand the GIL back and forth about every microsecond
        cfg = SimConfig()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            seeded = [run_trial(cfg, 30.0, seed) for seed in range(4)]
        finally:
            sys.setswitchinterval(interval)
        for seed, result in enumerate(seeded):
            assert result == run_trial(cfg, 30.0, seed,
                                       scenario=build_scenario(cfg, default_pulses, seed))

    def test_line_of_sight_record_padded_to_the_window(self, default_pulses):
        # a lone LOS tap adds no delay spread, so the record can end within the read
        # window: 4 of the first 4 trials' 16 anchors. Each record is the whole burst
        # cut to the record length, on zeros as long as (symbol_count + 1) symbols
        cfg = SimConfig(channel=ChannelProfile(tap_count_min=1, tap_count_max=1))
        los = ChannelRealization(((0.0, 1.0),))
        window = read_window(cfg.symbol_duration, default_pulses.dt, cfg.symbol_count)
        padded = 0
        for trial in range(4):
            scenario = build_scenario(cfg, default_pulses, scenario_seed(cfg.master_seed, trial))
            for rx, power, dist, pulse in zip(scenario.received, scenario.powers,
                                              scenario.distances, scenario.pulses):
                length = _record_length(round(cfg.symbol_duration / pulse.dt)
                                        * cfg.symbol_count, dist, los, pulse.dt)
                burst = make_burst(propagate(pulse, dist, los), cfg.symbol_duration,
                                   cfg.symbol_count).samples
                record = np.zeros(max(length, window + 1))
                record[: min(length, burst.size)] = burst[:length]
                assert np.array_equal(rx.samples, record[:window])
                assert power == float(np.mean(record**2))
                padded += length <= window
        assert padded == 4

    def test_received_samples_read_only(self, default_pulses):
        scenario = build_scenario(SimConfig(), default_pulses, 7)
        for rx in scenario.received:
            with pytest.raises(ValueError):
                rx.samples[0] = 1.0


class TestReceivedBurst:
    # A default scenario's distances: floor targets lie 3 m below the ceiling
    # anchors and at most 9 m from one. The two records differ where each one's
    # circular tap filter wraps the taps' sinc tails, in proportion to the
    # delayed pulse's Nyquist content: most at whole-sample delays. The largest
    # deviation measured was 5.2e-3 of the peak (pulse 1, CIR seed 1, 262
    # samples); 1,000 random cases read at most 2.6e-3, median 1e-4.
    @settings(max_examples=200, deadline=None)
    @given(cir_seed=st.integers(0, 2**32 - 1), dist=st.floats(3.0, 9.0),
           pulse_index=st.integers(0, 3))
    def test_overlap_add_matches_propagating_the_burst(self, default_pulses, cir_seed, dist,
                                                       pulse_index):
        cfg = SimConfig()
        pulse = default_pulses.pulses[pulse_index]
        cir = sample_cir(cfg.channel, cir_seed)
        # build_scenario's record: the received pulse's burst, cut or padded to this length
        length = _record_length(round(cfg.symbol_duration / pulse.dt) * cfg.symbol_count,
                                dist, cir, pulse.dt)
        burst = make_burst(propagate(pulse, dist, cir), cfg.symbol_duration,
                           cfg.symbol_count).samples[:length]
        got = np.concatenate([burst, np.zeros(length - burst.size)])
        whole = propagate(make_burst(pulse, cfg.symbol_duration, cfg.symbol_count), dist, cir)
        assert got.size == len(whole)
        assert np.max(np.abs(got - whole.samples)) <= 1e-2 * np.max(np.abs(whole.samples))

    def test_noiseless_line_of_sight_toa_down_to_two_centimetres(self, default_pulses):
        # Within 0.5 m of an anchor the overlap-added record deviates by up to
        # 4.1e-2 of the peak from propagating the whole burst; the ToA read from
        # it stays exact. These 248 cases read at most 3.8 fs, and 3.1 fs below 5 cm.
        cfg = SimConfig()
        los = ChannelRealization(((0.0, 1.0),))
        window = read_window(cfg.symbol_duration, default_pulses.dt, cfg.symbol_count)
        worst = 0.0
        for pulse in default_pulses.pulses:
            for dist in np.geomspace(0.02, 9.0, 62):
                length = _record_length(round(cfg.symbol_duration / pulse.dt) * cfg.symbol_count,
                                        dist, los, pulse.dt)
                record = make_burst(propagate(pulse, dist, los), cfg.symbol_duration,
                                    cfg.symbol_count, length).samples
                record = np.concatenate([record, np.zeros(max(0, window - length))])
                est = toa_dirty_template(Waveform(record[:window], pulse.dt),
                                         cfg.symbol_duration, cfg.symbol_count, template=pulse)
                worst = max(worst, abs(est.toa - dist / SPEED_OF_LIGHT))
        assert worst <= 0.05e-12

    def test_one_propagation_per_burst(self, default_pulses, monkeypatch):
        calls = []

        def counting(w, distance_m, cir):
            calls.append(len(w))
            return propagate(w, distance_m, cir)

        monkeypatch.setattr(simulate, "propagate", counting)
        cfg = SimConfig()
        build_scenario(cfg, default_pulses, 11)
        assert calls == [len(default_pulses.pulses[i % default_pulses.pulse_count])
                         for i in range(len(cfg.anchors))]


class TestDefaultPulseSet:
    def test_loaded_once_and_read_only(self):
        ps = load_default_pulse_set()
        assert load_default_pulse_set() is ps
        with pytest.raises(ValueError):
            ps.coeffs[0, 0] = 0.0
        with pytest.raises(ValueError):
            ps.pulses[0].samples[0] += 1.0


class TestSweep:
    def test_rows_ordered_and_aggregated(self, default_pulses, tiny_cfg):
        result = sweep_snr(tiny_cfg, default_pulses)
        snrs = [r.snr_db for r in result.rows]
        assert snrs == sorted(snrs)
        assert set(result.trials) == set(snrs)
        for snr, trials in result.trials.items():
            assert len(trials) == tiny_cfg.trials

    # The counters append one line per call to a file, so the calls made in
    # every forked worker are seen, not only those of the calling process.

    def test_one_run_trial_per_snr_and_trial(self, default_pulses, tiny_cfg, monkeypatch,
                                             tmp_path):
        # the benchmark times each (SNR, trial) as one run_trial span
        run = simulate.run_trial
        log = tmp_path / "calls.txt"

        def counting(*args, **kwargs):
            res = run(*args, **kwargs)
            with open(log, "a") as fh:
                fh.write(f"{res.snr_db!r} {res.trial_id}\n")
            return res

        monkeypatch.setattr(simulate, "run_trial", counting)
        sweep_snr(tiny_cfg, default_pulses)
        seen = [(float(snr), int(ti)) for snr, ti in map(str.split, log.read_text().splitlines())]
        assert sorted(seen) == [(snr, ti) for snr in sorted(tiny_cfg.snr_grid_db)
                                for ti in range(tiny_cfg.trials)]

    def test_one_scenario_per_trial(self, default_pulses, tiny_cfg, monkeypatch, tmp_path):
        # a scenario is built once per trial index and shared by its SNR points
        build = simulate.build_scenario
        log = tmp_path / "seeds.txt"

        def counting(cfg, pulse_set, seed):
            with open(log, "a") as fh:
                fh.write(f"{seed}\n")
            return build(cfg, pulse_set, seed)

        monkeypatch.setattr(simulate, "build_scenario", counting)
        sweep_snr(tiny_cfg, default_pulses)
        # workers append in no fixed order between them: read the seeds back in
        # trial order, any seed of no trial first
        trial_of = {scenario_seed(tiny_cfg.master_seed, ti): ti for ti in range(tiny_cfg.trials)}
        seeds = sorted(map(int, log.read_text().split()), key=lambda s: trial_of.get(s, -1))
        assert seeds == [scenario_seed(tiny_cfg.master_seed, ti)
                         for ti in range(tiny_cfg.trials)]

    def test_single_trial_equals_run_trial(self, default_pulses):
        cfg = SimConfig(snr_grid_db=(25.0,), trials=1)
        result = sweep_snr(cfg, default_pulses)
        direct = run_trial(cfg, 25.0, trial_seed(cfg.master_seed, 0, 0), trial_id=0)
        assert result.trials[25.0][0] == direct
        row = result.rows[0]
        expect_toa = np.mean(np.square(direct.toa_err_s)) / cfg.symbol_duration**2
        assert row.toa_nmse == pytest.approx(expect_toa, rel=1e-12)
        assert row.mean_position_error_m == pytest.approx(direct.position_error_m, rel=1e-12)

    def test_regression_baseline_35db(self, default_pulses):
        cfg = SimConfig(snr_grid_db=(35.0,), trials=100)
        result = sweep_snr(cfg, default_pulses)
        assert result.rows[0].toa_nmse == pytest.approx(TOA_NMSE_BASELINE_35DB, rel=1e-9, abs=0)


def use_cores(monkeypatch, count: int) -> None:
    """Make the process report ``count`` usable cores, so a sweep runs ``count`` workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TwoArgumentError(Exception):
    """Pickles through its one-tuple of args, but cannot be rebuilt from it."""

    def __init__(self, trial, reason):
        super().__init__(f"trial {trial}: {reason}")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="sweep workers are forked")
class TestSweepWorkers:
    CFG = SimConfig(snr_grid_db=(20.0, 30.0), trials=5, master_seed=7)

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A sweep still waiting on its workers after a minute fails the test, not the run."""
        def expire(signum, frame):
            raise TimeoutError("the sweep still waits on its workers after 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_results_and_files_do_not_depend_on_the_worker_count(
            self, default_pulses, monkeypatch, tmp_path):
        results, files = [], []
        for count in (1, 2, 3):
            use_cores(monkeypatch, count)
            results.append(sweep_snr(self.CFG, default_pulses))
            out = tmp_path / f"workers{count}"
            argv = ["sweep", "--seed", "7", "--trials", "5", "--snr", "20", "30",
                    "--out", str(out)]
            assert cli.main(argv) == 0
            files.append([(out / name).read_bytes() for name in ("sweep.csv", "fixes.csv")])
        assert results[0].rows == results[1].rows == results[2].rows
        assert results[0].trials == results[1].trials == results[2].trials
        assert [t.trial_id for t in results[0].trials[20.0]] == list(range(5))
        assert files[0] == files[1] == files[2]
        assert no_child_left()

    @pytest.mark.parametrize("failing_trial", [0, 1])  # the caller's share, then a child's
    def test_a_failing_trial_raises_and_leaves_no_child(
            self, default_pulses, monkeypatch, failing_trial):
        build = simulate.build_scenario
        bad_seed = scenario_seed(self.CFG.master_seed, failing_trial)

        def failing(cfg, pulse_set, seed):
            if seed == bad_seed:
                raise ValueError(f"no scenario for trial {failing_trial}")
            return build(cfg, pulse_set, seed)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(simulate, "build_scenario", failing)
        with pytest.raises(ValueError, match=f"no scenario for trial {failing_trial}") as info:
            sweep_snr(self.CFG, default_pulses)
        if failing_trial == 1:  # raised again in the caller, the child's traceback chained
            assert "sweep worker" in str(info.value.__cause__)
        assert no_child_left()

    def test_a_worker_that_dies_is_reported(self, default_pulses, monkeypatch):
        build = simulate.build_scenario
        bad_seed = scenario_seed(self.CFG.master_seed, 1)
        caller = os.getpid()

        def dying(cfg, pulse_set, seed):
            if seed == bad_seed:
                assert os.getpid() != caller, "trial 1 ran in the calling process"
                os._exit(3)
            return build(cfg, pulse_set, seed)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(simulate, "build_scenario", dying)
        with pytest.raises(RuntimeError, match="sent no results; exit status 3"):
            sweep_snr(self.CFG, default_pulses)
        assert no_child_left()

    def test_an_exception_that_does_not_unpickle_is_reported(self, default_pulses, monkeypatch):
        build = simulate.build_scenario
        bad_seed = scenario_seed(self.CFG.master_seed, 1)

        def failing(cfg, pulse_set, seed):
            if seed == bad_seed:
                raise TwoArgumentError(1, "no scenario")
            return build(cfg, pulse_set, seed)

        use_cores(monkeypatch, 2)
        monkeypatch.setattr(simulate, "build_scenario", failing)
        with pytest.raises(RuntimeError, match="TwoArgumentError: trial 1: no scenario$"):
            sweep_snr(self.CFG, default_pulses)
        assert no_child_left()

    def test_a_sweep_forked_right_after_a_locate_trial(self, default_pulses, monkeypatch):
        # the trial's helper thread is joined before it returns, so the fork copies no thread
        cfg = dataclasses.replace(self.CFG, trials=2)
        use_cores(monkeypatch, 2)
        alone = sweep_snr(cfg, default_pulses)
        run_trial(SimConfig(), 30.0, seed=5)
        assert sweep_snr(cfg, default_pulses) == alone
        assert no_child_left()

    def test_one_core_forks_nothing(self, default_pulses, monkeypatch):
        def no_fork():
            raise AssertionError("forked with one usable core")

        expected = sweep_snr(self.CFG, default_pulses)
        use_cores(monkeypatch, 1)
        monkeypatch.setattr(os, "fork", no_fork)
        assert sweep_snr(self.CFG, default_pulses) == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="cell workers are forked")
class TestRunCells:
    """The cell runner alone, with a ``measure`` that does no physics."""

    deadline = TestSweepWorkers.deadline
    KEYS = range(7)  # uneven shares: 4 + 3 at two workers, 3 + 2 + 2 at three

    @staticmethod
    def measure(key: int) -> list[tuple[int, int]]:
        return [(key, j) for j in range(key % 3)]  # 0, 1 or 2 results

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_results_merge_in_key_order(self, monkeypatch, count):
        use_cores(monkeypatch, count)
        merged = simulate._run_cells(self.KEYS, self.measure)
        assert merged == [result for key in self.KEYS for result in self.measure(key)]
        pids = simulate._run_cells(self.KEYS, lambda key: [os.getpid()])
        assert len(set(pids)) == count  # one process per share
        assert no_child_left()

    def test_a_failing_key_in_a_child_raises_chained_and_leaves_no_child(self, monkeypatch):
        def measure(key):
            if key == 3:  # dealt to the child at two workers
                raise ValueError("no result for key 3")
            return self.measure(key)

        use_cores(monkeypatch, 2)
        with pytest.raises(ValueError, match="no result for key 3") as info:
            simulate._run_cells(self.KEYS, measure)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert "sweep worker (cells range(1, 7, 2))" in str(info.value.__cause__)
        assert no_child_left()


class TestEmitCsv:
    HEADER = "snr_db,toa_nmse,range_nmse,mean_position_error_m,position_nmse,fix_failure_rate"

    def test_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text().strip() == self.HEADER

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([SweepRow(10.0, 1e-4, 2e-4, 0.05, 1e-5, 0.0)], path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_round_trip(self, tmp_path, default_pulses, tiny_cfg, read_sweep_csv):
        result = sweep_snr(tiny_cfg, default_pulses)
        path = tmp_path / "sweep.csv"
        emit_csv(result.rows, path)
        back = read_sweep_csv(path)
        for row, orig in zip(back, result.rows):
            for f in dataclasses.fields(SweepRow):
                a, b = getattr(row, f.name), getattr(orig, f.name)
                assert a == pytest.approx(b, rel=1e-8, abs=1e-300)

    def test_io_error_has_path_context(self, tmp_path):
        target = tmp_path / "no_such_dir" / "x.csv"
        with pytest.raises(OSError, match="no_such_dir"):
            emit_csv([], target)

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "digits.csv"
        emit_csv([SweepRow(10.0, 1.0 / 3.0, 2e-4, 0.05, 1e-5, 0.0)], path)
        row = path.read_text().strip().splitlines()[1]
        assert "3.333333333e-01" in row

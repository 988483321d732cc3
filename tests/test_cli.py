import dataclasses
import json
import math
import re

import numpy as np
import pytest

from uwbloc import cli, simulate
from uwbloc.channel import MATERIAL_KINDS, SPEED_OF_LIGHT, material_response
from uwbloc.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_IO, EXIT_OK, main
from uwbloc.positioning import Anchor, DegenerateGeometryError, PositionFix, RoomBounds
from uwbloc.pulses import BSplineBasis, DesignConfig, load_pulse_set, pulse_set_to_json
from uwbloc.simulate import SimConfig, config_to_json
from uwbloc.waveform import Waveform

from conftest import signature_to_csv, waveform_to_csv, waveform_to_json


# a table cell written by write_csv with the default 9 digits
E9 = r"-?\d\.\d{9}e[+-]\d{2,3}"


def write_config(tmp_path, **fields):
    """Path of a SimConfig file for a 2-trial, 2-point sweep with ``fields`` changed.

    Its sweeps write to ``tmp_path / "out"`` by ``--out``.
    """
    cfg = SimConfig(snr_grid_db=(20.0, 30.0), trials=2)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_json(dataclasses.replace(cfg, **fields)), indent=2))
    return path


@pytest.fixture()
def tiny_config_path(tmp_path):
    return write_config(tmp_path)


# a 10 cm cube with anchors on its top corners: its ranges stay inside the 30 cm
# ambiguity of a 1 ns symbol, which is shorter than the 1.3 ns packaged pulse
TINY_ROOM = dict(
    room=RoomBounds((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)),
    anchors=tuple(Anchor(f"a{i}", (x, y, 0.1))
                  for i, (x, y) in enumerate([(0, 0), (0.1, 0), (0, 0.1), (0.1, 0.1)])),
    placement_inset=0.01, symbol_duration=1e-9)


# a 20 cm cube with anchors on its top corners: its ranges stay inside the
# 45 cm ambiguity of a 1.5 ns symbol
SMALL_ROOM = dict(
    room=RoomBounds((0.0, 0.0, 0.0), (0.2, 0.2, 0.2)),
    anchors=tuple(Anchor(f"a{i}", (x, y, 0.2))
                  for i, (x, y) in enumerate([(0, 0), (0.2, 0), (0, 0.2), (0.2, 0.2)])),
    placement_inset=0.02)


def bad_pulse_set(tmp_path, default_pulses) -> str:
    """Path of a pulse set whose stored energy does not match its pulses."""
    obj = pulse_set_to_json(default_pulses)
    obj["Es"] *= 2.0
    path = tmp_path / "ps.json"
    path.write_text(json.dumps(obj))
    return str(path)


def broken_pulse_sets(tmp_path, default_pulses) -> list[tuple[str, str]]:
    """(path, what its error names) of broken pulse sets: basis m 0, 4.9, 172 or
    10**400, T 0 or Ns 0; coefficient rows all one short, one row one short, or a
    number for the rows; a basis that is no object; no Es; dt 0, negative or
    infinite; a 1 ms T, whose pulses would span 6.6e8 samples."""
    edits = (
        ("order_m", lambda obj: obj["basis"].update(m=0)),
        # each once ended in an OverflowError, exit 1: 171! is the last factorial
        # below the float maximum, and 10**400 has no float at all
        ("order_m", lambda obj: obj["basis"].update(m=172)),
        ("order_m", lambda obj: obj["basis"].update(m=10**400)),
        ("pulse set key 'm'", lambda obj: obj["basis"].update(m=4.9)),
        ("knot_spacing", lambda obj: obj["basis"].update(T=0)),
        ("count_ns", lambda obj: obj["basis"].update(Ns=0)),
        ("pulse set key 'coeffs'", lambda obj: obj.update(coeffs=[r[:-1] for r in obj["coeffs"]])),
        ("pulse set key 'coeffs'", lambda obj: obj["coeffs"][1].pop()),
        ("pulse set key 'coeffs'", lambda obj: obj.update(coeffs=5)),
        ("pulse set key 'basis'", lambda obj: obj.update(basis=[4])),
        ("pulse set key 'Es'", lambda obj: obj.pop("Es")),
        ("pulse set key 'dt'", lambda obj: obj.update(dt=0)),
        ("pulse set key 'dt'", lambda obj: obj.update(dt=-obj["dt"])),
        ("pulse set key 'dt'", lambda obj: obj.update(dt=math.inf)),
        ("pulse set key 'basis'", lambda obj: obj["basis"].update(T=1e-3)),
    )
    broken = []
    for i, (named, edit) in enumerate(edits):
        obj = pulse_set_to_json(default_pulses)
        edit(obj)
        path = tmp_path / f"ps_{i}.json"
        path.write_text(json.dumps(obj))
        broken.append((str(path), named))
    return broken


class TestSweepCommand:
    def test_writes_tables(self, tiny_config_path, tmp_path, capsys, read_sweep_csv):
        assert main(["sweep", "--config", str(tiny_config_path),
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        rows = read_sweep_csv(tmp_path / "out" / "sweep.csv")
        assert [r.snr_db for r in rows] == [20.0, 30.0]
        fixes = (tmp_path / "out" / "fixes.csv").read_text().splitlines()
        assert fixes[0] == "trial,snr_db,x,y,z,bias,residual,err_m"
        assert len(fixes) >= 2
        # one row per trial with a fix: an integer trial id, then floats in .9e
        assert len(fixes) - 1 == round(sum(2 * (1.0 - r.fix_failure_rate) for r in rows))
        for line in fixes[1:]:
            trial, *cells = line.split(",")
            assert trial in ("0", "1")
            assert len(cells) == 7 and all(re.fullmatch(E9, c) for c in cells)
            assert float(cells[0]) in (20.0, 30.0)

    def test_repeated_snr_point_exit_code(self, tmp_path):
        code = main(["sweep", "--snr", "30", "30", "--trials", "1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "sweep.csv").exists()

    def test_non_numeric_snr_point_exit_code(self, tmp_path):
        for snr in ("nan", "-inf"):
            code = main(["sweep", f"--snr={snr}", "--trials", "1", "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["locate", "--snr", "4000", "--seed", "1"],  # once an OverflowError, exit 1
        ["locate", "--snr", "-4000", "--seed", "1"],  # once a ZeroDivisionError
        ["locate", "--snr", "-3090", "--seed", "1"],  # once a non-finite noised record
        ["sweep", "--snr", "-4000", "--trials", "1"],
    ])
    def test_snr_past_the_noise_scaling_exit_code(self, tmp_path, capsys, argv):
        argv = argv + (["--out", str(tmp_path)] if argv[0] == "sweep" else [])
        assert main(argv) == EXIT_CONFIG
        assert "snr_grid_db" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_overrides(self, tiny_config_path, tmp_path, read_sweep_csv):
        out = tmp_path / "alt"
        code = main([
            "sweep", "--config", str(tiny_config_path),
            "--snr", "25", "--trials", "1", "--seed", "9", "--out", str(out),
        ])
        assert code == EXIT_OK
        rows = read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 1 and rows[0].snr_db == 25.0

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in (json.dumps({"snr_list": [10]}), "{"):
            bad.write_text(text)
            assert main(["sweep", "--config", str(bad), "--out", str(tmp_path / "out")]) \
                == EXIT_CONFIG
            assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("obj, key", [
        ({"refine_toa": True}, "refine_toa"),
        ({"channel": {"gain_law": "rayleigh"}}, "gain_law"),
        ({"orthogonal_assignment": False}, "orthogonal_assignment"),
        # targets always stand on the floor, and the output directory is only --out
        ({"floor_only": False}, "floor_only"),
        ({"out_dir": "x"}, "out_dir"),
    ])
    def test_removed_keys_exit_code(self, tmp_path, capsys, obj, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_pulse_set_exit_code(self, tmp_path, capsys, monkeypatch, default_pulses):
        def rejected(ps_path, named):
            cfg = write_config(tmp_path, pulse_set=ps_path)
            assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) \
                == EXIT_CONFIG
            err = capsys.readouterr().err
            assert ps_path in err and named in err
            assert not (tmp_path / "out" / "sweep.csv").exists()

        def unreachable(*args, **kwargs):
            raise AssertionError("a broken pulse set reached sample_matrix")

        not_json = tmp_path / "not_json.json"
        not_json.write_text("{")
        rejected(str(not_json), "JSONDecodeError")
        rejected(bad_pulse_set(tmp_path, default_pulses), "Es")  # found by the audit
        # the rest fail before a pulse is synthesized: a late check on dt or the
        # pulse length would start an unbounded sample matrix
        monkeypatch.setattr(BSplineBasis, "sample_matrix", unreachable)
        for ps_path, named in broken_pulse_sets(tmp_path, default_pulses):
            rejected(ps_path, named)

    def test_missing_pulse_set_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, pulse_set=str(tmp_path / "missing.json"))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_IO

    def test_symbol_off_the_sample_grid_exit_code(self, tmp_path, capsys):
        # 50.01 ns is 1000.2 samples of the packaged set's 50 ps grid
        cfg = write_config(tmp_path, symbol_duration=50.01e-9)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) \
            == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "integer number of samples" in err and "symbol_duration" in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_rejected_sweep_leaves_no_directory(self, tmp_path):
        # an overlong record (exit 2) and a missing pulse set (exit 4) both
        # fail while the pulse set resolves, before anything is written
        out = tmp_path / "made"
        path = tmp_path / "cfg.json"
        for obj, code in (
            ({"trials": 1, "snr_grid_db": [30], "symbol_duration": 50}, EXIT_CONFIG),
            ({"pulse_set": str(tmp_path / "missing.json")}, EXIT_IO),
        ):
            path.write_text(json.dumps(obj))
            assert main(["sweep", "--config", str(path), "--out", str(out)]) == code
            assert not out.exists()

    @pytest.mark.parametrize("symbol_duration, code", [
        (1.5e-9, EXIT_CONFIG), (2e-9, EXIT_CONFIG), (3e-9, EXIT_OK)])
    def test_symbol_shorter_than_calibration_template_exit_code(
            self, tmp_path, capsys, symbol_duration, code):
        # 30 to 40 samples hold the 26-sample pulse but not the 58-sample calibration
        # template, so every trial would record "no usable signal"
        cfg = write_config(tmp_path, snr_grid_db=(30.0,), symbol_duration=symbol_duration,
                           **SMALL_ROOM)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        if code == EXIT_CONFIG:
            assert "58-sample calibration template" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()
        else:
            assert (tmp_path / "out" / "sweep.csv").exists()

    def test_io_error_exit_code(self, tiny_config_path):
        code = main(["sweep", "--config", str(tiny_config_path),
                     "--out", "/proc/definitely/not/writable"])
        assert code == EXIT_IO


def exit_code(argv) -> int:
    """Exit code of ``main``, including argparse's own exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRejectedValues:
    """A value of the wrong type or range exits 2 and names its key."""

    @pytest.mark.parametrize("obj, key", [
        ({"trials": 1.5}, "trials"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"master_seed": True}, "master_seed"),
        ({"master_seed": -1}, "master_seed"),
        ({"symbol_count": 20.0}, "symbol_count"),
        ({"pulse_set": 5}, "pulse_set"),
        ({"pulse_set": True}, "pulse_set"),
        ({"channel": {"tap_count_min": 2.5}}, "tap_count_min"),
        # a bool inside a list or object once read as 1.0
        ({"snr_grid_db": [30, True]}, "snr_grid_db"),
        ({"room": {"min": [0, 0, True], "max": [6, 6, 3]}}, "room"),
        ({"anchors": [{"id": "a0", "x": 0, "y": 0, "z": True},
                      *config_to_json(SimConfig())["anchors"][1:]]}, "anchors"),
        # a string where a number belongs once read as the number, or failed
        # without naming its key; a numeric anchor id once became a string
        ({"snr_grid_db": ["30"]}, "snr_grid_db"),
        ({"room": {"min": ["0", 0, 0], "max": [6, 6, 3]}}, "room"),
        ({"anchors": [{"id": "a0", "x": 0, "y": 0, "z": "3"},
                      *config_to_json(SimConfig())["anchors"][1:]]}, "anchors"),
        ({"anchors": [{"id": 7, "x": 0, "y": 0, "z": 3},
                      *config_to_json(SimConfig())["anchors"][1:]]}, "anchors"),
        # a structural error once named only the inner key, or no key at all
        ({"room": {"min": [0, 0, 0]}}, "room"),
        ({"anchors": [{"id": "a"}] * 4}, "anchors"),
        ({"snr_grid_db": 30}, "snr_grid_db"),
        # zip once stopped at the shorter corner, and a later check named no key
        ({"room": {"min": [0, 0], "max": [6, 6]}}, "room"),
        # an integer beyond the float range once ended in an OverflowError traceback
        ({"placement_inset": 10 ** 400}, "placement_inset"),
        ({"anchors": [{"id": "a0", "x": 0, "y": 0, "z": 10 ** 400},
                      *config_to_json(SimConfig())["anchors"][1:]]}, "anchors"),
    ])
    def test_sim_config_value(self, tmp_path, capsys, obj, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        for command in ("sweep", "locate", "cir"):
            assert main([command, "--config", str(path)]) == EXIT_CONFIG
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("obj, key", [
        ({"population": 10.5}, "population"),
        ({"seed": -1}, "seed"),
        ({"mask": [{"f_lo_hz": 0, "f_hi_hz": 10e9, "limit_dbm_per_mhz": True}]}, "mask"),
        ({"mask": [{"f_lo_hz": "0", "f_hi_hz": 10e9, "limit_dbm_per_mhz": -41.3}]}, "mask"),
        # each once ran the whole search and exited 3 as an infeasible design
        ({"mask": [{"f_lo_hz": 0, "f_hi_hz": 10e9, "limit_dbm_per_mhz": math.nan}]}, "mask"),
        ({"mask": [{"f_lo_hz": 0, "f_hi_hz": 10e9, "limit_dbm_per_mhz": math.inf}]}, "mask"),
        ({"mask": [{"f_lo_hz": 0, "f_hi_hz": math.inf, "limit_dbm_per_mhz": -41.3}]}, "mask"),
        # a constant of the search, not a key
        ({"weight_gram": 1e-6}, "weight_gram"),
        # work no design can hold: generations 2**64 once ended in np.empty's
        # ValueError, exit 1, and the rest would have grown memory without bound
        ({"generations": 2**64}, "generations"),
        ({"basis_count": 2**64}, "basis_count"),
        ({"population": 2**64}, "population"),
        ({"pulse_count": 2**64}, "pulse_count"),
        # each once ended in an OverflowError, exit 1: from the knot spacing, and
        # from 199! in the B-spline's closed form
        ({"basis_count": 10**400}, "basis_count"),
        ({"spline_order": 200, "basis_count": 200}, "spline_order"),
        # zero-sum rows of 4 coefficients hold 3 orthogonal pulses: this once ran
        # the whole search and exited 3
        ({"pulse_count": 4, "basis_count": 4, "spline_order": 4, "population": 20,
          "generations": 20}, "pulse_count must be < basis_count"),
    ])
    def test_design_config_value(self, tmp_path, capsys, monkeypatch, obj, key):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rejected design config started work")

        monkeypatch.setattr(BSplineBasis, "sample_matrix", unreachable)
        path = tmp_path / "design.json"
        path.write_text(json.dumps(obj))
        assert main(["design", "--config", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("obj, key", [
        ({"trials": "2"}, "trials"),
        ({"master_seed": 1.5}, "master_seed"),
        ({"trials": 0}, "trials"),
        ({"snr_grid_db": [30, 30]}, "snr"),
    ])
    def test_file_value_under_a_flag(self, tmp_path, capsys, obj, key):
        # every key is replaced by a valid flag, but the file's value is still checked
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "o"
        argv = ["sweep", "--config", str(path), "--out", str(out), "--seed", "3",
                "--trials", "1", "--snr", "30"]
        assert main(argv) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_overlong_record(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"trials": 1, "snr_grid_db": [30], "symbol_duration": 50}))
        out = tmp_path / "out"
        for command in ("sweep", "locate"):
            argv = [command, "--config", str(path)]
            assert main(argv + (["--out", str(out)] if command == "sweep" else [])) \
                == EXIT_CONFIG
            assert "symbol_duration" in capsys.readouterr().err

    @pytest.mark.parametrize("channel, key, commands", [
        # cir was killed drawing about 6e7 taps
        ({"mean_tap_spacing": 1e-15}, "mean_tap_spacing", ("cir", "locate", "sweep")),
        ({"tap_count_max": 10**9}, "tap_count_max", ("cir", "locate", "sweep")),
        # locate ran on for minutes over a propagate record of about 2e7 samples;
        # cir draws such a channel's few taps and propagates nothing
        ({"delay_spread_target": 1e-3, "mean_tap_spacing": 1e-4, "decay_constant": 1e-4},
         "channel reach", ("locate", "sweep")),
        ({"min_excess_delay": 1.0}, "channel reach", ("locate", "sweep")),
        # an infinite SNR reference power once ended locate and sweep in a traceback
        ({"mpc_relative_gain": 1e300}, "mpc_relative_gain", ("cir", "locate", "sweep")),
    ])
    def test_channel_profile_the_simulator_cannot_run(self, tmp_path, capsys, monkeypatch,
                                                      channel, key, commands):
        def unreachable(*args, **kwargs):
            raise AssertionError("a channel the simulator cannot run reached it")

        # a late check would start the unbounded draw or record; fail fast instead
        for module, name in ((cli, "sample_cir"), (simulate, "sample_cir"),
                             (simulate, "propagate")):
            monkeypatch.setattr(module, name, unreachable)
        path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        path.write_text(json.dumps({"channel": channel, "trials": 1, "snr_grid_db": [30]}))
        for command in commands:
            argv = [command, "--config", str(path)]
            assert main(argv + (["--out", str(out)] if command != "locate" else [])) \
                == EXIT_CONFIG
            assert key in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_anchor_id(self, tmp_path, capsys):
        # locate once exited 0 and listed "a0" twice, so a range could not be traced
        anchors = config_to_json(SimConfig())["anchors"]
        anchors[2]["id"] = "a0"
        path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        path.write_text(json.dumps({"anchors": anchors, "trials": 1}))
        for command in ("locate", "sweep", "cir"):
            argv = [command, "--config", str(path)]
            assert main(argv + (["--out", str(out)] if command != "locate" else [])) \
                == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "anchors" in err and "'a0'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, obj, key", [
        ("sweep", {"placement_inset": math.nan}, "placement_inset"),
        ("sweep", {"placement_inset": math.inf}, "placement_inset"),
        ("sweep", {"placement_inset": 4}, "placement_inset"),  # over half the 6 m room
        ("sweep", {"symbol_duration": math.inf}, "symbol_duration"),
        ("sweep", {"channel": {"mean_tap_spacing": math.inf}}, "mean_tap_spacing"),
        ("sweep", {"channel": {"mean_tap_spacing": math.nan}}, "mean_tap_spacing"),
        ("sweep", {"channel": {"decay_constant": math.nan}}, "decay_constant"),
        # now unknown keys: the gate and tolerance are constants of positioning
        ("sweep", {"bias_gate_m": math.nan}, "bias_gate_m"),
        ("sweep", {"bias_gate_m": -1}, "bias_gate_m"),
        ("sweep", {"bounds_tolerance_m": math.nan}, "bounds_tolerance_m"),
        ("sweep", {"room": {"min": [math.nan, 0, 0], "max": [6, 6, 3]}}, "bounds"),
        ("design", {"pulse_duration": math.inf}, "pulse_duration"),
        ("sweep", {"placement_inset": -0.1}, "placement_inset"),
        ("sweep", {"symbol_duration": 0}, "symbol_duration"),
        ("sweep", {"symbol_count": 1}, "symbol_count"),
        ("sweep", {"bias_gate_m": 1}, "bias_gate_m"),
        # a duration over dt past the float range: once an OverflowError, exit 1
        ("sweep", {"symbol_duration": 1e300}, "symbol_duration"),
        ("locate", {"symbol_duration": 1e300}, "symbol_duration"),
        ("design", {"pulse_duration": 1e300}, "pulse_duration"),
        # a trial range longer than sys.maxsize has no len(): once an OverflowError, exit 1
        ("sweep", {"trials": 2**64}, "trials"),
    ])
    def test_non_finite_or_impossible_value(self, tmp_path, capsys, command, obj, key):
        # each once ended in a traceback, or ran with a gate, rate or box that
        # cannot act as intended
        path = tmp_path / "cfg.json"
        out = tmp_path / "o"
        if command in ("sweep", "locate"):
            path.write_text(json.dumps({"trials": 1, "snr_grid_db": [30], **obj}))
            argv = [command, "--config", str(path)]
            argv += ["--out", str(out)] if command == "sweep" else []
        else:
            path.write_text(json.dumps({"population": 10, "generations": 2, **obj}))
            argv = ["design", "--config", str(path), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [
        ("design", "seed"), ("sweep", "master_seed"), ("locate", "seed"), ("cir", "seed"),
    ])
    def test_negative_seed_flag(self, tmp_path, capsys, command, key):
        # a flag is checked like a file value; locate's and cir's seeds are not
        # config fields, so argparse rejects them
        assert exit_code([command, "--seed", "-1"]) == EXIT_CONFIG
        assert key in capsys.readouterr().err


class TestLocateCommand:
    def test_verbose_json(self, tiny_config_path, capsys, monkeypatch):
        # the whole TrialResult, as config_to_json writes it, with the seed and anchor ids
        cfg = simulate.config_from_json(json.loads(tiny_config_path.read_text()))
        keys = {f.name for f in dataclasses.fields(simulate.TrialResult)} | {"seed", "anchors"}

        def locate() -> dict:
            assert main(["locate", "--config", str(tiny_config_path), "--seed", "4",
                         "--snr", "30"]) == EXIT_OK
            out = json.loads(capsys.readouterr().out)
            record = {"seed": 4, "anchors": [a.id for a in cfg.anchors],
                      **config_to_json(simulate.run_trial(cfg, 30.0, 4))}
            assert out == json.loads(json.dumps(record))
            assert set(out) == keys
            assert out["snr_db"] == 30.0 and out["anchors"] == ["a0", "a1", "a2", "a3"]
            for toa, rng in zip(out["toa_s"], out["range_m"], strict=True):
                assert abs(rng - SPEED_OF_LIGHT * toa) <= 1e-12  # acceptance criterion 7
            return out

        def degenerate(*args, **kwargs):
            raise DegenerateGeometryError("anchors are coplanar")

        out = locate()
        assert out["failure"] is None
        assert set(out["fix"]) == {f.name for f in dataclasses.fields(PositionFix)}
        # a trial whose solve fails prints its whole record too: no fix, the failure named
        monkeypatch.setattr(simulate, "bancroft_solve", degenerate)
        out = locate()
        assert out["fix"] is None and out["position_error_m"] is None
        assert out["failure"] == "DegenerateGeometryError: anchors are coplanar"
        assert len(out["range_m"]) == 4

    def test_anchor_without_a_toa_prints_strict_json(self, tiny_config_path, capsys,
                                                     monkeypatch):
        # its NaN entries print as null, so a parser that knows no NaN reads the record
        calls = []
        estimate = simulate.toa_dirty_template

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("no usable signal")
            return estimate(*args, **kwargs)

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        monkeypatch.setattr(simulate, "toa_dirty_template", second_fails)
        assert main(["locate", "--config", str(tiny_config_path), "--seed", "4",
                     "--snr", "30"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["failure"] == "ValueError: no usable signal" and out["fix"] is None
        for key in ("toa_s", "range_m", "toa_err_s", "range_err_m"):
            assert out[key][1] is None
            assert all(isinstance(v, float) and math.isfinite(v) for v in out[key][::2])

    def test_one_snr_point(self, tiny_config_path, capsys):
        # one trial has one SNR: a second value is an argument error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["locate", "--config", str(tiny_config_path), "--snr", "30", "40"])
        assert exc.value.code == EXIT_CONFIG
        assert main(["locate", "--config", str(tiny_config_path), "--snr", "nan"]) == EXIT_CONFIG

    def test_without_snr_runs_at_the_grid_maximum(self, tmp_path, capsys):
        # the grid's order does not matter, as it does not for sweep
        for grid in ((40.0, 10.0), (10.0, 40.0)):
            cfg = write_config(tmp_path, snr_grid_db=grid)
            assert main(["locate", "--config", str(cfg), "--seed", "3"]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["snr_db"] == 40.0

    def test_symbol_the_pulses_cannot_fill_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, symbol_duration=50.01e-9)
        assert main(["locate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "integer number of samples" in capsys.readouterr().err
        cfg = write_config(tmp_path, **TINY_ROOM)
        assert main(["locate", "--config", str(cfg)]) == EXIT_CONFIG
        assert "shorter than" in capsys.readouterr().err

    def test_invalid_pulse_set_exit_code(self, tmp_path, capsys, default_pulses):
        ps_path = bad_pulse_set(tmp_path, default_pulses)
        cfg = write_config(tmp_path, pulse_set=ps_path)
        assert main(["locate", "--config", str(cfg)]) == EXIT_CONFIG
        assert ps_path in capsys.readouterr().err


# the DetectionThresholds key each detect flag sets, which a rejection names
THRESHOLD_KEYS = {"--attenuation-threshold": "attenuation_db",
                  "--nonlinearity-threshold": "nonlinearity_rad"}


class TestDetectCommand:
    def test_from_signature_csv(self, tmp_path, capsys):
        path = tmp_path / "sig.csv"
        signature_to_csv(material_response("human_behind_wall"), path)
        assert main(["detect", "--signature", str(path)]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["label"] == "human_present"
        assert verdict["thresholds"]["attenuation_db"] == 30.0
        # a valid threshold flag is used: this signature's 51.8 dB and 2,502 rad fall below
        for flag, value, key in (("--attenuation-threshold", "60", "attenuation_db"),
                                 ("--nonlinearity-threshold", "3000", "nonlinearity_rad")):
            assert main(["detect", "--signature", str(path), flag, value]) == EXIT_OK
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["label"] == "artificial_only"
            assert verdict["thresholds"][key] == float(value)

    @pytest.mark.parametrize("kind", MATERIAL_KINDS)
    @pytest.mark.parametrize("flags", [[], ["--attenuation-threshold", "60"]])
    def test_verdict_is_strict_json(self, tmp_path, capsys, kind, flags):
        path = tmp_path / "sig.csv"
        signature_to_csv(material_response(kind), path)
        assert main(["detect", "--signature", str(path), *flags]) == EXIT_OK

        def reject(token):
            raise AssertionError(f"non-JSON token {token}")

        verdict = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert verdict["thresholds"]["attenuation_db"] == (60.0 if flags else 30.0)

    def test_from_waveform_files(self, tmp_path, capsys, default_pulses):
        from uwbloc.channel import apply_signature

        tx = default_pulses.pulses[0]
        rx = apply_signature(tx, material_response("wood_door"))
        tx_path = tmp_path / "tx.csv"
        rx_path = tmp_path / "rx.json"
        waveform_to_csv(tx, tx_path)
        rx_path.write_text(json.dumps(waveform_to_json(rx)))
        assert main(["detect", "--tx", str(tx_path), "--rx", str(rx_path)]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["label"] == "artificial_only"
        # a pulse received as sent went through free space
        assert main(["detect", "--tx", str(tx_path), "--rx", str(tx_path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["label"] == "free_space"

    def test_any_finite_sample_interval(self, tmp_path, capsys, default_pulses):
        # at dt 1e200 s the rFFT grid steps by 1e-202 Hz, whose square once underflowed
        # in the phase fit: a NaN verdict, and a ValueError traceback (exit 1). The
        # phase-line residual does not depend on the frequency unit.
        tx = default_pulses.pulses[0]
        rx = Waveform(np.concatenate([np.zeros(5), 0.3 * tx.samples]), tx.dt)
        verdicts = []
        for dt in (tx.dt, 1e200, 1e300):
            paths = []
            for name, w in (("tx", tx), ("rx", rx)):
                paths.append(tmp_path / f"{name}.json")
                paths[-1].write_text(json.dumps({"dt": dt, "samples": w.samples.tolist()}))
            assert main(["detect", "--tx", str(paths[0]), "--rx", str(paths[1])]) == EXIT_OK
            verdicts.append(json.loads(capsys.readouterr().out))
        for verdict in verdicts[1:]:
            assert verdict["label"] == verdicts[0]["label"]
            for metric in ("mean_attenuation_db", "phase_nonlinearity"):
                assert verdict[metric] == pytest.approx(verdicts[0][metric], rel=1e-9)

    @pytest.mark.parametrize("flag", ["--attenuation-threshold", "--nonlinearity-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exit_code(self, tmp_path, capsys, flag, value):
        # NaN never calls a human, and neither NaN nor inf is valid JSON output
        path = tmp_path / "sig.csv"
        signature_to_csv(material_response("human"), path)
        assert exit_code(["detect", "--signature", str(path), f"{flag}={value}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and THRESHOLD_KEYS[flag] in captured.err

    @pytest.mark.parametrize("flag, value", [
        ("--attenuation-threshold", "-5"),
        ("--attenuation-threshold", "2.9"),
        ("--nonlinearity-threshold", "0"),
        ("--nonlinearity-threshold", "-0.3"),
    ])
    def test_meaningless_threshold_exit_code(self, tmp_path, capsys, flag, value):
        # below the 3 dB free-space floor, or a phase test every medium passes
        path = tmp_path / "sig.csv"
        signature_to_csv(material_response("free_space"), path)
        assert exit_code(["detect", "--signature", str(path), f"{flag}={value}"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and THRESHOLD_KEYS[flag] in captured.err

    def test_missing_inputs(self, tmp_path):
        assert main(["detect"]) == EXIT_CONFIG
        assert main(["detect", "--signature", str(tmp_path / "missing.csv")]) == EXIT_IO
        # the thresholds are decoded before any input file is read
        assert main(["detect", "--signature", str(tmp_path / "missing.csv"),
                     "--attenuation-threshold", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--tx", "--rx"])
    @pytest.mark.parametrize("name, text", [
        ("w.json", "{not json"),
        ("w.json", json.dumps({"dt": 5e-11})),
        ("w.json", json.dumps([0.0, 1.0])),
        # "1.0" once read as 1.0
        ("w.json", json.dumps({"dt": 5e-11, "samples": [0.0, "1.0", 0.5]})),
        ("w.csv", "t,amplitude\n0.0,1.0\n5e-11,oops\n"),
        ("w.csv", "t\n0.0\n5e-11\n"),
        ("w.csv", "t,amplitude\n0.0,1.0\n"),
        ("w.csv", "t,amplitude\n0.0,1.0\n5e-11,0.5\n1.5e-10,0.0\n"),  # jittered t
    ])
    def test_malformed_waveform_exit_code(self, tmp_path, capsys, default_pulses,
                                          flag, name, text):
        good = tmp_path / "good.csv"
        waveform_to_csv(default_pulses.pulses[0], good)
        bad = tmp_path / name
        bad.write_text(text)
        other = "--rx" if flag == "--tx" else "--tx"
        assert main(["detect", flag, str(bad), other, str(good)]) == EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err

    def test_bool_sample_interval_exit_code(self, tmp_path, capsys):
        # true once read as a 1 s sample interval, and the pair was classified
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"dt": True, "samples": [0.0, 1.0, 0.5, 0.0]}))
        assert main(["detect", "--tx", str(path), "--rx", str(path)]) == EXIT_CONFIG
        assert "dt must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "freq_hz,attenuation_db,phase_rad\n1e9,10,0\n2e9,oops,0\n",
        "freq_hz\n1e9\n2e9\n",
        "freq_hz,attenuation_db,phase_rad\n2e9,10,0\n1e9,10,0\n",
        # NaN once passed the increasing-grid check and ended in a traceback
        "freq_hz,attenuation_db,phase_rad\n1e9,10,0\nnan,10,0\n3e9,10,0\n",
        # well-formed, but a phase-linearity fit needs three frequency points
        "freq_hz,attenuation_db,phase_rad\n1e9,10,0\n2e9,10,0\n",
        "freq_hz,attenuation_db,phase_rad\n1e9,10,0\n2e9,10,nan\n3e9,10,0\n",
        # an increasing grid ending at inf once ended in a traceback from the verdict
        "freq_hz,attenuation_db,phase_rad\n1e9,10,0\n2e9,10,0\ninf,10,0\n",
    ])
    def test_malformed_signature_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "sig.csv"
        bad.write_text(text)
        assert main(["detect", "--signature", str(bad)]) == EXIT_CONFIG
        assert str(bad) in capsys.readouterr().err

    def test_waveforms_on_different_grids_exit_code(self, tmp_path, capsys):
        tx_path, rx_path = tmp_path / "tx.csv", tmp_path / "rx.csv"
        waveform_to_csv(Waveform(np.hanning(64), 50e-12), tx_path)
        waveform_to_csv(Waveform(np.hanning(64), 100e-12), rx_path)
        assert main(["detect", "--tx", str(tx_path), "--rx", str(rx_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(tx_path) in err and str(rx_path) in err and "sample intervals" in err

    def test_pulse_without_band_exit_code(self, tmp_path, capsys):
        # 3 samples give two rFFT bins: too few to fit a phase line
        path = tmp_path / "w.csv"
        waveform_to_csv(Waveform(np.array([0.0, 1.0, 0.0]), 50e-12), path)
        assert main(["detect", "--tx", str(path), "--rx", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(path) in err and "2 usable rFFT bins of 2" in err

    def test_silent_rx_exit_code(self, tmp_path, capsys, default_pulses):
        # 0 / TX once read as a 6000 dB, phase-distorting medium: human_present
        tx_path, rx_path = tmp_path / "tx.csv", tmp_path / "rx.csv"
        waveform_to_csv(default_pulses.pulses[0], tx_path)
        waveform_to_csv(Waveform(np.zeros(64), default_pulses.pulses[0].dt), rx_path)
        assert main(["detect", "--tx", str(tx_path), "--rx", str(rx_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "no signal was received in the TX band" in captured.err

    def test_zero_tx_exit_code(self, tmp_path, capsys, default_pulses):
        tx_path, rx_path = tmp_path / "tx.csv", tmp_path / "rx.csv"
        waveform_to_csv(Waveform(np.zeros(64), 50e-12), tx_path)
        waveform_to_csv(default_pulses.pulses[0], rx_path)
        assert main(["detect", "--tx", str(tx_path), "--rx", str(rx_path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "TX pulse is all zeros" in captured.err


class TestCirCommand:
    def test_writes_csv(self, tmp_path, capsys):
        assert main(["cir", "--seed", "3", "--out", str(tmp_path)]) == EXIT_OK
        data = np.loadtxt(tmp_path / "cir_seed3.csv", delimiter=",", skiprows=1)
        assert data[0, 0] == 0.0 and data[0, 1] == 1.0
        assert data[-1, 0] > 50e-9


def full_design_config(**overrides) -> dict:
    """A design config JSON object naming every DesignConfig field."""
    return config_to_json(dataclasses.replace(DesignConfig(), **overrides))


class TestDesignCommand:
    def test_tiny_design_run(self, tmp_path, capsys):
        cfg = full_design_config(
            pulse_count=1, basis_count=8, spline_order=3, population=40, generations=40, seed=5)
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "design_out"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert (out / "mask.json").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["objective"] > 0

        pulse = load_pulse_set(json.loads((out / "pulse_set.json").read_text())).pulses[0]
        pulses_csv = (out / "pulses.csv").read_text().splitlines()
        assert pulses_csv[0] == "t,pulse_0"
        assert len(pulses_csv) == 1 + len(pulse)  # one row per sample
        psd_csv = (out / "psd_mask.csv").read_text().splitlines()
        assert psd_csv[0] == "freq_hz,psd_0_dbm_mhz,mask_dbm_mhz"
        assert len(psd_csv) == 1 + DesignConfig.nfft // 2 + 1  # one row per rfft bin
        for table, width in ((pulses_csv, 2), (psd_csv, 3)):
            for line in table[1:]:
                cells = line.split(",")
                assert len(cells) == width and all(re.fullmatch(E9, c) for c in cells)
        data = np.loadtxt(out / "pulses.csv", delimiter=",", skiprows=1)
        assert np.allclose(data[:, 0], pulse.times, rtol=1e-9, atol=0.0)
        assert np.allclose(data[:, 1], pulse.samples, rtol=1e-9, atol=1e-300)

    def test_infeasible_exit_code(self, tmp_path):
        cfg = {
            "pulse_count": 1, "basis_count": 8, "spline_order": 3,
            "population": 20, "generations": 10, "seed": 5,
            "mask": [{"f_lo_hz": 0.0, "f_hi_hz": 10e9, "limit_dbm_per_mhz": -1e9}],
        }
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["design", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) \
            == EXIT_INFEASIBLE

    def test_unknown_design_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps({"n_pulses": 2}))
        assert main(["design", "--config", str(cfg_path)]) == EXIT_CONFIG
        # the audit grid and tolerances are constants, so design and load audit by one
        # rule; the search's operator settings and weights are constants too
        for key in ("n_pulses", "nfft", "tol_orthogonality", "tol_mask_db",
                    "mutation_rate", "sigma_start", "sigma_end", "crossover_rate",
                    "tournament_k", "elitism", "weight_rowsum", "weight_gram"):
            cfg_path.write_text(json.dumps({**full_design_config(), key: 0.9}))
            assert main(["design", "--config", str(cfg_path)]) == EXIT_CONFIG
            assert key in capsys.readouterr().err

    def test_design_fails_where_the_loader_would(self, tmp_path, capsys, monkeypatch):
        # a weak orthogonality penalty leaves a Gram off-diagonal of 0.41: the
        # design is refused, as loading it for a sweep would be
        monkeypatch.setattr(DesignConfig, "weight_gram", 1e-6)
        cfg = full_design_config(generations=40, population=40, seed=1)
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == EXIT_INFEASIBLE
        assert "not orthogonal within 0.05" in capsys.readouterr().err
        assert not out.exists()

    def test_nfft_key_exit_code(self, tmp_path, capsys):
        # a 32-point audit grid once let this design exceed its own mask by 2.8 dB
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps({"nfft": 32, "generations": 100, "seed": 3}))
        out = tmp_path / "o"
        assert main(["design", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert "nfft" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_mask_exit_code(self, tmp_path):
        cfg_path = tmp_path / "design.json"
        cfg_path.write_text(json.dumps({"mask": [{"f_lo_hz": 0.0}]}))
        assert main(["design", "--config", str(cfg_path)]) == EXIT_CONFIG

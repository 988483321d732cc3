"""The exit-code contract as a property, for every input file.

A sim config, a design config and a pulse set each have a valid form. The
strategy below replaces one or two of its leaves with an adversarial value.
The decoder and the checks that run before any work must then either accept
the input or reject it with a ConfigError (an OSError for a pulse-set path
that names no file). Through ``cli.main``, a rejected input exits 2, 3 or 4
before work starts, and an accepted one reaches the work, which is patched
to raise ``ReachedWork``. No other exception may escape.

The detect command's inputs, a waveform (JSON or CSV) and a signature CSV,
get the same strategy, over the leaves of a JSON object or the cells of a
table. Detection is the work itself, so it runs whole: it gives a verdict or
a ConfigError, and ``cli.main`` exits 0, 2 or 4.
"""

import copy
import functools
import json
import operator
import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uwbloc import cli, simulate
from uwbloc.channel import material_response, signature_from_csv
from uwbloc.detection import classify, estimate_transfer
from uwbloc.pulses import BSplineBasis, DesignConfig, pulse_set_to_json
from uwbloc.simulate import (
    ConfigError,
    SimConfig,
    _resolve_pulses,
    config_from_json,
    config_to_json,
    load_default_pulse_set,
    read_input,
)
from uwbloc.waveform import Waveform

from conftest import waveform_to_json

ADVERSARIAL = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, 1e300, -1e300, 1e-300, 2**64, True, "x", None,
                     [], {}, [0], -1e-9, 1e9]),
    st.floats(),  # the whole range, with the inf and nan that Python's json reads
    st.floats(-sys.float_info.min, sys.float_info.min, exclude_min=True, exclude_max=True),
)


def leaf_paths(obj, path=()):
    """The key path of every scalar in a parsed JSON value."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        for key, val in items:
            yield from leaf_paths(val, path + (key,))
    else:
        yield path


@st.composite
def mutated(draw, valid):
    """``valid`` with one or two of its leaves replaced by adversarial values."""
    paths = draw(st.lists(st.sampled_from(list(leaf_paths(valid))),
                          min_size=1, max_size=2, unique=True))
    obj = copy.deepcopy(valid)
    for *parents, key in paths:
        functools.reduce(operator.getitem, parents, obj)[key] = draw(ADVERSARIAL)
    return obj


def write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


# each format: a valid object, the checks that run before work on its file,
# and the command that starts work on it
FORMATS = {
    "sim config": (
        config_to_json(SimConfig()),
        lambda path: _resolve_pulses(read_input(path, config_from_json), None),
        lambda path: ["sweep", "--config", path]),
    "design config": (
        config_to_json(DesignConfig()),
        lambda path: read_input(path, functools.partial(config_from_json, cls=DesignConfig)),
        lambda path: ["design", "--config", path, "--out", "design"]),
    "pulse set": (
        pulse_set_to_json(load_default_pulse_set()),
        lambda path: _resolve_pulses(SimConfig(pulse_set=path), None),
        lambda path: ["sweep", "--config", write_json(f"{path}.sim.json", {"pulse_set": path})]),
}


def accepted(fmt: str, obj, path: str) -> bool:
    """Whether the checks before work accept ``obj``; any other outcome than a
    rejection by ConfigError, or an OSError for a missing pulse set, fails."""
    try:
        FORMATS[fmt][1](write_json(path, obj))
    except ConfigError:
        return False
    except OSError:
        assert fmt == "sim config" and isinstance(obj.get("pulse_set"), str), obj
        return False
    return True


class ReachedWork(Exception):
    """Raised where the work an accepted input asks for would start."""


def reached_work(*args, **kwargs):
    raise ReachedWork


SAMPLE_MATRIX = BSplineBasis.sample_matrix


def capped_sample_matrix(basis, dt):
    """A pulse-set audit synthesizes its pulses: let it, within the loader's cap."""
    assert basis.sample_count(dt) <= DesignConfig.nfft
    return SAMPLE_MATRIX(basis, dt)


SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=150, **SETTINGS)
@given(data=st.data())
def test_checks_before_work_accept_or_raise_config_error(tmp_path, fmt, data):
    obj = data.draw(mutated(FORMATS[fmt][0]))
    accepted(fmt, obj, str(tmp_path / "input.json"))


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=6, **SETTINGS)
@given(data=st.data())
def test_cli_exits_before_work_or_reaches_it(tmp_path, fmt, data):
    obj = data.draw(mutated(FORMATS[fmt][0]))
    path = str(tmp_path / "input.json")
    expect_work = accepted(fmt, obj, path)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path)  # nothing is written, but the default --out would land here
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # no fork
        for module, name in ((simulate, "sample_cir"), (simulate, "propagate")):
            mp.setattr(module, name, reached_work)
        mp.setattr(BSplineBasis, "sample_matrix",
                   capped_sample_matrix if fmt == "pulse set" else reached_work)
        argv = FORMATS[fmt][2](path)
        if expect_work:
            with pytest.raises(ReachedWork):
                cli.main(argv)
        else:
            assert cli.main(argv) in (cli.EXIT_CONFIG, cli.EXIT_INFEASIBLE, cli.EXIT_IO)


# -- the detect command's inputs ----------------------------------------------

TX = load_default_pulse_set().pulses[0]
RX = Waveform(np.concatenate([np.zeros(5), 0.3 * TX.samples]), TX.dt)
SIGNATURE = material_response("human")

# each format: a valid JSON object or table of cells (the rows below the header),
# the file suffix, and whether it is a waveform, read as --tx or --rx
DETECT_FORMATS = {
    "waveform JSON": (waveform_to_json(RX), ".json", True),
    "waveform CSV": ([[t, x] for t, x in zip(RX.times.tolist(), RX.samples.tolist())], ".csv",
                     True),
    # every 100th point of the 2,001: a valid signature, and a table small enough to write
    "signature CSV": ([list(row) for row in zip(*(a[::100].tolist() for a in (
        SIGNATURE.freq_hz, SIGNATURE.attenuation_db, SIGNATURE.phase_rad)))], ".csv", False),
}


def write_input(path: str, obj) -> str:
    """``obj`` as a JSON file, or as a CSV table under a header line; a cell is
    written as Python writes it (a float by ``repr``, so it reads back the same)."""
    if path.endswith(".json"):
        return write_json(path, obj)
    with open(path, "w") as fh:
        fh.write("header\n" + "".join(",".join(map(repr, row)) + "\n" for row in obj))
    return path


def detect_inputs(data, fmt: str, tmp_path) -> tuple[str, ...]:
    """Paths of a drawn detect input: ``(signature,)`` or ``(tx, rx)``, one of
    which holds the mutated form of ``fmt`` and the other the valid pulse."""
    valid, suffix, is_waveform = DETECT_FORMATS[fmt]
    path = write_input(str(tmp_path / f"input{suffix}"), data.draw(mutated(valid)))
    if not is_waveform:
        return (path,)
    other = write_json(str(tmp_path / "other.json"), waveform_to_json(TX))
    return (path, other) if data.draw(st.booleans()) else (other, path)


def detect_verdict(paths: tuple[str, ...]):
    """The detect command's verdict on its input files, or its ConfigError."""
    if len(paths) == 1:
        return classify(read_input(paths[0], signature_from_csv))
    tx, rx = (read_input(p, cli._decode_waveform) for p in paths)
    try:
        sig = estimate_transfer(tx, rx)
    except ValueError as exc:  # each file is valid, the pair is not: the CLI says so
        raise ConfigError(str(exc)) from exc
    return classify(sig)


@pytest.mark.parametrize("fmt", DETECT_FORMATS)
@settings(max_examples=150, **SETTINGS)
@given(data=st.data())
def test_detection_gives_a_verdict_or_config_error(tmp_path, fmt, data):
    paths = detect_inputs(data, fmt, tmp_path)
    try:
        detect_verdict(paths)
    except ConfigError:
        pass


@pytest.mark.parametrize("fmt", DETECT_FORMATS)
@settings(max_examples=6, **SETTINGS)
@given(data=st.data())
def test_detect_command_exits_0_2_or_4(tmp_path, fmt, data):
    paths = detect_inputs(data, fmt, tmp_path)
    argv = ["detect", "--signature", *paths] if len(paths) == 1 else \
        ["detect", "--tx", paths[0], "--rx", paths[1]]
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_IO)

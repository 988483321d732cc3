"""The exit-code contract as a property, for the JSON inputs that start work.

A sim config, a design config and a pulse set each have a valid form. The
strategy below replaces one or two of its leaves with an adversarial value.
The decoder and the checks that run before any work must then either accept
the input or reject it with a ConfigError (an OSError for a pulse-set path
that names no file). Through ``cli.main``, a rejected input exits 2, 3 or 4
before work starts, and an accepted one reaches the work, which is patched
to raise ``ReachedWork``. No other exception may escape.
"""

import copy
import functools
import json
import operator
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uwbloc import cli, simulate
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
        mp.chdir(tmp_path)  # nothing is written, but a relative out_dir would land here
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

from dataclasses import fields

import numpy as np
import pytest

from uwbloc.simulate import SweepRow, load_default_pulse_set
from uwbloc.waveform import read_csv


@pytest.fixture(scope="session")
def default_pulses():
    return load_default_pulse_set()


@pytest.fixture(scope="session")
def read_sweep_csv():
    """Reads a sweep.csv back: one SweepRow per line below the header."""
    names = [f.name for f in fields(SweepRow)]
    return lambda path: [SweepRow(**dict(zip(names, row.tolist()))) for row in read_csv(path)]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)

from dataclasses import fields

import numpy as np
import pytest

from uwbloc.simulate import SweepRow, load_default_pulse_set
from uwbloc.waveform import read_csv, write_csv


# Writers of the CLI's input files; the package only reads them.

def waveform_to_csv(w, path):
    """`t,amplitude` rows with a header line, as ``waveform_from_csv`` reads them."""
    write_csv(path, ["t", "amplitude"], zip(w.times, w.samples), digits=12)


def waveform_to_json(w):
    """The ``{"dt", "samples"}`` object ``waveform_from_json`` reads."""
    return {"dt": w.dt, "samples": w.samples.tolist()}


def signature_to_csv(sig, path):
    """`freq_hz,attenuation_db,phase_rad` rows, as ``signature_from_csv`` reads them."""
    write_csv(path, ["freq_hz", "attenuation_db", "phase_rad"],
              zip(sig.freq_hz, sig.attenuation_db, sig.phase_rad), digits=12)


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

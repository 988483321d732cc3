"""uwbloc: impulse-radio UWB pulse design, ranging, positioning, detection.

Pipeline: design orthogonal mask-compliant pulses from B-splines, propagate
them through multipath channels and material signatures, estimate time of
arrival with the dirty-template correlator, solve 3D position with the
Bancroft closed form, and classify human presence from attenuation/phase
fingerprints. Monte-Carlo sweeps and a CLI reproduce the accuracy figures.
"""

from .channel import (
    SPEED_OF_LIGHT,
    ChannelProfile,
    ChannelRealization,
    MaterialSignature,
    apply_signature,
    material_response,
    propagate,
    sample_cir,
)
from .detection import DetectionThresholds, DetectionVerdict, classify, estimate_transfer, mean_attenuation, phase_nonlinearity
from .positioning import (
    Anchor,
    PositionFix,
    RoomBounds,
    bancroft_solve,
    gauss_newton_refine,
    position_error,
    select_solution,
)
from .pulses import (
    BSplineBasis,
    DesignConfig,
    PulseSet,
    bspline_eval,
    design_pulses,
    load_pulse_set,
    orthogonality_matrix,
    pulse_set_to_json,
    synthesize_pulse,
)
from .ranging import ToaEstimate, make_burst, range_from_toa, toa_dirty_template
from .simulate import SimConfig, SweepResult, TrialResult, emit_csv, run_trial, sweep_snr
from .spectrum import SpectralMask, effectiveness, fcc_like_mask, mask_violation, psd
from .waveform import Waveform, add_awgn, cross_correlate, delay, energy, inner_product

__version__ = "0.1.0"

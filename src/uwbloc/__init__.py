"""uwbloc: impulse-radio UWB pulse design, ranging, positioning, detection.

Pipeline: design orthogonal mask-compliant pulses from B-splines, propagate
them through multipath channels and material signatures, estimate time of
arrival with the dirty-template correlator, solve 3D position with the
Bancroft closed form, and classify human presence from attenuation/phase
fingerprints. Monte-Carlo sweeps and a CLI reproduce the accuracy figures.
"""

__version__ = "0.1.0"

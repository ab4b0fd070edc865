"""Cross sections for positive-ion formation in Ps-antihydrogen collisions.

Charge-exchange collisions of ground- or excited-state positronium with
ground-state antihydrogen inside a Debye plasma, treated in the
Coulomb-modified eikonal approximation: the prior-form transition
amplitude is integrated numerically (randomized quasi-Monte Carlo over
the six coordinates that survive the analytic reduction), then turned
into single-differential and total cross sections.
"""

from .specfun import (
    DistortionParams,
    SpecialFunctionError,
    ConvergenceError,
    hyp1f1_b1,
    coulomb_distortion,
)
from .states import (
    HARTREE_EV,
    PsState,
    ScreeningConfig,
    ChandrasekharParams,
    Kinematics,
    BelowThresholdError,
    ps_energy,
    ps_wavefunction,
    hbar_wavefunction,
    hplus_wavefunction,
    hplus_variational_energy,
    kinematics,
    threshold_ev,
)
from .amplitude import (
    IntegrationSpec,
    AmplitudeValue,
    yukawa_exp_convolution,
    inner_r3_reduction,
    reduced_integrand,
    amplitude,
    amplitude_oracle_9d,
)
from .xsec import CrossSectionRecord, sdcs, tcs

__version__ = "0.1.0"

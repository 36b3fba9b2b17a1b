"""Point-force singularities of stationary Navier-Stokes flows.

A numerical toolkit around the Landau family of exact point-force
solutions: closed-form evaluation, force extraction by momentum-flux
surface integrals, verification of the distributional equation with a
Dirac source, Lorentz/weak-L3 norm machinery, and a desk-scale spectral
demonstration of the contraction mapping that pins the solution to its
Landau leading term.
"""

from .landau import (
    A_from_beta, CallableField, FlowField, FlowState, LandauField,
    LandauParams, RescaledField, as_vec3, beta_from_A, flux_tensor,
    landau_eval, ns_residual, sup_speed_on_unit_sphere,
)
from .quadrature import (
    NormReport, QuadratureRule, ball_samples, ball_shell_rule, decay_report,
    flux_integral, lorentz_quasinorm, sobolev_norm, sphere_rule,
)
from .weakform import (
    TestFunction, WeakResidual, extract_force_weak, smoothstep7, weak_residual,
)
from .spectral import (
    BOX, ContractionDivergedError, IterationTrace, MollifiedDrift,
    SpectralField, leray_project, make_forcing, make_mollified_drift,
    picard_step, run_contraction, stokes_solve,
)

__version__ = "0.1.0"

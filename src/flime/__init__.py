"""Floquet-Lindblad solver for periodically driven open quantum systems.

The package decomposes the dissipator of a time-periodic Lindblad master
equation over the Floquet basis, filters the resulting terms with a tunable
negligibility cutoff (0 recovers the secular approximation, infinity keeps
everything), and integrates the supervector ODE.  A direct time-dependent
Lindblad integrator serves as correctness oracle and timing baseline.
"""

__version__ = "0.1.0"

from .analysis import (FlimePropagator, NessResult, ReferencePropagator,
                       SpectrumResult, correlation_g1, evolve_to_ness,
                       rwa_steady_state, spectrum)
from .floquet import (BASIS_TOL, FloquetBasis, FourierOperator, brillouin_fold,
                      compute_basis, floquet_decompose, fourier_coefficients,
                      mode_grid, monodromy)
from .hamiltonians import (DEFAULT_TIME_UNIT, HarmonicTerm, PeriodicHamiltonian,
                           TimeUnit, angular_frequency, build_bichromatic,
                           build_driven_2ls_full, build_driven_2ls_rwa,
                           build_pulse_train, build_rotating_frame_2ls,
                           lifetime_to_rate)
from .integrate import IntegrationError, IntegratorStats, OdeTol, integrate_adaptive
from .lindblad import LiouvillianSpec, evolve_direct
from .qops import (check_density_matrix, expect, fold, hermiticity_defect,
                   pure_state_density, sigma_minus, sigma_plus,
                   sigma_x, sigma_y, sigma_z, trace_distance, unfold,
                   unitarity_defect)
from .solver import (CollapseChannel, Diagnostics, EvolutionResult, RateTermSet,
                     build_terms, evolve)

__all__ = [
    "__version__",
    # qops
    "unfold", "fold", "expect", "trace_distance",
    "hermiticity_defect", "unitarity_defect",
    "check_density_matrix", "pure_state_density",
    "sigma_x", "sigma_y", "sigma_z", "sigma_minus", "sigma_plus",
    # hamiltonians
    "HarmonicTerm", "PeriodicHamiltonian", "TimeUnit", "DEFAULT_TIME_UNIT",
    "angular_frequency", "lifetime_to_rate", "build_driven_2ls_rwa",
    "build_driven_2ls_full", "build_bichromatic", "build_pulse_train",
    "build_rotating_frame_2ls",
    # integrate
    "OdeTol", "IntegratorStats", "IntegrationError", "integrate_adaptive",
    # floquet
    "FloquetBasis", "FourierOperator", "BASIS_TOL", "brillouin_fold",
    "monodromy", "floquet_decompose", "mode_grid", "compute_basis",
    "fourier_coefficients",
    # solver
    "CollapseChannel", "RateTermSet", "Diagnostics", "EvolutionResult",
    "build_terms", "evolve",
    # lindblad
    "LiouvillianSpec", "evolve_direct",
    # analysis
    "NessResult", "SpectrumResult", "FlimePropagator", "ReferencePropagator",
    "rwa_steady_state", "evolve_to_ness", "correlation_g1", "spectrum",
]

"""The public API: exactly these names, and no test-only wrappers or unused
fields growing back."""

import dataclasses
import inspect

import pytest

import flime
from flime import floquet, hamiltonians, qops, solver

PUBLIC = {
    "__version__",
    # qops
    "unfold", "fold", "expect", "trace_distance", "hermiticity_defect", "unitarity_defect",
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
}


def test_all_is_the_public_set_and_resolves():
    assert set(flime.__all__) == PUBLIC
    assert len(flime.__all__) == len(PUBLIC)
    for name in flime.__all__:
        assert getattr(flime, name) is not None


@pytest.mark.parametrize("owner, name", [
    (floquet.FloquetBasis, "propagators"),
    (floquet.FloquetBasis, "grid_monodromy"),
    (floquet.FloquetBasis, "modes_at"),
    (floquet.FloquetBasis, "floquet_states_at"),
    (floquet.FourierOperator, "source"),
    (floquet.FourierOperator, "coeff"),
    (floquet.FourierOperator, "element_at"),
    (solver, "assemble"),
    (solver.RateTermSet, "static_part"),
    (qops, "sandwich_superop"),
    (solver.EvolutionResult, "floquet_states"),
    (hamiltonians.TimeUnit, "label"),
    (hamiltonians.PeriodicHamiltonian, "harmonic_matrix"),
])
def test_removed_names_stay_gone(owner, name):
    # a dataclass field without a default is no class attribute
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    assert name not in {f.name for f in fields}
    assert not hasattr(owner, name)
    assert not hasattr(flime, name)
    assert name not in getattr(owner, "__all__", ())


def test_evolve_has_no_store_floquet():
    assert "store_floquet" not in inspect.signature(flime.evolve).parameters


@pytest.mark.parametrize("cls, names", [
    (flime.FloquetBasis, {"omega", "quasienergies", "modes0", "grid_times", "mode_grid",
                          "closure_defect", "_coarse_rows", "_split_coeffs"}),
    (flime.EvolutionResult, {"times", "states", "diagnostics"}),
    (flime.TimeUnit, {"scale"}),
])
def test_dataclass_fields(cls, names):
    assert {f.name for f in dataclasses.fields(cls)} == names

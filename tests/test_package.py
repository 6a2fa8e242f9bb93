"""The top-level ``cohk`` namespace: one list of public names per module."""

import importlib

import pytest

import cohk

LIB_MODULES = ("core", "catalog", "quantum", "fock", "dynamics", "spectral")

# cohk.__all__ as the package listed it by hand, before it was built from
# the modules' own lists; none of these names may go
EARLIER_NAMES = """
    DEFAULT_SEED AutocorrSeries AxiomViolationError CcrReport CoherentMapSpec
    CoherentSpace DegenerateFormError DomainError HamiltonianSpec
    KernelOperator OrthoBasis OscElement OscGenerator PsdReport QVec
    SpectralLine Trajectory WeylReport adjoint_residual angle
    annihilation_element autocorrelation cauchy_schwarz_margin
    ccr_epsilon_check coherent_state creation_element df_action
    dgamma_element distance eigencomponent_overlap el_integrate flow_exact
    gamma_apply gamma_colon_residual gamma_element gen_block geometry_report
    gram hamiltonian_vector_field inner kernel_eval klauder_kernel
    kt_roundtrip_residual length make_space norm normal_ordered_element
    normal_ordered_series orthonormal_basis osc_act osc_adjoint osc_block
    osc_bracket osc_exp osc_from_block osc_identity osc_mul oscillator_field
    oscillator_series poisson_bracket potential propagate_ode psd_check
    rational_element resolvent_element resolvent_equation_residual
    resolvent_symmetry_residual sandwich schwinger_dyson_residual
    segal_field_element space_names spectral_density spectrum_scan
    time_average_overlap weyl_element weyl_ordered_element
    weyl_relation_residuals __version__
""".split()


@pytest.mark.parametrize("name", LIB_MODULES)
def test_every_public_name_of_a_module_is_exported_as_that_object(name):
    module = importlib.import_module(f"cohk.{name}")
    assert module.__all__
    for attr in module.__all__:
        assert attr in cohk.__all__, attr
        assert getattr(cohk, attr) is getattr(module, attr), attr


def test_exports_are_the_modules_lists_and_the_version():
    names = [attr for name in LIB_MODULES
             for attr in importlib.import_module(f"cohk.{name}").__all__]
    assert len(set(names)) == len(names)  # no module shadows another
    assert sorted(cohk.__all__) == sorted(names + ["__version__"])
    assert isinstance(cohk.__version__, str)


def test_no_earlier_public_name_is_lost():
    assert len(EARLIER_NAMES) == 78
    for attr in EARLIER_NAMES:
        assert attr in cohk.__all__ and hasattr(cohk, attr), attr

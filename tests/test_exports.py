"""The package namespace and the library modules' ``__all__`` agree."""

import inspect
import types

import qlsplit
from qlsplit import diagnostics, model, spectral, splitting, stability

LIBRARY_MODULES = (diagnostics, model, spectral, splitting, stability)

# the whole public API: an addition or a removal shows here as a diff
PUBLIC_NAMES = [
    "AmplitudeVerdict",
    "BlowupReport",
    "ConvergenceRow",
    "ConvergenceTable",
    "Field",
    "Gaussian",
    "GridSpec",
    "InitialCondition",
    "ModeGrowth",
    "ModelSpec",
    "MultiMode",
    "Perturbation",
    "PlaneWave",
    "PlaneWaveLinearization",
    "SimulationRecord",
    "SplitStepMultipliers",
    "StepperConfig",
    "build_initial_condition",
    "energy",
    "error_norms",
    "exact_plane_wave",
    "fit_order",
    "gn_eigenvalues",
    "gn_matrix",
    "h1_seminorm",
    "l2_norm",
    "mass",
    "nonlinear_phase_step",
    "planewave_deviation",
    "run_simulation",
    "spectral_derivative",
    "split_step_mode_growth",
    "stability_threshold_scan",
    "two_by_two_eigenvalues",
]


def public_names(namespace: dict) -> set[str]:
    return {
        name
        for name, value in namespace.items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }


def test_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(public_names(vars(qlsplit))) == PUBLIC_NAMES


def test_every_module_export_is_reexported():
    for module in LIBRARY_MODULES:
        missing = [name for name in module.__all__ if not hasattr(qlsplit, name)]
        assert not missing, f"{module.__name__} exports {missing} not in qlsplit"
        for name in module.__all__:
            assert getattr(qlsplit, name) is getattr(module, name)


def test_every_public_name_comes_from_a_module_export():
    exported = {name for module in LIBRARY_MODULES for name in module.__all__}
    assert public_names(vars(qlsplit)) - exported == set()


def test_every_public_definition_is_exported():
    for module in LIBRARY_MODULES:
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        }
        assert defined - set(module.__all__) == set(), module.__name__

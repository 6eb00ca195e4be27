"""The package namespace and the library modules' ``__all__`` agree, and
every benchmark tracer target resolves."""

import ast
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import qlsplit
from qlsplit import cli, diagnostics, model, spectral, splitting, stability

LIBRARY_MODULES = (diagnostics, model, spectral, splitting, stability)

# the whole public API: an addition or a removal shows here as a diff
PUBLIC_NAMES = [
    "BlowupReport",
    "Gaussian",
    "GridSpec",
    "InitialCondition",
    "ModelSpec",
    "MultiMode",
    "Perturbation",
    "SimulationRecord",
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


def test_cli_is_a_client_of_the_public_library():
    # the CLI imports no private library name and has no error type of its
    # own: every rule it states raises ValueError, as the library's do
    tree = ast.parse(Path(cli.__file__).read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").startswith("qlsplit"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
    classes = [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert not [name for name in classes
                if isinstance(getattr(cli, name), type)
                and issubclass(getattr(cli, name), BaseException)]


def load_spans():
    """The benchmark's tracer module, loaded by path: it imports only the
    standard library (numpy inside functions), so it loads without the
    benchmark harness."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_benchmark_tracer_target_resolves():
    # the benchmark's tracer wraps these module attributes
    spans = load_spans()
    assert spans.TARGETS
    missing = [(module, attr) for module, attr, _ in spans.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing


def test_benchmark_tracer_wraps_a_run():
    # the tracer's stepper wrapper takes run_simulation's first five
    # parameters by position and reads times, blowup and blowup.trigger
    params = list(inspect.signature(splitting.run_simulation).parameters)
    assert params[:5] == ["model", "ic", "grid", "cfg", "t_final"]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        rec = cli.run_simulation(
            qlsplit.ModelSpec(), qlsplit.MultiMode(0.65, (2, 8)), qlsplit.GridSpec(64),
            qlsplit.StepperConfig(tau=1e-4, blowup_factor=1.2), 0.05,
        )
    finally:
        tracer.uninstall()
    assert rec.blowup.trigger == "amplitude"
    assert (tracer.runs, tracer.records) == (1, len(rec.times))
    assert tracer.trips == {"amplitude": 1}
    assert tracer.steps == round(rec.times[-1] / 1e-4) > 0

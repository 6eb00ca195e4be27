"""Pseudo-spectral Strang-splitting toolkit for 1D periodic quasilinear
Schrodinger equations: stepping, conservation diagnostics, convergence
studies, blow-up detection, and plane-wave linear stability analysis."""

from .diagnostics import (
    ConvergenceRow,
    ConvergenceTable,
    energy,
    error_norms,
    fit_order,
    mass,
)
from .model import (
    Gaussian,
    InitialCondition,
    ModelSpec,
    MultiMode,
    Perturbation,
    PlaneWave,
    build_initial_condition,
    exact_plane_wave,
)
from .spectral import (
    Field,
    GridSpec,
    h1_seminorm,
    l2_norm,
    spectral_derivative,
)
from .splitting import (
    BlowupReport,
    SimulationRecord,
    StepperConfig,
    nonlinear_phase_step,
    planewave_deviation,
    run_simulation,
)
from .stability import (
    AmplitudeVerdict,
    ModeGrowth,
    PlaneWaveLinearization,
    SplitStepMultipliers,
    gn_eigenvalues,
    gn_matrix,
    split_step_mode_growth,
    stability_threshold_scan,
    two_by_two_eigenvalues,
)

__version__ = "0.1.0"

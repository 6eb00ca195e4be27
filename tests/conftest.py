import numpy as np
import pytest

from qlsplit import Field, GridSpec
from qlsplit.splitting import _StepKernel


@pytest.fixture
def grid() -> GridSpec:
    return GridSpec(64)


def random_field(grid: GridSpec, rng: np.random.Generator, scale: float = 1.0) -> Field:
    """Smooth-ish random complex field with reproducible content."""
    values = scale * (
        rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    )
    return Field(grid, values)


def one_step(model, f: Field, tau: float, **filters) -> Field:
    """One whole Strang step of the run kernel from f; tau may be negative."""
    _, u = _StepKernel(f.grid, model, tau, **filters).advance(np.fft.fft(f.values))
    return Field(f.grid, u)

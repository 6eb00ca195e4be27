import numpy as np
import pytest

from qlsplit import GridSpec
from qlsplit.splitting import _StepKernel


@pytest.fixture
def grid() -> GridSpec:
    return GridSpec(64)


def random_field(grid: GridSpec, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Smooth-ish random complex node array with reproducible content."""
    return scale * (
        rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    )


def spectrum(u: np.ndarray) -> np.ndarray:
    """Fourier-series coefficients u_hat_k = (1/N) sum_j u_j exp(-i k x_j).

    The oracle for filters and for Parseval sums of the raw FFT.  FFT order,
    aligned with ``grid.wavenumbers``; the (-1)**k factor moves the raw
    FFT's origin from x = 0 to the first node x = -pi.
    """
    phase = np.where(GridSpec(len(u)).wavenumbers % 2 == 0, 1.0, -1.0)
    return phase * np.fft.fft(u) / len(u)


def spectral_derivative(u: np.ndarray, order: int) -> np.ndarray:
    """Differentiate by scaling mode k with (i*k)**order, on one FFT round trip.

    The oracle for the library's Parseval norms and energy and for the PDE
    residual.  Only orders 1 and 2 are supported.  The unpaired Nyquist
    mode -N/2 is zeroed for order 1 and kept (factor -N^2/4) for order 2.
    """
    k = GridSpec(len(u)).wavenumbers.astype(np.float64)
    if order == 1:
        mult = 1j * np.where(k == -(len(u) // 2), 0.0, k)
    elif order == 2:
        mult = -(k**2)
    else:
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    return np.fft.ifft(mult * np.fft.fft(u))


def one_step(model, u: np.ndarray, tau: float, **filters) -> np.ndarray:
    """One whole Strang step of the run kernel from u; tau may be negative."""
    _, f_end, _ = next(_StepKernel(GridSpec(len(u)), model, tau, **filters).march(u, 1))
    return np.fft.ifft(f_end)

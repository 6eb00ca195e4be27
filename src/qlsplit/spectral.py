"""Periodic grid, Fourier transform conventions, spectral filters and norms.

Everything in this module works on the domain (-pi, pi] with N equispaced
nodes.  A state is the 1-D complex array of its N node values.  Spectra are
numpy's raw FFT of the node values, in FFT order, aligned with
``GridSpec.wavenumbers``; the Parseval sums carry the 1/N^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "GridSpec",
    "l2_norm",
    "h1_seminorm",
]


@dataclass(frozen=True)
class GridSpec:
    """Equispaced periodic grid on (-pi, pi] with integer wavenumbers.

    Parameters
    ----------
    n_points : int
        Number of nodes N: even, >= 8 and at most intp max // 16, the
        complex128 nodes one numpy array can hold.  Nodes sit at
        x_j = -pi + 2*pi*j/N for j = 0..N-1; wavenumbers are the
        integers {-N/2, ..., N/2 - 1} in FFT order.
    """

    n_points: int

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)):
            raise TypeError(f"n_points must be an integer, got {type(n).__name__}")
        limit = np.iinfo(np.intp).max // 16
        if not 8 <= n <= limit or n % 2 != 0:
            raise ValueError(f"n_points must be even, >= 8 and <= {limit}, got {n}")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = -np.pi + 2.0 * np.pi * np.arange(self.n_points) / self.n_points
        x.setflags(write=False)
        return x

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers in FFT order: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        k = np.fft.fftfreq(self.n_points, d=1.0 / self.n_points).astype(np.int64)
        k.setflags(write=False)
        return k

    @cached_property
    def _k_squared(self) -> np.ndarray:
        k2 = self.wavenumbers.astype(np.float64) ** 2
        k2.setflags(write=False)
        return k2

    @cached_property
    def _k2_paired(self) -> np.ndarray:
        """k**2 with the unpaired Nyquist mode -N/2 zeroed: the H1 weight."""
        k2 = self._k_squared.copy()
        k2[self.n_points // 2] = 0.0
        k2.setflags(write=False)
        return k2

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n_points


_grid_of = cache(GridSpec)


def _grid(u: np.ndarray) -> GridSpec:
    """The grid of node array u, one per length; ValueError unless u is 1-D of a grid size."""
    if np.ndim(u) != 1:
        raise ValueError(f"a state is a 1-D node array, got shape {np.shape(u)}")
    return _grid_of(len(u))


def _check_positive(name: str, value: float) -> None:
    """The rule for every step argument: 0 < value < inf, so NaN fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


def _filter_weights(grid: GridSpec, mollify_eps: float | None, dealias: bool) -> np.ndarray:
    """0/1 spectral weights W: the cutoff |k| <= 1/eps times the 2/3 mask.

    The 2/3 rule keeps |k| <= floor(N/3).  W is all ones when no mode is cut.
    """
    kabs = np.abs(grid.wavenumbers)
    keep = np.ones(grid.n_points, dtype=bool)
    if mollify_eps is not None:
        keep &= kabs <= 1.0 / float(mollify_eps)  # float: 1/eps = inf, unwarned, keeps every mode
    if dealias:
        keep &= kabs <= grid.n_points // 3
    return keep.astype(np.float64)


def _power(raw: np.ndarray, weights: np.ndarray | float = 1.0) -> float:
    """Parseval: 2*pi/N^2 * sum_k w_k |raw_k|^2 for the raw FFT of N nodes, the
    integral of |u|^2 for w = 1 and of |u_x|^2 for w = ``GridSpec._k2_paired``."""
    return float(2.0 * np.pi / len(raw) ** 2 * np.sum(weights * (raw.real**2 + raw.imag**2)))


def l2_norm(u: np.ndarray) -> float:
    """Continuum L2(-pi, pi] norm via Parseval: sqrt(2*pi*sum_k |u_hat_k|^2)."""
    _grid(u)
    return float(np.sqrt(_power(np.fft.fft(u))))


def h1_seminorm(u: np.ndarray) -> float:
    """L2 norm of the first spatial derivative, the Nyquist mode -N/2 zeroed."""
    k2 = _grid(u)._k2_paired  # before the FFT, which takes any shape
    return float(np.sqrt(_power(np.fft.fft(u), k2)))

"""Conserved quantities, error norms between runs, convergence-order fits."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as P

from .model import ModelSpec
from .spectral import _grid, _power, h1_seminorm, l2_norm

__all__ = [
    "mass",
    "energy",
    "error_norms",
    "fit_order",
]


def mass(u: np.ndarray) -> float:
    """M(u) = integral of |u|^2, evaluated as 2*pi*sum_k |u_hat_k|^2."""
    _grid(u)
    return _power(np.fft.fft(u))


def energy(u: np.ndarray, model: ModelSpec) -> float:
    """Conserved energy of the flow.

    For the pseudo-attractive model this is

        E(u) = 1/2 int |u_x|^2 + 1/4 int |u|^4 - 1/4 int |(|u|^2)_x|^2,

    whose quasilinear part enters with a minus sign, so steep |u|^2
    gradients can drive E negative.  For general polynomial f, g the
    middle term is 1/2 int F(|u|^2) with F' = f, and the last term is
    sign/4 int |(g(|u|^2))_x|^2.  Gradient terms are Parseval sums; the
    middle term is a trapezoidal sum on the grid (the quartic term aliases,
    acceptably at the working resolutions).
    """
    grid = _grid(u)
    k2 = grid._k2_paired
    s = u.real**2 + u.imag**2
    e = 0.5 * _power(np.fft.fft(u), k2)
    e += 0.5 * grid.spacing * float(np.sum(P.polyval(s, P.polyint(model.f_coeffs))))
    if model.quasilinear_sign != 0:
        g_raw = np.fft.fft(P.polyval(s, model.g_coeffs))
        e -= model.quasilinear_sign * 0.25 * _power(g_raw, k2)
    return e


def error_norms(u: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """(L2, H1-seminorm) distance between two states on the same grid."""
    n, n_ref = _grid(u).n_points, _grid(reference).n_points
    if n != n_ref:
        raise ValueError(f"grid mismatch: {n} vs {n_ref} points")
    diff = u - reference
    return l2_norm(diff), h1_seminorm(diff)


def fit_order(taus, err_l2, err_h1) -> tuple[float, float]:
    """Least-squares slopes of log(err) against log(tau), both norms.

    Requires the same number of at least 3 points in each array, strictly
    decreasing step sizes ``taus`` and every step and error finite and > 0.
    For Strang splitting on smooth data both slopes come out near 2.
    """
    taus, err_l2, err_h1 = (np.asarray(x, dtype=np.float64) for x in (taus, err_l2, err_h1))
    if not len(taus) == len(err_l2) == len(err_h1) >= 3:
        raise ValueError("need at least 3 points, as many in each array, got "
                         f"{len(taus)}, {len(err_l2)} and {len(err_h1)}")
    if not (((0 < taus) & (taus < np.inf)).all() and (np.diff(taus) < 0).all()):
        raise ValueError("step sizes must be finite, positive and strictly decreasing")
    if not all(((0 < err) & (err < np.inf)).all() for err in (err_l2, err_h1)):
        raise ValueError("errors must be finite and positive for a log-log fit")
    log_tau = np.log(taus)
    order_l2 = float(np.polyfit(log_tau, np.log(err_l2), 1)[0])
    order_h1 = float(np.polyfit(log_tau, np.log(err_h1), 1)[0])
    return order_l2, order_h1

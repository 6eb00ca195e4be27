"""Conserved quantities, error norms between runs, convergence-order fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .model import ModelSpec
from .spectral import Field, _power, h1_seminorm, l2_norm

__all__ = [
    "mass",
    "energy",
    "error_norms",
    "ConvergenceRow",
    "ConvergenceTable",
    "fit_order",
]


def mass(f: Field) -> float:
    """M(u) = integral of |u|^2, evaluated as 2*pi*sum_k |u_hat_k|^2."""
    return _power(np.fft.fft(f.values))


def energy(f: Field, model: ModelSpec) -> float:
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
    k2 = f.grid._k2_paired
    s = f.values.real**2 + f.values.imag**2
    e = 0.5 * _power(np.fft.fft(f.values), k2)
    e += 0.5 * f.grid.spacing * float(np.sum(P.polyval(s, P.polyint(model.f_coeffs))))
    if model.quasilinear_sign != 0:
        g_raw = np.fft.fft(P.polyval(s, model.g_coeffs))
        e -= model.quasilinear_sign * 0.25 * _power(g_raw, k2)
    return e


def error_norms(f: Field, reference: Field) -> tuple[float, float]:
    """(L2, H1-seminorm) distance between two fields on the same grid."""
    if f.grid.n_points != reference.grid.n_points:
        raise ValueError(
            f"grid mismatch: {f.grid.n_points} vs {reference.grid.n_points} points"
        )
    diff = Field(f.grid, f.values - reference.values)
    return l2_norm(diff), h1_seminorm(diff)


@dataclass(frozen=True)
class ConvergenceRow:
    n_steps: int
    err_l2: float
    err_h1: float


@dataclass(frozen=True)
class ConvergenceTable:
    """Error ladder at fixed final time with slopes fitted in log tau."""

    t_final: float
    rows: tuple[ConvergenceRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        steps = [r.n_steps for r in self.rows]
        if steps != sorted(steps) or len(set(steps)) != len(steps):
            raise ValueError("rows must have strictly increasing n_steps")
        for r in self.rows:
            if r.err_l2 <= 0 or r.err_h1 <= 0:
                raise ValueError("errors must be positive for a log-log fit")

    @property
    def taus(self) -> np.ndarray:
        return self.t_final / np.array([r.n_steps for r in self.rows], dtype=float)


def fit_order(table: ConvergenceTable) -> tuple[float, float]:
    """Least-squares slopes of log(err) against log(tau), both norms.

    Requires at least 3 rows.  For Strang splitting on smooth data both
    slopes come out near 2.
    """
    if len(table.rows) < 3:
        raise ValueError(f"need at least 3 rows to fit, got {len(table.rows)}")
    log_tau = np.log(table.taus)
    order_l2 = float(np.polyfit(log_tau, np.log([r.err_l2 for r in table.rows]), 1)[0])
    order_h1 = float(np.polyfit(log_tau, np.log([r.err_h1 for r in table.rows]), 1)[0])
    return order_l2, order_h1

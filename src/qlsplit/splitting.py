"""Strang splitting stepper, simulation driver, and blow-up guard.

One step of size tau advances the state through

    half free flight -> nonlinear phase kick -> half free flight

optionally with a frequency cutoff (mollified variant) inside the phase
kick and after it, and a Krasny floor filter after the second half
flight.  The scheme is explicit, symmetric, and conserves the discrete
mass exactly (up to roundoff) when both filters are off.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .model import (
    InitialCondition,
    ModelSpec,
    Perturbation,
    _check_mode,
    build_initial_condition,
    exact_plane_wave,
)
from .spectral import GridSpec, _check_positive, _filter_weights, _grid, l2_norm

__all__ = [
    "StepperConfig",
    "BlowupReport",
    "SimulationRecord",
    "nonlinear_phase_step",
    "run_simulation",
    "planewave_deviation",
]


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping parameters.

    ``tau`` is the step size, finite and positive; a run also needs
    tau (N/2)^2 finite.  ``mollify_eps`` switches on the frequency cutoff
    at |k| <= 1/eps;
    ``krasny_delta`` switches on the relative spectral floor filter.
    ``mollify_eps`` and both guard factors must be finite: a NaN factor
    would switch its guard off.

    The blow-up guard trips when the maximum amplitude exceeds
    ``blowup_factor`` times its initial value or turns non-finite;
    ``run_simulation`` says where it reads the amplitude.  A record
    stride whose energy is not finite trips it too, as "nonfinite".
    ``energy_guard_factor`` optionally adds an instability
    trigger on the conserved energy: the run halts when, on a record
    stride, |E(t) - E(0)| exceeds the factor times (|E(0)| + M(0)).  This
    catches spectral-pollution instabilities that scramble the field
    without raising its amplitude (mass conservation bounds max|u| by
    sqrt(N M / 2 pi), which dispersing profiles never approach).
    """

    tau: float
    mollify_eps: float | None = None
    krasny_delta: float | None = None
    dealias: bool = False
    blowup_factor: float = 10.0
    energy_guard_factor: float | None = None
    record_every: int = 100
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _check_positive("tau", self.tau)
        for name in ("mollify_eps", "energy_guard_factor"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        if self.krasny_delta is not None and not 0.0 < self.krasny_delta < 1.0:
            raise ValueError(
                f"krasny_delta must lie in (0, 1), got {self.krasny_delta}"
            )
        if not 1.0 < self.blowup_factor < math.inf:
            raise ValueError(
                f"blowup_factor must be finite and exceed 1, got {self.blowup_factor}"
            )
        if self.record_every < 1:
            raise ValueError(
                f"record_every must be a positive integer, got {self.record_every}"
            )
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )


@dataclass(frozen=True)
class BlowupReport:
    """First guard trip: when and why (the state is SimulationRecord.final_field)."""

    onset_time: float
    trigger: str  # "amplitude" | "nonfinite" | "energy"


@dataclass
class SimulationRecord:
    """Diagnostics series, snapshots, blow-up report.

    ``min_ellipticity`` is the minimum over nodes of 1 - 2 sign s g'(s)^2
    at s = |u|^2: the equation is elliptic where it is positive.
    """

    times: np.ndarray
    max_amplitude: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    min_ellipticity: np.ndarray
    final_field: np.ndarray
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    blowup: BlowupReport | None = None

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None


class _StepKernel:
    """The Strang step on raw (unnormalized) FFT arrays.

    All per-step operations are either diagonal in k or pointwise in x, so
    normalization and the node-origin phase drop out.  ``march`` is the one
    loop of steps.  Adjacent half flights of consecutive steps are one
    multiplication by ``half_kick`` each, the cutoff folded into the
    trailing one (``flight``), and the physical state is transformed back
    only where it is needed.
    """

    def __init__(
        self,
        grid: GridSpec,
        model: ModelSpec,
        tau: float,
        mollify_eps: float | None = None,
        krasny_delta: float | None = None,
        dealias: bool = False,
    ) -> None:
        n = grid.n_points
        if not math.isfinite(float(tau) * (n // 2) ** 2):  # the resonance number; NaN fails
            raise ValueError(f"tau must be finite, and tau (N/2)^2 too, got {tau} at N = {n}")
        self.model = model
        self.tau = tau
        self.neg_k2 = -grid._k_squared[: n // 2 + 1]  # rfft half spectrum, Nyquist kept
        self.half_kick = np.exp(-1j * grid._k_squared * (tau / 2.0))
        weights = _filter_weights(grid, mollify_eps, dealias)
        # W is 0 or 1, so W * half_kick cuts and flies each mode exactly
        self.flight = weights * self.half_kick
        self.krasny_delta = krasny_delta
        mult = weights[: n // 2 + 1]
        # f(s) = g(s) = s, as in every preset: V = s + sign * s_xx, so the
        # potential and its filter are one multiplier W * (1 - sign * k^2)
        self._linear = model.f_coeffs == model.g_coeffs == (0.0, 1.0)
        if self._linear:
            mult = mult * (1.0 + model.quasilinear_sign * self.neg_k2)
        self._v_mult = None if np.all(mult == 1.0) else mult  # None: no FFT pass

    def potential(self, s: np.ndarray) -> np.ndarray:
        """f(s) + sign * g'(s) * (g(s))_xx for s = |u|^2, filtered by the weights."""
        v, m = s, self.model
        if not self._linear:
            v = np.polyval(m._f, s)
            if m.quasilinear_sign != 0:
                lap = np.fft.irfft(self.neg_k2 * np.fft.rfft(np.polyval(m._g, s)), len(s))
                v = v + m.quasilinear_sign * np.polyval(m._gprime, s) * lap
        if self._v_mult is not None:
            v = np.fft.irfft(self._v_mult * np.fft.rfft(v), len(s))
        return v

    def phase(self, s: np.ndarray) -> np.ndarray:
        """exp(-i tau V) for s = |u|^2, a new array, from one vectorised t = tan(-tau V / 2)."""
        t = np.tan(self.potential(s) * (-0.5 * self.tau))
        d = 2.0 / (1.0 + t * t)  # 1 + cos
        phase = np.empty(len(s), dtype=np.complex128)
        np.multiply(t, d, out=phase.imag)  # sin
        np.subtract(1.0, t * phase.imag, out=phase.real)  # cos = 1 - t sin, exact near 0,
        np.subtract(d, 1.0, out=phase.real, where=d < 1.0)  # and d - 1 where cos < 0
        return phase

    def march(self, u0: np.ndarray, n_steps: int) -> Iterator[tuple[int, np.ndarray, float]]:
        """Yield (n, raw spectrum at t_n, s_max) for each step from u0.

        s_max is max |u|^2 over the nodes at step n's phase kick, which
        leaves |u| unchanged at every node.  Each yielded spectrum is a new
        array that the loop never writes again.
        """
        f = np.fft.fft(u0) * self.half_kick
        for n in range(1, n_steps + 1):
            u = np.fft.ifft(f)
            s = u.real**2 + u.imag**2
            u *= self.phase(s)
            f = np.fft.fft(u)
            f *= self.flight
            if self.krasny_delta is not None:
                mags = np.abs(f)  # a zero or NaN peak zeroes no mode
                f[mags < self.krasny_delta * mags.max()] = 0.0
            yield n, f, float(s.max())
            f = f * self.half_kick


def nonlinear_phase_step(model: ModelSpec, u: np.ndarray, tau: float) -> np.ndarray:
    """Exact flow of the nonlinear sub-equation: u -> u * exp(-i tau V[u]).

    The potential V is frozen at the input amplitude (which the flow itself
    conserves nodewise), so the map is a pure pointwise phase rotation.
    ``tau`` (N/2)^2 must be finite; zero and negative steps are valid.
    A run's ``StepperConfig.mollify_eps`` cuts V in its kick; this flow never does.
    """
    s = u.real**2 + u.imag**2
    kernel = _StepKernel(_grid(u), model, tau)
    return u * kernel.phase(s)


def _step_index(t: float, tau: float, what: str) -> int:
    """Number of steps of size tau in t, which must be a step multiple."""
    ratio = t / tau
    if not math.isfinite(ratio):
        raise ValueError(f"{what} = {t} is not a finite multiple of tau = {tau}")
    n = int(round(ratio))
    if abs(ratio - n) > 1e-8 * max(1.0, abs(ratio)):
        raise ValueError(f"{what} = {t} is not an integer multiple of tau = {tau}")
    return n


def _guard_trigger(amp: float, threshold: float) -> str | None:
    if not math.isfinite(amp):
        return "nonfinite"
    if amp > threshold:
        return "amplitude"
    return None


def run_simulation(
    model: ModelSpec,
    ic: InitialCondition | np.ndarray,
    grid: GridSpec,
    cfg: StepperConfig,
    t_final: float,
) -> SimulationRecord:
    """March the Strang scheme to t_final, recording diagnostics.

    ``ic`` is an initial-condition description or the initial node array,
    which the run copies.
    Diagnostics (t, max amplitude, mass, energy, ellipticity minimum) are
    recorded at t = 0, every ``cfg.record_every`` steps, and at the end.
    The run halts early with a ``BlowupReport`` as soon as the maximum
    amplitude exceeds ``cfg.blowup_factor`` times its initial value or
    turns non-finite, or a record stride's energy is not finite; with
    ``cfg.energy_guard_factor`` set, an energy-drift trip on a record
    stride halts it as well.

    The amplitude guard reads max |u|^2 at each step's phase kick, where
    the state has flown half the step (the kick leaves |u| unchanged at
    every node), and max |u| of every t_n state the loop builds: record
    strides, snapshots and the last step.  A trip during step n is
    reported at t_n, with the t_n state as the final field.  Adjacent half
    flights are fused, so the t_n state is built only where it is
    recorded, saved or reported.

    ``t_final`` and every snapshot time must be exact integer multiples of
    ``cfg.tau``, and no two snapshot times may fall on the same step.
    """
    if t_final <= 0:
        raise ValueError(f"t_final must be positive, got {t_final}")
    n_steps = _step_index(t_final, cfg.tau, "t_final")
    if n_steps < 1:
        raise ValueError(
            f"t_final = {t_final} is not an integer multiple of tau = {cfg.tau}"
        )

    if isinstance(ic, np.ndarray):
        u0 = np.array(ic, dtype=np.complex128)
    else:
        u0 = build_initial_condition(ic, grid)
    if u0.shape != (grid.n_points,):
        raise ValueError(f"initial state of shape {u0.shape} does not fit {grid}")
    if not np.isfinite(u0).all():
        raise ValueError("initial data contains non-finite samples")

    snap_steps: dict[int, float] = {}
    for ts in cfg.snapshot_times:
        idx = _step_index(ts, cfg.tau, "snapshot time")
        if not 0 <= idx <= n_steps:
            raise ValueError(f"snapshot time {ts} outside the run [0, {t_final}]")
        if idx in snap_steps:
            raise ValueError(
                f"snapshot times {snap_steps[idx]} and {ts} fall on the same step {idx}"
            )
        snap_steps[idx] = ts

    kernel = _StepKernel(
        grid, model, cfg.tau, cfg.mollify_eps, cfg.krasny_delta, cfg.dealias
    )

    rows: list[tuple[float, float, float, float, float]] = []  # SimulationRecord's series
    snapshots: list[tuple[float, np.ndarray]] = []
    blowup: BlowupReport | None = None

    def record(t: float, u: np.ndarray, amp: float) -> float:
        s = u.real**2 + u.imag**2
        ell = 1.0 - 2.0 * model.quasilinear_sign * s * np.polyval(model._gprime, s) ** 2
        e = diagnostics.energy(u, model)
        rows.append((t, amp, diagnostics.mass(u), e, float(ell.min())))
        return e

    amp0 = float(np.abs(u0).max())
    threshold = cfg.blowup_factor * amp0
    energy0 = record(0.0, u0, amp0)
    energy_threshold = math.inf
    if cfg.energy_guard_factor is not None:
        energy_threshold = cfg.energy_guard_factor * (abs(energy0) + rows[0][2])
    if 0 in snap_steps:
        snapshots.append((0.0, u0))

    u = u0
    for n, f, s_max in kernel.march(u0, n_steps):
        trigger = _guard_trigger(math.sqrt(s_max), threshold)
        stride = n % cfg.record_every == 0 or n == n_steps
        if trigger is not None or stride or n in snap_steps:
            t = n * cfg.tau
            u = np.fft.ifft(f)
            amp = float(np.abs(u).max())
            trigger = trigger or _guard_trigger(amp, threshold)
            if trigger is not None or stride:
                e = record(t, u, amp)
                if trigger is None and not math.isfinite(e):
                    trigger = "nonfinite"
                elif trigger is None and abs(e - energy0) > energy_threshold:
                    trigger = "energy"
            if n in snap_steps:
                snapshots.append((t, u.copy()))  # u may be the final field
            if trigger is not None:
                blowup = BlowupReport(onset_time=t, trigger=trigger)
                break

    series = (np.asarray(column) for column in zip(*rows))
    return SimulationRecord(*series, final_field=u, snapshots=snapshots, blowup=blowup)


def planewave_deviation(
    a: float,
    k: int,
    tau: float,
    n_steps: int,
    grid: GridSpec,
    model: ModelSpec,
    perturbation: Perturbation | None = None,
) -> tuple[float, float | None]:
    """March a (possibly perturbed) wave train and track its deviation.

    A perturbation of mode m and amplitude eps seeds the modulus:
    u(0) = (a + eps cos((m - k) x)) e^{ikx}, which puts eps/2 on the
    sidebands m and 2k - m.  A single exponential eps e^{imx} would trade
    modulus for phase on the stable side and swing far above its start;
    the modulus seed starts at the top of that exchange.

    Returns (max L2 deviation from the model's exact wave train over all steps,
    growth factor of the squared-L2 perturbation energy relative to t=0).
    A march that turns non-finite stops there with max deviation math.inf.
    The growth factor is None when the start has no finite, nonzero
    perturbation energy: an unperturbed start, or one whose energy
    underflows to 0 or overflows.
    Raises ValueError unless tau is finite and positive and n_steps >= 1,
    when k or a sideband of the perturbation is not representable on the
    grid, when m = k: at xi = m - k = 0 the seed is no sideband but a
    change of the carrier's own amplitude, and when the exact wave's phase
    (k^2 + f(a^2)) t is not finite.
    """
    _check_positive("tau", tau)
    if not n_steps >= 1:
        raise ValueError(f"n_steps must be a positive integer, got {n_steps}")
    exact0 = exact_plane_wave(a, k, 0.0, grid)
    modulus = a
    if perturbation is not None:
        m = perturbation.mode
        if m == k:
            raise ValueError(f"perturbation mode {m} is the carrier wavenumber; "
                             "it seeds no sideband")
        _check_mode(m, grid, "perturbation mode")
        _check_mode(2 * k - m, grid, "perturbation partner mode 2k - m")
        modulus = a + perturbation.amplitude * np.cos((m - k) * grid.nodes)
    u0 = modulus * exact_plane_wave(1.0, k, 0.0, grid)
    energy0 = diagnostics.mass(u0 - exact0)

    max_dev = 0.0
    for n, f, _ in _StepKernel(grid, model, tau).march(u0, n_steps):
        exact = exact_plane_wave(a, k, n * tau, grid, model)
        dev = l2_norm(np.fft.ifft(f) - exact)
        max_dev = max(max_dev, dev) if math.isfinite(dev) else math.inf
        if max_dev == math.inf:
            break
    # dev * dev rises with dev, so the peak energy is max_dev * max_dev
    return max_dev, max(energy0, max_dev * max_dev) / energy0 if 0 < energy0 < math.inf else None

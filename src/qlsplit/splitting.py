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
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .model import (
    InitialCondition,
    ModelSpec,
    Perturbation,
    _check_mode,
    _potential,
    build_initial_condition,
    exact_plane_wave,
)
from .spectral import Field, GridSpec, _filter_weights, l2_norm

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

    ``tau`` is the step size, finite and positive.  ``mollify_eps``
    switches on the frequency cutoff at |k| <= floor(1/eps);
    ``krasny_delta`` switches on the relative spectral floor filter.
    ``mollify_eps`` and both guard factors must be finite: a NaN factor
    would switch its guard off.

    The blow-up guard trips when the maximum amplitude exceeds
    ``blowup_factor`` times its initial value or turns non-finite.  It
    reads max |u|^2 at each step's phase kick, where the state has flown
    half the step (the kick leaves |u| unchanged at every node), and max
    |u| of every t_n state the run builds: record strides, snapshots and
    the last step.  A trip during step n is reported at t_n.
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
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.mollify_eps is not None and not 0 < self.mollify_eps < math.inf:
            raise ValueError(
                f"mollify_eps must be finite and positive, got {self.mollify_eps}"
            )
        if self.krasny_delta is not None and not 0.0 < self.krasny_delta < 1.0:
            raise ValueError(
                f"krasny_delta must lie in (0, 1), got {self.krasny_delta}"
            )
        if not 1.0 < self.blowup_factor < math.inf:
            raise ValueError(
                f"blowup_factor must be finite and exceed 1, got {self.blowup_factor}"
            )
        if self.energy_guard_factor is not None and not (
            0 < self.energy_guard_factor < math.inf
        ):
            raise ValueError(
                "energy_guard_factor must be finite and positive, "
                f"got {self.energy_guard_factor}"
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
    """First guard trip: when and why (the field is SimulationRecord.final_field)."""

    onset_time: float
    trigger: str  # "amplitude" | "nonfinite" | "energy"


@dataclass
class SimulationRecord:
    """Diagnostics series (min_ellipticity derived), snapshots, blow-up report."""

    times: np.ndarray
    max_amplitude: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    final_field: Field
    snapshots: list[tuple[float, Field]] = field(default_factory=list)
    blowup: BlowupReport | None = None

    @property
    def blew_up(self) -> bool:
        return self.blowup is not None

    @property
    def min_ellipticity(self) -> np.ndarray:
        """min_j (1 - 2|u_j|^2), derived from max_amplitude: 1 - 2 max_j |u_j|^2."""
        return 1.0 - 2.0 * self.max_amplitude * self.max_amplitude


class _StepKernel:
    """The Strang step on raw (unnormalized) FFT arrays.

    All per-step operations are either diagonal in k or pointwise in x, so
    normalization and the node-origin phase drop out.  The step is built
    around ``kick``, which takes a spectrum that has already flown its
    leading half step.  Adjacent half flights of consecutive steps are one
    multiplication by ``half_kick`` each, so a run of steps costs one
    ``kick`` plus one multiplication per step, and the physical state is
    transformed back only where it is needed.
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
        self.model = model
        self.tau = tau
        self.neg_k2 = -grid._k_squared
        self.half_kick = np.exp(-1j * grid._k_squared * (tau / 2.0))
        self.moll_weights = _filter_weights(grid, mollify_eps, dealias)
        self.krasny_delta = krasny_delta
        n = grid.n_points
        self._s = np.empty(n)
        self._work = np.empty(n)
        self._phase = np.empty(n, dtype=np.complex128)
        self._cos = self._phase.real
        self._sin = self._phase.imag

    def potential(self, s: np.ndarray) -> np.ndarray:
        """The model potential of s = |u|^2, filtered by the spectral weights."""
        v = _potential(self.model, s, self.neg_k2)
        if self.moll_weights is not None:
            v = np.fft.ifft(self.moll_weights * np.fft.fft(v)).real
        return v

    def kick(self, f_half: np.ndarray) -> tuple[np.ndarray, float]:
        """Phase kick, filters and trailing half flight of one step.

        ``f_half`` is the spectrum after the step's leading half flight.
        Returns the spectrum at the end of the step and max |u|^2 over the
        nodes during the kick, which leaves |u| unchanged at every node.
        """
        u = np.fft.ifft(f_half)
        s = self._s
        np.square(u.real, out=s)
        s += np.square(u.imag, out=self._work)
        arg = np.multiply(self.potential(s), -self.tau, out=self._work)
        # cos + i sin of -tau V equals exp(-1j * tau * V) bit for bit, at
        # about half the cost of the complex exp.
        np.cos(arg, out=self._cos)
        np.sin(arg, out=self._sin)
        u *= self._phase
        f_new = np.fft.fft(u)
        if self.moll_weights is not None:
            f_new *= self.moll_weights
        f_new *= self.half_kick
        if self.krasny_delta is not None:
            mags = np.abs(f_new)
            peak = mags.max()
            if peak > 0.0:
                f_new[mags < self.krasny_delta * peak] = 0.0
        return f_new, float(s.max())

    def advance(self, f_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One whole Strang step on a raw spectrum; returns (spectrum, state)."""
        f_new, _ = self.kick(f_raw * self.half_kick)
        return f_new, np.fft.ifft(f_new)


def nonlinear_phase_step(
    model: ModelSpec, f: Field, tau: float, mollify_eps: float | None = None
) -> Field:
    """Exact flow of the nonlinear sub-equation: u -> u * exp(-i tau V[u]).

    The potential V is frozen at the input amplitude (which the flow itself
    conserves nodewise), so the map is a pure pointwise phase rotation.
    With ``mollify_eps`` set, the frequency cutoff is applied to V.
    """
    s = f.values.real**2 + f.values.imag**2
    v = _StepKernel(f.grid, model, tau, mollify_eps).potential(s)
    return Field(f.grid, f.values * np.exp(-1j * tau * v))


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
    ic: InitialCondition | Field,
    grid: GridSpec,
    cfg: StepperConfig,
    t_final: float,
) -> SimulationRecord:
    """March the Strang scheme to t_final, recording diagnostics.

    Diagnostics (t, max amplitude, mass, energy, ellipticity minimum) are
    recorded at t = 0, every ``cfg.record_every`` steps, and at the end.
    The run halts early with a ``BlowupReport`` as soon as the maximum
    amplitude exceeds ``cfg.blowup_factor`` times its initial value or
    turns non-finite; with ``cfg.energy_guard_factor`` set, an
    energy-drift trip on a record stride halts it as well.

    The amplitude guard reads max |u|^2 at each step's phase kick (the
    kick leaves |u| unchanged at every node) and max |u| of every t_n
    state the loop builds: record strides, snapshots and the last step.
    A trip during step n is reported at t_n, with the t_n state as the
    final field.  Adjacent half flights are fused, so the t_n state is
    built only where it is recorded, saved or reported.

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

    u0 = ic if isinstance(ic, Field) else build_initial_condition(ic, grid)
    if u0.grid.n_points != grid.n_points:
        raise ValueError("initial field does not live on the requested grid")
    if not np.isfinite(u0.values).all():
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

    times: list[float] = []
    amps: list[float] = []
    masses: list[float] = []
    energies: list[float] = []
    snapshots: list[tuple[float, Field]] = []
    blowup: BlowupReport | None = None

    def record(t: float, u: np.ndarray, amp: float) -> float:
        fld = Field(grid, u)
        times.append(t)
        amps.append(amp)
        masses.append(diagnostics.mass(fld))
        e = diagnostics.energy(fld, model)
        energies.append(e)
        return e

    amp0 = float(np.abs(u0.values).max())
    threshold = cfg.blowup_factor * amp0
    energy0 = record(0.0, u0.values, amp0)
    energy_threshold = None
    if cfg.energy_guard_factor is not None:
        energy_threshold = cfg.energy_guard_factor * (abs(energy0) + masses[0])
    if 0 in snap_steps:
        snapshots.append((0.0, u0))

    # f is the raw spectrum after the leading half flight of step n
    f = np.fft.fft(u0.values) * kernel.half_kick
    u = u0.values
    for n in range(1, n_steps + 1):
        f, s_max = kernel.kick(f)
        trigger = _guard_trigger(math.sqrt(s_max), threshold)
        stride = n % cfg.record_every == 0 or n == n_steps
        if trigger is not None or stride or n in snap_steps:
            t = n * cfg.tau
            u = np.fft.ifft(f)
            amp = float(np.abs(u).max())
            trigger = trigger or _guard_trigger(amp, threshold)
            if trigger is not None or stride:
                e = record(t, u, amp)
                if (
                    trigger is None
                    and energy_threshold is not None
                    and (not np.isfinite(e) or abs(e - energy0) > energy_threshold)
                ):
                    trigger = "energy"
            if n in snap_steps:
                snapshots.append((t, Field(grid, u)))
            if trigger is not None:
                blowup = BlowupReport(onset_time=t, trigger=trigger)
                break
        f *= kernel.half_kick

    return SimulationRecord(
        times=np.asarray(times),
        max_amplitude=np.asarray(amps),
        mass=np.asarray(masses),
        energy=np.asarray(energies),
        final_field=Field(grid, u),
        snapshots=snapshots,
        blowup=blowup,
    )


def planewave_deviation(
    a: float,
    k: int,
    tau: float,
    n_steps: int,
    grid: GridSpec,
    model: ModelSpec | None = None,
    perturbation: Perturbation | None = None,
) -> tuple[float, float | None]:
    """March a (possibly perturbed) wave train and track its deviation.

    A perturbation of mode m and amplitude eps seeds the modulus:
    u(0) = (a + eps cos((m - k) x)) e^{ikx}, which puts eps/2 on the
    sidebands m and 2k - m.  A single exponential eps e^{imx} would trade
    modulus for phase on the stable side and swing far above its start;
    the modulus seed starts at the top of that exchange.

    Returns (max L2 deviation from the exact wave train over all steps,
    growth factor of the squared-L2 perturbation energy relative to t=0).
    The growth factor is None when the start has no perturbation energy:
    an unperturbed start, or one whose energy underflows to 0.
    Raises ValueError when k or a sideband of the perturbation is not
    representable on the grid.
    """
    if model is None:
        model = ModelSpec.pseudo_attractive()
    exact0 = exact_plane_wave(a, k, 0.0, grid)
    x = grid.nodes
    modulus = a
    if perturbation is not None:
        m = perturbation.mode
        _check_mode(m, grid, "perturbation mode")
        _check_mode(2 * k - m, grid, "perturbation partner mode 2k - m")
        modulus = a + perturbation.amplitude * np.cos((m - k) * x)
    u0 = Field(grid, modulus * np.exp(1j * k * x))
    energy0 = diagnostics.mass(Field(grid, u0.values - exact0.values))

    kernel = _StepKernel(grid, model, tau)
    f_raw = np.fft.fft(u0.values)
    max_dev = 0.0
    max_energy = energy0
    for n in range(1, n_steps + 1):
        f_raw, u = kernel.advance(f_raw)
        exact = exact_plane_wave(a, k, n * tau, grid)
        dev = l2_norm(Field(grid, u - exact.values))
        max_dev = max(max_dev, dev)
        max_energy = max(max_energy, dev * dev)
        if not np.isfinite(dev):
            break
    return max_dev, max_energy / energy0 if energy0 > 0 else None

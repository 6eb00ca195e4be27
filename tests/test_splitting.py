"""Strang stepper, simulation driver and guards."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from qlsplit import (
    Field,
    Gaussian,
    GridSpec,
    ModelSpec,
    MultiMode,
    StepperConfig,
    exact_plane_wave,
    l2_norm,
    mass,
    nonlinear_phase_step,
    run_simulation,
)

from conftest import one_step, random_field

MODEL = ModelSpec.pseudo_attractive()
MODELS = [MODEL, ModelSpec.thin_film(), ModelSpec.cubic_nls(),
          ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.25))]


def reference_weights(grid, mollify_eps=None, dealias=False):
    """Cutoff and 2/3 weights, or None when neither filter is on."""
    k = np.abs(grid.wavenumbers.astype(np.float64))
    weights = None
    if mollify_eps is not None:
        weights = (k <= int(np.floor(1.0 / mollify_eps))).astype(np.float64)
    if dealias:
        mask = (k <= grid.n_points // 3).astype(np.float64)
        weights = mask if weights is None else mask * weights
    return weights


def reference_potential(model, s, grid, weights=None):
    """The original potential: three polyval calls, then the filter weights."""
    k2 = grid.wavenumbers.astype(np.float64) ** 2
    v = P.polyval(s, model.f_coeffs)
    if model.quasilinear_sign != 0:
        lap = np.fft.ifft(-k2 * np.fft.fft(P.polyval(s, model.g_coeffs))).real
        v = v + model.quasilinear_sign * P.polyval(s, model.gprime_coeffs) * lap
    if weights is not None:
        v = np.fft.ifft(weights * np.fft.fft(v)).real
    return v


def reference_states(model, u0, tau, n_steps, mollify_eps=None,
                     krasny_delta=None, dealias=False):
    """The original unfused step loop: u_1, ..., u_n, one whole step each.

    Kept as the reference the fused run loop must match bit for bit.
    """
    half_kick = np.exp(-1j * u0.grid.wavenumbers.astype(np.float64) ** 2 * (tau / 2.0))
    weights = reference_weights(u0.grid, mollify_eps, dealias)
    f_raw = np.fft.fft(u0.values)
    states = []
    for _ in range(n_steps):
        u_mid = np.fft.ifft(f_raw * half_kick)
        s = u_mid.real**2 + u_mid.imag**2
        u_mid *= np.exp(-1j * tau * reference_potential(model, s, u0.grid, weights))
        f_raw = np.fft.fft(u_mid)
        if weights is not None:
            f_raw *= weights
        f_raw *= half_kick
        if krasny_delta is not None:
            mags = np.abs(f_raw)
            if mags.max() > 0.0:
                f_raw[mags < krasny_delta * mags.max()] = 0.0
        states.append(np.fft.ifft(f_raw))
    return states


class TestNonlinearPhaseStep:
    def test_zero_tau_is_identity(self, grid):
        f = random_field(grid, np.random.default_rng(0))
        out = nonlinear_phase_step(MODEL, f, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-15)

    def test_plane_wave_global_phase(self, grid):
        a, tau = 0.8, 0.05
        f = Field(grid, a * np.exp(2j * grid.nodes))
        out = nonlinear_phase_step(MODEL, f, tau)
        assert np.allclose(out.values, f.values * np.exp(-1j * tau * a**2), atol=1e-14)

    def test_nodewise_modulus_conserved(self, grid):
        # the defining property of the nonlinear sub-flow
        rng = np.random.default_rng(1)
        for tau in [1e-3, 0.1, 2.0]:
            f = random_field(grid, rng)
            out = nonlinear_phase_step(MODEL, f, tau)
            dev = np.abs(np.abs(out.values) - np.abs(f.values))
            assert dev.max() < 1e-15

    def test_mollified_potential(self, grid):
        f = random_field(grid, np.random.default_rng(2))
        plain = nonlinear_phase_step(MODEL, f, 0.1)
        moll = nonlinear_phase_step(MODEL, f, 0.1, mollify_eps=0.3)
        assert not np.allclose(plain.values, moll.values)
        dev = np.abs(np.abs(moll.values) - np.abs(f.values))
        assert dev.max() < 1e-15
        for eps in (0.0, -0.3):
            with pytest.raises(ValueError, match="mollifier eps must be positive"):
                nonlinear_phase_step(MODEL, f, 0.1, mollify_eps=eps)

    @pytest.mark.parametrize("mollify_eps", [None, 0.05, 0.3])
    @pytest.mark.parametrize("model", MODELS,
                             ids=["plain", "thin-film", "cubic", "polynomial"])
    def test_matches_reference_potential(self, model, mollify_eps):
        rng = np.random.default_rng(31)
        for n in (64, 256, 1024, 4096):
            grid = GridSpec(n)
            u = 1.3 * rng.uniform(0, 1, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            s = u.real**2 + u.imag**2
            v = reference_potential(model, s, grid, reference_weights(grid, mollify_eps))
            for tau in (1e-4, 1e-2, 0.5):
                out = nonlinear_phase_step(model, Field(grid, u), tau, mollify_eps)
                assert np.array_equal(out.values, u * np.exp(-1j * tau * v))


class TestStrangStep:
    def test_plane_wave_step_is_exact(self):
        grid = GridSpec(64)
        a, k, tau = 0.5, 1, 1e-3
        f = exact_plane_wave(a, k, 0.0, grid)
        out = one_step(MODEL, f, tau)
        expected = exact_plane_wave(a, k, tau, grid)
        diff = Field(grid, out.values - expected.values)
        assert l2_norm(diff) < 1e-12

    def test_zero_field(self, grid):
        out = one_step(MODEL, Field(grid, np.zeros(grid.n_points)), 0.01)
        assert np.all(out.values == 0)

    def test_reversibility(self):
        grid = GridSpec(256)
        f = Field(grid, 0.2 * np.exp(-grid.nodes**2 / (2 * 0.2**2)))
        fwd = one_step(MODEL, f, 1e-3)
        back = one_step(MODEL, fwd, -1e-3)
        diff = Field(grid, back.values - f.values)
        assert l2_norm(diff) < 1e-11

    def test_mass_conserved_per_step_without_filters(self, grid):
        rng = np.random.default_rng(3)
        f = random_field(grid, rng, scale=0.5)
        out = one_step(MODEL, f, 5e-3)
        assert mass(out) == pytest.approx(mass(f), rel=1e-12)

    def test_filters_never_increase_mass(self, grid):
        rng = np.random.default_rng(4)
        f = random_field(grid, rng, scale=0.5)
        for filters in [{"mollify_eps": 0.2}, {"krasny_delta": 1e-3}]:
            out = one_step(MODEL, f, 5e-3, **filters)
            assert mass(out) <= mass(f) * (1 + 1e-12)

    def test_mollified_step_band_limits_the_state(self, grid):
        rng = np.random.default_rng(5)
        f = random_field(grid, rng)
        out = one_step(MODEL, f, 1e-2, mollify_eps=0.2)
        c = out.spectrum
        beyond = np.abs(grid.wavenumbers) > 5  # floor(1/0.2)
        assert np.max(np.abs(c[beyond])) < 1e-15

    def test_dealias_step_band_limits_the_state(self, grid):
        rng = np.random.default_rng(21)
        f = random_field(grid, rng)
        out = one_step(MODEL, f, 1e-2, dealias=True)
        c = out.spectrum
        beyond = np.abs(grid.wavenumbers) > grid.n_points // 3
        assert np.max(np.abs(c[beyond])) < 1e-15

    def test_krasny_step_floors_small_modes(self, grid):
        f = Field(grid, np.exp(1j * grid.nodes) + 1e-9 * np.exp(5j * grid.nodes))
        out = one_step(MODEL, f, 1e-3, krasny_delta=1e-6)
        c = np.abs(out.spectrum)
        idx = {k: i for i, k in enumerate(grid.wavenumbers)}
        assert c[idx[5]] < 1e-15


class TestStepperConfigValidation:
    def test_rejects_zero_tau(self):
        # the config owns tau > 0; run_simulation has no check of its own
        for tau in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive"):
                StepperConfig(tau=tau)

    def test_rejects_bad_filters(self):
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, mollify_eps=-1.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, krasny_delta=1.5)
        for eps in (np.nan, np.inf):
            with pytest.raises(ValueError, match="mollify_eps"):
                StepperConfig(tau=1e-3, mollify_eps=eps)

    def test_rejects_bad_guards(self):
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, blowup_factor=0.9)
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, energy_guard_factor=0.0)
        with pytest.raises(ValueError):
            StepperConfig(tau=1e-3, record_every=0)
        # a NaN factor fails every comparison, so its guard would never trip
        for factor in (np.nan, np.inf):
            with pytest.raises(ValueError, match="blowup_factor"):
                StepperConfig(tau=1e-3, blowup_factor=factor)
            with pytest.raises(ValueError, match="energy_guard_factor"):
                StepperConfig(tau=1e-3, energy_guard_factor=factor)


class TestRunSimulation:
    def test_step_count_must_divide(self, grid):
        cfg = StepperConfig(tau=1e-3)
        with pytest.raises(ValueError, match="integer multiple"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.0015)

    def test_rejects_nonpositive_horizon(self, grid):
        cfg = StepperConfig(tau=1e-3)
        with pytest.raises(ValueError):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, -1.0)
        for t_final in (np.nan, np.inf):
            with pytest.raises(ValueError, match="t_final"):
                run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, t_final)

    def test_rejects_nonfinite_initial_data(self, grid):
        cfg = StepperConfig(tau=1e-3)
        bad = Field(grid, np.full(grid.n_points, np.nan + 0j))
        with pytest.raises(ValueError, match="non-finite"):
            run_simulation(MODEL, bad, grid, cfg, 0.01)

    def test_record_striding_and_endpoints(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=7)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)
        assert rec.times[0] == 0.0
        assert rec.times[-1] == pytest.approx(0.02)
        assert np.all(np.diff(rec.times) > 0)
        # 0, 7, 14, 20 -> strides plus forced final row
        assert len(rec.times) == 4
        assert not rec.blew_up

    def test_snapshots_captured(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=5, snapshot_times=(0.0, 0.01))
        rec = run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)
        assert len(rec.snapshots) == 2
        assert rec.snapshots[0][0] == 0.0
        assert rec.snapshots[1][0] == pytest.approx(0.01)
        assert rec.snapshots[1][1].grid.n_points == 64

    def test_snapshot_time_off_the_step_grid_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.0104,))
        with pytest.raises(ValueError, match="snapshot time .* integer multiple"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_snapshot_times_on_one_step_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.01, 0.01 + 1e-12))
        with pytest.raises(ValueError, match="same step"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_snapshot_time_outside_run_rejected(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, snapshot_times=(0.05,))
        with pytest.raises(ValueError, match="snapshot"):
            run_simulation(MODEL, Gaussian(0.2, 0.5), grid, cfg, 0.02)

    def test_zero_amplitude_runs_flat(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        rec = run_simulation(MODEL, Gaussian(0.0, 0.5), grid, cfg, 0.02)
        assert not rec.blew_up
        assert np.all(rec.max_amplitude == 0)
        assert np.all(rec.mass == 0)
        assert np.all(rec.energy == 0)

    def test_mass_conserved_over_many_steps(self):
        grid = GridSpec(256)
        cfg = StepperConfig(tau=(np.pi / 4) / 2000, record_every=200)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.2), grid, cfg, np.pi / 4)
        drift = np.abs(rec.mass - rec.mass[0]).max() / rec.mass[0]
        assert drift < 1e-12

    def test_deterministic(self):
        grid = GridSpec(128)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        rec1 = run_simulation(MODEL, Gaussian(0.3, 0.3), grid, cfg, 0.05)
        rec2 = run_simulation(MODEL, Gaussian(0.3, 0.3), grid, cfg, 0.05)
        assert np.array_equal(rec1.final_field.values, rec2.final_field.values)
        assert np.array_equal(rec1.energy, rec2.energy)

    def test_matches_repeated_strang_steps(self):
        grid = GridSpec(64)
        cfg = StepperConfig(tau=2e-3, record_every=100)
        rec = run_simulation(MODEL, Gaussian(0.3, 0.4), grid, cfg, 0.01)
        f = one_step(MODEL, Field(grid, 0.3 * np.exp(-grid.nodes**2 / (2 * 0.4**2))), 2e-3)
        for _ in range(4):
            f = one_step(MODEL, f, 2e-3)
        assert np.allclose(rec.final_field.values, f.values, atol=1e-13)


class TestFusedLoopMatchesReference:
    @pytest.mark.parametrize(
        "model, filters",
        [
            (MODEL, {}),
            (MODEL, {"mollify_eps": 0.05}),
            (MODEL, {"dealias": True}),
            (MODEL, {"krasny_delta": 1e-6}),
            (MODEL, {"mollify_eps": 0.05, "dealias": True, "krasny_delta": 1e-6}),
            (ModelSpec.thin_film(), {}),
            (ModelSpec.cubic_nls(), {}),
            (ModelSpec(f_coeffs=(0, 1, 0.5), g_coeffs=(0, 1, 0.25)), {}),
        ],
        ids=["plain", "mollify", "dealias", "krasny", "all-filters",
             "thin-film", "cubic", "polynomial"],
    )
    def test_bit_for_bit(self, model, filters):
        grid = GridSpec(128)
        tau, n_steps = 1e-3, 300
        u0 = Field(grid, 0.5 * np.exp(-grid.nodes**2 / (2 * 0.3**2))
                   * np.exp(1j * np.cos(grid.nodes)))
        cfg = StepperConfig(
            tau=tau, record_every=70, snapshot_times=(0.0, 0.013, 0.2), **filters
        )
        rec = run_simulation(model, u0, grid, cfg, tau * n_steps)
        ref = reference_states(model, u0, tau, n_steps, **filters)
        assert not rec.blew_up
        assert np.array_equal(rec.final_field.values, ref[-1])
        assert [round(t / tau) for t, _ in rec.snapshots] == [0, 13, 200]
        assert np.array_equal(rec.snapshots[0][1].values, u0.values)
        assert np.array_equal(rec.snapshots[1][1].values, ref[12])
        assert np.array_equal(rec.snapshots[2][1].values, ref[199])
        rows = [round(t / tau) for t in rec.times]
        assert rows == [0, 70, 140, 210, 280, 300]
        amps = [np.abs(ref[n - 1]).max() for n in rows[1:]]
        assert np.array_equal(rec.max_amplitude[1:], amps)

    def test_strang_step_is_one_reference_step(self):
        grid = GridSpec(128)
        u0 = random_field(grid, np.random.default_rng(7), scale=0.5)
        out = one_step(MODEL, u0, 2e-3, krasny_delta=1e-4)
        ref = reference_states(MODEL, u0, 2e-3, 1, krasny_delta=1e-4)
        assert np.array_equal(out.values, ref[0])


class TestBlowupGuards:
    def test_rows_above_threshold_only_on_a_trip(self):
        # the kick reads max|u|^2 every step and every built state is
        # checked, so no recorded amplitude passes the guard unreported
        grid = GridSpec(256)
        for amplitude, factor in [(0.65, 1.8), (0.65, 2.6), (0.2, 1.2)]:
            cfg = StepperConfig(tau=2e-5, blowup_factor=factor, record_every=7)
            rec = run_simulation(
                MODEL, MultiMode(amplitude, (2, 8)), grid, cfg, 0.01
            )
            above = rec.max_amplitude > factor * rec.max_amplitude[0]
            if rec.blew_up:
                assert not above[:-1].any()
            else:
                assert not above.any()


    def test_amplitude_trigger_multimode(self):
        # the pseudo-attractive large-data run takes off almost immediately
        grid = GridSpec(256)
        cfg = StepperConfig(tau=2e-5, blowup_factor=1.8, record_every=50)
        rec = run_simulation(MODEL, MultiMode(0.65, (2, 8)), grid, cfg, 0.01)
        assert rec.blew_up
        assert rec.blowup.trigger == "amplitude"
        assert rec.blowup.onset_time < 0.01
        assert rec.times[-1] == pytest.approx(rec.blowup.onset_time)
        assert rec.max_amplitude[-1] > 1.8 * 1.3

    def test_energy_trigger_spectral_pollution(self):
        # too-large tau scrambles the spectrum while amplitude stays bounded
        grid = GridSpec(512)
        cfg = StepperConfig(
            tau=(np.pi / 4) / 1000, record_every=20, energy_guard_factor=10.0
        )
        rec = run_simulation(MODEL, Gaussian(0.625, 0.1), grid, cfg, np.pi / 4)
        assert rec.blew_up
        assert rec.blowup.trigger == "energy"
        # amplitude guard alone would never have fired here
        assert rec.max_amplitude.max() < 10 * 0.625

    def test_nonfinite_trigger(self):
        # overflow in |u|^2 drives the potential to inf and the state to nan
        grid = GridSpec(64)
        cfg = StepperConfig(tau=1e-3, record_every=10)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = run_simulation(MODEL, Gaussian(1e200, 0.5), grid, cfg, 0.01)
        assert rec.blew_up
        assert rec.blowup.trigger == "nonfinite"

    def test_stable_run_reports_no_blowup(self):
        grid = GridSpec(256)
        cfg = StepperConfig(tau=1e-4, blowup_factor=2.0, record_every=50)
        rec = run_simulation(MODEL, Gaussian(0.2, 0.2), grid, cfg, 0.02)
        assert not rec.blew_up
        assert rec.blowup is None


class TestKrasnyStabilization:
    def test_spectral_floor_stabilizes_coarse_stiff_run(self):
        # at N_t = 2000 the stiff profile scrambles its spectrum unless the
        # 1e-3 floor filter removes the roundoff-seeded modes each step
        grid = GridSpec(512)
        t_final = np.pi / 4
        ic = Gaussian(0.625, 0.1)
        base = StepperConfig(
            tau=t_final / 2000, record_every=100, energy_guard_factor=10.0
        )
        unfiltered = run_simulation(MODEL, ic, grid, base, t_final)
        assert unfiltered.blew_up and unfiltered.blowup.trigger == "energy"

        filtered_cfg = StepperConfig(
            tau=t_final / 2000, krasny_delta=1e-3, record_every=100,
            energy_guard_factor=10.0,
        )
        filtered = run_simulation(MODEL, ic, grid, filtered_cfg, t_final)
        assert not filtered.blew_up
        drift = np.abs(filtered.energy - filtered.energy[0]).max()
        assert drift / abs(filtered.energy[0]) < 1e-3
        # the floor filter only ever removes mass
        assert filtered.mass[-1] <= filtered.mass[0]

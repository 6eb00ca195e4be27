"""Acceptance gate: one test per acceptance criterion, one PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

The suite is compute-heavy (a few minutes total; criterion 2 dominates).
Every tolerance is pinned here; nothing is deferred to later calibration.

Criterion 5 (threshold dichotomy) and how its parameters follow from the
scheme.  A carrier a exp(ikx) perturbed at relative wavenumber xi is
linearly unstable exactly when 2 a^2 xi^2 - 2 a^2 - xi^2 > 0, so mode xi
flips its verdict at a*(xi) = sqrt(xi^2 / (2 xi^2 - 2)), above sqrt(2)/2
by about sqrt(2)/2 / (2 xi^2).

- Resolution.  On N = 256 (|xi| <= 127) the first mode to flip does so
  2.2e-5 above sqrt(2)/2; an offset of 1e-8 needs xi ~ 5946.  The
  criterion therefore uses a = sqrt(2)/2 +/- 1e-4 and seeds xi0 = 126,
  which flips at 2.2e-5 (the test asserts this premise on the closed
  form before it steps).
- Splitting.  The linearized Strang step on mode xi grows only when
  2 a^2 (xi^2 - 1) tau > 2 tan(tau xi^2 / 2), so the scheme's threshold
  sits above the continuum one.  With m = 2 a^2 - 1 - 2 a^2 / xi^2, the
  best growth is about sqrt(3) m per step in log amplitude, whatever
  tau is.  A 10x energy rise at an offset of 1e-8 (m <= 2 sqrt(2) 1e-8)
  thus takes at least 2e7 steps, on N >= 2^14: no grid or step size
  makes +/-1e-8 testable.  At +1e-4 and xi0 = 126, m = 2.2e-4, and
  tau = 2e-6 lifts the scheme's threshold by tan(tau xi0^2 / 2) /
  (tau xi0^2 / 2) - 1 = 8.4e-5 only, so xi0 grows under the splitting
  too; tau (N/2)^2 = 0.033 stays clear of the resonance tau k^2 = pi.
- Seed.  A single exponential e^{i(k + xi) x} on the stable side swings
  to an energy of about (1 + xi^2 / B) / 2 times its start, with
  B = (1 - 2 a^2) xi^2 + 2 a^2, because the mode trades modulus for
  phase (measured: 1164x at sqrt(2)/2 - 1e-4, xi = 126).  A modulus seed (a + eps cos xi0 x) e^{ikx}
  starts at the maximum of that exchange and never exceeds its starting
  energy while the mode is stable.
- Carrier.  The continuum verdict does not depend on k (k only
  Doppler-shifts the eigenvalues), but on an even grid a carrier k != 0
  pairs the mode k - N/2 with itself through aliasing.  That mode is
  unstable for a > sqrt((N^2/4 - kN) / (2 (N^2/4 - 1))), which is 0.70158
  < sqrt(2)/2 at N = 256, k = 1, and shows once tau is small enough to
  resolve the offset (1.6e18x growth at sqrt(2)/2 - 1e-4, tau = 2e-6).
  The criterion uses k = 0.
"""

import time

import numpy as np

from qlsplit import (
    Gaussian,
    GridSpec,
    ModelSpec,
    MultiMode,
    StepperConfig,
    error_norms,
    exact_plane_wave,
    fit_order,
    gn_eigenvalues,
    gn_matrix,
    l2_norm,
    nonlinear_phase_step,
    planewave_deviation,
    run_simulation,
    two_by_two_eigenvalues,
)

MODEL = ModelSpec.pseudo_attractive()
THRESHOLD = np.sqrt(2) / 2


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


def run_to_final(ic, grid, n_steps, t_final, **cfg_kwargs):
    cfg = StepperConfig(
        tau=t_final / n_steps,
        record_every=cfg_kwargs.pop("record_every", max(1, n_steps // 20)),
        **cfg_kwargs,
    )
    return run_simulation(MODEL, ic, grid, cfg, t_final)


def ladder_errors(ic, grid, ladder, reference_n, t_final, **cfg_kwargs):
    """Step sizes and the (L2, H1) errors against the reference, as arrays."""
    reference = run_to_final(ic, grid, reference_n, t_final, **cfg_kwargs)
    assert not reference.blew_up, "reference run tripped the guard"
    errors = []
    for n in ladder:
        rec = run_to_final(ic, grid, n, t_final, **cfg_kwargs)
        assert not rec.blew_up, f"ladder run n_steps={n} tripped the guard"
        errors.append(error_norms(rec.final_field, reference.final_field))
    err_l2, err_h1 = np.array(errors).T
    return t_final / np.array(ladder, dtype=float), err_l2, err_h1


# Frozen benchmark error magnitudes for the smooth convergence regime
# (a = 1/5, sigma = 1/5, N = 256, T = pi/4); reproduction within x3.
TABLE1_NT = [500, 1000, 2000, 4000, 8000]
TABLE1_L2 = [1.6973e-06, 4.2241e-07, 1.0545e-07, 2.6323e-08, 6.5487e-09]
# Derivative-norm benchmarks expressed in the seminorm convention used
# here, where ||a exp(ikx)||_H1 = |k| a sqrt(2 pi).  The tabulated source
# carries a constant factor sqrt(N) = 16 relative to this convention
# (its L2 column needs no rescaling; see the decisions ledger).
TABLE1_H1 = [v / 16.0 for v in [4.7783e-04, 1.1878e-04, 2.9642e-05, 7.3990e-06, 1.8407e-06]]


def test_criterion_1_second_order_convergence_smooth():
    start = time.time()
    grid = GridSpec(256)
    t_final = np.pi / 4
    taus, err_l2, err_h1 = ladder_errors(Gaussian(0.2, 0.2), grid, TABLE1_NT, 100_000,
                                         t_final)
    order_l2, order_h1 = fit_order(taus, err_l2, err_h1)
    problems = []
    if not 1.8 <= order_l2 <= 2.2:
        problems.append(f"L2 slope {order_l2:.3f} outside [1.8, 2.2]")
    if not 1.8 <= order_h1 <= 2.2:
        problems.append(f"H1 slope {order_h1:.3f} outside [1.8, 2.2]")
    for i in range(len(TABLE1_NT) - 1):
        r2 = err_l2[i] / err_l2[i + 1]
        r1 = err_h1[i] / err_h1[i + 1]
        if not 3.4 <= r2 <= 4.6:
            problems.append(f"L2 ratio {r2:.2f} at halving {i} outside [3.4, 4.6]")
        if not 3.4 <= r1 <= 4.6:
            problems.append(f"H1 ratio {r1:.2f} at halving {i} outside [3.4, 4.6]")
    for n, e2, e1, l2_ref, h1_ref in zip(TABLE1_NT, err_l2, err_h1, TABLE1_L2, TABLE1_H1):
        if not l2_ref / 3 <= e2 <= l2_ref * 3:
            problems.append(f"err_l2({n}) = {e2:.3e} not within x3 of {l2_ref:.3e}")
        if not h1_ref / 3 <= e1 <= h1_ref * 3:
            problems.append(f"err_h1({n}) = {e1:.3e} not within x3 of {h1_ref:.3e}")
    if not 6e-7 <= err_l2[0] <= 5e-6:
        problems.append(f"err_l2(500) = {err_l2[0]:.3e} outside [6e-7, 5e-6]")
    elapsed = time.time() - start
    if elapsed > 120:
        problems.append(f"runtime {elapsed:.0f}s exceeds 2 minutes")
    report(
        "criterion 1 (smooth second-order convergence)",
        not problems,
        "; ".join(problems)
        or f"slopes L2 {order_l2:.3f} H1 {order_h1:.3f}, "
        f"err_l2(500) {err_l2[0]:.3e}, {elapsed:.0f}s",
    )


def test_criterion_2_stiff_regime_convergence_and_instability():
    start = time.time()
    grid = GridSpec(512)
    t_final = np.pi / 4
    ic = Gaussian(0.625, 0.1)
    problems = []

    coarse = run_to_final(ic, grid, 10_000, t_final, energy_guard_factor=10.0)
    if not coarse.blew_up:
        problems.append("n_steps=10000 run did not trip the instability guard")
    else:
        print(
            f"\n  n_steps=10000 tripped the {coarse.blowup.trigger} guard "
            f"at t = {coarse.blowup.onset_time:.4e}",
            flush=True,
        )

    order_l2, order_h1 = fit_order(*ladder_errors(
        ic, grid, [20_000, 40_000, 80_000], 320_000, t_final,
        energy_guard_factor=10.0,
    ))
    if not 1.6 <= order_l2 <= 2.3:
        problems.append(f"L2 slope {order_l2:.3f} outside [1.6, 2.3]")
    if not 1.6 <= order_h1 <= 2.3:
        problems.append(f"H1 slope {order_h1:.3f} outside [1.6, 2.3]")
    elapsed = time.time() - start
    if elapsed > 600:
        problems.append(f"runtime {elapsed:.0f}s exceeds 10 minutes")
    report(
        "criterion 2 (stiff-regime convergence + unstable coarse run)",
        not problems,
        "; ".join(problems)
        or f"slopes L2 {order_l2:.3f} H1 {order_h1:.3f}, coarse run tripped "
        f"{coarse.blowup.trigger} guard, {elapsed:.0f}s",
    )


def test_criterion_3_plane_wave_exactness():
    # tau = 1e-3 requires tau (N/2)^2 < pi for a resonance-free grid: N = 64
    grid = GridSpec(64)
    max_dev, _ = planewave_deviation(0.5, 1, 1e-3, 1000, grid, MODEL)
    report(
        "criterion 3 (wave-train exactness)",
        max_dev < 1e-11,
        f"max L2 deviation over 1000 steps = {max_dev:.3e} (tolerance 1e-11)",
    )


def test_criterion_4_mass_and_energy_conservation():
    problems = []
    # mass on a smooth filters-off run, 1e4 steps
    grid = GridSpec(256)
    rec = run_to_final(Gaussian(0.2, 0.2), grid, 10_000, np.pi / 4, record_every=100)
    mass_drift = np.abs(rec.mass - rec.mass[0]).max() / rec.mass[0]
    if mass_drift >= 1e-12:
        problems.append(f"mass drift {mass_drift:.3e} >= 1e-12 per 1e4 steps")

    # energy over the wide-profile long run (a = 1/5, sigma = 1.5, T = 4 pi,
    # N_t = 32000).  N = 176 resolves the profile while keeping every mode
    # below the splitting resonance tau k^2 = pi.
    grid_e = GridSpec(176)
    rec_e = run_to_final(
        Gaussian(0.2, 1.5), grid_e, 32_000, 4 * np.pi, record_every=100
    )
    energy_drift = np.abs(rec_e.energy - rec_e.energy[0]).max() / abs(rec_e.energy[0])
    if energy_drift >= 1e-4:
        problems.append(f"energy drift {energy_drift:.3e} >= 1e-4")
    mass_drift_long = np.abs(rec_e.mass - rec_e.mass[0]).max() / rec_e.mass[0]
    if mass_drift_long >= 3.2e-12:  # 1e-12 per 1e4 steps over 3.2e4 steps
        problems.append(
            f"mass drift {mass_drift_long:.3e} over 3.2e4 steps >= 3.2e-12"
        )
    report(
        "criterion 4 (mass and energy conservation)",
        not problems,
        "; ".join(problems)
        or f"mass drift {mass_drift:.2e}/1e4 steps, energy drift {energy_drift:.2e}",
    )


def test_criterion_5_threshold_dichotomy():
    # parameters derived in the module docstring
    name = "criterion 5 (threshold dichotomy of perturbed wave trains)"
    grid = GridSpec(256)
    offset, xi0, seed = 1e-4, 126, 1e-10
    tau, n_steps = 2e-6, 8000  # tau (N/2)^2 = 0.033, resonance-free
    t_final = tau * n_steps
    snapshot_times = tuple(t_final * (j + 1) / 40 for j in range(40))

    def growth(a: float) -> float:
        """Peak perturbation energy over the snapshots, relative to t = 0."""
        u0 = a + seed * np.cos(xi0 * grid.nodes)
        cfg = StepperConfig(
            tau=tau, record_every=n_steps, snapshot_times=snapshot_times
        )
        rec = run_simulation(MODEL, u0, grid, cfg, t_final)
        assert not rec.blew_up, f"a = {a}: the guard tripped"

        def deviation(t, f):
            exact = exact_plane_wave(a, 0, t, grid)
            return l2_norm(f - exact) ** 2

        return max(deviation(t, f) for t, f in rec.snapshots) / deviation(0.0, u0)

    problems = []
    for a, unstable in ((THRESHOLD + offset, True), (THRESHOLD - offset, False)):
        if (gn_eigenvalues(a, 0, xi0)[0].real > 0) != unstable:
            problems.append(
                f"premise: closed form does not call xi = {xi0} "
                f"{'unstable' if unstable else 'stable'} at a = {a:.6f}"
            )
    if problems:
        report(name, False, "; ".join(problems))

    growth_plus = growth(THRESHOLD + offset)
    growth_minus = growth(THRESHOLD - offset)
    if not growth_plus >= 10.0:
        problems.append(
            f"above-threshold perturbation energy grew only {growth_plus:.6f}x "
            "(needs >= 10x)"
        )
    if not growth_minus <= 2.0:
        problems.append(
            f"below-threshold perturbation energy grew {growth_minus:.6f}x "
            "(allowed <= 2x)"
        )
    report(
        name,
        not problems,
        "; ".join(problems)
        or f"growth +{offset:g}: {growth_plus:.3f}x, -{offset:g}: {growth_minus:.4f}x",
    )


def test_criterion_6_blowup_onset():
    grid = GridSpec(4096)
    t_final = 5e-3
    onsets = {}
    problems = []
    for n_steps in (40_000, 80_000):
        rec = run_to_final(
            Gaussian(0.65, 0.1), grid, n_steps, t_final,
            blowup_factor=2.0, record_every=500,
        )
        if not rec.blew_up:
            problems.append(f"n_steps={n_steps} run did not trip the guard")
            continue
        onsets[n_steps] = rec.blowup.onset_time
        if not 1.9e-3 <= rec.blowup.onset_time <= 2.5e-3:
            problems.append(
                f"onset {rec.blowup.onset_time:.3e} (n_steps={n_steps}) "
                "outside [1.9e-3, 2.5e-3]"
            )
    if len(onsets) == 2:
        spread = abs(onsets[40_000] - onsets[80_000]) / onsets[80_000]
        if spread > 0.10:
            problems.append(f"onset spread {spread:.1%} exceeds 10%")

    control = run_to_final(
        Gaussian(0.625, 0.1), grid, 40_000, t_final,
        blowup_factor=2.0, record_every=500,
    )
    if control.blew_up:
        problems.append("control a=0.625 tripped the guard")
    peak = control.max_amplitude.max()
    if peak >= THRESHOLD:
        problems.append(f"control peak amplitude {peak:.4f} reached sqrt(2)/2")
    report(
        "criterion 6 (blow-up onset)",
        not problems,
        "; ".join(problems)
        or (
            f"onsets {onsets[40_000]:.3e} / {onsets[80_000]:.3e} "
            f"(spread {abs(onsets[40_000]-onsets[80_000])/onsets[80_000]:.1%}), "
            f"control peak {peak:.4f} < {THRESHOLD:.4f}"
        ),
    )


def test_criterion_7_eigenvalue_oracle_equivalence():
    rng = np.random.default_rng(2026)
    worst = 0.0
    verdict_mismatches = 0
    for _ in range(1000):
        a = float(rng.uniform(0.0, 1.5))
        k = int(rng.integers(-8, 9))
        xi = int(rng.integers(1, 65))
        mine = gn_eigenvalues(a, k, xi)
        oracle = tuple(map(complex, two_by_two_eigenvalues(
            gn_matrix(a, k, xi, dtype=np.clongdouble))))
        straight = max(abs(mine[0] - oracle[0]), abs(mine[1] - oracle[1]))
        crossed = max(abs(mine[0] - oracle[1]), abs(mine[1] - oracle[0]))
        worst = max(worst, min(straight, crossed))
        formula = 2 * a**2 * xi**2 - 2 * a**2 - xi**2 > 0
        if (mine[0].real > 0) != formula:
            verdict_mismatches += 1

    stable_violations = 0
    for a in np.linspace(0.0, THRESHOLD, 40):
        for xi in range(1, 129):
            if gn_eigenvalues(float(a), 0, xi)[0].real > 0:
                stable_violations += 1

    problems = []
    if worst >= 1e-12:
        problems.append(f"worst closed-form vs eigensolve gap {worst:.2e} >= 1e-12")
    if verdict_mismatches:
        problems.append(f"{verdict_mismatches} verdict/formula mismatches")
    if stable_violations:
        problems.append(
            f"{stable_violations} unstable verdicts at or below sqrt(2)/2"
        )
    report(
        "criterion 7 (eigenvalue oracle equivalence)",
        not problems,
        "; ".join(problems) or f"worst gap {worst:.2e} over 1000 triples",
    )


def test_criterion_8_nonlinear_step_amplitude_conservation():
    rng = np.random.default_rng(77)
    worst = 0.0
    for n in (64, 256, 1024):
        grid = GridSpec(n)
        for tau in (1e-4, 1e-2, 0.5):
            # solution-scale random data: amplitudes up to ~1.3
            mags = 1.3 * rng.uniform(0, 1, n)
            phases = rng.uniform(0, 2 * np.pi, n)
            f = mags * np.exp(1j * phases)
            out = nonlinear_phase_step(MODEL, f, tau)
            dev = np.abs(np.abs(out) - np.abs(f)).max()
            worst = max(worst, dev)
    report(
        "criterion 8 (nonlinear sub-step conserves nodewise amplitude)",
        worst < 1e-15,
        f"max nodewise modulus deviation {worst:.2e} (tolerance 1e-15)",
    )


def test_criterion_9_multimode_blowup():
    grid = GridSpec(1024)
    t_final = 0.15
    ic = MultiMode(0.65, (2, 8))
    onsets = {}
    problems = []
    for n_steps in (20_000, 40_000):
        rec = run_to_final(
            ic, grid, n_steps, t_final, blowup_factor=2.0, record_every=100
        )
        if not rec.blew_up:
            problems.append(f"n_steps={n_steps} run did not trip the guard")
            continue
        if rec.blowup.trigger != "amplitude":
            problems.append(f"unexpected trigger {rec.blowup.trigger}")
        if rec.max_amplitude.max() <= THRESHOLD:
            problems.append("no amplitude excursion past sqrt(2)/2 before the trip")
        onsets[n_steps] = rec.blowup.onset_time
    if len(onsets) == 2:
        # the fastest growing modes are under-resolved in time (their rate
        # times tau exceeds 1), so onset stability under tau-halving is
        # asserted at figure scale: within 1% of the horizon
        spread = abs(onsets[20_000] - onsets[40_000])
        if spread > 0.01 * t_final:
            problems.append(
                f"onsets {onsets[20_000]:.3e} vs {onsets[40_000]:.3e} differ "
                f"by more than 1% of the horizon"
            )
    report(
        "criterion 9 (multi-mode blow-up)",
        not problems,
        "; ".join(problems)
        or f"onsets {onsets[20_000]:.3e} / {onsets[40_000]:.3e}, both tripped",
    )

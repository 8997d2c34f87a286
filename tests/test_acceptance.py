"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance here is part of the release contract; do
not loosen them to make a failing build green.
"""

import math
import time

import numpy as np

from laddernoise import (
    ControlField,
    Detunings,
    Evaluator,
    FreqNoiseKernel,
    GaussianEnvelope,
    LadderSystem,
    NoiseSpec,
    ObjectiveSpec,
    PropagationSpec,
    PulseComponent,
    RectangularEnvelope,
    Tolerances,
    amplitude_time_quadrature,
    closed_form_amplitude,
    draw_offsets,
    ensemble_average,
    frequency_noise_average,
    optimize_amplitudes,
    pairwise_sum,
    population,
    propagate,
    rect_noise_limit,
    scaled_amplitude_gaussian,
    scaled_amplitude_rect_distinct,
    strong_detuning_asymptote,
    transition_frequencies,
    transition_yield,
)


def report(number: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number:2d} {status} ({time.perf_counter() - started:6.1f} s): {detail}"
    )
    assert ok, f"criterion {number}: {detail}"


def ladder(gaps, dipoles=None):
    energies = [0.0]
    for g in gaps:
        energies.append(energies[-1] + g)
    return LadderSystem(tuple(energies), tuple(dipoles or (1.0,) * len(gaps)))


def field_for(system, envelope, amplitudes=None, deltas=None, phases=None):
    wbar = transition_frequencies(system)
    n = len(wbar)
    amplitudes = amplitudes or (1.0,) * n
    deltas = deltas or (0.0,) * n
    phases = phases or (0.0,) * n
    comps = tuple(
        PulseComponent(a, p, w + d)
        for a, p, w, d in zip(amplitudes, phases, wbar, deltas)
    )
    return ControlField(comps, envelope)


def test_01_resonant_closed_form_three_rungs():
    started = time.perf_counter()
    env = GaussianEnvelope(1.0)
    system = ladder((90.0, 171.0, 243.0))
    unit = field_for(system, env)  # mu_k A_k = 1

    closed = closed_form_amplitude(system, unit)
    y_closed = transition_yield(closed, system, unit)
    ok = abs(y_closed - 1.0 / 36.0) <= 1e-12 / 36.0

    quad = amplitude_time_quadrature(system, unit)
    rel_quad = abs(quad.scaled - closed.scaled) / abs(closed.scaled)
    ok &= rel_quad < 1e-6

    # exact propagation with amplitudes scaled into the weak-field window
    weak = field_for(system, env, amplitudes=(0.04,) * 3)
    predicted = transition_yield(closed_form_amplitude(system, weak), system, weak)
    assert predicted <= 1e-3
    state = propagate(system, weak, PropagationSpec(-8.0, 8.0, 1e-9, 1e-14))
    y_tdse = population(state, 3)
    rel_tdse = abs(y_tdse / predicted - 1.0)
    ok &= rel_tdse < 0.01

    report(
        1,
        ok,
        f"|c3|^2 = 1/36 exact, quadrature rel {rel_quad:.1e} < 1e-6, "
        f"exact-propagator rel {rel_tdse:.2%} < 1%",
        started,
    )


def test_02_rectangular_antiresonance():
    started = time.perf_counter()
    delta = 1.0
    T = 2 * math.pi / delta  # T delta = 2 pi
    system = ladder((40.0, 93.0))
    env = RectangularEnvelope(T)

    unit = field_for(system, env, deltas=(delta, delta))
    y_closed = transition_yield(closed_form_amplitude(system, unit), system, unit)
    ok = y_closed < 1e-24

    y_quad = abs(amplitude_time_quadrature(system, unit).scaled) ** 2
    ok &= y_quad < 1e-10

    # the exact yield sits at the next-order floor: halving the amplitudes
    # must reduce it ~ 2^8, and it must stay within 10x of that floor
    spec = PropagationSpec(0.0, T, 1e-11, 1e-14)
    strong = field_for(system, env, amplitudes=(0.05,) * 2, deltas=(delta, delta))
    halved = field_for(system, env, amplitudes=(0.025,) * 2, deltas=(delta, delta))
    y_a = population(propagate(system, strong, spec), 2)
    y_half = population(propagate(system, halved, spec), 2)
    floor = 2**8 * y_half
    ok &= y_a <= 10 * floor
    resonant = field_for(system, env, amplitudes=(0.05,) * 2)
    y_res = population(propagate(system, resonant, spec), 2)
    ok &= y_a < 1e-5 * y_res

    report(
        2,
        ok,
        f"closed {y_closed:.1e} < 1e-24, quadrature {y_quad:.1e} < 1e-10, "
        f"exact floor ratio {y_a / floor:.2f} <= 10",
        started,
    )


def test_03_method_cross_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    checks = 0
    for trial in range(20):
        n = 2 + trial % 2
        system = ladder((60.0, 114.0, 162.0)[:n])
        tau = float(rng.uniform(0.7, 1.8))
        genv = GaussianEnvelope(tau)

        if trial % 4 < 2:  # gaussian closed form vs time quadrature
            deltas = tuple(rng.uniform(-0.6, 0.6, n) * genv.sigma)
            f = field_for(system, genv, deltas=deltas)
            a = scaled_amplitude_gaussian(Detunings(deltas), genv)
            b = amplitude_time_quadrature(system, f).scaled
            worst = max(worst, abs(a - b) / abs(b))
            checks += 1
        elif trial % 4 == 2:  # rect residue sum vs time quadrature
            T = float(rng.uniform(1.0, 4.0))
            deltas = tuple(rng.uniform(0.2, 1.2, n))
            f = field_for(system, RectangularEnvelope(T), deltas=deltas)
            a = scaled_amplitude_rect_distinct(Detunings(deltas), T)
            b = amplitude_time_quadrature(system, f).scaled
            worst = max(worst, abs(a - b) / abs(b))
            checks += 1
        else:  # equal detunings: both rectangular forms and the quadrature
            T = float(rng.uniform(1.0, 4.0))
            delta = float(rng.uniform(0.3, 1.1))
            f = field_for(system, RectangularEnvelope(T), deltas=(delta,) * n)
            a = closed_form_amplitude(system, f).scaled
            b = scaled_amplitude_rect_distinct(
                Detunings((delta,) * n), T
            )
            c = amplitude_time_quadrature(system, f).scaled
            worst = max(worst, abs(a - b) / abs(b), abs(a - c) / abs(c))
            checks += 2
    ok = worst < 1e-6
    report(
        3,
        ok,
        f"20 randomized configs, {checks} pairwise checks, worst rel {worst:.1e} < 1e-6",
        started,
    )


def test_04_energy_conservation_suppression_slope():
    started = time.perf_counter()
    base = 1.0
    det = Detunings((5.0 * base, 3.0 * base))
    sigmas = np.array([base / k for k in (2.0, 2.5, 3.0, 3.5, 4.0)])
    logs = []
    for s in sigmas:
        env = GaussianEnvelope(2 * math.sqrt(math.pi) / s)
        logs.append(math.log(abs(scaled_amplitude_gaussian(det, env))))
    slope = float(np.polyfit(1.0 / sigmas**2, logs, 1)[0])
    expected = -det.total**2 / 2.0  # -Delta_N^2 / N
    rel = abs(slope / expected - 1.0)
    report(
        4,
        rel < 0.05,
        f"log-magnitude slope {slope:.3f} vs -Delta^2/N = {expected:.3f} "
        f"(rel {rel:.2%} < 5%)",
        started,
    )


def test_05_amplitude_noise_cooperation():
    started = time.perf_counter()
    system = ladder((60.0, 114.0))
    env = GaussianEnvelope(1.0)
    f = field_for(system, env)  # A = (1, 1), resonant
    gamma = 0.3  # variance 0.03 = epsilon: <A^2>/A^2 = 1.03
    noise = NoiseSpec.amplitude_uniform((gamma, gamma))
    stats = ensemble_average(
        system, f, draw_offsets(noise, 100_000, 90), Evaluator.CLOSED_FORM
    )
    coupling = 0.5  # |i^2 tau^2/2| with tau = 1
    analytic = coupling**2 * (1.0 + gamma**2 / 3) ** 2
    ok = abs(stats.mean - analytic) < 3 * stats.std_error

    noiseless = coupling**2
    ratio = stats.mean / noiseless
    ok &= abs(ratio - 1.0609) < 3 * stats.std_error / noiseless

    report(
        5,
        ok,
        f"MC mean {stats.mean:.6f} vs analytic {analytic:.6f} "
        f"(dev {abs(stats.mean - analytic) / stats.std_error:.2f} sigma), "
        f"ratio {ratio:.4f} vs 1.0609",
        started,
    )


def test_06_phase_noise_nullity():
    started = time.perf_counter()
    system = ladder((25.0, 34.0))
    T, A = 3.0, 0.05
    env = RectangularEnvelope(T)
    f = field_for(system, env, amplitudes=(A, A))
    noise = NoiseSpec.phase_uniform((0.02, 0.02))

    # perturbative evaluator: the ensemble mean is bit-identical to noiseless
    y_pert = transition_yield(closed_form_amplitude(system, f), system, f)
    stats_pert = ensemble_average(
        system, f, draw_offsets(noise, 500, 7), Evaluator.CLOSED_FORM
    )
    ok = stats_pert.mean == y_pert

    # exact propagator: mean within 2 standard errors of the noiseless yield
    spec = PropagationSpec(0.0, T, 1e-10, 1e-13)
    y_exact = population(propagate(system, f, spec), 2)
    stats_tdse = ensemble_average(
        system,
        f,
        draw_offsets(noise, 1000, 7),
        Evaluator.TDSE,
        tolerances=Tolerances(tdse_rel_tol=1e-10, tdse_abs_tol=1e-13),
    )
    z = abs(stats_tdse.mean - y_exact) / stats_tdse.std_error
    ok &= z <= 2.0

    report(
        6,
        ok,
        f"perturbative mean bit-equal, exact-propagator deviation {z:.2f} "
        f"std errors <= 2",
        started,
    )


def test_07_frequency_noise_reversal():
    started = time.perf_counter()
    env = GaussianEnvelope(1.0)
    sig = env.sigma
    system = ladder((60.0, 114.0))

    # near resonance, jitter strictly hurts
    resonant = field_for(system, env)
    y_res = transition_yield(
        closed_form_amplitude(system, resonant), system, resonant
    )
    hurt_ok = True
    for d_sq in (0.25, 1.0, 4.0):
        noise = NoiseSpec.frequency_gaussian((math.sqrt(d_sq),) * 2, sig)
        stats = ensemble_average(
            system, resonant, draw_offsets(noise, 4000, 170), Evaluator.CLOSED_FORM
        )
        hurt_ok &= stats.mean < y_res

    # strong detuning (4 sigma per rung), jitter helps exponentially
    db = (4 * sig, 4 * sig)
    detuned = field_for(system, env, deltas=db)
    y_det = transition_yield(closed_form_amplitude(system, detuned), system, detuned)
    noise = NoiseSpec.frequency_gaussian((1.0, 1.0), sig)
    stats = ensemble_average(
        system, detuned, draw_offsets(noise, 100_000, 171), Evaluator.CLOSED_FORM
    )
    help_ok = stats.mean > y_det

    # predicted log enhancement from the strong-detuning exponent structure:
    # the averaged exponent consistent with the kernel closed form carries
    # half the log of the printed asymptote ratio
    log_pred = 0.5 * (
        math.log(strong_detuning_asymptote(db, 1.0, sig))
        - math.log(strong_detuning_asymptote(db, 0.0, sig))
    )
    log_mc = math.log(stats.mean / y_det)
    analytic = frequency_noise_average(env, (1.0, 1.0), db)
    log_analytic = math.log(analytic / y_det)
    mc_ok = abs(log_mc / log_pred - 1.0) < 0.2
    an_ok = abs(log_analytic / log_pred - 1.0) < 0.2

    ok = hurt_ok and help_ok and mc_ok and an_ok
    report(
        7,
        ok,
        f"resonant jitter hurts ({hurt_ok}), detuned jitter helps "
        f"(log enh MC {log_mc:.1f} / analytic {log_analytic:.1f} vs predicted "
        f"{log_pred:.1f})",
        started,
    )


def test_08_frequency_noise_kernel_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(808)
    sigma = 2 * math.sqrt(math.pi)
    x, w = np.polynomial.hermite.hermgauss(140)
    worst = 0.0
    for _ in range(10):
        d = rng.uniform(0.3, 1.8, 2)
        db = rng.uniform(-1.5, 1.5, 2) * sigma
        tau = rng.uniform(0.0, 3.0, 1)
        tau_p = rng.uniform(0.0, 3.0, 1)
        closed = FreqNoiseKernel(tuple(d), tuple(db), sigma).evaluate(tau, tau_p)
        # direct integration of the defining two-dimensional average
        d1 = db[0] + d[0] * sigma * x[:, None]
        d2 = db[1] + d[1] * sigma * x[None, :]
        total = d1 + d2
        osc = total - 2 * d1
        integrand = np.exp(
            -total**2 / sigma**2 - 1j * (tau[0] - tau_p[0]) * osc / (2 * sigma)
        )
        brute = complex(np.einsum("i,j,ij->", w, w, integrand)) / math.pi
        worst = max(worst, abs(closed - brute) / abs(brute))
    report(
        8,
        worst < 1e-8,
        f"kernel closed form vs direct integration, worst rel {worst:.1e} < 1e-8",
        started,
    )


def test_09_rectangular_noise_limit():
    started = time.perf_counter()
    T = 1.0
    rng = np.random.default_rng(909)
    ok = True
    details = []
    for n, dbar_t in ((1, 120.0), (2, 200.0)):
        dbar = dbar_t / T
        width = 8 * math.pi / T  # >> pi/T, << dbar
        draws = rng.uniform(dbar - width / 2, dbar + width / 2, 100_000)
        system = ladder((60.0, 114.0)[:n])
        env = RectangularEnvelope(T)
        vals = np.array([
            abs(closed_form_amplitude(system, field_for(system, env, deltas=(d,) * n)).scaled) ** 2
            for d in draws[:200]
        ])
        # the remaining draws go through the vectorized magnitude identity
        # |scaled|^2 = 2^2N/(N!)^2 d^-2N sin^2N(Td/2), verified on the head
        head = (
            2 ** (2 * n)
            / math.factorial(n) ** 2
            * draws[:200] ** (-2.0 * n)
            * np.sin(T * draws[:200] / 2) ** (2 * n)
        )
        assert np.allclose(vals, head, rtol=1e-10)
        full = (
            2 ** (2 * n)
            / math.factorial(n) ** 2
            * draws ** (-2.0 * n)
            * np.sin(T * draws / 2) ** (2 * n)
        )
        mc = pairwise_sum(full) / len(full)
        limit = rect_noise_limit(n, dbar)
        rel = abs(mc / limit - 1.0)
        ok &= rel < 0.10
        details.append(f"N={n}: rel {rel:.2%}")
    report(9, ok, "wide-jitter average vs (2N)!/(N!)^4 limit, " + ", ".join(details), started)


def test_10_optimality_condition():
    started = time.perf_counter()
    system = ladder((60.0, 114.0))
    env = GaussianEnvelope(math.sqrt(2.0))  # coupling magnitude exactly 1
    f = field_for(system, env, amplitudes=(0.5, 0.5))
    spec = ObjectiveSpec(0.1, 1e-3)
    variances = (0.01, 0.04)
    noise = NoiseSpec.amplitude_uniform(tuple(math.sqrt(3 * v) for v in variances))
    result = optimize_amplitudes(spec, system, f, noise, init=(0.5, 0.5))
    ok = result.converged and result.condition_residual < 1e-4

    # brute-force oracle on a 1e-3 amplitude grid
    a = np.arange(0.0, 1.0005, 1e-3)
    u1 = a[:, None] ** 2 + variances[0]
    u2 = a[None, :] ** 2 + variances[1]
    j = (u1 * u2 - 0.1) ** 2 + 1e-3 * (a[:, None] ** 2 + a[None, :] ** 2)
    idx = np.unravel_index(np.argmin(j), j.shape)
    grid_opt = (a[idx[0]], a[idx[1]])
    dev = max(abs(g - r) for g, r in zip(grid_opt, result.amplitudes))
    ok &= dev <= 1e-3

    # optimal fluence falls monotonically as the common noise variance grows
    fluences = []
    for v in (0.0, 0.01, 0.02, 0.04, 0.08):
        ns = (
            NoiseSpec.quiet(2)
            if v == 0.0
            else NoiseSpec.amplitude_uniform((math.sqrt(3 * v),) * 2)
        )
        res = optimize_amplitudes(spec, system, f, ns, init=(0.5, 0.5))
        fluences.append(sum(x**2 for x in res.amplitudes))
    monotone = all(b < a + 1e-9 for a, b in zip(fluences, fluences[1:]))
    ok &= monotone and fluences[-1] < fluences[0]

    report(
        10,
        ok,
        f"condition residual {result.condition_residual:.1e} < 1e-4, grid "
        f"deviation {dev:.1e} <= 1e-3, fluence scan monotone ({monotone})",
        started,
    )

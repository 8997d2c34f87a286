"""Closed forms and time-ordered quadrature for the transition amplitude."""

import math

import numpy as np
import pytest

from laddernoise import (
    AccuracyWarning,
    AmplitudeMethod,
    ControlField,
    DegenerateCumulantsError,
    Detunings,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
    QuadratureConvergenceError,
    RectangularEnvelope,
    ValidityWarning,
    amplitude_time_quadrature,
    closed_form_amplitude,
    frequency_noise_average,
    gaussian_suppression_asymptote,
    scaled_amplitude_gaussian,
    scaled_amplitude_rect_distinct,
    transition_frequencies,
    transition_yield,
)
import laddernoise.noise as noise_module
import laddernoise.perturbation as perturbation_module
import laddernoise.quadrature as quadrature_module
from laddernoise.noise import _PAIR_NODE_LADDERS
from laddernoise.perturbation import (
    _NODE_LADDERS,
    _damping_matrix,
    _delay_frequencies,
    _delay_grid,
    _separable_delay_integral,
)
from laddernoise.quadrature import _PANEL_NODES, _panel_rule

# Carriers far above the envelope bandwidth keep each component associated
# with its own transition; the closed forms assume exactly that.
LADDER_GAPS = (60.0, 114.0, 162.0)


def ladder(n):
    energies = [0.0]
    for g in LADDER_GAPS[:n]:
        energies.append(energies[-1] + g)
    return LadderSystem(tuple(energies), (1.0,) * n)


def detuned_field(system, deltas, envelope, amplitudes=None, phases=None):
    wbar = transition_frequencies(system)
    n = len(wbar)
    amplitudes = amplitudes or (1.0,) * n
    phases = phases or (0.0,) * n
    comps = tuple(
        PulseComponent(a, p, w + d)
        for a, p, w, d in zip(amplitudes, phases, wbar, deltas)
    )
    return ControlField(comps, envelope)


def rect_equal(delta, T, n):
    """The scaled amplitude that the dispatch gives a rectangular pulse with equal detunings."""
    system = ladder(n)
    amp = closed_form_amplitude(system, detuned_field(system, (delta,) * n, RectangularEnvelope(T)))
    assert amp.method is AmplitudeMethod.RECT_EQUAL
    return amp.scaled


class TestResonantClosedForm:
    def test_n3_gaussian_value(self):
        env = GaussianEnvelope(1.0)
        system = ladder(3)
        f = detuned_field(system, (0, 0, 0), env)
        amp = closed_form_amplitude(system, f)
        assert amp.scaled == pytest.approx((1j) ** 3 / 6, rel=1e-14)
        assert transition_yield(amp, system, f) == pytest.approx(1 / 36, rel=1e-14)

    def test_n1_any_envelope_effective_duration(self):
        for env in (GaussianEnvelope(2.0), RectangularEnvelope(2.0)):
            system = ladder(1)
            f = detuned_field(system, (0,), env)
            amp = closed_form_amplitude(system, f)
            assert amp.scaled == pytest.approx(2.0j, rel=1e-12)

    def test_equal_detuning_uses_shifted_spectrum(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        d = 0.5 * env.sigma
        f = detuned_field(system, (d, d), env)
        amp = closed_form_amplitude(system, f)
        s = env.tau * math.exp(-(d**2) / env.sigma**2)
        assert amp.scaled == pytest.approx((1j) ** 2 * s**2 / 2, rel=1e-12)

    def test_rect_pi_detuning_value(self):
        # |scaled|^2 = 2^4/(2!)^2 pi^-4 sin^4(pi/2) = 4/pi^4
        system = ladder(2)
        f = detuned_field(system, (math.pi, math.pi), RectangularEnvelope(1.0))
        amp = closed_form_amplitude(system, f)
        assert abs(amp.scaled) ** 2 == pytest.approx(4 / math.pi**4, rel=1e-12)


class TestTimeQuadrature:
    def test_zero_field(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        f = detuned_field(system, (0, 0), env, amplitudes=(0.0, 0.0))
        amp = amplitude_time_quadrature(system, f)
        assert amp.value == 0
        # the scaled amplitude stays the resonant i^2 tau^2/2 regardless
        assert amp.scaled == pytest.approx(-0.5, rel=1e-9)

    def test_resonant_n2_matches_closed_form(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        f = detuned_field(system, (0, 0), env)
        amp = amplitude_time_quadrature(system, f)
        assert amp.scaled == pytest.approx(-0.5, rel=1e-9)

    def test_detuned_n3_matches_gaussian_closed_form(self):
        env = GaussianEnvelope(1.0)
        system = ladder(3)
        sig = env.sigma
        deltas = (0.3 * sig, -0.2 * sig, 0.1 * sig)
        f = detuned_field(system, deltas, env)
        quad = amplitude_time_quadrature(system, f).scaled
        closed = scaled_amplitude_gaussian(Detunings(deltas), env)
        assert quad == pytest.approx(closed, rel=1e-6)


class TestPanelRule:
    @pytest.mark.parametrize("degree", range(_PANEL_NODES))
    def test_matrix_integrates_polynomials_exactly(self, degree):
        x, w, matrix = _panel_rule()
        exact = (x ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        assert np.max(np.abs(matrix @ x**degree - exact)) <= 1e-14
        total = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
        assert abs(w @ x**degree - total) <= 1e-14

    @pytest.mark.parametrize("scale", [(4.0, -3.0, 2.0), (-6.0, 5.0, -3.0)])
    def test_strongly_detuned_gaussian_matches_closed_form(self, scale):
        # the fastest detuning, not the envelope, sets the starting panel count
        env = GaussianEnvelope(1.0)
        deltas = tuple(k * env.sigma for k in scale)
        f = detuned_field(ladder(3), deltas, env)
        quad = amplitude_time_quadrature(ladder(3), f).scaled
        closed = scaled_amplitude_gaussian(Detunings(deltas), env)
        assert quad == pytest.approx(closed, rel=1e-6)

    def test_strongly_detuned_rect_matches_residue_sum(self):
        T = 4.0
        deltas = (9.0, -7.0, 5.0)  # cumulants 9, 2, 7
        f = detuned_field(ladder(3), deltas, RectangularEnvelope(T))
        quad = amplitude_time_quadrature(ladder(3), f, tol=1e-11).scaled
        closed = scaled_amplitude_rect_distinct(Detunings(deltas), T)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_repeat_calls_are_bit_identical(self):
        f = detuned_field(ladder(3), (0.4, -1.3, 2.2), GaussianEnvelope(1.3))
        first = amplitude_time_quadrature(ladder(3), f)
        assert amplitude_time_quadrature(ladder(3), f) == first


SIGMA = GaussianEnvelope(1.0).sigma


def time_ordered(tol, deltas=(2 * SIGMA, 3 * SIGMA)):
    f = detuned_field(ladder(2), deltas, GaussianEnvelope(1.0))
    return amplitude_time_quadrature(ladder(2), f, tol=tol)


def gaussian_delay(tol):
    deltas = (0.4 * SIGMA, -0.1 * SIGMA)
    return scaled_amplitude_gaussian(Detunings(deltas), GaussianEnvelope(1.0), tol=tol)


def delay_pair(tol):
    return frequency_noise_average(GaussianEnvelope(1.0), (1.0, 1.0), (0.0, 0.0), tol=tol)


class TestRefinement:
    """The three adaptive quadratures fail alike when their levels run out."""

    @pytest.mark.parametrize(
        "shorten,module,evaluator,call",
        [
            # the starting grid of a detuning of 1e6 is already past the node cap
            (lambda mp: None, perturbation_module, "_panel_integral",
             lambda: time_ordered(1e-9, (1e6, 0.0))),
            (lambda mp: mp.setitem(_NODE_LADDERS, 2, (64,)), perturbation_module,
             "_delay_grid", lambda: gaussian_delay(1e-7)),
            (lambda mp: mp.setitem(_PAIR_NODE_LADDERS, 2, (32,)), noise_module,
             "_pair_sum", lambda: delay_pair(1e-6)),
        ],
        ids=["time-ordered", "gaussian-delay", "delay-pair"],
    )
    def test_start_beyond_node_cap_raises_before_any_grid(
        self, monkeypatch, shorten, module, evaluator, call
    ):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        shorten(monkeypatch)
        monkeypatch.setattr(module, evaluator, no_grid)
        with pytest.raises(QuadratureConvergenceError):
            call()

    @pytest.mark.parametrize(
        "shorten,call",
        [
            # two panel counts, 34 and 68, fit under this cap; their values
            # differ by round-off, about 3e-17, far above the 5e-20 floor
            (lambda mp: mp.setattr(quadrature_module, "_MAX_NODES", 2**11),
             lambda: time_ordered(1e-15)),
            (lambda mp: mp.setitem(_NODE_LADDERS, 2, (16, 24)),
             lambda: gaussian_delay(1e-15)),
            (lambda mp: mp.setitem(_PAIR_NODE_LADDERS, 2, (8, 12)),
             lambda: delay_pair(1e-15)),
        ],
        ids=["time-ordered", "gaussian-delay", "delay-pair"],
    )
    def test_disagreeing_last_levels_raise_with_achieved_error(
        self, monkeypatch, shorten, call
    ):
        shorten(monkeypatch)
        with pytest.raises(QuadratureConvergenceError, match="did not converge") as info:
            call()
        assert 0.0 < info.value.achieved < math.inf


class TestGaussianClosedForm:
    def test_resonant_reduction(self):
        env = GaussianEnvelope(1.0)
        for n in (2, 3, 4, 5):
            val = scaled_amplitude_gaussian(Detunings((0.0,) * n), env)
            assert val == pytest.approx(
                (1j) ** n / math.factorial(n), rel=1e-6
            ), f"N={n}"

    def test_equal_detuning_reduction(self):
        env = GaussianEnvelope(1.0)
        d = 0.5 * env.sigma
        for n in (2, 3):
            val = scaled_amplitude_gaussian(Detunings((d,) * n), env)
            s = env.tau * math.exp(-(d**2) / env.sigma**2)
            assert val == pytest.approx(
                (1j) ** n * s**n / math.factorial(n), rel=1e-7
            )

    def test_n2_matches_time_quadrature(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        deltas = (0.4 * env.sigma, -0.1 * env.sigma)
        f = detuned_field(system, deltas, env)
        quad = amplitude_time_quadrature(system, f).scaled
        closed = scaled_amplitude_gaussian(Detunings(deltas), env)
        assert closed == pytest.approx(quad, rel=1e-6)

    def test_n5_matches_time_quadrature(self):
        env = GaussianEnvelope(1.0)
        sig = env.sigma
        deltas = (0.3 * sig, -0.1 * sig, 0.2 * sig, 0.05 * sig, -0.15 * sig)
        system = LadderSystem((0, 80, 170, 272, 386, 512), (1.0,) * 5)
        wbar = transition_frequencies(system)
        f = ControlField(
            tuple(
                PulseComponent(1.0, 0.0, w + d) for w, d in zip(wbar, deltas)
            ),
            env,
        )
        closed = scaled_amplitude_gaussian(Detunings(deltas), env)
        quad = amplitude_time_quadrature(system, f).scaled
        assert closed == pytest.approx(quad, rel=1e-5)

    def test_rejects_n_out_of_range(self):
        env = GaussianEnvelope(1.0)
        with pytest.raises(ValueError, match="2..5"):
            scaled_amplitude_gaussian(Detunings((0.1,)), env)

    def test_rejects_rectangular_envelope(self):
        with pytest.raises(TypeError, match="Gaussian"):
            scaled_amplitude_gaussian(
                Detunings((0.1, 0.2)), RectangularEnvelope(1.0)
            )

    def test_warns_on_fast_oscillation(self):
        env = GaussianEnvelope(1.0)
        deltas = (40 * env.sigma, -40 * env.sigma)
        with pytest.warns(AccuracyWarning):
            scaled_amplitude_gaussian(Detunings(deltas), env)


# exact binary fractions, so the zero-frequency case below is exactly zero
DELAY_DELTAS = (0.375, -0.25, 0.5, 0.125, -0.375)


def _delay_deltas(n, zero_frequency):
    """Detunings with every D_k nonzero, or with D_1 = N delta_1 - Delta_N = 0."""
    if not zero_frequency:
        return DELAY_DELTAS[:n]
    others = DELAY_DELTAS[1:n]
    return (sum(others) / (n - 1),) + others


class TestSeparableDelayIntegral:
    @pytest.mark.parametrize(
        "n,nodes",
        [(n, nodes) for n, ladder in _NODE_LADDERS.items() for nodes in ladder[:2]],
    )
    @pytest.mark.parametrize("zero_frequency", [False, True])
    def test_matches_direct_tensor_sum(self, n, nodes, zero_frequency):
        frequencies = _delay_frequencies(Detunings(_delay_deltas(n, zero_frequency)))
        assert (0.0 in frequencies) == zero_frequency
        freq = tuple(f / (n * GaussianEnvelope(1.0).sigma) for f in frequencies)
        x, weighted = _delay_grid(n, nodes)
        grids = np.meshgrid(*([x] * (n - 1)), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        direct = complex(np.exp(-1j * (pts @ np.asarray(freq))) @ weighted)
        separable = _separable_delay_integral(x, weighted, freq)
        assert abs(separable - direct) <= 1e-12 * abs(direct)


class TestDelayGrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_caches_nodes_and_weights_only(self, n):
        nodes = _NODE_LADDERS[n][0]
        # nodes + nodes^(N-1) floats: no point array beside the weights
        cached = _delay_grid(n, nodes)
        assert [a.shape for a in cached] == [(nodes,), (nodes ** (n - 1),)]


class TestGaussianKernel:
    """Oscillation frequencies and damping form of the Gaussian delay integral."""

    def test_frequencies_vanish_for_equal_detunings(self):
        frequencies = _delay_frequencies(Detunings((0.3,) * 4))
        assert frequencies == pytest.approx((0.0,) * 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_damping_form_positive_definite(self, n):
        eigs = np.linalg.eigvalsh(_damping_matrix(n))
        assert np.all(eigs > 0)


class TestAsymptote:
    def test_no_suppression_when_total_detuning_vanishes(self):
        det = Detunings((2.0, -2.0))
        with pytest.warns(ValidityWarning):
            val = gaussian_suppression_asymptote(det, sigma=3.0)
        # Delta_N = 0 kills the exponent: pure sigma^(N-1)/prod|D_k|, D_1 = -4
        assert val == pytest.approx(3.0 / 4.0, rel=1e-12)

    def test_quadratic_exponent_in_detuning_scale(self):
        sigma = 0.3
        det1 = Detunings((5 * sigma, 3 * sigma))
        det2 = Detunings((10 * sigma, 6 * sigma))
        v1 = gaussian_suppression_asymptote(det1, sigma)
        v2 = gaussian_suppression_asymptote(det2, sigma)
        # doubling all detunings quadruples the log suppression (up to the
        # algebraic 1/prod|D| factor, which is known exactly)
        log_ratio = math.log(v1 / (v2 * 2.0))  # remove the |D| doubling
        expected = (det2.total**2 - det1.total**2) / (2 * sigma**2)
        assert log_ratio == pytest.approx(expected, rel=1e-12)

    def test_degenerate_direction_rejected(self):
        det = Detunings((0.3, 0.3))  # D_1 = 0
        with pytest.raises(ValueError, match="degenerate"):
            gaussian_suppression_asymptote(det, sigma=0.01)

    def test_slope_against_full_quadrature(self):
        # log |scaled| vs 1/sigma^2 slope approaches -Delta_N^2/N
        base = 1.0
        deltas = (5.0 * base, 3.0 * base)
        det = Detunings(deltas)
        sigmas = np.array([base / k for k in (2.0, 2.5, 3.0, 3.5, 4.0)])
        logs = []
        for s in sigmas:
            env = GaussianEnvelope(2 * math.sqrt(math.pi) / s)
            logs.append(math.log(abs(scaled_amplitude_gaussian(det, env))))
        slope = np.polyfit(1.0 / sigmas**2, logs, 1)[0]
        assert slope == pytest.approx(-det.total**2 / 2, rel=0.05)


class TestRectangularClosedForms:
    def test_distinct_matches_equal_when_cumulants_spread(self):
        # equal detunings produce distinct cumulants q*delta: both forms apply
        delta, T, n = 0.7, 3.0, 3
        det = Detunings((delta,) * n)
        a = scaled_amplitude_rect_distinct(det, T)
        b = rect_equal(delta, T, n)
        assert a == pytest.approx(b, rel=1e-9)

    def test_n1_reduces_to_spectrum(self):
        delta, T = 0.9, 2.0
        det = Detunings((delta,))
        a = scaled_amplitude_rect_distinct(det, T)
        b = rect_equal(delta, T, 1)
        env = RectangularEnvelope(T)
        c = 1j * complex(env.spectrum(-delta))
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)

    def test_short_pulse_limit(self):
        # value ~ T^N/N!; the residue sum cancels to it from O(1) terms, so
        # only ask for smallness down to well above float cancellation noise
        det = Detunings((0.5, 1.1, 0.3))
        assert abs(scaled_amplitude_rect_distinct(det, 1e-3)) < 1e-9

    def test_n3_matches_time_quadrature(self):
        T = 4.0
        deltas = (0.9, 0.8, 0.5)  # cumulants 0.9, 1.7, 2.2
        system = ladder(3)
        f = detuned_field(system, deltas, RectangularEnvelope(T))
        quad = amplitude_time_quadrature(system, f, tol=1e-11).scaled
        closed = scaled_amplitude_rect_distinct(Detunings(deltas), T)
        assert closed == pytest.approx(quad, rel=1e-8)

    def test_degenerate_cumulants_rejected(self):
        det = Detunings((0.5, -0.5, 0.7))  # cumulants 0.5, 0.0, 0.7
        with pytest.raises(DegenerateCumulantsError):
            scaled_amplitude_rect_distinct(det, 2.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_antiresonance_exact_zeros(self, n):
        T = 1.0
        for k in (1, 2, 3):
            val = rect_equal(2 * math.pi * k / T, T, n)
            assert abs(val) ** 2 < 1e-24

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_antiresonance_survives_quadrature(self, k):
        # the time-domain route reproduces the destructive interference to
        # its roundoff floor
        T = 1.0
        system = ladder(2)
        delta = 2 * math.pi * k / T
        f = detuned_field(system, (delta, delta), RectangularEnvelope(T))
        amp = amplitude_time_quadrature(system, f)
        assert abs(amp.scaled) ** 2 < 1e-10

    def test_equal_detuning_zero_limit(self):
        assert rect_equal(0.0, 1.0, 2) == pytest.approx(
            -0.5, rel=1e-14
        )
        # continuity near zero
        assert rect_equal(1e-9, 1.0, 2) == pytest.approx(
            -0.5, rel=1e-8
        )


class TestPhaseAndAmplitudeStructure:
    def test_yield_phase_independent_bitwise_closed_form(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        base = detuned_field(system, (0.3, -0.2), env)
        shifted = detuned_field(system, (0.3, -0.2), env, phases=(1.1, -2.4))
        y0 = transition_yield(closed_form_amplitude(system, base), system, base)
        y1 = transition_yield(closed_form_amplitude(system, shifted), system, shifted)
        assert y0 == y1  # bit-identical: phases never enter the magnitude

    def test_yield_phase_independent_quadrature(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        base = detuned_field(system, (0.5, -0.1), env)
        shifted = detuned_field(system, (0.5, -0.1), env, phases=(0.9, 0.4))
        a0 = amplitude_time_quadrature(system, base)
        a1 = amplitude_time_quadrature(system, shifted)
        assert abs(a0.value) == pytest.approx(abs(a1.value), rel=1e-10)

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_amplitude_factorization(self, index):
        env = GaussianEnvelope(1.0)
        system = ladder(3)
        amps = [0.7, 1.3, 0.4]
        f = detuned_field(system, (0.2, 0.1, -0.3), env, amplitudes=tuple(amps))
        y0 = transition_yield(closed_form_amplitude(system, f), system, f)
        amps[index] *= 1.7
        f2 = detuned_field(system, (0.2, 0.1, -0.3), env, amplitudes=tuple(amps))
        y1 = transition_yield(closed_form_amplitude(system, f2), system, f2)
        assert y1 / y0 == pytest.approx(1.7**2, rel=1e-9)

    def test_value_scaled_consistency(self):
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        f = detuned_field(
            system, (0.2, -0.4), env, amplitudes=(0.6, 1.2), phases=(0.3, 1.0)
        )
        amp = closed_form_amplitude(system, f)
        prod = 1.0 + 0.0j
        for mu, c in zip(system.dipoles, f.components):
            prod *= mu * c.amplitude * np.exp(-1j * c.phase)
        assert amp.value == pytest.approx(amp.scaled * prod, rel=1e-12)


class TestClosedFormDispatch:
    def test_routes(self):
        system = ladder(2)
        genv = GaussianEnvelope(1.0)
        renv = RectangularEnvelope(2.0)
        cases = [
            (detuned_field(system, (0.1, 0.1), genv), AmplitudeMethod.RESONANT_CLOSED_FORM),
            (detuned_field(system, (0.1, 0.3), genv), AmplitudeMethod.GAUSSIAN_CLOSED_FORM),
            (detuned_field(system, (0.1, 0.1), renv), AmplitudeMethod.RECT_EQUAL),
            (detuned_field(system, (0.1, 0.3), renv), AmplitudeMethod.RECT_DISTINCT),
            # cumulants 0.5, 0.0 collide with Delta_0: degenerate, quadrature
            (detuned_field(system, (0.5, -0.5), renv), AmplitudeMethod.TIME_QUADRATURE),
        ]
        for f, method in cases:
            assert closed_form_amplitude(system, f).method is method

    def test_gaussian_beyond_five_rungs_falls_back_to_quadrature(self):
        # the Gaussian delay integral covers 2..5 rungs only
        system = LadderSystem((0.0, 60.0, 174.0, 336.0, 536.0, 786.0, 1096.0), (1.0,) * 6)
        f = detuned_field(system, (0.1, 0.3, 0.0, -0.2, 0.1, 0.2), GaussianEnvelope(1.0))
        fallback = closed_form_amplitude(system, f, tol=1e-7)
        assert fallback.method is AmplitudeMethod.TIME_QUADRATURE
        assert fallback == amplitude_time_quadrature(system, f, tol=1e-7)

    def test_degenerate_rect_fallback_is_consistent(self):
        system = ladder(2)
        renv = RectangularEnvelope(2.0)
        f = detuned_field(system, (0.5, -0.5), renv)
        fallback = closed_form_amplitude(system, f, tol=1e-7)
        direct = amplitude_time_quadrature(system, f, tol=1e-7)
        assert fallback.scaled == pytest.approx(direct.scaled, rel=1e-10)


class TestMethodCrossAgreement:
    def test_randomized_configs_agree_pairwise(self):
        rng = np.random.default_rng(42)
        for trial in range(10):
            n = int(rng.integers(2, 4))
            system = ladder(n)
            tau = float(rng.uniform(0.7, 1.8))
            genv = GaussianEnvelope(tau)
            deltas = tuple(rng.uniform(-0.6, 0.6, n) * genv.sigma)
            f = detuned_field(system, deltas, genv)
            det = Detunings(deltas)
            quad = amplitude_time_quadrature(system, f).scaled
            closed = scaled_amplitude_gaussian(det, genv)
            assert closed == pytest.approx(quad, rel=1e-6), f"gauss trial {trial}"

            T = float(rng.uniform(1.0, 4.0))
            renv = RectangularEnvelope(T)
            deltas_r = tuple(rng.uniform(0.2, 1.2, n))
            fr = detuned_field(system, deltas_r, renv)
            quad_r = amplitude_time_quadrature(system, fr).scaled
            closed_r = scaled_amplitude_rect_distinct(
                Detunings(deltas_r), T
            )
            assert closed_r == pytest.approx(quad_r, rel=1e-6), f"rect trial {trial}"

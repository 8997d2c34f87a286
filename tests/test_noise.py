"""Shot-to-shot noise: sampling, ensembles, and analytic averages."""

import math

import numpy as np
import pytest

from laddernoise import (
    ComponentNoise,
    ControlField,
    Detunings,
    EnsembleEvaluationError,
    Evaluator,
    FreqNoiseKernel,
    GaussianEnvelope,
    GaussianNoise,
    LadderSystem,
    NoiseSpec,
    PulseComponent,
    RectangularEnvelope,
    UniformNoise,
    ValidityWarning,
    amplitude_noise_average,
    ensemble_average,
    frequency_noise_average,
    frequency_noise_kernel,
    frequency_noise_scaled,
    pairwise_sum,
    rect_noise_limit,
    sample_field,
    sample_stream,
    scaled_amplitude_gaussian,
    strong_detuning_asymptote,
    transition_frequencies,
)

GAPS = (60.0, 114.0)


def ladder2():
    return LadderSystem((0.0, GAPS[0], GAPS[0] + GAPS[1]), (1.0, 1.0))


def resonant_field(system, amplitudes, envelope):
    comps = tuple(
        PulseComponent(a, 0.0, w)
        for a, w in zip(amplitudes, transition_frequencies(system))
    )
    return ControlField(comps, envelope)


class TestDistributions:
    def test_moments(self):
        assert UniformNoise(0.3).variance == pytest.approx(0.03)
        assert GaussianNoise(0.5).variance == pytest.approx(0.25)
        assert frequency_noise_scaled(1.5, 2.0).std == pytest.approx(
            1.5 * 2.0 / math.sqrt(2)
        )

    def test_negative_widths_rejected(self):
        with pytest.raises(ValueError):
            UniformNoise(-0.1)
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)


class TestSampling:
    def test_all_none_noise_returns_nominal(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        sampled, clamped = sample_field(f, NoiseSpec.quiet(2), sample_stream(1, 0))
        assert sampled == f
        assert clamped == 0

    def test_uniform_amplitude_moments(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((0.3, 0.3))
        n = 100_000
        offsets = np.array(
            [
                sample_field(f, noise, sample_stream(7, i))[0].components[0].amplitude
                - 1.0
                for i in range(n)
            ]
        )
        std = 0.3 / math.sqrt(3)
        assert abs(offsets.mean()) < 3 * std / math.sqrt(n)
        second = float(np.mean(offsets**2))
        spread = float(np.std(offsets**2))
        assert abs(second - 0.03) < 3 * spread / math.sqrt(n)

    def test_same_seed_reproduces_fields(self):
        f = resonant_field(ladder2(), (1.0, 0.5), GaussianEnvelope(1.0))
        noise = NoiseSpec(
            (
                ComponentNoise(
                    amplitude=UniformNoise(0.2),
                    phase=UniformNoise(0.5),
                    frequency=GaussianNoise(0.3),
                ),
            )
            * 2
        )
        a = [sample_field(f, noise, sample_stream(99, i))[0] for i in range(50)]
        b = [sample_field(f, noise, sample_stream(99, i))[0] for i in range(50)]
        assert a == b
        c = [sample_field(f, noise, sample_stream(100, i))[0] for i in range(50)]
        assert a != c

    def test_clamping_counts(self):
        f = resonant_field(ladder2(), (0.1, 0.1), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((1.0, 1.0))
        clamps = sum(
            sample_field(f, noise, sample_stream(3, i))[1] for i in range(500)
        )
        # half-width 1.0 on A = 0.1: draws are negative ~45% of the time
        assert clamps > 300
        for i in range(100):
            fld, _ = sample_field(f, noise, sample_stream(3, i))
            assert all(c.amplitude >= 0 for c in fld.components)

    def test_length_mismatch(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        with pytest.raises(ValueError, match="length"):
            sample_field(f, NoiseSpec.quiet(3), sample_stream(0, 0))


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1001) * 10.0 ** rng.integers(-8, 8, size=1001)
        assert pairwise_sum(x) == pytest.approx(math.fsum(x), rel=1e-12)

    def test_split_is_order_stable(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=777)
        assert pairwise_sum(x) == pairwise_sum(x.copy())


class TestEnsembleAverage:
    def test_zero_noise_mean_equals_single_shot(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        stats = ensemble_average(
            system, f, NoiseSpec.quiet(2), Evaluator.CLOSED_FORM, 10, seed=0
        )
        assert stats.mean == pytest.approx(1.0 / 4.0, rel=1e-12)  # (tau^2/2)^2
        assert stats.std_error == 0.0

    def test_phase_noise_is_bit_null_for_perturbative_evaluator(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        noiseless = ensemble_average(
            system, f, NoiseSpec.quiet(2), Evaluator.CLOSED_FORM, 2, seed=0
        ).mean
        stats = ensemble_average(
            system,
            f,
            NoiseSpec.phase_uniform((2.0, 3.0)),
            Evaluator.CLOSED_FORM,
            200,
            seed=11,
        )
        assert stats.mean == noiseless  # bit-identical
        assert stats.std_error < 1e-12

    def test_amplitude_noise_matches_analytic_ratio(self):
        # uniform amplitude noise of half-width 0.3 on unit amplitudes lifts
        # the mean yield by (1 + 0.03)^2
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((0.3, 0.3))
        stats = ensemble_average(
            system, f, noise, Evaluator.CLOSED_FORM, 100_000, seed=21
        )
        noiseless = 0.25
        ratio = stats.mean / noiseless
        assert abs(ratio - 1.03**2) < 3 * stats.std_error / noiseless

    def test_same_seed_is_deterministic(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((0.2, 0.2))
        a = ensemble_average(system, f, noise, Evaluator.CLOSED_FORM, 500, seed=5)
        b = ensemble_average(system, f, noise, Evaluator.CLOSED_FORM, 500, seed=5)
        assert a == b

    def test_evaluator_failure_carries_sample_index(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        # frequency noise wild enough to push a component frequency negative
        noise = NoiseSpec(
            (ComponentNoise(frequency=GaussianNoise(200.0)), ComponentNoise())
        )
        with pytest.raises(EnsembleEvaluationError, match=r"sample \d+"):
            ensemble_average(system, f, noise, Evaluator.CLOSED_FORM, 400, seed=2)

    def test_perturbative_evaluator_rejects_intermediate_target(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        with pytest.raises(EnsembleEvaluationError, match="top-level"):
            ensemble_average(
                system,
                f,
                NoiseSpec.quiet(2),
                Evaluator.CLOSED_FORM,
                4,
                seed=0,
                target_index=1,
            )

    def test_perturb_time_evaluator_agrees_with_closed_form(self):
        system = ladder2()
        env = GaussianEnvelope(1.0)
        f = resonant_field(system, (0.8, 1.1), env)
        noise = NoiseSpec.frequency_gaussian((0.5, 0.5), env.sigma)
        a = ensemble_average(system, f, noise, Evaluator.CLOSED_FORM, 40, seed=9)
        b = ensemble_average(system, f, noise, Evaluator.PERTURB_TIME, 40, seed=9)
        assert a.mean == pytest.approx(b.mean, rel=1e-5)


class TestAmplitudeNoiseAnalytic:
    def test_noiseless_limit(self):
        assert amplitude_noise_average(0.5, (1.0, 1.0), (0.0, 0.0)) == pytest.approx(
            0.25
        )

    def test_small_variance_ratio(self):
        base = amplitude_noise_average(1.0, (1.0,) * 4, (0.0,) * 4)
        lifted = amplitude_noise_average(1.0, (1.0,) * 4, (0.01,) * 4)
        assert lifted / base == pytest.approx(1.01**4)
        assert lifted / base == pytest.approx(1 + 4 * 0.01, rel=1e-3)

    def test_arithmetic(self):
        assert amplitude_noise_average(1.0, (1.0, 0.5), (0.03, 0.03)) == pytest.approx(
            1.03 * 0.28
        )

    def test_mc_agreement_randomized(self):
        rng = np.random.default_rng(77)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            gaps = (60.0, 114.0, 162.0)[:n]
            energies = [0.0]
            for g in gaps:
                energies.append(energies[-1] + g)
            system = LadderSystem(tuple(energies), (1.0,) * n)
            amps = tuple(rng.uniform(0.5, 1.5, n))
            f = resonant_field(system, amps, GaussianEnvelope(1.0))
            halfw = tuple(rng.uniform(0.05, 0.3, n))
            noise = NoiseSpec.amplitude_uniform(halfw)
            stats = ensemble_average(
                system, f, noise, Evaluator.CLOSED_FORM, 10_000, seed=trial
            )
            coupling = 1.0 / math.factorial(n)  # tau = 1, resonant
            expected = amplitude_noise_average(
                coupling, amps, tuple(h**2 / 3 for h in halfw)
            )
            assert abs(stats.mean - expected) < 3 * stats.std_error, f"trial {trial}"


class TestFrequencyNoiseKernel:
    def test_matrix_identities(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 4):
            d = tuple(rng.uniform(0.3, 2.0, n))
            kern = FreqNoiseKernel(d, (0.0,) * n, sigma=2.0)
            prod = kern.b_matrix @ kern.b_inverse
            assert np.max(np.abs(prod - np.eye(n))) < 1e-10
            assert kern.det_b == pytest.approx(
                float(np.linalg.det(kern.b_matrix)), rel=1e-10
            )

    def test_resonant_equal_delays_value(self):
        d = (0.7, 1.2)
        kern = FreqNoiseKernel(d, (0.0, 0.0), sigma=3.0)
        val = kern.evaluate(np.array([0.4]), np.array([0.4]))
        dbar2 = np.mean(np.square(d))
        assert val == pytest.approx((1 + 2 * dbar2) ** -0.5, rel=1e-12)
        assert abs(val) < 1.0

    def test_vanishing_noise_limit(self):
        kern = FreqNoiseKernel((1e-8, 1e-8), (0.0, 0.0), sigma=3.0)
        val = kern.evaluate(np.array([1.0]), np.array([0.2]))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_against_direct_integration(self):
        # brute-force the defining average with Gauss-Hermite quadrature
        rng = np.random.default_rng(10)
        sigma = 2 * math.sqrt(math.pi)
        x, w = np.polynomial.hermite.hermgauss(120)
        for trial in range(10):
            d = rng.uniform(0.3, 1.8, 2)
            db = rng.uniform(-1.5, 1.5, 2) * sigma
            tau = rng.uniform(0.0, 3.0, 1)
            tau_p = rng.uniform(0.0, 3.0, 1)
            closed = frequency_noise_kernel(tau, tau_p, d, db, sigma)
            d1 = db[0] + d[0] * sigma * x[:, None]
            d2 = db[1] + d[1] * sigma * x[None, :]
            total = d1 + d2
            dfreq = total - 2 * d1  # k Delta_N - N Delta_k at k = 1, N = 2
            u = tau[0] - tau_p[0]
            integrand = np.exp(
                -(2.0 / (2 * sigma**2)) * total**2 - 1j * u * dfreq / (2 * sigma)
            )
            brute = np.einsum("i,j,ij->", w, w, integrand) / math.pi
            assert closed == pytest.approx(brute, rel=1e-8), f"trial {trial}"


class TestFrequencyNoiseAverage:
    def test_noiseless_limit(self):
        env = GaussianEnvelope(1.0)
        val = frequency_noise_average(env, (1e-3, 1e-3), (0.0, 0.0))
        assert val == pytest.approx(0.25, rel=1e-5)

    def test_resonant_noise_suppresses(self):
        env = GaussianEnvelope(1.0)
        for d2 in (0.25, 1.0, 4.0):
            dk = math.sqrt(d2)
            val = frequency_noise_average(env, (dk, dk), (0.0, 0.0))
            assert val < 0.25

    def test_matches_monte_carlo_resonant(self):
        env = GaussianEnvelope(1.0)
        analytic = frequency_noise_average(env, (1.0, 1.0), (0.0, 0.0))
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), env)
        noise = NoiseSpec.frequency_gaussian((1.0, 1.0), env.sigma)
        stats = ensemble_average(
            system, f, noise, Evaluator.CLOSED_FORM, 10_000, seed=8
        )
        assert abs(stats.mean - analytic) < 3 * stats.std_error

    def test_strong_detuning_enhancement(self):
        env = GaussianEnvelope(1.0)
        sig = env.sigma
        db = (4 * sig, 4 * sig)
        noisy = frequency_noise_average(env, (1.0, 1.0), db)
        noiseless = abs(
            scaled_amplitude_gaussian(Detunings.from_deltas(db), env)
        ) ** 2
        assert noisy > noiseless
        # log enhancement tracks the averaged-exponent prediction
        # (2 Dbar^2 / (N sigma^2)) * 2 dbar^2/(1 + 2 dbar^2)
        predicted = (2 * (8 * sig) ** 2 / (2 * sig**2)) * (2.0 / 3.0)
        assert math.log(noisy / noiseless) == pytest.approx(predicted, rel=0.2)

    def test_strong_detuning_mc_beats_noiseless_across_strengths(self):
        env = GaussianEnvelope(1.0)
        sig = env.sigma
        system = ladder2()
        wbar = transition_frequencies(system)
        f = ControlField(
            tuple(PulseComponent(1.0, 0.0, w + 4 * sig) for w in wbar), env
        )
        det = Detunings.from_deltas((4 * sig, 4 * sig))
        noiseless = abs(scaled_amplitude_gaussian(det, env)) ** 2
        for d_sq in (0.5, 1.0, 2.0):
            noise = NoiseSpec.frequency_gaussian((math.sqrt(d_sq),) * 2, sig)
            stats = ensemble_average(
                system, f, noise, Evaluator.CLOSED_FORM, 2000, seed=int(10 * d_sq)
            )
            assert stats.mean > noiseless, f"d^2={d_sq}"

    def test_unsupported_n(self):
        env = GaussianEnvelope(1.0)
        with pytest.raises(ValueError, match="Monte Carlo"):
            frequency_noise_average(env, (1.0,) * 4, (0.0,) * 4)


class TestStrongDetuningAsymptote:
    def test_quiet_limit_exponent(self):
        sig = 1.3
        db = (4 * sig, 4 * sig)
        val = strong_detuning_asymptote(db, 0.0, sig)
        assert val == pytest.approx(math.exp(-4 * (8 * sig) ** 2 / (2 * sig**2)))

    def test_noise_removes_suppression(self):
        sig = 1.0
        db = (4.0, 4.0)
        with pytest.warns(ValidityWarning):  # jitter scale now beats detuning
            val = strong_detuning_asymptote(db, 1e6, sig)
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_monotone_in_noise_strength(self):
        sig = 1.0
        db = (4.0, 4.0)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore", ValidityWarning)
            vals = [
                strong_detuning_asymptote(db, d2, sig)
                for d2 in (0.0, 0.5, 1.0, 2.0)
            ]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestRectNoiseLimit:
    @pytest.mark.parametrize(
        "n,dbar,expected", [(1, 2.0, 0.5), (2, 2.0, 24 / 16 / 16)]
    )
    def test_values(self, n, dbar, expected):
        assert rect_noise_limit(n, dbar) == pytest.approx(expected, rel=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError):
            rect_noise_limit(2, 0.0)

    def test_against_monte_carlo_of_closed_form(self):
        # wide uniform jitter (>> pi/T) around a large mean detuning (<< mean)
        rng = np.random.default_rng(123)
        T, n = 1.0, 2
        dbar, width = 200.0, 8 * math.pi
        draws = rng.uniform(dbar - width / 2, dbar + width / 2, 100_000)
        # vectorized |scaled|^2 of the equal-detuning rectangular form
        vals = (
            2 ** (2 * n)
            / math.factorial(n) ** 2
            * draws ** (-2.0 * n)
            * np.sin(T * draws / 2) ** (2 * n)
        )
        assert np.mean(vals) == pytest.approx(rect_noise_limit(n, dbar), rel=0.10)


class TestAntiresonanceSuppression:
    def test_frequency_noise_lifts_the_antiresonance(self):
        # rectangular pulse parked exactly on T delta = 2 pi
        system = ladder2()
        T = 1.0
        delta = 2 * math.pi / T
        wbar = transition_frequencies(system)
        f = ControlField(
            tuple(PulseComponent(1.0, 0.0, w + delta) for w in wbar),
            RectangularEnvelope(T),
        )
        noiseless = ensemble_average(
            system, f, NoiseSpec.quiet(2), Evaluator.CLOSED_FORM, 2, seed=0
        ).mean
        jitter = NoiseSpec(
            tuple(
                ComponentNoise(frequency=UniformNoise(0.5 * math.pi / T))
                for _ in range(2)
            )
        )
        stats = ensemble_average(
            system, f, jitter, Evaluator.CLOSED_FORM, 4000, seed=31
        )
        assert noiseless < 1e-24
        assert stats.mean > 100 * noiseless
        assert stats.mean > 1e-6

"""Shot-to-shot noise: sampling, ensembles, and analytic averages."""

import math
from statistics import NormalDist

import numpy as np
import pytest

import laddernoise.noise as noise_module
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
    draw_offsets,
    ensemble_average,
    frequency_noise_average,
    pairwise_sum,
    rect_noise_limit,
    sample_field,
    sample_stream,
    scaled_amplitude_gaussian,
    strong_detuning_asymptote,
    transition_frequencies,
)
from laddernoise.noise import _PAIR_NODE_LADDERS, _pair_sum
from laddernoise.perturbation import _delay_grid

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
        # strength d scales the jitter to d * sigma / sqrt(2)
        spec = NoiseSpec.frequency_gaussian((1.5, 0.5), 2.0)
        for k, d in enumerate((1.5, 0.5)):
            assert spec.components[k].frequency.std == pytest.approx(
                d * 2.0 / math.sqrt(2)
            )

    def test_negative_widths_rejected(self):
        with pytest.raises(ValueError):
            UniformNoise(-0.1)
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)


def reference_normal(m):
    """Phi^-1((m + 1/2) 2^-53) from the standard library, exact in p.

    For m < 2^52 the midpoint is a float; above it rounds (to 1.0 at the
    top), so the upper half is the lower half mirrored.
    """
    if m < 2**52:
        return NormalDist().inv_cdf((m + 0.5) * 2**-53)
    return -NormalDist().inv_cdf((2**53 - 1 - m + 0.5) * 2**-53)


def reference_offsets(noise, samples, seed):
    """Each row from numpy's own generator on the key (seed, i), one word a slot.

    Uniform slots draw with its ``uniform``, Gaussian slots map its next raw
    word by the standard library's inverse normal CDF.
    """
    rows = []
    for i in range(samples):
        rng = sample_stream(seed, i)
        row = []
        for cn in noise.components:
            triple = []
            for dist in (cn.amplitude, cn.phase, cn.frequency):
                if isinstance(dist, UniformNoise):
                    triple.append(rng.uniform(-dist.half_width, dist.half_width))
                elif isinstance(dist, GaussianNoise):
                    m = int(rng.bit_generator.random_raw()) >> 11
                    triple.append(dist.std * reference_normal(m))
                else:
                    triple.append(0.0)
            row.append(triple)
        rows.append(row)
    return np.array(rows)


class TestDrawOffsets:
    MIXED = NoiseSpec(
        (
            ComponentNoise(amplitude=UniformNoise(0.2), frequency=GaussianNoise(0.3)),
            ComponentNoise(),
            ComponentNoise(
                amplitude=GaussianNoise(0.1),
                phase=UniformNoise(0.5),
                frequency=UniformNoise(0.4),
            ),
            ComponentNoise(phase=GaussianNoise(0.7)),
        )
    )
    # nine uniform slots, three Philox blocks a row
    UNIFORM = NoiseSpec(
        ComponentNoise(UniformNoise(0.1 * j), UniformNoise(3.0), UniformNoise(1e-3 * j))
        for j in range(1, 4)
    )

    @pytest.mark.parametrize("slots", [1, 4, 5, 9])
    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_words_are_numpy_philox_words(self, seed, slots):
        blocks = -(-slots // 4)
        words = noise_module._philox_words(seed, np.arange(40, dtype=np.uint64), blocks)
        expected = [
            np.random.Philox(key=np.array([seed, i], dtype=np.uint64)).random_raw(slots)
            for i in range(40)
        ]
        assert words.dtype == np.uint64 and words.shape == (40, 4 * blocks)
        assert (words[:, :slots] == expected).all()

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_matches_the_reference_draws(self, seed):
        table = draw_offsets(self.MIXED, 64, seed)
        assert table.shape == (64, 4, 3)
        reference = reference_offsets(self.MIXED, 64, seed)
        for j, k in [(0, 0), (2, 1), (2, 2)]:  # uniform slots, bit for bit
            assert table[:, j, k].tobytes() == reference[:, j, k].tobytes()
        for j, k in [(0, 2), (2, 0), (3, 1)]:  # Gaussian slots
            assert table[:, j, k] == pytest.approx(reference[:, j, k], rel=4e-16, abs=0)
        # kinds without noise draw nothing and store zeros
        assert not table[:, 1].any() and not table[:, 0, 1].any()
        assert not table[:, 3, 0].any() and not table[:, 3, 2].any()

    @pytest.mark.parametrize("seed", [0, 17, 2**64 - 1])
    def test_uniform_table_is_numpy_uniform(self, seed):
        table = draw_offsets(self.UNIFORM, 64, seed)
        assert table.tobytes() == reference_offsets(self.UNIFORM, 64, seed).tobytes()

    def test_inverse_normal_at_the_branch_edges_and_the_ends(self):
        # |p - 1/2| = 0.425 on either side of the centre, r = 5 in either tail
        centre = int(0.425 * 2**53 - 0.5)
        tail = int(math.exp(-25.0) * 2**53)
        low = [0, 1, 2, tail - 2, tail - 1, tail, tail + 1, tail + 2]
        low += [2**52 - centre + d for d in range(-3, 3)] + [2**52 - 2, 2**52 - 1]
        m = low + [2**53 - 1 - v for v in low]
        x = noise_module._inverse_normal(np.array(m, dtype=np.uint64))
        expected = [reference_normal(v) for v in m]
        assert np.isfinite(x).all()
        assert x == pytest.approx(expected, rel=4e-16, abs=0)
        # odd about the middle, exactly
        assert (x[: len(low)] == -x[len(low):]).all()
        q = (np.array(m, dtype=float) - (2**52 - 0.5)) * 2.0**-53
        assert {True, False} <= set(np.abs(q) <= 0.425)
        assert {True, False} <= set(np.sqrt(-np.log(0.5 - np.abs(q[np.abs(q) > 0.425]))) <= 5)

    def test_inverse_normal_agrees_with_the_standard_library(self):
        m = np.random.default_rng(5).integers(0, 2**53, 20_000, dtype=np.uint64)
        x = noise_module._inverse_normal(m)
        expected = [reference_normal(v) for v in m.tolist()]
        assert x == pytest.approx(expected, rel=4e-16, abs=0)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_row_does_not_depend_on_the_count_or_the_chunks(self, monkeypatch, chunk):
        whole = draw_offsets(self.MIXED, 300, 23)
        assert draw_offsets(self.MIXED, 100, 23).tobytes() == whole[:100].tobytes()
        monkeypatch.setattr(noise_module, "_CHUNK_BLOCKS", chunk)
        assert draw_offsets(self.MIXED, 300, 23).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)], ids=repr)
    def test_numpy_integer_seed_is_its_value(self, seed):
        table = draw_offsets(self.MIXED, 4, seed)
        assert table.tobytes() == draw_offsets(self.MIXED, 4, int(seed)).tobytes()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError, match="two samples"):
            draw_offsets(self.MIXED, 1, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_stream_key_range_is_rejected(self, seed):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            sample_stream(seed, 0)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            draw_offsets(self.MIXED, 2, seed)

    def test_quiet_spec_opens_no_stream(self, monkeypatch):
        calls = []
        real = noise_module._philox_words
        monkeypatch.setattr(
            noise_module, "_philox_words", lambda *a: calls.append(a[1:]) or real(*a)
        )
        quiet = NoiseSpec.quiet(2)
        table = draw_offsets(quiet, 100, 5)
        assert calls == []
        assert table.shape == (100, 2, 3) and not table.any()
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            draw_offsets(quiet, 2, -1)
        # a noisy table of six slots computes two Philox blocks a row
        draw_offsets(self.MIXED, 100, 5)
        assert [(len(rows), blocks) for rows, blocks in calls] == [(100, 2)]

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseSpec.phase_uniform((1e308,)),
            NoiseSpec((ComponentNoise(phase=GaussianNoise(1e308)),)),
        ],
        ids=["uniform", "gaussian"],
    )
    def test_offset_past_the_float_range_raises(self, noise):
        # like numpy's uniform, which refused a range that overflows
        with pytest.raises(FloatingPointError, match="overflow"):
            draw_offsets(noise, 1000, 3)


class TestSampling:
    def test_all_none_noise_returns_nominal(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        row = draw_offsets(NoiseSpec.quiet(2), 2, 1)[0].tolist()
        sampled, clamped = sample_field(f, row)
        assert sampled == f
        assert clamped == 0

    def test_uniform_amplitude_moments(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((0.3, 0.3))
        n = 100_000
        offsets = np.array(
            [
                sample_field(f, row)[0].components[0].amplitude - 1.0
                for row in draw_offsets(noise, n, 7).tolist()
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

        def fields(seed):
            return [sample_field(f, row)[0] for row in draw_offsets(noise, 50, seed).tolist()]

        a = fields(99)
        assert a == fields(99)
        assert a != fields(100)

    def test_clamping_counts(self):
        f = resonant_field(ladder2(), (0.1, 0.1), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((1.0, 1.0))
        rows = draw_offsets(noise, 500, 3).tolist()
        clamps = sum(sample_field(f, row)[1] for row in rows)
        # half-width 1.0 on A = 0.1: draws are negative ~45% of the time
        assert clamps > 300
        for row in rows[:100]:
            fld, _ = sample_field(f, row)
            assert all(c.amplitude >= 0 for c in fld.components)

    def test_length_mismatch(self):
        f = resonant_field(ladder2(), (1.0, 1.0), GaussianEnvelope(1.0))
        with pytest.raises(ValueError, match="longer"):
            sample_field(f, [(0.0, 0.0, 0.0)] * 3)


class TestPairwiseSum:
    def test_matches_fsum(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1001) * 10.0 ** rng.integers(-8, 8, size=1001)
        assert pairwise_sum(x) == math.fsum(x)

    def test_ensemble_does_not_depend_on_row_order(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        detuned = f.with_frequencies([w + 0.3 for w in transition_frequencies(system)])
        noise = NoiseSpec.amplitude_uniform((0.3, 0.3))
        for seed in range(20):
            table = draw_offsets(noise, 1000, seed)
            forward = ensemble_average(system, detuned, table, Evaluator.CLOSED_FORM)
            backward = ensemble_average(system, detuned, table[::-1], Evaluator.CLOSED_FORM)
            assert forward == backward, seed


class TestEnsembleAverage:
    def test_zero_noise_mean_equals_single_shot(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        stats = ensemble_average(
            system, f, draw_offsets(NoiseSpec.quiet(2), 10, 0), Evaluator.CLOSED_FORM
        )
        assert stats.mean == pytest.approx(1.0 / 4.0, rel=1e-12)  # (tau^2/2)^2
        assert stats.std_error == 0.0

    def test_phase_noise_is_bit_null_for_perturbative_evaluator(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        noiseless = ensemble_average(
            system, f, draw_offsets(NoiseSpec.quiet(2), 2, 0), Evaluator.CLOSED_FORM
        ).mean
        stats = ensemble_average(
            system,
            f,
            draw_offsets(NoiseSpec.phase_uniform((2.0, 3.0)), 200, 11),
            Evaluator.CLOSED_FORM,
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
            system, f, draw_offsets(noise, 100_000, 21), Evaluator.CLOSED_FORM
        )
        noiseless = 0.25
        ratio = stats.mean / noiseless
        assert abs(ratio - 1.03**2) < 3 * stats.std_error / noiseless

    def test_same_seed_is_deterministic(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        noise = NoiseSpec.amplitude_uniform((0.2, 0.2))
        a = ensemble_average(system, f, draw_offsets(noise, 500, 5), Evaluator.CLOSED_FORM)
        b = ensemble_average(system, f, draw_offsets(noise, 500, 5), Evaluator.CLOSED_FORM)
        assert a == b

    def test_evaluator_failure_carries_sample_index(self):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        # frequency noise wild enough to push a component frequency negative
        noise = NoiseSpec(
            (ComponentNoise(frequency=GaussianNoise(200.0)), ComponentNoise())
        )
        with pytest.raises(EnsembleEvaluationError, match=r"sample \d+"):
            ensemble_average(system, f, draw_offsets(noise, 400, 2), Evaluator.CLOSED_FORM)

    def test_perturbative_evaluator_rejects_intermediate_target(self, monkeypatch):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        shots = []
        monkeypatch.setattr(noise_module, "sample_field", lambda *a: shots.append(a))
        with pytest.raises(ValueError, match="top-level"):
            ensemble_average(
                system,
                f,
                draw_offsets(NoiseSpec.quiet(2), 4, 0),
                Evaluator.CLOSED_FORM,
                target_index=1,
            )
        assert shots == []  # refused before the first shot

    @pytest.mark.parametrize("shape", [(4, 3, 3), (4, 2, 2), (1, 2, 3), (4, 6)])
    def test_offset_table_that_does_not_fit_is_rejected(self, monkeypatch, shape):
        system = ladder2()
        f = resonant_field(system, (1.0, 1.0), GaussianEnvelope(1.0))
        shots = []
        monkeypatch.setattr(noise_module, "sample_field", lambda *a: shots.append(a))
        with pytest.raises(ValueError, match="offset table"):
            ensemble_average(system, f, np.zeros(shape), Evaluator.CLOSED_FORM)
        assert shots == []

    def test_perturb_time_evaluator_agrees_with_closed_form(self):
        system = ladder2()
        env = GaussianEnvelope(1.0)
        f = resonant_field(system, (0.8, 1.1), env)
        noise = NoiseSpec.frequency_gaussian((0.5, 0.5), env.sigma)
        table = draw_offsets(noise, 40, 9)
        a = ensemble_average(system, f, table, Evaluator.CLOSED_FORM)
        b = ensemble_average(system, f, table, Evaluator.PERTURB_TIME)
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
                system, f, draw_offsets(noise, 10_000, trial), Evaluator.CLOSED_FORM
            )
            coupling = 1.0 / math.factorial(n)  # tau = 1, resonant
            expected = amplitude_noise_average(
                coupling, amps, tuple(h**2 / 3 for h in halfw)
            )
            assert abs(stats.mean - expected) < 3 * stats.std_error, f"trial {trial}"


class TestFrequencyNoiseKernel:
    def test_matches_the_dense_quadratic_form(self):
        # the same integral as (1/prod d) det(B)^(-1/2) exp((sigma^2/4) c^T B^-1 c
        # - sum delta_bar^2/(d^2 sigma^2)) with B = diag(1/d^2) + 2/N and
        # c_k = 2 delta_bar_k/(sigma^2 d_k^2) - i w_k/sigma, for d_k well above 0
        rng = np.random.default_rng(3)
        sigma = 2.0
        for n in (2, 3, 4):
            for trial in range(5):
                d = rng.uniform(0.3, 2.0, n)
                db = rng.uniform(-1.5, 1.5, n) * sigma
                tau, tau_p = rng.uniform(-2.0, 2.0, (2, n - 1))
                b = np.diag(1.0 / np.square(d)) + 2.0 / n
                u = tau - tau_p
                v = np.append(np.cumsum(u[::-1])[::-1], 0.0)
                c = 2.0 * db / (sigma**2 * d**2) - 1j * (v.mean() - v) / sigma
                expo = (sigma**2 / 4.0) * (c @ np.linalg.inv(b) @ c) - np.sum(
                    db**2 / (d**2 * sigma**2)
                )
                dense = np.exp(expo) / (np.prod(d) * math.sqrt(np.linalg.det(b)))
                kern = FreqNoiseKernel(tuple(d), tuple(db), sigma)
                assert kern.evaluate(tau, tau_p) == pytest.approx(dense, rel=1e-10)

    def test_small_strengths_approach_the_noiseless_kernel(self):
        # the dense form loses 1.3% here to the cancelling 1/d^2 terms
        sigma = GaussianEnvelope(1.0).sigma
        db = tuple(0.5 * sigma * f for f in (0.9, -0.6, 0.7))
        tau, tau_p = np.array([0.4, -0.3]), np.array([1.1, 0.2])
        quiet = FreqNoiseKernel((0.0,) * 3, db, sigma).evaluate(tau, tau_p)
        small = FreqNoiseKernel((1e-7,) * 3, db, sigma).evaluate(tau, tau_p)
        assert abs(small - quiet) <= 1e-9 * abs(quiet)
        # d = 0: exp(-2 Dbar_N^2 / (N sigma^2) - i delta_bar.w / sigma)
        v = np.append(np.cumsum((tau - tau_p)[::-1])[::-1], 0.0)
        w = v.mean() - v
        expected = np.exp(-2.0 * sum(db) ** 2 / (3 * sigma**2) - 1j * np.dot(db, w) / sigma)
        assert quiet == pytest.approx(expected, rel=1e-14)

    def test_refuses_negative_strength_and_length_mismatch(self):
        with pytest.raises(ValueError, match="nonnegative"):
            FreqNoiseKernel((0.5, -0.1), (0.0, 0.0), sigma=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            FreqNoiseKernel((0.5, math.nan), (0.0, 0.0), sigma=1.0)
        with pytest.raises(ValueError, match="equal length"):
            FreqNoiseKernel((0.5, 0.5), (0.0,), sigma=1.0)

    def test_refuses_infinite_strength(self):
        # an infinite d_k used to reach the quadrature and end in a NaN
        # kernel and a QuadratureConvergenceError
        with pytest.raises(ValueError, match="nonnegative and finite"):
            FreqNoiseKernel((math.inf, 0.1), (0.1, 0.2), sigma=1.0)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            frequency_noise_average(GaussianEnvelope(1.0), (math.inf, 0.1), (0.1, 0.2))

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
            closed = FreqNoiseKernel(tuple(d), tuple(db), sigma).evaluate(tau, tau_p)
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


def direct_pair_sum(kernel, n, nodes):
    """The level sum over an explicit grid of all (tau, tau') delay pairs."""
    x, weights, _ = _delay_grid(n, (nodes,))
    weighted = weights.ravel()
    grids = np.meshgrid(*([x] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    m = pts.shape[0]
    tau = np.repeat(pts, m, axis=0)
    tau_p = np.tile(pts, (m, 1))
    pair_weighted = np.outer(weighted, weighted).ravel()
    return float(np.real(np.dot(pair_weighted, kernel.evaluate(tau, tau_p))))


class TestFrequencyNoiseAverage:
    # the first two levels of each ladder, and the first N=3 level whose
    # pairs (576^2) span more than one block of rows
    @pytest.mark.parametrize(
        "n,nodes",
        [(n, nodes) for n, ladder in _PAIR_NODE_LADDERS.items() for nodes in ladder[:2]]
        + [(3, _PAIR_NODE_LADDERS[3][2])],
    )
    def test_level_sum_matches_direct_pair_sum(self, n, nodes):
        sigma = GaussianEnvelope(1.0).sigma
        d = (0.8, 1.2, 0.5)[:n]
        delta_bar = tuple(f * sigma for f in (0.4, -0.7, 0.9)[:n])
        kernel = FreqNoiseKernel(d, delta_bar, sigma)
        direct = direct_pair_sum(kernel, n, nodes)
        assert abs(_pair_sum(kernel, n, nodes) - direct) <= 1e-12 * abs(direct)

    def test_noiseless_limit(self):
        env = GaussianEnvelope(1.0)
        val = frequency_noise_average(env, (1e-3, 1e-3), (0.0, 0.0))
        assert val == pytest.approx(0.25, rel=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_strengths_give_the_noiseless_yield(self, n):
        env = GaussianEnvelope(1.0)
        db = tuple(0.5 * env.sigma * f for f in (0.9, -0.6, 0.7)[:n])
        noiseless = abs(scaled_amplitude_gaussian(Detunings(db), env, tol=1e-10)) ** 2
        averaged = frequency_noise_average(env, (0.0,) * n, db, tol=1e-10)
        assert averaged == pytest.approx(noiseless, rel=1e-9)

    def test_one_zero_strength_matches_a_one_dimensional_average(self):
        # only the second detuning jitters: std 0.8 sigma / sqrt(2), which is
        # Gauss-Hermite in x with delta_2 = delta_bar_2 + 0.8 sigma x
        env = GaussianEnvelope(1.0)
        db = (0.6 * env.sigma, -0.4 * env.sigma)
        x, w = np.polynomial.hermite.hermgauss(60)
        brute = math.fsum(
            wj * abs(scaled_amplitude_gaussian(
                Detunings((db[0], db[1] + 0.8 * env.sigma * xj)), env, tol=1e-10)) ** 2
            for xj, wj in zip(x, w)
        ) / math.sqrt(math.pi)
        averaged = frequency_noise_average(env, (0.0, 0.8), db, tol=1e-10)
        assert averaged == pytest.approx(brute, rel=1e-8)

    def test_strengths_may_be_a_generator(self):
        env = GaussianEnvelope(1.0)
        listed = frequency_noise_average(env, (1.0, 1.0), (0.0, 0.0))
        assert frequency_noise_average(env, (d for d in (1.0, 1.0)), (0.0, 0.0)) == listed

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
            system, f, draw_offsets(noise, 10_000, 8), Evaluator.CLOSED_FORM
        )
        assert abs(stats.mean - analytic) < 3 * stats.std_error

    def test_strong_detuning_enhancement(self):
        env = GaussianEnvelope(1.0)
        sig = env.sigma
        db = (4 * sig, 4 * sig)
        noisy = frequency_noise_average(env, (1.0, 1.0), db)
        noiseless = abs(
            scaled_amplitude_gaussian(Detunings(db), env)
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
        det = Detunings((4 * sig, 4 * sig))
        noiseless = abs(scaled_amplitude_gaussian(det, env)) ** 2
        for d_sq in (0.5, 1.0, 2.0):
            noise = NoiseSpec.frequency_gaussian((math.sqrt(d_sq),) * 2, sig)
            stats = ensemble_average(
                system, f, draw_offsets(noise, 2000, int(10 * d_sq)), Evaluator.CLOSED_FORM
            )
            assert stats.mean > noiseless, f"d^2={d_sq}"

    def test_unsupported_n(self):
        # the rung counts with a delay-pair node ladder, and no others
        env = GaussianEnvelope(1.0)
        for n in (1, 4):
            with pytest.raises(ValueError, match=r"N in \{2, 3\}; use the Monte Carlo"):
                frequency_noise_average(env, (1.0,) * n, (0.0,) * n)


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
            system, f, draw_offsets(NoiseSpec.quiet(2), 2, 0), Evaluator.CLOSED_FORM
        ).mean
        jitter = NoiseSpec(
            tuple(
                ComponentNoise(frequency=UniformNoise(0.5 * math.pi / T))
                for _ in range(2)
            )
        )
        stats = ensemble_average(
            system, f, draw_offsets(jitter, 4000, 31), Evaluator.CLOSED_FORM
        )
        assert noiseless < 1e-24
        assert stats.mean > 100 * noiseless
        assert stats.mean > 1e-6

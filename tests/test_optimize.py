"""Fluence-penalized amplitude optimization against brute-force oracles."""

import math
import os

import numpy as np
import pytest

import laddernoise.noise as noise_module
import laddernoise.optimize as optimize_module
from laddernoise import (
    ComponentNoise,
    ControlField,
    Evaluator,
    GaussianEnvelope,
    LadderSystem,
    NoiseSpec,
    ObjectiveSpec,
    ObservableModel,
    PulseComponent,
    UniformNoise,
    coupling_magnitude,
    optimize_amplitudes,
    transition_frequencies,
    verify_optimality_condition,
)
from laddernoise.cli import load_config
from laddernoise.optimize import yield_model

EXAMPLE = os.path.join(
    os.path.dirname(__file__), "..", "docs", "examples", "noise_cooperation_optimize.json"
)

# resonant two-rung ladder with tau = sqrt(2): the scaled amplitude is
# i^2 tau^2/2 = -1, so the coupling magnitude is exactly 1
TAU = math.sqrt(2.0)


def setup_problem():
    system = LadderSystem((0.0, 60.0, 174.0), (1.0, 1.0))
    env = GaussianEnvelope(TAU)
    field = ControlField(
        tuple(
            PulseComponent(1.0, 0.0, w) for w in transition_frequencies(system)
        ),
        env,
    )
    return system, field


def grid_search(coupling, variances, target, weight, a_max=1.0, step=1e-3):
    """Brute-force argmin of the analytic objective on an amplitude grid."""
    a = np.arange(0.0, a_max + step / 2, step)
    u1 = a[:, None] ** 2 + variances[0]
    u2 = a[None, :] ** 2 + variances[1]
    obar = coupling**2 * u1 * u2
    j = (obar - target) ** 2 + weight * (a[:, None] ** 2 + a[None, :] ** 2)
    idx = np.unravel_index(np.argmin(j), j.shape)
    return (a[idx[0]], a[idx[1]]), float(j[idx])


def objective_at(init, spec, system, field, noise):
    """J at ``init``: the first point the optimizer evaluates, from one simplex."""
    trace = []
    optimize_amplitudes(
        spec, system, field, noise, init, max_evals=len(init) + 1, trace=trace
    )
    amps, val = trace[0]
    assert amps == tuple(init)
    return val


class TestObjective:
    def test_arithmetic(self):
        system, field = setup_problem()
        spec = ObjectiveSpec(0.1, 0.01)
        # coupling = 1, zero noise: Obar = (A1 A2)^2
        val = objective_at((1.0, 1.0), spec, system, field, NoiseSpec.quiet(2))
        assert val == pytest.approx((1.0 - 0.1) ** 2 + 0.01 * 2.0, rel=1e-9)

    def test_zero_when_noise_alone_reaches_target(self):
        # variances with v1*v2 = O_T: zero amplitudes give Obar = O_T exactly
        system, field = setup_problem()
        noise = NoiseSpec.amplitude_uniform(
            (math.sqrt(3 * 0.5), math.sqrt(3 * 0.2))
        )
        val = objective_at((0.0, 0.0), ObjectiveSpec(0.1, 0.01), system, field, noise)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_negligible_yield_leaves_target_and_fluence_terms(self):
        # park the field far off resonance so Obar ~ 0:
        # J -> O_T^2 + alpha * fluence = 0.01 + 0.02
        system, base = setup_problem()
        env = base.envelope
        far = ControlField(
            tuple(
                PulseComponent(1.0, 0.0, c.frequency + 6 * env.sigma)
                for c in base.components
            ),
            env,
        )
        val = objective_at(
            (1.0, 1.0), ObjectiveSpec(0.1, 0.01), system, far, NoiseSpec.quiet(2)
        )
        assert val == pytest.approx(0.03, rel=1e-9)

    def test_monotone_in_fluence_weight(self):
        system, field = setup_problem()
        noise = NoiseSpec.quiet(2)
        amps = (0.7, 0.4)
        vals = [
            objective_at(amps, ObjectiveSpec(0.1, w), system, field, noise)
            for w in (1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ObjectiveSpec(0.0, 0.01)
        with pytest.raises(ValueError):
            ObjectiveSpec(0.1, 0.0)

    def test_analytic_observable_needs_the_closed_form_evaluator(self):
        system, field = setup_problem()
        noise = NoiseSpec.quiet(2)
        for evaluator in (Evaluator.TDSE, Evaluator.PERTURB_TIME):
            spec = ObjectiveSpec(0.1, 0.01, evaluator=evaluator)
            with pytest.raises(ValueError, match="closed-form evaluator"):
                optimize_amplitudes(spec, system, field, noise, init=(0.5, 0.5))
            with pytest.raises(ValueError, match="closed-form evaluator"):
                yield_model(spec, system, field, noise)
        mc = ObjectiveSpec(
            0.1, 0.01, ObservableModel.MC, mc_samples=2, evaluator=Evaluator.TDSE
        )
        yield_model(mc, system, field, noise)

    def test_analytic_observable_refuses_frequency_noise(self):
        system, field = setup_problem()
        sigma = field.envelope.sigma
        spec = ObjectiveSpec(0.1, 1e-3)
        for noise in (
            NoiseSpec.frequency_gaussian((1.0, 1.0), sigma),
            NoiseSpec((ComponentNoise(), ComponentNoise(frequency=UniformNoise(0.1)))),
        ):
            with pytest.raises(ValueError, match="use mc"):
                optimize_amplitudes(spec, system, field, noise, init=(0.5, 0.5))
            with pytest.raises(ValueError, match="use mc"):
                yield_model(spec, system, field, noise)
        # phase noise leaves |S| unchanged, so the analytic model still applies
        amps = np.array([0.5, 0.5])
        phased = yield_model(spec, system, field, NoiseSpec.phase_uniform((0.3, 0.3)))
        assert phased(amps) == yield_model(spec, system, field, NoiseSpec.quiet(2))(amps)

    def test_coupling_magnitude(self):
        system, field = setup_problem()
        assert coupling_magnitude(system, field) == pytest.approx(1.0, rel=1e-12)


class TestOptimalityCondition:
    @pytest.mark.parametrize(
        "amps,variances,expected",
        [
            ((1.0, 1.0), (0.0, 0.0), 0.0),
            ((math.sqrt(0.99), math.sqrt(0.96)), (0.01, 0.04), 0.0),
            ((1.0, 1.0), (0.01, 0.04), 0.03),
        ],
    )
    def test_values(self, amps, variances, expected):
        assert verify_optimality_condition(amps, variances) == pytest.approx(
            expected, abs=1e-12
        )


class TestOptimizeAmplitudes:
    def test_symmetric_problem_returns_equal_amplitudes(self):
        system, field = setup_problem()
        spec = ObjectiveSpec(0.1, 1e-3)
        result = optimize_amplitudes(
            spec, system, field, NoiseSpec.quiet(2), init=(0.5, 0.5)
        )
        assert result.converged
        assert result.amplitudes[0] == pytest.approx(result.amplitudes[1], abs=1e-5)
        assert result.condition_residual < 1e-4

    def test_never_worse_than_init(self):
        system, field = setup_problem()
        spec = ObjectiveSpec(0.1, 1e-3)
        noise = NoiseSpec.quiet(2)
        trace = []
        result = optimize_amplitudes(
            spec, system, field, noise, init=(0.9, 0.2), trace=trace
        )
        assert result.objective <= trace[0][1]

    def test_three_rung_condition_residual(self):
        system = LadderSystem((0.0, 60.0, 174.0, 336.0), (1.0, 1.0, 1.0))
        env = GaussianEnvelope(TAU)
        field = ControlField(
            tuple(
                PulseComponent(0.5, 0.0, w) for w in transition_frequencies(system)
            ),
            env,
        )
        variances = (0.005, 0.02, 0.01)
        noise = NoiseSpec.amplitude_uniform(
            tuple(math.sqrt(3 * v) for v in variances)
        )
        result = optimize_amplitudes(
            ObjectiveSpec(0.05, 1e-3), system, field, noise, init=(0.5, 0.5, 0.5)
        )
        assert result.converged
        assert result.condition_residual < 1e-4

    def test_unequal_variances_against_grid_search(self):
        system, field = setup_problem()
        variances = (0.01, 0.04)
        noise = NoiseSpec.amplitude_uniform(tuple(math.sqrt(3 * v) for v in variances))
        spec = ObjectiveSpec(0.1, 1e-3)
        result = optimize_amplitudes(spec, system, field, noise, init=(0.5, 0.5))
        assert result.converged
        assert result.condition_residual < 1e-4
        (g1, g2), _ = grid_search(1.0, variances, 0.1, 1e-3)
        assert result.amplitudes[0] == pytest.approx(g1, abs=1e-3)
        assert result.amplitudes[1] == pytest.approx(g2, abs=1e-3)

    def test_noise_reduces_optimal_fluence(self):
        system, field = setup_problem()
        spec = ObjectiveSpec(0.1, 1e-3)
        fluences = []
        for v in (0.0, 0.01, 0.02, 0.04, 0.08):
            noise = (
                NoiseSpec.quiet(2)
                if v == 0.0
                else NoiseSpec.amplitude_uniform((math.sqrt(3 * v),) * 2)
            )
            result = optimize_amplitudes(spec, system, field, noise, init=(0.5, 0.5))
            fluences.append(sum(a**2 for a in result.amplitudes))
        assert all(b < a + 1e-9 for a, b in zip(fluences, fluences[1:]))
        assert fluences[-1] < fluences[0]

    def test_argmin_invariant_under_consistent_rescaling(self):
        # scaling (coupling^2, O_T, alpha) by (c, c, c^2) leaves the
        # stationarity equations unchanged; emulate the coupling scale by
        # rescaling the dipoles
        c = 3.7
        system, field = setup_problem()
        system_scaled = LadderSystem(
            system.energies, (system.dipoles[0] * c**0.25, system.dipoles[1] * c**0.25)
        )
        noise = NoiseSpec.amplitude_uniform((math.sqrt(3 * 0.02),) * 2)
        base = optimize_amplitudes(
            ObjectiveSpec(0.1, 1e-3), system, field, noise, init=(0.5, 0.5)
        )
        scaled = optimize_amplitudes(
            ObjectiveSpec(0.1 * c, 1e-3 * c**2),
            system_scaled,
            field,
            noise,
            init=(0.5, 0.5),
        )
        assert scaled.amplitudes == pytest.approx(base.amplitudes, abs=1e-6)

    def test_mc_observable_path_is_deterministic(self):
        system, field = setup_problem()
        noise = NoiseSpec.amplitude_uniform((0.1, 0.1))
        spec = ObjectiveSpec(
            0.1, 1e-3, ObservableModel.MC, mc_samples=96, seed=4
        )
        r1 = optimize_amplitudes(
            spec, system, field, noise, init=(0.5, 0.5), max_evals=900
        )
        r2 = optimize_amplitudes(
            spec, system, field, noise, init=(0.5, 0.5), max_evals=900
        )
        assert r1 == r2
        # common random numbers keep the MC optimum near the analytic one
        analytic = optimize_amplitudes(
            ObjectiveSpec(0.1, 1e-3), system, field, noise, init=(0.5, 0.5)
        )
        assert np.allclose(r1.amplitudes, analytic.amplitudes, atol=0.05)

    def test_trace_records_improvements(self):
        system, field = setup_problem()
        trace = []
        optimize_amplitudes(
            ObjectiveSpec(0.1, 1e-3),
            system,
            field,
            NoiseSpec.quiet(2),
            init=(0.5, 0.5),
            trace=trace,
        )
        assert len(trace) > 10
        amps, val = trace[0]
        assert len(amps) == 2 and val >= 0.0

    def test_mc_observable_draws_its_table_once(self, monkeypatch):
        system, field = setup_problem()
        calls = []
        real = optimize_module.draw_offsets
        monkeypatch.setattr(
            optimize_module, "draw_offsets", lambda *a: calls.append(a[1:]) or real(*a)
        )
        spec = ObjectiveSpec(0.1, 1e-3, ObservableModel.MC, mc_samples=16, seed=4)
        trace = []
        optimize_amplitudes(
            spec,
            system,
            field,
            NoiseSpec.amplitude_uniform((0.1, 0.1)),
            init=(0.5, 0.5),
            max_evals=60,
            trace=trace,
        )
        assert len(trace) > 1
        assert calls == [(16, 4)]

    def test_quiet_mc_observable_runs_two_shots_per_evaluation(self, monkeypatch):
        # without noise every shot is the nominal field
        system, field = setup_problem()
        calls = []
        real = noise_module.single_shot
        monkeypatch.setattr(
            noise_module, "single_shot", lambda *a: calls.append(a) or real(*a)
        )
        trace = []
        result = optimize_amplitudes(
            ObjectiveSpec(0.1, 1e-3, ObservableModel.MC),
            system,
            field,
            NoiseSpec.quiet(2),
            init=(0.5, 0.5),
            max_evals=20,
            trace=trace,
        )
        assert len(calls) == 2 * len(trace) == 2 * result.iterations


class TestEvaluationBudget:
    """``max_evals`` caps every objective evaluation of one optimize call."""

    def run(self, max_evals):
        config = load_config(EXAMPLE)
        trace = []
        result = optimize_amplitudes(
            config.run.objective,
            config.system,
            config.field,
            config.noise,
            config.run.init,
            max_evals=max_evals,
            trace=trace,
        )
        return result, trace

    @pytest.mark.parametrize("cap", [3, 4, 10, 30, 100, 300])
    def test_never_exceeds_the_cap(self, cap):
        result, trace = self.run(cap)
        assert len(trace) <= cap
        assert result.iterations == len(trace)
        assert not result.converged

    def test_converged_run_is_unchanged_by_a_cap_it_fits_in(self):
        free, free_trace = self.run(100_000)
        assert free.converged
        capped, capped_trace = self.run(len(free_trace))
        assert capped == free and capped_trace == free_trace

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_cap_below_one_simplex_is_refused(self, cap):
        with pytest.raises(ValueError, match="M \\+ 1 = 3"):
            self.run(cap)

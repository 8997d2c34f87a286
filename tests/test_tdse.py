"""Exact propagator: unitarity, analytic limits, perturbative scaling."""

import math

import pytest

from laddernoise import (
    ControlField,
    GaussianEnvelope,
    IntegrationFailureError,
    LadderSystem,
    PropagationSpec,
    PulseComponent,
    RectangularEnvelope,
    StateCoefficients,
    closed_form_amplitude,
    default_propagation_spec,
    population,
    propagate,
    transition_frequencies,
    transition_yield,
)

TWO_LEVEL = LadderSystem((0.0, 30.0), (1.0,))


def resonant_field(system, amplitude, envelope):
    comps = tuple(
        PulseComponent(amplitude, 0.0, w) for w in transition_frequencies(system)
    )
    return ControlField(comps, envelope)


class TestPropagationSpec:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            PropagationSpec(1.0, 0.0)

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            PropagationSpec(0.0, 1.0, rel_tol=0.5)

    def test_default_spec_covers_envelope(self):
        f = resonant_field(TWO_LEVEL, 0.1, GaussianEnvelope(2.0))
        spec = default_propagation_spec(f)
        assert spec.t_start == -16.0 and spec.t_end == 16.0


class TestFreeEvolution:
    def test_zero_field_keeps_ground_state(self):
        f = resonant_field(TWO_LEVEL, 0.0, RectangularEnvelope(5.0))
        state = propagate(TWO_LEVEL, f)
        assert state.coeffs[0] == 1.0 + 0.0j
        assert state.coeffs[1] == 0.0j


class TestPopulation:
    def test_values(self):
        state = StateCoefficients((1.0 + 0.0j, 0.0j, 0.0j), 0.0)
        assert population(state, 0) == 1.0
        assert population(state, 2) == 0.0
        sup = StateCoefficients((1 / math.sqrt(2), 0.0j, 1 / math.sqrt(2)), 0.0)
        assert population(sup, 2) == pytest.approx(0.5, rel=1e-12)

    def test_index_out_of_range(self):
        state = StateCoefficients((1.0 + 0.0j, 0.0j), 0.0)
        with pytest.raises(ValueError, match="out of range"):
            population(state, 2)


class TestRabi:
    # resonant rectangular drive on a two-level system: the target population
    # follows sin^2(mu A t) up to counter-rotating corrections O(mu A / w)
    def test_pi_over_2_pulse(self):
        T = 20.0
        A = math.pi / (2 * T)
        f = resonant_field(TWO_LEVEL, A, RectangularEnvelope(T))
        y = population(propagate(TWO_LEVEL, f), 1)
        assert y == pytest.approx(1.0, abs=3 * A / 30.0)

    def test_pi_over_4_pulse(self):
        T = 20.0
        A = math.pi / (4 * T)
        f = resonant_field(TWO_LEVEL, A, RectangularEnvelope(T))
        y = population(propagate(TWO_LEVEL, f), 1)
        assert y == pytest.approx(0.5, abs=3 * A / 30.0)


class TestInvariants:
    def test_norm_conservation(self):
        f = resonant_field(TWO_LEVEL, 0.05, GaussianEnvelope(1.0))
        spec = default_propagation_spec(f, rel_tol=1e-10, abs_tol=1e-12)
        state = propagate(TWO_LEVEL, f, spec)
        assert abs(state.norm_squared() - 1.0) < 10 * spec.rel_tol

    def test_tolerance_convergence(self):
        f = resonant_field(TWO_LEVEL, 0.08, GaussianEnvelope(1.0))
        coarse = propagate(
            TWO_LEVEL, f, default_propagation_spec(f, rel_tol=1e-8, abs_tol=1e-11)
        )
        fine = propagate(
            TWO_LEVEL, f, default_propagation_spec(f, rel_tol=5e-9, abs_tol=1e-11)
        )
        yc, yf = population(coarse, 1), population(fine, 1)
        # halving rel_tol moves the answer by less than the coarse error scale
        assert abs(yc - yf) < 10 * 1e-8 * yc + 1e-10

    def test_global_phase_invariance(self):
        shift = 17.3
        sys_a = LadderSystem((0.0, 25.0, 57.0), (1.0, 0.8))
        sys_b = LadderSystem(
            tuple(e + shift for e in sys_a.energies), sys_a.dipoles
        )
        f = resonant_field(sys_a, 0.05, GaussianEnvelope(1.0))
        ya = [population(propagate(sys_a, f), k) for k in range(3)]
        yb = [population(propagate(sys_b, f), k) for k in range(3)]
        assert ya == pytest.approx(yb, abs=1e-10)

    @pytest.mark.parametrize("lam", [0.5, 0.25])
    def test_weak_field_amplitude_scaling(self, lam):
        # leading order gives |c_N|^2 ~ (prod A)^2 = A^(2N)
        system = LadderSystem((0.0, 40.0, 85.0), (1.0, 1.0))
        env = GaussianEnvelope(1.0)
        base = 0.2
        y1 = population(propagate(system, resonant_field(system, base, env)), 2)
        y2 = population(
            propagate(system, resonant_field(system, base * lam, env)), 2
        )
        n = 2
        assert y2 / y1 == pytest.approx(lam ** (2 * n), rel=2 * lam**2)


class TestComponentCountFreedom:
    # the exact propagator takes any number of field components; only the
    # perturbative closed forms need the one-per-transition association
    def test_single_component_on_two_rung_ladder(self):
        system = LadderSystem((0.0, 40.0, 85.0), (1.0, 1.0))
        f = ControlField(
            (PulseComponent(0.05, 0.0, 40.0),), GaussianEnvelope(1.0)
        )
        state = propagate(system, f)
        assert abs(state.norm_squared() - 1.0) < 1e-9
        # the resonant first rung is driven, the second is far off resonance
        assert population(state, 1) > 1e-4
        assert population(state, 2) < population(state, 1)

    def test_three_components_on_two_rung_ladder(self):
        system = LadderSystem((0.0, 40.0, 85.0), (1.0, 1.0))
        comps = (
            PulseComponent(0.03, 0.0, 40.0),
            PulseComponent(0.03, 0.5, 45.0),
            PulseComponent(0.03, 1.0, 52.0),
        )
        state = propagate(system, ControlField(comps, GaussianEnvelope(1.0)))
        assert abs(state.norm_squared() - 1.0) < 1e-9


class TestAgainstPerturbation:
    def test_weak_resonant_n3_matches_closed_form(self):
        # wide ladder spacing suppresses the pathways the closed form omits
        gaps = (90.0, 171.0, 243.0)
        energies = (0.0, gaps[0], gaps[0] + gaps[1], gaps[0] + gaps[1] + gaps[2])
        system = LadderSystem(energies, (1.0, 1.0, 1.0))
        env = GaussianEnvelope(1.0)
        f = resonant_field(system, 0.04, env)
        predicted = transition_yield(closed_form_amplitude(system, f), system, f)
        spec = default_propagation_spec(f, rel_tol=1e-9, abs_tol=1e-14)
        y = population(propagate(system, f, spec), 3)
        assert y == pytest.approx(predicted, rel=0.01)


class TestFailureMode:
    def test_step_underflow_reports_time(self):
        # a coupling so violent that no step above the roundoff floor can
        # meet the tolerance: the controller gives up and reports where it was
        f = resonant_field(TWO_LEVEL, 1e30, RectangularEnvelope(1.0))
        with pytest.raises(IntegrationFailureError) as info:
            propagate(TWO_LEVEL, f, PropagationSpec(0.0, 1.0, 1e-10, 1e-14))
        assert 0.0 <= info.value.t_reached < 1.0

    def test_endpoint_roundoff_is_not_a_failure(self):
        # a window whose length is at the roundoff floor simply returns the
        # initial state instead of raising
        f = resonant_field(TWO_LEVEL, 0.1, RectangularEnvelope(1.0))
        state = propagate(
            TWO_LEVEL, f, PropagationSpec(0.0, 5e-16, rel_tol=1e-10, abs_tol=1e-14)
        )
        assert state.coeffs[0] == 1.0 + 0.0j

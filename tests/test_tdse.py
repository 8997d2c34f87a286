"""Exact propagator: unitarity, analytic limits, perturbative scaling."""

import math

import pytest

import laddernoise.tdse as tdse_module
from laddernoise import (
    ControlField,
    GaussianEnvelope,
    LadderSystem,
    PropagationSpec,
    PulseComponent,
    QuadratureConvergenceError,
    RectangularEnvelope,
    StateCoefficients,
    amplitude_time_quadrature,
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

    def test_only_the_overlap_with_the_support_is_integrated(self):
        # the field vanishes outside the support, so a wider window and one
        # that misses the pulse cost nothing and change nothing
        f = resonant_field(TWO_LEVEL, 0.05, RectangularEnvelope(3.0))
        inside = propagate(TWO_LEVEL, f, PropagationSpec(0.0, 3.0))
        wider = propagate(TWO_LEVEL, f, PropagationSpec(-1.0, 4.0))
        assert wider.coeffs == inside.coeffs and wider.time == 4.0
        missed = propagate(TWO_LEVEL, f, PropagationSpec(3.5, 9.0))
        assert missed.coeffs == (1.0 + 0.0j, 0.0j)


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
        # Gauss collocation conserves the norm to rounding, not to the tolerance
        for system, envelope in [
            (TWO_LEVEL, GaussianEnvelope(1.0)),
            (LadderSystem((0.0, 25.0, 59.0), (1.0, 1.0)), RectangularEnvelope(3.0)),  # acceptance 6
        ]:
            f = resonant_field(system, 0.05, envelope)
            spec = default_propagation_spec(f, rel_tol=1e-10, abs_tol=1e-12)
            state = propagate(system, f, spec)
            assert abs(state.norm_squared() - 1.0) < 1e-13

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

    def test_weak_field_matches_linear_response_n1(self):
        # first order is exactly i mu f(wbar), counter-rotating term included.
        # The Dyson series leaves c_1 - i mu f(wbar) below sinh(x) - x with
        # x = mu int|E| <= 2 mu A tau: 2e-10 of |mu f(wbar)| at A = 1e-5
        env = GaussianEnvelope(1.5)
        system = LadderSystem((0.0, 12.0), (0.8,))
        f = ControlField((PulseComponent(1e-5, 0.7, 11.5),), env)
        spec = default_propagation_spec(f, rel_tol=1e-10, abs_tol=1e-18)
        c1 = propagate(system, f, spec).coeffs[1]
        expected = 1j * 0.8 * f.spectrum(12.0)
        assert c1 == pytest.approx(expected, rel=1e-8)

    def test_weak_field_approaches_rwa_at_wide_spacing(self):
        system = LadderSystem((0.0, 60.0, 174.0), (1.0, 1.0))
        env = GaussianEnvelope(1.0)
        f = resonant_field(system, 0.01, env)
        full = population(propagate(system, f), 2)
        rwa = transition_yield(amplitude_time_quadrature(system, f), system, f)
        # the swapped-pathway admixture enters the amplitude in quadrature
        # (its phase is orthogonal on resonance), so the yield deviates only
        # at second order in sigma / gap.  The higher weak-field orders move
        # the yield by O((2 mu A tau)^2), about 4e-4 here
        assert full / rwa - 1 == pytest.approx(0.0, abs=5 * (env.sigma / 60.0) ** 2)


class TestBlocks:
    def test_panels_are_built_one_block_at_a_time(self, monkeypatch):
        # a propagation at the node cap must not hold all its panels at once
        system = LadderSystem((0.0, 25.0, 59.0), (1.0, 1.0))
        f = resonant_field(system, 0.05, RectangularEnvelope(3.0))
        whole = propagate(system, f)
        built = []
        real = tdse_module._panel_propagators

        def spy(low, half, passes):
            built.append(low.shape[-1])
            return real(low, half, passes)

        monkeypatch.setattr(tdse_module, "_BLOCK_PANELS", 4)
        monkeypatch.setattr(tdse_module, "_panel_propagators", spy)
        blocked = propagate(system, f)
        assert max(built) == 4 and sum(built) > 8
        assert blocked.coeffs == pytest.approx(whole.coeffs, abs=1e-15)


class TestFailureMode:
    def test_step_underflow_reports_time(self, monkeypatch):
        # a coupling so violent that the first panel count that contracts is
        # already past the node cap: the propagator gives up before any panel
        def no_panel(*args):
            raise AssertionError("a panel was built")

        monkeypatch.setattr(tdse_module, "_panel_propagators", no_panel)
        f = resonant_field(TWO_LEVEL, 1e30, RectangularEnvelope(1.0))
        with pytest.raises(QuadratureConvergenceError):
            propagate(TWO_LEVEL, f, PropagationSpec(0.0, 1.0, 1e-10, 1e-14))

    def test_endpoint_roundoff_is_not_a_failure(self):
        # a window whose length is at the roundoff floor returns the initial
        # state, up to its second-order change, instead of raising
        f = resonant_field(TWO_LEVEL, 0.1, RectangularEnvelope(1.0))
        state = propagate(
            TWO_LEVEL, f, PropagationSpec(0.0, 5e-16, rel_tol=1e-10, abs_tol=1e-14)
        )
        assert abs(state.coeffs[0] - 1.0) <= 1e-15

"""Exact propagator: unitarity, analytic limits, perturbative scaling."""

import math

import numpy as np
import pytest

import laddernoise.quadrature as quadrature_module
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
ACCEPTANCE_6 = LadderSystem((0.0, 25.0, 59.0), (1.0, 1.0))
GAUSSIAN_2 = LadderSystem((0.0, 60.0, 174.0), (1.0, 1.0))
GAUSSIAN_3 = LadderSystem((0.0, 90.0, 261.0, 504.0), (1.0, 1.0, 1.0))


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

        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", 4)
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


def kernel_calls(system, field, spec=None, full_ladder=False):
    """The (low, half, passes) of every panel kernel call of one propagation,
    and its coefficients.

    ``full_ladder`` starts at the start rule's panel count, with no level
    skipped by the a-priori error estimate.
    """
    calls = []
    real = tdse_module._panel_propagators

    def spy(low, half, passes):
        calls.append((low, half, passes))
        return real(low, half, passes)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(tdse_module, "_panel_propagators", spy)
        if full_ladder:
            monkeypatch.setattr(tdse_module, "_DEFECT_GAIN", 0.0)
        coeffs = propagate(system, field, spec).coeffs
    return calls, coeffs


def dense_propagators(low, half):
    """Each panel's propagator from a dense solve of (I - h S (x) A) Y = I."""
    _, w, matrix = quadrature_module._panel_rule()
    rungs, nodes, panels = low.shape
    levels = rungs + 1
    a = np.zeros((panels, nodes, levels, levels), complex)
    for r in range(rungs):
        a[:, :, r + 1, r] = low[r].T
        a[:, :, r, r + 1] = -low[r].T.conj()
    # block (j, m) of the collocation system is delta_jm I - h S[j, m] A_m
    blocks = -half * matrix[None, :, None, :, None] * a[:, None].transpose(0, 1, 3, 2, 4)
    system = blocks.reshape(panels, nodes * levels, nodes * levels)
    system += np.eye(nodes * levels)
    rhs = np.tile(np.eye(levels), (nodes, 1))
    y = np.linalg.solve(system, rhs).reshape(panels, nodes, levels, levels)
    u = np.eye(levels) + half * np.einsum("j,pjab,pjbc->pac", w, a, y)
    return np.moveaxis(u, 0, -1)


def parent_kernel(low, half, passes):
    """Reference Picard kernel on the (node, row, column, panel) layout."""
    _, w, matrix = quadrature_module._panel_rule()
    low = np.moveaxis(low, 0, 1)
    nodes, rungs, panels = low.shape
    levels = rungs + 1
    low = low[:, :, None]
    high = -low.conj()
    y = np.zeros((nodes, levels, levels, panels), complex)
    y_flat = y.reshape(nodes, -1).view(np.float64)
    diagonal = y.reshape(nodes, levels * levels, panels)[:, :: levels + 1]
    diagonal += 1.0
    ay = np.empty_like(y)
    ay_flat = ay.reshape(nodes, -1).view(np.float64)
    for k in range(passes + 1):
        np.multiply(low, y[:, :-1], out=ay[:, 1:])
        ay[:, 0] = 0.0
        ay[:, :-1] += high * y[:, 1:]
        if k < passes:
            np.matmul(half * matrix, ay_flat, out=y_flat)
            diagonal += 1.0
    u = (half * w @ ay_flat).view(np.complex128).reshape(levels, levels, panels)
    u.reshape(levels * levels, panels)[:: levels + 1] += 1.0
    return u


def relative_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestPicardKernel:
    @pytest.fixture(scope="class")
    def calls(self):
        # the two levels of acceptance test 6, the 9-panel level its start rule
        # proposes and the a-priori estimate skips, and the start level of the
        # three-rung Gaussian, as propagate builds them
        rect = resonant_field(ACCEPTANCE_6, 0.05, RectangularEnvelope(3.0))
        gauss = resonant_field(GAUSSIAN_3, 0.04, GaussianEnvelope(1.0))
        spec = PropagationSpec(0.0, 3.0, 1e-10, 1e-13)
        acceptance, _ = kernel_calls(ACCEPTANCE_6, rect, spec)
        assert [low.shape[-1] for low, _, _ in acceptance] == [18, 36]
        skipped = kernel_calls(ACCEPTANCE_6, rect, spec, full_ladder=True)[0][:1]
        assert skipped[0][0].shape[-1] == 9
        return acceptance + skipped + kernel_calls(GAUSSIAN_3, gauss)[0][:1]

    def test_matches_dense_collocation_solve(self, calls):
        for low, half, passes in calls:
            u = tdse_module._panel_propagators(low, half, passes)
            assert relative_gap(u, dense_propagators(low, half)) <= 1e-14

    def test_matches_parent_layout_at_equal_passes(self, calls):
        for low, half, passes in calls:
            u = tdse_module._panel_propagators(low, half, passes)
            assert relative_gap(u, parent_kernel(low, half, passes)) <= 1e-15

    @staticmethod
    def power_bound(q, passes):
        # (h a)^(k+1) || |S|^(k+1) ||_inf with h a = q / ||S||_inf
        magnitude = np.abs(quadrature_module._panel_rule()[2])
        power = np.linalg.matrix_power(magnitude, passes + 1)
        return (q / magnitude.sum(axis=1).max()) ** (passes + 1) * power.sum(axis=1).max()

    @pytest.mark.parametrize("q", [1e-20, 1e-9, 1e-4, 0.01, 0.07, 0.2, 0.33, 0.49, 0.5])
    def test_pass_count_is_the_fewest_that_meets_the_bound(self, q):
        passes = tdse_module._picard_passes(q)
        eps = tdse_module._PICARD_EPS
        assert self.power_bound(q, passes) <= eps
        assert passes == 0 or self.power_bound(q, passes - 1) > eps

    def test_pass_count_never_exceeds_the_geometric_count(self):
        eps = tdse_module._PICARD_EPS
        for q in np.geomspace(1e-18, 0.5, 400):
            geometric = math.ceil(math.log(eps) / math.log(q)) - 1
            assert tdse_module._picard_passes(q) <= geometric


# (system, amplitude, envelope) of resonant fields; the first three are
# phase-limited (the start rule's panel count comes from 4 nodes per period of
# the fastest phase), the last two contraction-limited
START_SYSTEMS = {
    "acceptance-6": (ACCEPTANCE_6, 0.05, RectangularEnvelope(3.0)),
    "gauss-60-114": (GAUSSIAN_2, 0.05, GaussianEnvelope(1.0)),
    "gauss-90-171-243": (GAUSSIAN_3, 0.04, GaussianEnvelope(1.0)),
    "rect-strong": (ACCEPTANCE_6, 0.5, RectangularEnvelope(3.0)),
    "two-level": (LadderSystem((0.0, 5.0), (1.0,)), 0.3, RectangularEnvelope(3.0)),
}


def levels_and_coeffs(name, spec_tols=None, full_ladder=False):
    system, amplitude, envelope = START_SYSTEMS[name]
    f = resonant_field(system, amplitude, envelope)
    spec = default_propagation_spec(f, *(spec_tols or ()))
    calls, coeffs = kernel_calls(system, f, spec, full_ladder)
    # every level here fits in one block, so one kernel call per level
    return len(calls), coeffs


class TestStartLevel:
    """The a-priori error estimate only skips levels whose comparison fails."""

    @pytest.mark.parametrize("rel_tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("name", START_SYSTEMS)
    def test_accepted_level_is_unchanged(self, name, rel_tol):
        tols = (rel_tol, rel_tol / 100)
        levels, coeffs = levels_and_coeffs(name, tols)
        full_levels, full_coeffs = levels_and_coeffs(name, tols, full_ladder=True)
        assert coeffs == full_coeffs
        assert levels <= full_levels

    @pytest.mark.parametrize("name", ["acceptance-6", "gauss-60-114", "gauss-90-171-243"])
    def test_default_tolerances_skip_one_level_when_phase_limited(self, name):
        levels, _ = levels_and_coeffs(name)
        full_levels, _ = levels_and_coeffs(name, full_ladder=True)
        assert levels == full_levels - 1

    def test_estimate_keeps_two_levels_under_the_node_cap(self):
        # a start whose doubling would leave a single level under the cap is kept
        cap = quadrature_module._MAX_NODES // quadrature_module._PANEL_NODES
        spec = PropagationSpec(0.0, 1.0, 1e-12, 1e-14)
        levels = quadrature_module._panel_levels(16.0 * cap / 2)
        assert tdse_module._start_levels(levels, 1e9, 2, 1.0, spec) == [cap // 2, cap]

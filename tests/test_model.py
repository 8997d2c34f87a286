"""System, field, and envelope value types."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laddernoise import (
    ControlField,
    Detunings,
    GaussianEnvelope,
    GaussianNoise,
    LadderSystem,
    PulseComponent,
    RectangularEnvelope,
    UniformNoise,
    detunings_for,
    transition_frequencies,
)


def make_field(amplitudes, frequencies, envelope, phases=None):
    phases = phases or [0.0] * len(amplitudes)
    comps = tuple(
        PulseComponent(a, p, w) for a, p, w in zip(amplitudes, phases, frequencies)
    )
    return ControlField(comps, envelope)


class TestLadderSystem:
    @pytest.mark.parametrize(
        "energies,expected",
        [
            ((0, 1, 2), (1, 1)),
            ((0, 1.0, 1.9, 2.7), (1.0, 0.9, 0.8)),
            ((0, 5), (5,)),
        ],
    )
    def test_transition_frequencies(self, energies, expected):
        system = LadderSystem(energies, (1.0,) * (len(energies) - 1))
        assert transition_frequencies(system) == pytest.approx(expected)

    def test_rejects_non_increasing_energies(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            LadderSystem((0, 2, 1), (1, 1))

    def test_rejects_zero_dipole(self):
        with pytest.raises(ValueError, match="nonzero"):
            LadderSystem((0, 1, 2), (1, 0))

    def test_rejects_wrong_dipole_count(self):
        with pytest.raises(ValueError, match="one dipole per"):
            LadderSystem((0, 1, 2), (1,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda v: LadderSystem((0.0, v, 3.0), (1.0, 1.0)), "energies must be finite"),
            (lambda v: LadderSystem((v, 1.0, 3.0), (1.0, 1.0)), "energies must be finite"),
            (lambda v: LadderSystem((0.0, 1.0, 3.0), (1.0, v)), "dipoles must be finite"),
        ],
        ids=["middle-energy", "ground-energy", "dipole"],
    )
    def test_rejects_non_finite_values(self, build, value, message):
        # a NaN passes the ordering test, and closed_form_amplitude then
        # failed deep inside with "cannot convert float NaN to integer"
        with pytest.raises(ValueError, match=message):
            build(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize(
    "build",
    [
        UniformNoise,
        GaussianNoise,
        GaussianEnvelope,
        RectangularEnvelope,
        lambda v: PulseComponent(1.0, v, 1.0),
        lambda v: PulseComponent(1.0, 0.0, v),
    ],
    ids=["uniform-width", "gaussian-std", "tau", "duration", "phase", "frequency"],
)
def test_non_finite_parameter_is_refused(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)


class TestEnvelopes:
    def test_gaussian_construction_identities(self):
        env = GaussianEnvelope(2.5)
        assert env.value(0.0) == 1.0
        assert complex(env.spectrum(0.0)) == pytest.approx(2.5, rel=1e-12)
        assert env.sigma * env.tau == pytest.approx(2 * math.sqrt(math.pi), abs=0)

    def test_gaussian_spectrum_of_a_huge_width(self):
        # sigma^2 underflows to 0 here, so the exponent must not divide by it
        assert GaussianEnvelope(1e300).spectrum(-0.0) == 1e300

    def test_gaussian_area_equals_effective_duration(self):
        # quadrature of s(t) over the truncated support reproduces S(0)
        env = GaussianEnvelope(1.7)
        assert env.support() == (-8 * env.tau, 8 * env.tau)
        t = np.linspace(*env.support(), 200001)
        area = np.trapezoid(env.value(t), t)
        assert area == pytest.approx(env.effective_duration, rel=1e-10)

    def test_rectangular_spectrum_magnitude_and_zeros(self):
        env = RectangularEnvelope(3.0)
        assert complex(env.spectrum(0.0)) == pytest.approx(3.0, rel=1e-12)
        omega = np.linspace(0.05, 12.0, 400)
        expected = np.abs(2 * np.sin(omega * 3.0 / 2) / omega)
        assert [abs(env.spectrum(w)) for w in omega] == pytest.approx(expected, rel=1e-12)
        for k in (1, 2, 3):
            zero = 2 * k * math.pi / 3.0
            assert abs(env.spectrum(zero)) < 1e-12

    def test_rectangular_support(self):
        env = RectangularEnvelope(1.0)
        assert env.value(2.0) == 0.0
        assert env.value(0.5) == 1.0


class TestControlField:
    def test_field_value_peak(self):
        # s(0) = 1 and cos(0) = 1 make E(0) = 2A
        env = GaussianEnvelope(math.sqrt(math.pi))
        f = make_field([1.0], [1.0], env)
        assert f.value(0.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_amplitudes_zero_field(self):
        env = GaussianEnvelope(1.0)
        f = make_field([0.0, 0.0], [3.0, 5.0], env)
        for t in (-1.0, 0.0, 0.3, 2.0):
            assert f.value(t) == 0.0

    def test_outside_rect_support(self):
        f = make_field([1.0], [4.0], RectangularEnvelope(1.0))
        assert f.value(2.0) == 0.0

    def test_spectrum_peak_value(self):
        env = GaussianEnvelope(1.0)
        f = make_field([0.7], [5 * env.sigma], env)
        # at the carrier, S(0) dominates and the mirror term is negligible
        assert f.spectrum(5 * env.sigma) == pytest.approx(
            0.7 * env.tau, rel=1e-10
        )

    def test_spectrum_vanishes_for_zero_amplitudes(self):
        env = GaussianEnvelope(1.0)
        f = make_field([0.0, 0.0], [3.0, 7.0], env)
        for omega in (-4.0, 0.0, 3.0, 11.0):
            assert f.spectrum(omega) == 0.0

    @pytest.mark.parametrize("omega", [0.7, -2.3, 11.0])
    def test_spectrum_hermitian_symmetry(self, omega):
        env = GaussianEnvelope(1.3)
        f = make_field(
            [0.5, 1.1], [2.0, 3.7], env, phases=[0.4, -1.2]
        )
        assert f.spectrum(-omega) == pytest.approx(
            np.conj(f.spectrum(omega)), rel=1e-12, abs=1e-300
        )

    def test_field_is_real_from_analytic_signal(self):
        # reconstruct E from its positive/negative spectrum split: the
        # imaginary part of sum_l A_l e^{-i(w t + theta)} s + c.c. vanishes
        env = RectangularEnvelope(2.0)
        f = make_field([1.0, 0.3], [4.0, 9.0], env, phases=[0.2, 1.9])
        t = np.linspace(-0.5, 2.5, 501)
        analytic = sum(
            c.amplitude * np.exp(-1j * (c.frequency * t + c.phase))
            for c in f.components
        )
        rebuilt = env.value(t) * (analytic + np.conj(analytic))
        assert np.max(np.abs(rebuilt.imag)) < 1e-12
        assert f.value(t) == pytest.approx(rebuilt.real, rel=1e-12, abs=1e-14)


class TestDetunings:
    def test_from_field(self):
        system = LadderSystem((0, 1.0, 1.9), (1, 1))
        f = make_field([1, 1], [1.05, 0.85], GaussianEnvelope(1.0))
        det = detunings_for(system, f)
        assert det.deltas == pytest.approx((0.05, -0.05))
        assert det.cumulants == pytest.approx((0.05, 0.0), abs=1e-15)

    def test_component_count_mismatch(self):
        system = LadderSystem((0, 1.0, 1.9), (1, 1))
        f = make_field([1], [1.0], GaussianEnvelope(1.0))
        with pytest.raises(ValueError, match="M = N"):
            detunings_for(system, f)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_cumulant_round_trip(self, deltas):
        det = Detunings(deltas)
        # forward identity: cumulants recomputable from the deltas
        recomputed = np.cumsum(det.deltas)
        assert np.max(np.abs(recomputed - np.asarray(det.cumulants))) < 1e-14
        # reverse: differencing the cumulants recovers the deltas
        rebuilt = np.diff(np.concatenate([[0.0], det.cumulants]))
        assert np.max(np.abs(rebuilt - np.asarray(det.deltas))) < 1e-12

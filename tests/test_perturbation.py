"""Closed forms and time-ordered quadrature for the transition amplitude."""

import math
import tracemalloc

import numpy as np
import pytest

from laddernoise import (
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
    _delay_integral,
    _paired_delay_grid,
    _truncation_radius,
)
from laddernoise.quadrature import _PANEL_NODES, _gauss_legendre, _panel_rule

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


class TestGaussLegendre:
    """The one Gauss-Legendre generator, Newton on the three-term recurrence."""

    @pytest.mark.parametrize("n", [16, 64])
    def test_exact_on_polynomials_up_to_degree_2n_minus_1(self, n):
        x, w = _gauss_legendre(n)
        for degree in range(2 * n):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            assert abs(w @ x**degree - exact) <= 1e-14, degree

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 64, 127, 128])
    def test_nodes_match_leggauss(self, n):
        x, w = _gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        # leggauss's own weights drift by about 1e-11 relative at 128 nodes
        assert np.max(np.abs(w / ref_w - 1.0)) <= 1e-10

    @pytest.mark.parametrize("n", [2048, 4096])
    def test_oscillatory_integral_at_large_node_counts(self, n):
        # leggauss is off by 1.5e-13 and 2.6e-13 here
        x, w = _gauss_legendre(n)
        assert abs(w @ np.cos(5.0 * x) - 2.0 * math.sin(5.0) / 5.0) <= 1e-14

    def test_panel_rule_uses_it(self):
        x, w, _ = _panel_rule()
        gx, gw = _gauss_legendre(_PANEL_NODES)
        assert np.array_equal(x, gx) and np.array_equal(w, gw)


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


def reference_panel_integral(env, deltas, panels):
    """The panel loop with a fresh grid, phase vector and antiderivative for every leg."""
    x, w, matrix = _panel_rule()
    t0, t1 = env.support()
    half = (t1 - t0) / (2 * panels)
    t = half * x[:, None] + (t0 + half * (2 * np.arange(panels) + 1))
    s = env.value(t)
    running = 1.0
    for d in deltas:
        g = (s * np.exp(-1j * d * t) * running).view(np.float64)
        totals = (w @ g).view(np.complex128) * half
        carry = np.cumsum(totals) - totals
        running = (matrix @ g).view(np.complex128) * half + carry
    return complex(carry[-1] + totals[-1])


# one to four legs with equal, distinct and partly repeated detunings
PANEL_DELTAS = [
    (0.7,),
    (1.3, 1.3),
    (0.4, -1.1),
    (2.2, 2.2, 2.2),
    (0.4, -1.1, 2.5),
    (0.9, -0.6, 0.9),
    (-1.2, -1.2, -1.2, -1.2),
    (0.9, 0.9, -0.6, 0.9),
    (1.5, -0.3, 2.0, -2.5),
]


ENVELOPES = [GaussianEnvelope(1.3), RectangularEnvelope(2.5)]


class TestPanelIntegral:
    @pytest.mark.parametrize("panels", [1, 3, 12, 40])
    @pytest.mark.parametrize("deltas", PANEL_DELTAS, ids=str)
    @pytest.mark.parametrize("env", ENVELOPES, ids=repr)
    def test_matches_reference_loop(self, monkeypatch, env, deltas, panels):
        expected = reference_panel_integral(env, deltas, panels)
        # the first call may build the grid, the second finds it cached; the
        # factorised phases and pre-scaled samples round apart from the loop
        (first,) = perturbation_module._panel_integral(env, deltas, (panels,))
        assert first == pytest.approx(expected, rel=1e-13)
        assert perturbation_module._panel_integral(env, deltas, (panels,)) == (first,)
        # and a grid swept in blocks of two panels carries each leg across them
        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", 2)
        (blocked,) = perturbation_module._panel_integral(env, deltas, (panels,))
        assert blocked == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("block", [None, 2, 8])
    @pytest.mark.parametrize("panels", [1, 3, 12, 40])
    @pytest.mark.parametrize("deltas", PANEL_DELTAS, ids=str)
    @pytest.mark.parametrize("env", ENVELOPES, ids=repr)
    def test_pair_matches_each_count_alone(self, monkeypatch, env, deltas, panels, block):
        if block is not None:
            monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", block)
        alone = [perturbation_module._panel_integral(env, deltas, (p,))[0]
                 for p in (panels, 2 * panels)]
        # a batch's column count picks the BLAS kernel, so only round-off may differ
        pair = perturbation_module._panel_integral(env, deltas, (panels, 2 * panels))
        assert pair == pytest.approx(alone, rel=1e-13)

    @pytest.mark.parametrize(
        "counts,block,batches",
        [
            ((12, 24), 4096, [((0, 12, 0, 12), (1, 24, 0, 24))]),
            ((3, 6), 4, [((0, 3, 0, 3),), ((1, 6, 0, 4),), ((1, 6, 4, 6),)]),
            ((1, 2), 3, [((0, 1, 0, 1), (1, 2, 0, 2))]),
            ((5,), 2, [((0, 5, 0, 2),), ((0, 5, 2, 4),), ((0, 5, 4, 5),)]),
            ((3, 6), 5, [((0, 3, 0, 3),), ((1, 6, 0, 5),), ((1, 6, 5, 6),)]),
            ((2, 4), 3, [((0, 2, 0, 2),), ((1, 4, 0, 3),), ((1, 4, 3, 4),)]),
            ((1, 2), 8, [((0, 1, 0, 1), (1, 2, 0, 2))]),
        ],
    )
    def test_batches_pack_blocks_end_to_end(self, monkeypatch, counts, block, batches):
        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", block)
        assert quadrature_module._panel_batches(counts) == batches

    @pytest.mark.parametrize("panels", [1, 40])
    @pytest.mark.parametrize("deltas", [(1.0, -1.0), (-1.0, -1.0, -1.0)], ids=str)
    @pytest.mark.parametrize(
        "env,scale", [(GaussianEnvelope(1.0), 40.0), (RectangularEnvelope(2.5), 100.0)], ids=repr
    )
    def test_factorised_phases_hold_at_large_phase(self, env, scale, deltas, panels):
        # |delta t| reaches 250 to 320 here.  A lone far-detuned leg is left
        # out: its value is all cancellation, so it would compare round-off
        # with round-off
        deltas = tuple(scale * d for d in deltas)
        (value,) = perturbation_module._panel_integral(env, deltas, (panels,))
        assert value == pytest.approx(reference_panel_integral(env, deltas, panels), rel=1e-12)

    def test_batch_plan_follows_the_block_size(self, monkeypatch):
        env, deltas, counts = GaussianEnvelope(1.3), (0.4, -1.1, 2.5), (12, 24)
        unpatched = perturbation_module._panel_integral(env, deltas, counts)
        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", 2)
        swept = []
        real = perturbation_module._panel_batch

        def spy(env, batch):
            swept.append(batch)
            return real(env, batch)

        monkeypatch.setattr(perturbation_module, "_panel_batch", spy)
        patched = perturbation_module._panel_integral(env, deltas, counts)
        assert swept == quadrature_module._panel_batches(counts)
        # 6 + 12 blocks of two panels, each its own batch
        assert len(swept) == 18
        assert patched == pytest.approx(unpatched, rel=1e-13)

    def test_cached_grids_are_read_only(self, monkeypatch):
        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", 8)
        for batch in quadrature_module._panel_batches((6, 12)):
            sh, times, block = perturbation_module._panel_batch(GaussianEnvelope(0.8), batch)
            size = sum(stop - first for _, _, first, stop in batch)
            assert sh.shape == (_PANEL_NODES, size)
            assert times.shape == (_PANEL_NODES * len(batch) + size,)
            assert block.shape == (size,)
            for a in (sh, times, block):
                with pytest.raises(ValueError, match="read-only"):
                    a[(0,) * a.ndim] = 1

    def test_cache_is_bounded(self, monkeypatch):
        cached = perturbation_module._panel_batch
        assert cached.cache_info().maxsize == perturbation_module._CACHED_BATCHES
        # every kept batch is 16 scaled samples, a midpoint and a block index
        # per panel, and 16 node offsets per block
        bound = (perturbation_module._CACHED_BATCHES * (_PANEL_NODES + 2)
                 * quadrature_module._BLOCK_PANELS * np.dtype(float).itemsize)
        assert bound <= 2 * 2**20
        arrays = cached(GaussianEnvelope(1.0), ((0, 12, 0, 12), (1, 24, 0, 24)))
        assert sum(a.nbytes for a in arrays) == ((_PANEL_NODES + 2) * 36 + _PANEL_NODES * 2) * 8
        for k in range(3 * perturbation_module._CACHED_BATCHES):
            perturbation_module._panel_integral(GaussianEnvelope(1.0 + k), (0.5, 0.5), (4, 8))
        assert cached.cache_info().currsize == perturbation_module._CACHED_BATCHES
        # a grid of many blocks passes through the cache one batch at a time
        monkeypatch.setattr(quadrature_module, "_BLOCK_PANELS", 2)
        before = cached.cache_info()
        perturbation_module._panel_integral(GaussianEnvelope(0.7), (0.5, 0.5), (20,))
        after = cached.cache_info()
        assert after.misses - before.misses == 10
        assert after.currsize == perturbation_module._CACHED_BATCHES


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

    @pytest.mark.parametrize("values,stop", [
        ((1.0, 2.0, 2.0, 9.0), 3),  # agrees at the third level
        ((1.0, 1.0, 5.0), 2),  # at the second, from the first call alone
        ((1.0, 2.0, 3.0, 4.0), 4),  # never: the ladder runs out
    ])
    def test_first_two_levels_come_in_one_call(self, values, stop):
        calls = []

        def evaluate(levels):
            calls.append(levels)
            return tuple(values[level] for level in levels)

        levels = list(range(len(values)))
        try:
            got = quadrature_module._refine(levels, evaluate, 1e-12, 0.0, "test")
        except QuadratureConvergenceError as err:
            assert stop == len(values)
            assert err.achieved == 1.0
        else:
            assert got == values[stop - 1]
        assert calls == [(0, 1)] + [(level,) for level in range(2, stop)]

    @pytest.mark.parametrize("levels", [[], [7], (7,)])
    def test_fewer_than_two_levels_never_evaluate(self, levels):
        def evaluate(levels):
            raise AssertionError("evaluated")

        with pytest.raises(QuadratureConvergenceError) as info:
            quadrature_module._refine(levels, evaluate, 1e-9, 0.0, "test")
        assert info.value.achieved == math.inf


class TestGaussianClosedForm:
    def test_resonant_reduction(self):
        env = GaussianEnvelope(1.0)
        for n in (2, 3, 4):
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

    @pytest.mark.parametrize(
        "scaled_deltas",
        [(0.3, -0.1, 0.2, 0.05), (0.9, -0.6, 1.0, -0.4), (2.6, -1.9, 0.7, -2.8)],
        ids=["small", "1sigma", "3sigma"],
    )
    def test_n4_matches_time_quadrature(self, scaled_deltas):
        # ladder() stops at three gaps, so four rungs need their own system
        env = GaussianEnvelope(1.0)
        deltas = tuple(d * env.sigma for d in scaled_deltas)
        system = LadderSystem((0, 80, 170, 272, 386), (1.0,) * 4)
        f = detuned_field(system, deltas, env)
        closed = scaled_amplitude_gaussian(Detunings(deltas), env)
        quad = amplitude_time_quadrature(system, f).scaled
        assert closed == pytest.approx(quad, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 5])
    def test_rejects_n_out_of_range(self, n):
        env = GaussianEnvelope(1.0)
        with pytest.raises(ValueError, match=r"2\.\.4"):
            scaled_amplitude_gaussian(Detunings((0.1,) * n), env)

    def test_rejects_rectangular_envelope(self):
        with pytest.raises(TypeError, match="Gaussian"):
            scaled_amplitude_gaussian(
                Detunings((0.1, 0.2)), RectangularEnvelope(1.0)
            )

    def test_fast_oscillation_falls_back_to_time_quadrature(self):
        # oscillation rate |D_1| / (N sigma) = 15, past the bound of 10
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        f = detuned_field(system, (15 * env.sigma, -15 * env.sigma), env)
        amp = closed_form_amplitude(system, f, tol=1e-7)
        assert amp.method is AmplitudeMethod.TIME_QUADRATURE
        assert amp == amplitude_time_quadrature(system, f, tol=1e-7)

    def test_delay_ladder_that_runs_out_falls_back_to_time_quadrature(self, monkeypatch):
        monkeypatch.setitem(_NODE_LADDERS, 2, (64,))
        env = GaussianEnvelope(1.0)
        system = ladder(2)
        f = detuned_field(system, (0.4 * env.sigma, -0.1 * env.sigma), env)
        amp = closed_form_amplitude(system, f, tol=1e-7)
        assert amp.method is AmplitudeMethod.TIME_QUADRATURE
        assert amp == amplitude_time_quadrature(system, f, tol=1e-7)


# exact binary fractions, so the zero-frequency case below is exactly zero
DELAY_DELTAS = (0.375, -0.25, 0.5, 0.125, -0.375)


def _delay_deltas(n, zero_frequency):
    """Detunings with every D_k nonzero, or with D_1 = N delta_1 - Delta_N = 0."""
    if not zero_frequency:
        return DELAY_DELTAS[:n]
    others = DELAY_DELTAS[1:n]
    return (sum(others) / (n - 1),) + others


def _direct_tensor_sum(n, nodes, freq):
    """The delay sum over every point of the tensor grid, with no factorisation."""
    x, weighted = _delay_grid(n, nodes)
    grids = np.meshgrid(*([x] * (n - 1)), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    return complex(np.exp(-1j * (pts @ np.asarray(freq))) @ weighted)


def _rate_deltas(n, rate):
    """Detunings of ``n`` rungs whose oscillation rate max_k |D_k| / (N sigma) is ``rate``."""
    base = DELAY_DELTAS[:n]
    sigma = GaussianEnvelope(1.0).sigma
    now = max(abs(f) for f in _delay_frequencies(Detunings(base))) / (n * sigma)
    return tuple(d * rate / now for d in base)


class TestDelayIntegral:
    @pytest.mark.parametrize(
        "n,levels", [(n, ladder[:2]) for n, ladder in _NODE_LADDERS.items()]
    )
    @pytest.mark.parametrize("zero_frequency", [False, True])
    def test_each_level_matches_direct_tensor_sum(self, n, levels, zero_frequency):
        frequencies = _delay_frequencies(Detunings(_delay_deltas(n, zero_frequency)))
        assert (0.0 in frequencies) == zero_frequency
        freq = tuple(f / (n * GaussianEnvelope(1.0).sigma) for f in frequencies)
        paired = _delay_integral(n, levels, freq)
        assert len(paired) == 2
        for nodes, value in zip(levels, paired):
            direct = _direct_tensor_sum(n, nodes, freq)
            assert abs(value - direct) <= 1e-12 * abs(direct)
            (alone,) = _delay_integral(n, (nodes,), freq)
            assert abs(alone - direct) <= 1e-12 * abs(direct)

    @pytest.mark.parametrize(
        "n,levels",
        [(2, (64, 128)), (3, (32, 64)), (3, (64, 128)), (2, (16, 24)), (3, (12, 18))],
    )
    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.5, 5.0, 9.5])
    def test_level_in_a_pair_matches_level_alone(self, n, levels, rate):
        sigma = GaussianEnvelope(1.0).sigma
        frequencies = _delay_frequencies(Detunings(_rate_deltas(n, rate)))
        freq = tuple(f / (n * sigma) for f in frequencies)
        paired = _delay_integral(n, levels, freq)
        for nodes, value in zip(levels, paired):
            (alone,) = _delay_integral(n, (nodes,), freq)
            assert abs(value - alone) <= 1e-13 * abs(alone)

    @pytest.mark.parametrize(
        "n,rate,tol,calls",
        [
            # N = 3 starts at 32 nodes: up to rate 2 it stops at 64 in one
            # call; a faster shot needs the 32-node level for nothing and
            # pays one more call on its way to 128 or 256
            (2, 0.3, 1e-7, [(64, 128)]),
            (2, 5.0, 1e-7, [(64, 128)]),
            (2, 9.5, 1e-7, [(64, 128)]),
            (2, 9.5, 1e-10, [(64, 128), (256,)]),
            (3, 0.3, 1e-7, [(32, 64)]),
            (3, 1.0, 1e-10, [(32, 64)]),
            (3, 2.0, 1e-7, [(32, 64)]),
            (3, 5.0, 1e-7, [(32, 64), (128,)]),
            (3, 9.5, 1e-7, [(32, 64), (128,), (256,)]),
        ],
    )
    def test_refinement_asks_for_first_two_levels_in_one_call(
        self, monkeypatch, n, rate, tol, calls
    ):
        seen = []

        def spy(n, levels, freq):
            seen.append(levels)
            return _delay_integral(n, levels, freq)

        monkeypatch.setattr(perturbation_module, "_delay_integral", spy)
        scaled_amplitude_gaussian(Detunings(_rate_deltas(n, rate)), GaussianEnvelope(1.0), tol=tol)
        assert seen == calls

    @pytest.mark.parametrize("rate", [0.0, 0.3, 1.0, 1.5, 5.0, 9.5])
    def test_three_rungs_converge_to_the_fine_grid_value(self, rate):
        # the 32-node start may stop at 64 nodes: the value it returns must be
        # the one a 512-node grid gives, not merely one the 32-node level agrees with
        env = GaussianEnvelope(1.0)
        det = Detunings(_rate_deltas(3, rate))
        freq = tuple(f / (3 * env.sigma) for f in _delay_frequencies(det))
        prefactor = ((1j) ** 3 * env.tau**3 * math.exp(-det.total**2 / (3 * env.sigma**2))
                     / (4 * math.pi * math.sqrt(3)))
        (fine,) = _delay_integral(3, (512,), freq)
        value = scaled_amplitude_gaussian(det, env, tol=1e-12)
        assert abs(value - prefactor * fine) <= 1e-13 * abs(prefactor * fine)

    @pytest.mark.parametrize("n", sorted(_NODE_LADDERS))
    def test_rate_past_the_bound_raises_before_any_grid(self, monkeypatch, n):
        calls = []

        def converged(n, levels, freq):
            calls.append(levels)
            return (0j,) * len(levels)

        monkeypatch.setattr(perturbation_module, "_delay_integral", converged)
        env = GaussianEnvelope(1.0)
        with pytest.raises(QuadratureConvergenceError, match="oscillation rate"):
            scaled_amplitude_gaussian(Detunings(_rate_deltas(n, 10.5)), env)
        assert calls == []
        # below the bound the delay integral runs
        scaled_amplitude_gaussian(Detunings(_rate_deltas(n, 9.99)), env)
        assert calls == [_NODE_LADDERS[n][:2]]


class TestDelayGrid:
    @pytest.mark.parametrize("n", sorted(_NODE_LADDERS))
    def test_caches_nodes_and_weights_only(self, n):
        nodes = _NODE_LADDERS[n][0]
        # nodes + nodes^(N-1) floats: no point array beside the weights
        cached = _delay_grid(n, nodes)
        assert [a.shape for a in cached] == [(nodes,), (nodes ** (n - 1),)]

    @pytest.mark.parametrize("n,levels", [(2, (64, 128)), (3, (32, 64)), (3, (64, 128))])
    def test_paired_grid_is_read_only_and_block_diagonal(self, n, levels):
        x, weights, starts = _paired_delay_grid(n, levels)
        assert not any(a.flags.writeable for a in (x, weights, starts))
        assert starts.tolist() == [0, levels[0]]
        for lo, nodes in zip(starts, levels):
            own_x, own_w = _delay_grid(n, nodes)
            assert np.array_equal(x[lo:lo + nodes], own_x)
            block = weights[lo:lo + nodes] if n == 2 else weights[lo:lo + nodes, lo:lo + nodes]
            assert np.array_equal(block.ravel(), own_w)
        if n == 3:
            first = levels[0]
            assert not weights[:first, first:].any() and not weights[first:, :first].any()

    def test_paired_grid_is_built_for_the_first_two_levels_only(self, monkeypatch):
        built = []

        def spy(n, levels):
            built.append((n, levels))
            return _paired_delay_grid(n, levels)

        monkeypatch.setattr(perturbation_module, "_paired_delay_grid", spy)
        env = GaussianEnvelope(1.0)
        for n, rate in [(2, 0.3), (2, 9.5), (3, 0.3), (3, 5.0), (3, 9.5), (4, 0.3)]:
            scaled_amplitude_gaussian(Detunings(_rate_deltas(n, rate)), env, tol=1e-10)
        assert built and set(built) <= {(n, _NODE_LADDERS[n][:2]) for n in (2, 3)}

    def test_paired_cache_is_bounded(self):
        # the pair each ladder starts with, the largest N = 3 at 32 + 64
        largest = max(sum(a.nbytes for a in _paired_delay_grid(n, _NODE_LADDERS[n][:2]))
                      for n in (2, 3))
        assert largest <= 96 * 96 * 8 + 96 * 8 + 2 * 8
        assert perturbation_module._CACHED_LEVEL_PAIRS * largest <= 2**20 / 2
        for k in range(8):
            _paired_delay_grid(2, (8 + k, 16 + k))
        info = _paired_delay_grid.cache_info()
        assert info.currsize == info.maxsize == perturbation_module._CACHED_LEVEL_PAIRS

    @pytest.mark.parametrize("nodes", [256, 512])
    def test_lone_level_reuses_the_grid_without_a_copy(self, nodes):
        weighted = _delay_grid(3, nodes)[1]
        freq = (0.4, -0.7)
        _delay_integral(3, (nodes,), freq)
        tracemalloc.start()
        try:
            _delay_integral(3, (nodes,), freq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the phases and their products take a few complex numbers per node;
        # a copy of the weights would take nodes^2 floats
        assert peak < 8 * nodes * 16 < weighted.nbytes / 4


class TestGaussianKernel:
    """Oscillation frequencies and damping form of the Gaussian delay integral."""

    def test_frequencies_vanish_for_equal_detunings(self):
        frequencies = _delay_frequencies(Detunings((0.3,) * 4))
        assert frequencies == pytest.approx((0.0,) * 3, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_damping_form_positive_definite(self, n):
        eigs = np.linalg.eigvalsh(_damping_matrix(n))
        assert np.all(eigs > 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_truncation_radius_uses_the_smallest_eigenvalue(self, n):
        # the radius takes lambda_min = n / (4 cos^2(pi / 2n)) in closed form
        lam_min = float(np.linalg.eigvalsh(_damping_matrix(n))[0])
        closed = 4.0 * n * math.log(1e18) / _truncation_radius(n) ** 2
        assert closed == pytest.approx(lam_min, rel=1e-14)


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

    @pytest.mark.parametrize(
        "deltas",
        [
            (0.1, 0.3, 0.0, -0.2, 0.1, 0.2),
            # five rungs at up to 3 sigma, where a 4-D delay grid runs out of nodes
            tuple(d * GaussianEnvelope(1.0).sigma for d in (-2.83, -2.25, 1.02, 0.88, 0.69)),
        ],
        ids=["six", "five-3sigma"],
    )
    def test_gaussian_beyond_four_rungs_falls_back_to_quadrature(self, monkeypatch, deltas):
        # the Gaussian delay integral covers 2..4 rungs only, and builds no grid beyond
        def no_grid(n, levels, freq):
            raise AssertionError(f"delay grid built for N = {n}")

        monkeypatch.setattr(perturbation_module, "_delay_integral", no_grid)
        energies = (0.0, 60.0, 174.0, 336.0, 536.0, 786.0, 1096.0)[:len(deltas) + 1]
        system = LadderSystem(energies, (1.0,) * len(deltas))
        f = detuned_field(system, deltas, GaussianEnvelope(1.0))
        fallback = closed_form_amplitude(system, f, tol=1e-7)
        assert fallback.method is AmplitudeMethod.TIME_QUADRATURE
        assert fallback == amplitude_time_quadrature(system, f, tol=1e-7)

    @pytest.mark.parametrize(
        "deltas, method",
        [
            ((0.1, 0.3, 0.0, -0.2), AmplitudeMethod.GAUSSIAN_CLOSED_FORM),
            ((0.2,) * 5, AmplitudeMethod.RESONANT_CLOSED_FORM),
        ],
        ids=["four-distinct", "five-equal"],
    )
    def test_gaussian_closed_forms_at_the_rung_range_edge(self, deltas, method):
        # four rungs keep the delay integral; equal detunings keep their closed
        # form at any rung count, five included
        energies = (0.0, 60.0, 174.0, 336.0, 536.0, 786.0)[:len(deltas) + 1]
        system = LadderSystem(energies, (1.0,) * len(deltas))
        f = detuned_field(system, deltas, GaussianEnvelope(1.0))
        amp = closed_form_amplitude(system, f, tol=1e-7)
        assert amp.method is method
        quad = amplitude_time_quadrature(system, f, tol=1e-9)
        assert amp.scaled == pytest.approx(quad.scaled, rel=1e-6)

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

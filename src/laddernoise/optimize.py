"""Fluence-penalized amplitude optimization.

Minimizes J = (Obar - O_target)^2 + alpha * sum_l A_l^2 over the nominal
amplitudes with a derivative-free simplex search.  The search runs in
squared-amplitude coordinates u_l = A_l^2 (projected at zero), which matches
the structure of the weak-field objective: there the averaged yield is
coupling^2 * prod_l (u_l + var_l), and the stationary point has
u_l + var_l constant across components wherever u_l > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .model import ControlField, LadderSystem, fluence
from .noise import (
    Evaluator,
    NoiseSpec,
    Tolerances,
    amplitude_noise_average,
    ensemble_average,
)
from .perturbation import closed_form_amplitude


class ObservableModel(Enum):
    ANALYTIC = "analytic"
    MC = "mc"


@dataclass(frozen=True)
class ObjectiveSpec:
    """Target yield, fluence weight, the averaged-yield model and its shot evaluator."""

    target_yield: float
    fluence_weight: float
    observable: ObservableModel = ObservableModel.ANALYTIC
    mc_samples: int = 2000
    seed: int = 0
    tolerances: Tolerances = Tolerances()
    evaluator: Evaluator = Evaluator.CLOSED_FORM

    def __post_init__(self):
        if not 0.0 < self.target_yield < 1.0:
            raise ValueError("target_yield must lie in (0, 1)")
        if not self.fluence_weight > 0.0:
            raise ValueError("fluence_weight must be positive")
        if self.mc_samples < 2:
            raise ValueError("mc_samples must be at least 2")
        analytic = self.observable is ObservableModel.ANALYTIC
        if analytic and self.evaluator is not Evaluator.CLOSED_FORM:
            # coupling^2 prod_l (A_l^2 + var_l) is the closed-form shot yield averaged
            raise ValueError("observable analytic needs the closed-form evaluator; use mc")


@dataclass(frozen=True)
class OptimizationResult:
    amplitudes: tuple[float, ...]
    objective: float
    iterations: int
    converged: bool
    condition_residual: float


def coupling_magnitude(
    system: LadderSystem, field: ControlField, tol: float = 1e-7
) -> float:
    """|scaled amplitude * prod_k mu_k|, the amplitude-independent yield scale."""
    amp = closed_form_amplitude(system, field, tol=tol)
    prod = 1.0
    for mu in system.dipoles:
        prod *= mu
    return abs(amp.scaled * prod)


def check_observable_noise(observable: ObservableModel, noise: NoiseSpec) -> None:
    """Raise ``ValueError`` if ``observable`` cannot average ``noise``.

    The analytic observable averages amplitude noise only; phase noise leaves
    the yield unchanged, but frequency noise would be ignored.
    """
    if observable is ObservableModel.ANALYTIC and any(
        c.frequency is not None for c in noise.components
    ):
        raise ValueError(
            "observable analytic averages amplitude noise only and would "
            "ignore the frequency noise; use mc"
        )


def yield_model(
    spec: ObjectiveSpec,
    system: LadderSystem,
    field: ControlField,
    noise: NoiseSpec,
) -> Callable[[np.ndarray], float]:
    """Averaged-yield Obar as a function of the nominal amplitude vector.

    The analytic model handles amplitude noise in closed form and raises
    ``ValueError`` for frequency noise, which it cannot average; the MC model
    reruns a fixed-seed ensemble of ``spec.evaluator`` shots per evaluation
    (common random numbers, so the objective stays deterministic).
    """
    check_observable_noise(spec.observable, noise)
    if spec.observable is ObservableModel.ANALYTIC:
        coupling = coupling_magnitude(system, field, spec.tolerances.closed_form_tol)
        variances = noise.amplitude_variances()

        def analytic(amps: np.ndarray) -> float:
            return amplitude_noise_average(coupling, amps, variances)

        return analytic

    def monte_carlo(amps: np.ndarray) -> float:
        shifted = field.with_amplitudes(tuple(float(a) for a in amps))
        stats = ensemble_average(
            system,
            shifted,
            noise,
            spec.evaluator,
            spec.mc_samples,
            spec.seed,
            tolerances=spec.tolerances,
        )
        return stats.mean

    return monte_carlo


def objective(
    amplitudes: Sequence[float],
    spec: ObjectiveSpec,
    system: LadderSystem,
    field: ControlField,
    noise: NoiseSpec,
) -> float:
    """J = (Obar - O_target)^2 + alpha * fluence."""
    model = yield_model(spec, system, field, noise)
    amps = np.asarray(amplitudes, dtype=float)
    return (model(amps) - spec.target_yield) ** 2 + spec.fluence_weight * fluence(
        amps
    )


def verify_optimality_condition(amplitudes, variances) -> float:
    """Spread max_l - min_l of A_l^2 + var_l (zero at a weak-field optimum)."""
    vals = [float(a) ** 2 + float(v) for a, v in zip(amplitudes, variances, strict=True)]
    return max(vals) - min(vals)


# ---------------------------------------------------------------------------
# simplex search
# ---------------------------------------------------------------------------

_REFLECT, _EXPAND, _CONTRACT, _SHRINK = 1.0, 2.0, 0.5, 0.5


def _nelder_mead(f, x0: np.ndarray, step, max_evals: int):
    """Nelder-Mead clamped at zero; returns (x, fx, evals, converged).

    ``step`` gives the absolute initial simplex offset per coordinate
    (scalar or array); trial points are clamped at zero before ``f`` sees them.
    """
    dim = len(x0)
    steps = np.broadcast_to(np.asarray(step, dtype=float), (dim,))
    evals = 0

    def feval(x):
        nonlocal evals
        evals += 1
        return f(np.maximum(x, 0.0))

    simplex = [np.maximum(np.asarray(x0, dtype=float), 0.0)]
    for i in range(dim):
        v = simplex[0].copy()
        v[i] += steps[i]
        simplex.append(v)
    values = [feval(v) for v in simplex]

    while evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        diam = max(
            float(np.max(np.abs(v - simplex[0]))) for v in simplex[1:]
        )
        if diam < 1e-8 and values[-1] - values[0] < 1e-10:
            return simplex[0], values[0], evals, True
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = centroid + _REFLECT * (centroid - worst)
        fr = feval(reflected)
        if fr < values[0]:
            expanded = centroid + _EXPAND * (reflected - centroid)
            fe = feval(expanded)
            if fe < fr:
                simplex[-1], values[-1] = expanded, fe
            else:
                simplex[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = reflected, fr
        else:
            contracted = centroid + _CONTRACT * (worst - centroid)
            fc = feval(contracted)
            if fc < values[-1]:
                simplex[-1], values[-1] = contracted, fc
            else:
                best = simplex[0]
                simplex = [best] + [
                    best + _SHRINK * (v - best) for v in simplex[1:]
                ]
                values = [values[0]] + [feval(v) for v in simplex[1:]]
    return simplex[0], values[0], evals, False


def optimize_amplitudes(
    spec: ObjectiveSpec,
    system: LadderSystem,
    field: ControlField,
    noise: NoiseSpec,
    init: Sequence[float],
    max_evals: int = 100_000,
    trace: list | None = None,
) -> OptimizationResult:
    """Minimize the fluence-penalized objective over nominal amplitudes.

    Runs the projected simplex search from the initial amplitudes and from
    scaled copies of them, keeping the best converged point; exact objective
    ties are broken toward the lexicographically smallest amplitude vector so
    symmetric problems return a reproducible answer.
    """
    model = yield_model(spec, system, field, noise)

    def f_u(u: np.ndarray) -> float:
        amps = np.sqrt(np.maximum(u, 0.0))
        val = (model(amps) - spec.target_yield) ** 2
        val += spec.fluence_weight * float(np.sum(np.maximum(u, 0.0)))
        if trace is not None:
            trace.append((tuple(float(a) for a in amps), val))
        return val

    u_init = np.square(np.asarray(init, dtype=float))
    starts = [u_init, 0.25 * u_init, 2.25 * u_init]
    budget = max_evals // len(starts)
    best = None
    total_evals = 0
    for u0 in starts:
        coarse = 0.25 * np.maximum(np.abs(u0), 0.1)
        x, _, used, ok = _nelder_mead(f_u, u0, step=coarse, max_evals=budget)
        # polish with a tighter simplex around the found point (never worsens)
        fine = 0.01 * np.maximum(np.abs(x), 0.1)
        x, fx, used2, ok2 = _nelder_mead(f_u, x, step=fine, max_evals=budget // 2)
        total_evals += used + used2
        ok = ok and ok2
        amps = tuple(float(a) for a in np.sqrt(np.maximum(x, 0.0)))
        if best is None or fx < best[1] - 1e-14 or (
            abs(fx - best[1]) <= 1e-14 and amps < best[0]
        ):
            best = (amps, fx, ok)
    amps, fx, ok = best
    residual = verify_optimality_condition(amps, noise.amplitude_variances())
    return OptimizationResult(
        amplitudes=amps,
        objective=fx,
        iterations=total_evals,
        converged=ok,
        condition_residual=residual,
    )

"""The four benchmark workloads: config generation, references and checks.

Each workload is a scaled-up CLI run of the package's physics that keeps one
layer hot.  A workload's config is generated from the workload seed, which
changes the Monte Carlo seed, the nominal phases where the cost does not
depend on them, and the scan grid, but never the sizes, so every seed costs
about the same.  Each reference is
computed here, outside the timed region, by a route independent of the one
the command takes; ``check`` compares one command's output rows against it.
"""

from __future__ import annotations

import math

import numpy as np

from laddernoise.model import (
    ControlField,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
    RectangularEnvelope,
)
from laddernoise.noise import frequency_noise_average
from laddernoise.tdse import default_propagation_spec, population, propagate

# Standard errors a Monte Carlo mean may sit from its reference.  A correct
# program fails a 6-sigma gate about once in 5e8 runs.
Z_BOUND = 6.0


def _phases(rng: np.random.Generator, n: int) -> list[float]:
    return [float(p) for p in rng.uniform(0.0, 2.0 * math.pi, n)]


def _ladder(gaps) -> dict:
    energies = [0.0]
    for gap in gaps:
        energies.append(energies[-1] + gap)
    return {"energies": energies, "dipoles": [1.0] * len(gaps)}


def _components(amplitudes, phases, frequencies) -> list[dict]:
    return [
        {"amplitude": a, "phase": p, "frequency": w}
        for a, p, w in zip(amplitudes, phases, frequencies)
    ]


def _z(mean: float, std_error: float, reference: float) -> float:
    if std_error > 0.0:
        return abs(mean - reference) / std_error
    return 0.0 if mean == reference else math.inf


class Workload:
    """One CLI command whose config is generated from the workload seed."""

    name: str
    command: str

    def make_config(self, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def reference(self, config: dict):
        raise NotImplementedError

    def shots(self, config: dict, rows: list[list[str]]) -> int:
        """Single-shot yield evaluations one command performed."""
        raise NotImplementedError

    def check(self, config: dict, reference, columns, rows) -> tuple[list[str], dict]:
        """Problems found in the output rows, and the figures that were checked."""
        raise NotImplementedError

    def expected_trace(self, config: dict, rows) -> dict[str, int]:
        """Per-layer counts a traced command must report for these rows."""
        raise NotImplementedError


class _Ensemble(Workload):
    command = "ensemble"
    samples: int

    def shots(self, config, rows):
        return self.samples

    def check(self, config, reference, columns, rows):
        if tuple(columns) != ("mean", "std_error", "samples", "seed", "clamp_events"):
            return [f"unexpected columns {columns}"], {}
        if len(rows) != 1:
            return [f"expected one row, got {len(rows)}"], {}
        mean, std_error, samples, seed, clamps = (float(v) for v in rows[0])
        problems = []
        if (samples, seed, clamps) != (self.samples, config["run"]["seed"], 0):
            problems.append(f"row {rows[0]} does not echo samples and seed, or clamped")
        z = _z(mean, std_error, reference)
        if not z <= Z_BOUND:
            problems.append(
                f"mean {mean!r} lies {z:.2f} standard errors from reference {reference!r}"
            )
        return problems, {"mean": mean, "std_error": std_error, "reference": reference, "z": z}


class TdseEnsemble(_Ensemble):
    """Exact-propagator ensemble under phase jitter, on the acceptance-6 system."""

    name = "tdse_ensemble"
    samples = 32
    gaps = (25.0, 34.0)
    duration = 3.0
    amplitude = 0.05
    phase_jitter = 0.02
    rel_tol, abs_tol = 1e-10, 1e-12

    def make_config(self, rng):
        return {
            "system": _ladder(self.gaps),
            "field": {
                "envelope": {"kind": "rectangular", "duration": self.duration},
                # zero nominal phases: the propagator's step count depends on
                # them, so random phases would make the cost vary by seed
                "components": _components([self.amplitude] * 2, [0.0, 0.0], list(self.gaps)),
            },
            "noise": {
                "components": [
                    {"phase": {"dist": "uniform", "half_width": self.phase_jitter}}
                ]
                * 2
            },
            "evaluator": "tdse",
            "tolerances": {"tdse_rel_tol": self.rel_tol, "tdse_abs_tol": self.abs_tol},
            "run": {"type": "ensemble", "samples": self.samples, "seed": int(rng.integers(2**31))},
            "output": {"format": "csv"},
        }

    def reference(self, config):
        """Noiseless exact yield; jitter this small moves the mean far less than its error."""
        system = LadderSystem(**{k: tuple(v) for k, v in config["system"].items()})
        comps = tuple(
            PulseComponent(c["amplitude"], c["phase"], c["frequency"])
            for c in config["field"]["components"]
        )
        field = ControlField(comps, RectangularEnvelope(self.duration))
        spec = default_propagation_spec(field, self.rel_tol, self.abs_tol)
        return population(propagate(system, field, spec), len(self.gaps))

    def expected_trace(self, config, rows):
        return {"tdse.propagate_calls": self.samples, "noise.ensemble_calls": 1}


class GaussEnsemble(_Ensemble):
    """Closed-form ensemble under Gaussian frequency jitter, three rungs."""

    name = "gauss_ensemble"
    samples = 3000
    gaps = (60.0, 114.0, 162.0)
    tau = 1.0
    mean_detunings = (0.9, -0.6, 0.7)

    @property
    def jitter_std(self) -> float:
        return GaussianEnvelope(self.tau).sigma / 3.0

    def make_config(self, rng):
        freqs = [w + d for w, d in zip(self.gaps, self.mean_detunings)]
        return {
            "system": _ladder(self.gaps),
            "field": {
                "envelope": {"kind": "gaussian", "tau": self.tau},
                "components": _components([1.0] * 3, _phases(rng, 3), freqs),
            },
            "noise": {
                "components": [
                    {"frequency": {"dist": "gaussian", "std": self.jitter_std}}
                ]
                * 3
            },
            "evaluator": "closed-form",
            "run": {"type": "ensemble", "samples": self.samples, "seed": int(rng.integers(2**31))},
            "output": {"format": "csv"},
        }

    def reference(self, config):
        """Analytic detuning average (kernel closed form), unit amplitudes and dipoles."""
        env = GaussianEnvelope(self.tau)
        d = self.jitter_std * math.sqrt(2.0) / env.sigma
        return frequency_noise_average(env, (d,) * 3, self.mean_detunings)

    def expected_trace(self, config, rows):
        return {
            "perturbation.closed_form_calls": self.samples,
            "perturbation.method.gaussian-closed-form": self.samples,
            "noise.ensemble_calls": 1,
        }


class McOptimize(Workload):
    """Monte Carlo observable optimization of the noise-cooperation example."""

    name = "mc_optimize"
    command = "optimize"
    mc_samples = 100
    gaps = (60.0, 114.0)
    tau = math.sqrt(2.0)
    half_widths = (0.1 * math.sqrt(3.0), 0.2 * math.sqrt(3.0))
    target_yield = 0.1
    fluence_weight = 0.001
    # Largest distance of a final amplitude from the analytic optimum.  The
    # Monte Carlo optimum moves with the draws: about 0.012 standard
    # deviation per amplitude at 100 samples.
    amplitude_tolerance = 0.08

    def make_config(self, rng):
        return {
            "system": _ladder(self.gaps),
            "field": {
                "envelope": {"kind": "gaussian", "tau": self.tau},
                "components": _components([0.5, 0.5], _phases(rng, 2), list(self.gaps)),
            },
            "noise": {
                "components": [
                    {"amplitude": {"dist": "uniform", "half_width": g}} for g in self.half_widths
                ]
            },
            "evaluator": "closed-form",
            "run": {
                "type": "optimize",
                "target_yield": self.target_yield,
                "fluence_weight": self.fluence_weight,
                "observable": "mc",
                "mc_samples": self.mc_samples,
                "init": [0.5, 0.5],
                "seed": int(rng.integers(2**31)),
            },
            "output": {"format": "csv"},
        }

    def reference(self, config):
        """Optimum of the analytic observable c^2 prod_l (A_l^2 + v_l).

        At a weak-field optimum A_l^2 + v_l = s for every l, and s solves
        (c^2 s^N - Y) 2 c^2 s^(N-1) + alpha = 0; solved here by bisection.
        """
        n = len(self.gaps)
        c2 = (self.tau**n / math.factorial(n)) ** 2
        variances = [g * g / 3.0 for g in self.half_widths]
        y, alpha = self.target_yield, self.fluence_weight

        def slope(s):
            return (c2 * s**n - y) * 2.0 * c2 * s ** (n - 1) + alpha

        lo, hi = max(variances), (y / c2) ** (1.0 / n)
        if not slope(lo) < 0.0 < slope(hi):
            raise ValueError("analytic optimum is not interior")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if slope(mid) < 0.0 else (lo, mid)
        s = 0.5 * (lo + hi)
        return [math.sqrt(s - v) for v in variances]

    def shots(self, config, rows):
        # the final row's eval_index counts objective evaluations
        return int(rows[-1][0]) * self.mc_samples

    def check(self, config, reference, columns, rows):
        expected = ("eval_index", "objective", "amp_0", "amp_1", "final", "converged", "condition_residual")
        if tuple(columns) != expected:
            return [f"unexpected columns {columns}"], {}
        if not rows:
            return ["no rows"], {}
        final = rows[-1]
        problems = []
        if final[4] != "1" or final[5] != "1":
            problems.append(f"last row {final} is not a converged final row")
        amps = [float(a) for a in final[2:4]]
        distance = max(abs(a - r) for a, r in zip(amps, reference))
        if not distance <= self.amplitude_tolerance:
            problems.append(
                f"final amplitudes {amps} lie {distance:.4f} from the analytic optimum {reference}"
            )
        return problems, {"amplitudes": amps, "reference": reference, "distance": distance, "evals": int(final[0])}

    def expected_trace(self, config, rows):
        evals = int(rows[-1][0])
        return {
            "optimize.objective_evals": evals,
            "noise.ensemble_calls": evals,
            "perturbation.closed_form_calls": evals * self.mc_samples,
            "perturbation.method.resonant-closed-form": evals * self.mc_samples,
        }


class QuadScan(Workload):
    """Common-detuning scan by nested time-ordered quadrature, three rungs."""

    name = "quad_scan"
    command = "scan"
    points = 1000
    gaps = (60.0, 114.0, 162.0)
    tau = 1.0
    # |detuning| stays below 3.5 so the quadrature grid is the same at every
    # point (its density is set by the envelope, not by the detuning)
    max_detuning = 3.5
    rel_tolerance = 1e-7

    def make_config(self, rng):
        grid = np.sort(rng.uniform(-self.max_detuning, self.max_detuning, self.points))
        return {
            "system": _ladder(self.gaps),
            "field": {
                "envelope": {"kind": "gaussian", "tau": self.tau},
                "components": _components([1.0] * 3, _phases(rng, 3), list(self.gaps)),
            },
            "evaluator": "perturb-time",
            "run": {"type": "scan", "parameter": "detuning.common", "grid": [float(v) for v in grid]},
            "output": {"format": "csv"},
        }

    def reference(self, config):
        """Resonant closed form (tau e^{-delta^2/sigma^2})^{2N} / (N!)^2 per grid point."""
        n = len(self.gaps)
        sigma = GaussianEnvelope(self.tau).sigma
        return [
            (self.tau * math.exp(-d * d / sigma**2)) ** (2 * n) / math.factorial(n) ** 2
            for d in config["run"]["grid"]
        ]

    def shots(self, config, rows):
        return len(rows)

    def check(self, config, reference, columns, rows):
        if tuple(columns) != ("value", "yield", "amplitude_re", "amplitude_im", "method"):
            return [f"unexpected columns {columns}"], {}
        grid = config["run"]["grid"]
        if len(rows) != len(grid):
            return [f"expected {len(grid)} rows, got {len(rows)}"], {}
        problems = []
        worst = 0.0
        for row, value, ref in zip(rows, grid, reference):
            if float(row[0]) != value or row[4] != "time-quadrature":
                problems.append(f"row {row} does not match grid value {value!r}")
                break
            worst = max(worst, abs(float(row[1]) / ref - 1.0))
        if not worst <= self.rel_tolerance:
            problems.append(f"worst relative yield error {worst:.3e} > {self.rel_tolerance:g}")
        return problems, {"worst_rel_error": worst}

    def expected_trace(self, config, rows):
        return {
            "perturbation.time_quad_calls": self.points,
            "perturbation.method.time-quadrature": self.points,
        }


WORKLOADS = {w.name: w for w in (TdseEnsemble(), GaussEnsemble(), McOptimize(), QuadScan())}

"""Exception and warning types shared across the package."""

from __future__ import annotations


class QuadratureConvergenceError(RuntimeError):
    """Grid refinement hit its cap before reaching the requested tolerance.

    Carries the error estimate that was achieved so callers can decide
    whether the partial answer is still usable.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class DegenerateCumulantsError(ValueError):
    """Cumulant detunings too close for the distinct-pole rectangular form.

    The residue sum divides by pairwise cumulant differences and loses all
    digits as they coalesce; use the equal-detuning form or the time-domain
    quadrature instead.
    """


class EnsembleEvaluationError(RuntimeError):
    """An evaluator failed inside an ensemble; carries the sample index."""

    def __init__(self, sample_index: int, cause: BaseException):
        super().__init__(f"sample {sample_index}: {cause}")
        self.sample_index = sample_index


class ConfigError(ValueError):
    """Experiment configuration failed validation.

    ``violations`` lists every problem found, not just the first one.
    """

    def __init__(self, violations: list[str]):
        super().__init__("invalid configuration:\n  - " + "\n  - ".join(violations))
        self.violations = list(violations)


class ValidityWarning(UserWarning):
    """An asymptotic formula was evaluated outside its validity regime."""

"""Population transfer in driven multilevel ladders with noisy control pulses.

The package models an (N+1)-level ladder driven by a multi-component pulse,
evaluates the weak-field transition amplitude by closed forms and nested
quadrature, averages yields over shot-to-shot amplitude/phase/frequency
noise (Monte Carlo and analytic), optimizes amplitudes against a
fluence-penalized objective, and cross-checks everything against an exact
Schroedinger propagator.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateCumulantsError,
    EnsembleEvaluationError,
    QuadratureConvergenceError,
    ValidityWarning,
)
from .model import (
    ControlField,
    Detunings,
    GaussianEnvelope,
    LadderSystem,
    PulseComponent,
    RectangularEnvelope,
    detunings_for,
    transition_frequencies,
)
from .noise import (
    ComponentNoise,
    EnsembleStats,
    Evaluator,
    FreqNoiseKernel,
    GaussianNoise,
    NoiseSpec,
    Tolerances,
    UniformNoise,
    amplitude_noise_average,
    draw_offsets,
    ensemble_average,
    frequency_noise_average,
    pairwise_sum,
    rect_noise_limit,
    sample_field,
    sample_stream,
    single_shot,
    strong_detuning_asymptote,
)
from .optimize import (
    ObjectiveSpec,
    ObservableModel,
    OptimizationResult,
    coupling_magnitude,
    optimize_amplitudes,
    verify_optimality_condition,
)
from .perturbation import (
    AmplitudeMethod,
    TransitionAmplitude,
    amplitude_time_quadrature,
    closed_form_amplitude,
    gaussian_suppression_asymptote,
    scaled_amplitude_gaussian,
    scaled_amplitude_rect_distinct,
    transition_yield,
)
from .tdse import (
    PropagationSpec,
    StateCoefficients,
    default_propagation_spec,
    population,
    propagate,
)

__all__ = [
    "AmplitudeMethod",
    "ComponentNoise",
    "ConfigError",
    "ControlField",
    "DegenerateCumulantsError",
    "Detunings",
    "EnsembleEvaluationError",
    "EnsembleStats",
    "Evaluator",
    "FreqNoiseKernel",
    "GaussianEnvelope",
    "GaussianNoise",
    "LadderSystem",
    "NoiseSpec",
    "ObjectiveSpec",
    "ObservableModel",
    "OptimizationResult",
    "PropagationSpec",
    "PulseComponent",
    "QuadratureConvergenceError",
    "RectangularEnvelope",
    "StateCoefficients",
    "Tolerances",
    "TransitionAmplitude",
    "UniformNoise",
    "ValidityWarning",
    "amplitude_noise_average",
    "amplitude_time_quadrature",
    "closed_form_amplitude",
    "coupling_magnitude",
    "default_propagation_spec",
    "detunings_for",
    "draw_offsets",
    "ensemble_average",
    "frequency_noise_average",
    "gaussian_suppression_asymptote",
    "optimize_amplitudes",
    "pairwise_sum",
    "population",
    "propagate",
    "rect_noise_limit",
    "sample_field",
    "sample_stream",
    "scaled_amplitude_gaussian",
    "scaled_amplitude_rect_distinct",
    "single_shot",
    "strong_detuning_asymptote",
    "transition_frequencies",
    "transition_yield",
    "verify_optimality_condition",
]

"""Physical system, control field, and pulse envelope value types.

Everything here is an immutable value: an (N+1)-level ladder with
nearest-neighbour dipole couplings, multi-component control fields

    E(t) = 2 s(t) sum_l A_l cos(omega_l t + theta_l),

and the Gaussian / rectangular envelopes s(t) together with their spectra
S(omega).  Units follow hbar = 1: energies and angular frequencies share one
unit and time is its inverse.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TWO_SQRT_PI = 2.0 * math.sqrt(math.pi)

# half-width of the Gaussian envelope's time-domain support, in units of tau
GAUSSIAN_HALF_SUPPORT = 8.0


@dataclass(frozen=True)
class LadderSystem:
    """Nondegenerate ladder of N+1 levels coupled only to nearest neighbours.

    Parameters
    ----------
    energies : sequence of float
        Level energies eps_n, n = 0..N, strictly increasing.
    dipoles : sequence of float
        Dipole matrix elements mu_n linking level n-1 to level n, n = 1..N.
        All nonzero; one fewer entry than ``energies``.
    """

    energies: tuple[float, ...]
    dipoles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", tuple(float(e) for e in self.energies))
        object.__setattr__(self, "dipoles", tuple(float(m) for m in self.dipoles))
        if len(self.energies) < 2:
            raise ValueError("ladder needs at least two levels")
        if len(self.dipoles) != len(self.energies) - 1:
            raise ValueError("need exactly one dipole per adjacent level pair")
        if not all(map(math.isfinite, self.energies)):
            raise ValueError("energies must be finite")
        if any(b <= a for a, b in zip(self.energies, self.energies[1:])):
            raise ValueError("energies must be strictly increasing")
        if not all(m != 0.0 and math.isfinite(m) for m in self.dipoles):
            raise ValueError("dipoles must be finite and nonzero")
        # the gaps, kept off the fields so that eq, hash and repr ignore them;
        # every shot of an ensemble reads them
        e = self.energies
        object.__setattr__(self, "_gaps", tuple(e[n] - e[n - 1] for n in range(1, len(e))))

    @property
    def n_transitions(self) -> int:
        return len(self.dipoles)


def transition_frequencies(system: LadderSystem) -> tuple[float, ...]:
    """Adjacent level gaps eps_n - eps_{n-1} for n = 1..N (all positive)."""
    return system._gaps


@dataclass(frozen=True)
class PulseComponent:
    """One monochromatic component of the control field: A cos(w t + theta)."""

    amplitude: float
    phase: float
    frequency: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude) or self.amplitude < 0.0:
            raise ValueError("amplitude must be finite and nonnegative")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")
        if not 0.0 < self.frequency < math.inf:
            raise ValueError("frequency must be positive and finite")


@dataclass(frozen=True)
class GaussianEnvelope:
    """Gaussian pulse shape s(t) = exp(-pi t^2 / tau^2).

    The spectrum is S(omega) = tau exp(-omega^2 / sigma^2) with spectral
    width sigma = 2 sqrt(pi)/tau, so the effective duration S(0) equals tau
    exactly.  Time-domain quadrature truncates the support to +-8 tau
    (``GAUSSIAN_HALF_SUPPORT``); the tail beyond it is below exp(-64 pi).
    The width tau is the only parameter.
    """

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")

    @property
    def sigma(self) -> float:
        """Spectral width, 2 sqrt(pi) / tau."""
        return TWO_SQRT_PI / self.tau

    @property
    def effective_duration(self) -> float:
        return self.tau

    def support(self) -> tuple[float, float]:
        h = GAUSSIAN_HALF_SUPPORT * self.tau
        return (-h, h)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.exp(-math.pi * t * t / (self.tau * self.tau))

    def spectrum(self, omega: float) -> complex:
        # square the ratio omega / sigma, because sigma^2 underflows to 0 for
        # tau above about 1e154; x * x overflows to inf (exp gives 0) where
        # x ** 2 would raise
        x = omega / self.sigma
        return complex(self.tau * math.exp(-x * x))


@dataclass(frozen=True)
class RectangularEnvelope:
    """Rectangular pulse shape: s(t) = 1 on [0, T], 0 elsewhere.

    S(omega) = (exp(i omega T) - 1)/(i omega), with the removable singularity
    at omega = 0 evaluated as S(0) = T.  Its zeros at omega T = 2 pi n (n != 0)
    are the equal-detuning antiresonance; a phase omega T that is not finite
    raises ``OverflowError``.
    """

    duration: float

    def __post_init__(self):
        if not 0.0 < self.duration < math.inf:
            raise ValueError("duration must be positive and finite")

    @property
    def effective_duration(self) -> float:
        return self.duration

    def support(self) -> tuple[float, float]:
        return (0.0, self.duration)

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return ((t >= 0.0) & (t <= self.duration)).astype(float)

    def spectrum(self, omega: float) -> complex:
        # (e^{i w T} - 1)/(i w) = [sin(wT) + 2 i sin^2(wT/2)] / w, which is
        # cancellation-free for small w; the w = 0 point is T.
        if omega == 0.0:
            return complex(self.duration)
        x = omega * self.duration
        if not math.isfinite(x):
            raise OverflowError(f"spectrum phase omega*T = {x} is not finite")
        half = math.sin(x / 2.0)
        return complex(math.sin(x), 2.0 * (half * half)) / omega


Envelope = GaussianEnvelope | RectangularEnvelope


@dataclass(frozen=True)
class ControlField:
    """Multi-component pulse: E(t) = 2 s(t) sum_l A_l cos(omega_l t + theta_l).

    When used with the perturbative closed forms the number of components
    must equal the number of ladder transitions, component l near-resonant
    with transition l.  The exact propagator accepts any number of
    components.
    """

    components: tuple[PulseComponent, ...]
    envelope: Envelope

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("a control field needs at least one component")

    def value(self, t):
        """Real field E(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        carrier = sum(
            c.amplitude * np.cos(c.frequency * t + c.phase) for c in self.components
        )
        out = 2.0 * self.envelope.value(t) * carrier
        return float(out) if out.ndim == 0 else out

    def spectrum(self, omega: float) -> complex:
        """Fourier transform f(omega) of E(t); satisfies f(-w) = conj(f(w))."""
        total = 0.0 + 0.0j
        for c in self.components:
            pos = self.envelope.spectrum(omega - c.frequency)
            neg = self.envelope.spectrum(omega + c.frequency)
            total += c.amplitude * (
                cmath.exp(-1j * c.phase) * pos + cmath.exp(1j * c.phase) * neg
            )
        return total

    def with_amplitudes(self, amplitudes) -> "ControlField":
        if len(amplitudes) != len(self.components):
            raise ValueError("amplitude count must match component count")
        comps = tuple(
            PulseComponent(float(a), c.phase, c.frequency)
            for a, c in zip(amplitudes, self.components)
        )
        return ControlField(comps, self.envelope)

    def with_frequencies(self, frequencies) -> "ControlField":
        if len(frequencies) != len(self.components):
            raise ValueError("frequency count must match component count")
        comps = tuple(
            PulseComponent(c.amplitude, c.phase, float(w))
            for w, c in zip(frequencies, self.components)
        )
        return ControlField(comps, self.envelope)


@dataclass(frozen=True)
class Detunings:
    """Per-transition detunings delta_k = omega_k - wbar_k and their cumulants.

    ``cumulants[k]`` is Delta_{k+1} = sum_{p <= k+1} delta_p (1-based in the
    physics indexing); the implicit Delta_0 = 0 is not stored.
    """

    deltas: tuple[float, ...]
    cumulants: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "cumulants", tuple(itertools.accumulate(deltas)))

    @property
    def n(self) -> int:
        return len(self.deltas)

    @property
    def total(self) -> float:
        """Delta_N, the full cumulant detuning."""
        return self.cumulants[-1]


def detunings_for(system: LadderSystem, field: ControlField) -> Detunings:
    """Detunings of each field component from its associated transition.

    Requires one component per transition (component l drives transition l).
    """
    wbar = system._gaps
    if len(field.components) != len(wbar):
        raise ValueError(
            f"field has {len(field.components)} components but the ladder has "
            f"{len(wbar)} transitions; the perturbative association needs M = N"
        )
    return Detunings(
        tuple(c.frequency - w for c, w in zip(field.components, wbar))
    )

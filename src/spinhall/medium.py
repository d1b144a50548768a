"""Steady-state optical response of the five-level atomic medium.

Four control fields (two on the lower tripod legs, two on the upper
Lambda legs) reduce, in the internal dark/bright ground-state basis, to
an effective chain: the probe couples a-b, the bright superposition
couples to b with strength ``alpha`` and to the second excited state
with the total upper Rabi frequency ``omega_total``, and the dark
superposition couples to b with strength ``beta``.  The weak-probe
steady state of that chain gives a closed rational expression for the
probe coherence per unit probe Rabi frequency.  The susceptibility, the
density times that ratio, is all the cavity stack takes from the medium
(eps2 = 1 + chi); the CTL, Lambda and N-type configurations differ only
through the couplings alpha and beta.

All frequencies (detuning, Rabi amplitudes, decay rates, density
parameter) are expressed in units of the excited-state decay rate gamma.
The sign convention is such that absorption appears as a positive
imaginary part of the susceptibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import tau

import numpy as np

from .errors import DegenerateBrightState, SingularDenominator

__all__ = [
    "EffectiveCouplings",
    "MediumParams",
    "effective_couplings",
    "coherence_ratio",
    "susceptibility",
]


@dataclass(frozen=True)
class EffectiveCouplings:
    """Reduced couplings of the dark/bright four-level chain.

    ``alpha`` couples bright <-> first excited state, ``beta`` couples
    dark <-> first excited state, ``omega_total`` is the (real,
    non-negative) bright <-> second excited link.  Construct directly
    when the bright link vanishes and :func:`effective_couplings` cannot
    decide the decomposition (e.g. the natural Lambda limit uses
    alpha = conj(Omega1), beta = 0, omega_total = 0).
    """

    alpha: complex
    beta: complex
    omega_total: float

    def __post_init__(self):
        if not np.isfinite(self.omega_total) or self.omega_total < 0:
            raise ValueError(f"omega_total must be finite and >= 0, got {self.omega_total}")
        # the coherence ratio squares each coupling
        if not all(x * x < np.inf for x in (abs(self.alpha), abs(self.beta),
                                            self.omega_total)):
            raise ValueError("|alpha|, |beta| and omega_total must have finite squares")

    @property
    def zeta(self) -> float:
        """|alpha|^2 + |beta|^2 (units gamma^2)."""
        return abs(self.alpha) ** 2 + abs(self.beta) ** 2


@dataclass(frozen=True)
class MediumParams:
    """Decay rates, density parameter and effective couplings of the
    intracavity medium (all in units of gamma)."""

    gamma_b: float
    gamma_e: float
    eta: float
    couplings: EffectiveCouplings

    def __post_init__(self):
        for name in ("gamma_b", "gamma_e", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma_b <= 0 or self.gamma_e <= 0:
            raise ValueError("decay rates gamma_b, gamma_e must be > 0")
        if self.eta < 0:
            raise ValueError("density parameter eta must be >= 0")


def effective_couplings(amplitudes, phases) -> EffectiveCouplings:
    """Project the four control fields onto the dark/bright basis.

    ``amplitudes`` are the four field strengths (units of gamma), ordered
    (lower leg 1, lower leg 2, upper leg 3, upper leg 4), and ``phases``
    their phases in radians; field k is the complex Rabi frequency
    ``O_k = amplitudes[k] * exp(i * (phases[k] % 2 pi))``.  Returns
    couplings with
    ``alpha = (conj(O1)*O3 + conj(O2)*O4) / Omega`` and
    ``beta  = (conj(O1)*conj(O4) - conj(O2)*conj(O3)) / Omega`` where
    ``Omega = sqrt(|O3|^2 + |O4|^2)``.  This is the exact bright-state
    projection: it leaves ``alpha`` invariant under a common phase
    offset and satisfies
    ``(|alpha|^2+|beta|^2) * Omega^2 = (|O1|^2+|O2|^2) * Omega^2``
    identically, for arbitrary phases.

    Raises ValueError unless there are four of each, every amplitude
    finite and >= 0 and every phase finite, and DegenerateBrightState
    when Omega = 0 while a lower-leg field is still on; supply the
    couplings directly in that case.
    """
    if len(amplitudes) != 4 or len(phases) != 4:
        raise ValueError("need four amplitudes and four phases, got "
                         f"{len(amplitudes)} and {len(phases)}")
    for a in amplitudes:
        if not np.isfinite(a) or a < 0:
            raise ValueError(f"amplitude must be finite and >= 0, got {a}")
    for p in phases:
        if not np.isfinite(p):
            raise ValueError(f"phase must be finite, got {p}")
    a1, a2, a3, a4 = amplitudes
    o1, o2, o3, o4 = (a * np.exp(1j * (p % tau)) for a, p in zip(amplitudes, phases))
    omega = float(np.hypot(a3, a4))
    if omega == 0.0:
        if a1 > 0 or a2 > 0:
            raise DegenerateBrightState(
                "upper-leg fields are zero: the dark/bright split is "
                "direction-dependent; construct EffectiveCouplings directly")
        return EffectiveCouplings(0j, 0j, 0.0)
    # an overflow gives inf or NaN couplings, which EffectiveCouplings refuses
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = (np.conj(o1) * o3 + np.conj(o2) * o4) / omega
        beta = (np.conj(o1) * np.conj(o4) - np.conj(o2) * np.conj(o3)) / omega
    return EffectiveCouplings(complex(alpha), complex(beta), omega)


def _resonance_limit(m: MediumParams) -> complex:
    """Value of the coherence ratio at exact probe resonance.

    The numerator carries a factor delta_p, so the ratio vanishes unless
    the denominator constant term |Omega|^2 |beta|^2 vanishes too; the
    removable 0/0 is resolved by one (or two) rounds of l'Hopital.
    """
    c = m.couplings
    omega2 = c.omega_total ** 2
    if omega2 * abs(c.beta) ** 2 > 0:
        return 0j
    lead = m.gamma_e * c.zeta + m.gamma_b * omega2
    if lead > 0:
        return 2j * omega2 / lead
    return 2j / m.gamma_b


def coherence_ratio(delta_p, m: MediumParams):
    """Probe coherence divided by the probe Rabi frequency (units 1/gamma).

    Accepts a scalar detuning or an ndarray; returns matching shape.
    """
    c = m.couplings
    dp = np.asarray(delta_p, dtype=float)
    omega2 = c.omega_total ** 2
    zeta = c.zeta
    gb2 = m.gamma_b / 2
    ge2 = m.gamma_e / 2
    # a subnormal detuning is the resonance to double precision; num, den underflow
    at_zero = np.abs(dp) < np.finfo(float).tiny
    with np.errstate(all="ignore"):
        num = dp * (-omega2 + 1j * dp * (ge2 - 1j * dp))
        den = (1j * dp * (ge2 - 1j * dp) * zeta
               + 1j * omega2 * dp * (gb2 - 1j * dp)
               + (gb2 - 1j * dp) * (ge2 - 1j * dp) * dp ** 2
               - omega2 * abs(c.beta) ** 2)
        out = np.where(at_zero, _resonance_limit(m),
                       num / np.where(at_zero, 1.0, den))
    # a vanishing denominator, or terms that overflow at a large detuning
    bad = ~np.isfinite(out)
    if np.any(bad):
        raise SingularDenominator(
            f"coherence ratio is not finite at delta_p={float(dp[bad].flat[0])!r}")
    if np.ndim(delta_p) == 0:
        return complex(out)
    return out


def _coherence_polynomials(m: MediumParams):
    """(num, den): complex coefficients, highest power first, of the cubic
    and the quartic in delta_p whose ratio ``coherence_ratio`` evaluates."""
    c = m.couplings
    omega2 = c.omega_total ** 2
    gb2 = m.gamma_b / 2
    ge2 = m.gamma_e / 2
    num = np.array([1, 1j * ge2, -omega2, 0])
    den = np.array([-1, -1j * (gb2 + ge2), gb2 * ge2 + c.zeta + omega2,
                    1j * (ge2 * c.zeta + gb2 * omega2), -omega2 * abs(c.beta) ** 2])
    return num, den


def susceptibility(delta_p, m: MediumParams, eta=None):
    """chi = eta * coherence ratio; Re = dispersion, Im = absorption.

    ``eta`` is the medium's own density by default, or one density per
    detuning.  A scalar detuning takes the array arithmetic too, so it
    gives the bits of a table row, down to the sign of an underflowed
    zero.  Raises SingularDenominator where chi overflows.
    """
    density = m.eta if eta is None else np.asarray(eta, dtype=float)
    if np.any(density < 0):  # as MediumParams checks its own eta
        raise ValueError("density parameter eta must be >= 0")
    with np.errstate(over="ignore"):
        chi = density * np.asarray(coherence_ratio(delta_p, m))
    bad = ~np.isfinite(chi)
    if np.any(bad):
        raise SingularDenominator("susceptibility is not finite at delta_p="
                                  f"{float(np.asarray(delta_p, dtype=float)[bad].flat[0])!r}")
    return complex(chi) if np.ndim(delta_p) == 0 else chi

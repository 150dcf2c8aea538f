"""Auxiliary objects used by the derivative-inequality checks.

The centerpiece is zero reflection: replacing each factor (z - z_j) of
z^n T(z) with |z_j| > 1 by (1 - conj(z_j) z) moves the zero to 1/conj(z_j)
inside the disk while preserving |T| pointwise on the circle. The reflected
polynomial V therefore dominates T on the circle (with equality) and has all
zeros of z^n V in the closed disk, which is exactly the setup the derivative
comparison needs. Two scalar identity evaluators live here as well: the
circle average of log|v + w| (a smoothed log^+, taken as log M_0(v + z)) and
the moment integral that rebuilds u^p from log^+ layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as quad
from .circle_means import mean_0_quadrature
from .errors import RootCountError
from .polynomials import LaurentPolynomial, RootSet, from_roots, laurent_from_algebraic
from .rootfind import classify, roots

__all__ = [
    "ReflectionOutput",
    "reflect_outside",
    "perturb_by_en",
    "smoothed_logplus",
    "mu_moment",
]

# smoothed_logplus's quadrature tolerance, well inside identity-3-1's 1e-8
_SMOOTHING_REL_TOL = 1e-12


@dataclass(frozen=True)
class ReflectionOutput:
    """Reflected polynomial with diagnostics.

    modulus_discrepancy is max over circle test points of ||V| - |T||; it
    should sit at rounding level since reflection preserves circle modulus.
    """

    v: LaurentPolynomial
    m: int
    modulus_discrepancy: float


def reflect_outside(T: LaurentPolynomial, R: RootSet | None = None) -> ReflectionOutput:
    """Reflect every zero of z^n T lying strictly outside the unit circle.

    Roots within eps = rootfind.DEFAULT_CIRCLE_EPS of the circle (classify's
    band) already lie in the closed disk for our purposes and are kept in
    place; reflecting them would change V by O(eps) without improving
    anything. T is deflated to its effective class first; the top
    coefficient must survive deflation. ``R`` must hold the zeros of
    z^n T for the deflated class (it is recomputed when omitted).
    """
    if T.is_zero():
        raise ValueError("cannot reflect the zero polynomial")
    work = T.deflated()
    n = work.n
    if work.top == 0:
        raise ValueError("top coefficient vanishes after deflation; not in the effective class")
    if R is None:
        R = roots(work.to_algebraic())
    if len(R) != 2 * n:
        raise RootCountError(
            f"root set has {len(R)} zeros, expected {2 * n} for class bound {n}"
        )
    part = classify(R)
    outside = part.outside
    if outside.shape[0] == 0:
        return ReflectionOutput(v=T, m=0, modulus_discrepancy=0.0)
    kept = np.concatenate([part.inside, part.on])
    # a_n prod_outside (1 - conj(z_j) z) prod_kept (z - z_j), expanded
    reflected_factor = from_roots(
        np.prod(-np.conj(outside)), 1.0 / np.conj(outside)
    )
    if kept.shape[0]:
        kept_factor = from_roots(1.0, kept)
        coeffs = np.convolve(reflected_factor.coeffs, kept_factor.coeffs)
    else:
        coeffs = reflected_factor.coeffs
    coeffs = work.top * coeffs
    v = laurent_from_algebraic(type(work.to_algebraic())(coeffs), n)

    m = max(512, 8 * (2 * n + 1))
    disc = float(np.max(np.abs(np.abs(v.on_grid(m)) - np.abs(work.on_grid(m)))))
    return ReflectionOutput(v=v, m=int(outside.shape[0]), modulus_discrepancy=disc)


def perturb_by_en(T: LaurentPolynomial, w: complex) -> LaurentPolynomial:
    """T + w z^n for a unimodular w: bumps the top coefficient by w."""
    if abs(abs(w) - 1.0) > 1e-12:
        raise ValueError("perturbation must be unimodular")
    return T + LaurentPolynomial.monomial(T.n, T.n, w)


def smoothed_logplus(v: complex) -> float:
    """Circle average (1/2pi) int log|v + e^{is}| ds, which equals log^+|v|.

    By Jensen's formula this is log M_0(v + z), and it is computed as such:
    mean_0_quadrature on the Laurent polynomial v + z, whose z (v + z) has
    the zeros {0, -v}, to _SMOOTHING_REL_TOL. For |v| within
    NEAR_CIRCLE_THRESHOLD of 1 the integrand has a (near-)singular angle at
    arg(-v), and the pass on Kress's map, whose nodes cluster into it, keeps
    full accuracy there.
    """
    v = complex(v)
    T = LaurentPolynomial(1, [0.0, v, 1.0])
    R = RootSet(leading=1.0, roots=[0.0, -v])
    return math.log(mean_0_quadrature(T, R, _SMOOTHING_REL_TOL).value)


def mu_moment(u: float, p: float) -> float:
    """int_0^u log(u/a) p^2 a^{p-1} da, evaluated numerically; equals u^p.

    The substitution a = u e^{-s/p} turns the integrand into a smooth
    exponentially decaying function of s, which a handful of Gauss-Legendre
    panels on [0, s_max] integrate to machine accuracy; the factors are
    combined in log space so small p and extreme u cannot overflow.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    if u <= 0:
        if u == 0:
            return 0.0
        raise ValueError("u must be nonnegative")

    log_u = math.log(u)

    def integrand(s):
        # log(u/a) p^2 a^{p-1} |da/ds| with a = u e^{-s/p}
        s = np.maximum(s, 1e-300)
        log_a = log_u - s / p
        log_term = (
            np.log(s / p)
            + 2.0 * np.log(p)
            + (p - 1.0) * log_a
            + log_a
            - np.log(p)
        )
        return np.exp(log_term)

    s_max = 60.0
    edges = np.linspace(0.0, s_max, 13)
    (panels,) = quad.panel_integrals(integrand, edges[:-1], edges[1:], (24,))
    return float(np.sum(panels))

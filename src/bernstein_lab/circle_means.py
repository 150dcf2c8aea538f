"""Generalized means M_p of Laurent polynomials on the unit circle.

M_0 is the geometric mean (exp of the mean of log|T|), M_p for p > 0 the
usual power mean with the 1/(2pi) normalization so that every constant c has
M_p(c) = |c| for every p, and M_inf the sup over the circle. M_0 admits an
exact product formula over the zeros of z^n T(z); quadrature provides the
independent route. Every mean carries an error estimate and a method tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import quadrature as quad
from .polynomials import LaurentPolynomial, horner_compensated, horner_laurent
from .rootfind import RootSet, roots

__all__ = [
    "QuadratureConfig",
    "MeanResult",
    "NEAR_CIRCLE_THRESHOLD",
    "mean",
    "means",
    "mahler_from_roots",
    "mean_p",
    "mean_0_quadrature",
    "mean_inf",
    "logplus_integral",
]

# Roots closer to the circle than this get dedicated singular handling;
# farther out, plain trapezoid refinement wins.
NEAR_CIRCLE_THRESHOLD = 1e-3

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class QuadratureConfig:
    """Node-doubling bounds shared by all quadrature-backed means."""

    start_nodes: int = 64
    max_nodes: int = 1 << 20
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.start_nodes < 16:
            raise ValueError("start_nodes must be at least 16")
        if self.max_nodes < self.start_nodes:
            raise ValueError("max_nodes must be at least start_nodes")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel_tol must be finite and positive")

    def to_json_dict(self) -> dict:
        return {
            "start_nodes": self.start_nodes,
            "max_nodes": self.max_nodes,
            "rel_tol": self.rel_tol,
        }


DEFAULT_GRID = QuadratureConfig()


@dataclass(frozen=True)
class MeanResult:
    """Value of M_p with an error estimate and the route that produced it."""

    p: float  # 0.0 for the geometric mean, math.inf for the sup norm
    value: float
    err_estimate: float
    method: str  # jensen-product | trapezoid | adaptive-singular | sampled-max


def _reject_zero(T: LaurentPolynomial):
    if T.is_zero():
        raise ValueError("mean of the zero polynomial is undefined")


def mahler_from_roots(R: RootSet) -> MeanResult:
    """Geometric mean from the product formula |c| * prod max(1, |z_k|)."""
    mods = np.abs(R.roots)
    value = float(abs(R.leading) * np.prod(np.maximum(1.0, mods)))
    err = value * 1e-14 * (len(R) + 1)
    return MeanResult(p=0.0, value=value, err_estimate=err, method="jensen-product")


def _near_circle_angles(R: RootSet, threshold: float = NEAR_CIRCLE_THRESHOLD) -> np.ndarray:
    mods = np.abs(R.roots)
    near = np.abs(mods - 1.0) <= threshold
    return np.sort(np.angle(R.roots[near])) % TWO_PI


def _abs_on_circle(T: LaurentPolynomial, rel_tol: float):
    """|T(e^{it})| for M_p (p >= 0) good to ``rel_tol``, one batch of angles at a time.

    Rounding in two-sided Horner adds up like a random walk over its 2n + 1
    steps (Higham, Accuracy and Stability of Numerical Algorithms, 2.8), so
    a node's value errs by about B = sqrt(2n + 1) u sum |a_j|, a relative
    s_i = B / |T_i|. The error measured on samples of every distribution
    stayed below B / 3; the worst-case bound is about 12 sqrt(2n + 1) B and
    would send most roots-mixed samples to the slow path. To first order the
    mean of log|T| errs by the mean of the s_i, and M_p by their
    |T|^p-weighted mean. When that exceeds rel_tol, the nodes with
    s_i > rel_tol are evaluated again as |z^n T(z)| by compensated Horner.
    Near the clustered zeros of a product of unimodular factors, whose
    coefficients are five orders above |T|, the plain value is rounding
    noise.

    The returned function evaluates |T| at a batch of angles t once and
    returns a function of p giving the values M_p uses there, so every p
    reading the batch shares that evaluation. A uniform grid from the
    trapezoid sums (quadrature.grid_of) is evaluated by one FFT
    (LaurentPolynomial.on_grid), other angles by plain Horner. The FFT value
    errs by about u (2 + log2 m) sum |a_j|, inside the same B for the n that
    matter: against mpmath at 40 digits at the exact angles (n = 16, m = 128,
    shift 1/2, six samples each of roots-on-circle, coeff-gaussian and
    roots-mixed) its worst error was 0.18-0.40 B, where Horner at the rounded
    point e^{it} reached 3.8-4.4 B. So the rule and its measured margin carry
    over. Each p decides on compensation by its own weights; the compensated
    values are computed at most once per batch.
    """
    bound = math.sqrt(2 * T.n + 1) * 2.0**-53 * float(np.sum(np.abs(T.coeffs)))

    def at(t):
        t = np.asarray(t, dtype=float)
        grid = quad.grid_of(t)
        v = np.abs(T.on_grid(*grid) if grid else T(np.exp(1j * t)))
        if bound <= rel_tol * np.min(v):
            return lambda p: v
        slack = bound / np.maximum(v, 1e-300)

        @cache
        def compensated():
            noisy = slack > rel_tol
            w = v.copy()
            w[noisy] = np.abs(horner_compensated(T.coeffs, np.exp(1j * t[noisy])))
            return w

        def for_p(p):
            if np.average(slack, weights=(v / np.max(v)) ** p if p else None) > rel_tol:
                return compensated()
            return v

        return for_p

    return at


def mean_0_quadrature(
    T: LaurentPolynomial, R: RootSet, grid: QuadratureConfig = DEFAULT_GRID
) -> MeanResult:
    """Geometric mean by integrating log|T| on the circle.

    ``R`` must hold zeros of the stored z^n T (see rootfind.checked_roots).
    The circle is split at the angles of roots within NEAR_CIRCLE_THRESHOLD
    of it and Gauss-Legendre panels grade geometrically into those angles;
    the log singularities are integrable, so nothing is excluded. Panels are
    bisected until the order-halved error estimate meets grid.rel_tol on the
    mean of log|T|, and the estimate reached is reported. With no nearby
    roots the integrand is analytic and trapezoid doubling is used instead.
    Nodes where double-precision Horner cannot resolve |T| to grid.rel_tol
    are evaluated by compensated Horner.
    """
    _reject_zero(T)
    scale = float(np.max(np.abs(T.coeffs)))
    at = _abs_on_circle(T, grid.rel_tol)

    def f(t):
        return np.log(np.maximum(at(t)(0.0) / scale, 1e-300))

    angles = _near_circle_angles(R)
    if angles.size == 0:
        _, mean_log, err_log, _ = quad.periodic_mean_doubling(
            f, grid.start_nodes, grid.max_nodes, grid.rel_tol, absolute=True
        )
    else:
        mean_log, err_log = quad.singular_circle_mean(f, angles, 2 * T.n, grid.rel_tol)
    value = scale * math.exp(mean_log)
    return MeanResult(
        p=0.0,
        value=value,
        err_estimate=value * (err_log + 1e-13),
        method="adaptive-singular",
    )


def _is_even_integer(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def mean_p(
    T: LaurentPolynomial,
    p: float,
    grid: QuadratureConfig = DEFAULT_GRID,
    roots_hint: RootSet | None = None,
) -> MeanResult:
    """M_p for finite p > 0 by quadrature of |T|^p over the circle.

    Trapezoid doubling is the default. When T has zeros within
    NEAR_CIRCLE_THRESHOLD of the circle and |T|^p is not smooth there (any
    non-even p), the integral switches to panels graded into the offending
    angles and bisected until the estimate meets grid.rel_tol relative to the
    mean. ``roots_hint`` skips the internal root solve when the caller
    already has the zeros of the stored z^n T (rootfind.checked_roots checks
    a generative root set against them). |T| is evaluated as in
    mean_0_quadrature. This is the one-element case of ``means``, which runs
    several p through one trapezoid pass.
    """
    if not p > 0 or math.isinf(p):
        raise ValueError("mean_p needs a finite p > 0")
    return means(T, [p], grid, roots_hint)[0]


def mean_inf(T: LaurentPolynomial) -> MeanResult:
    """Sup of |T| on the circle: 16 samples per coefficient, then Newton polish.

    Every local maximum of the samples (not only the best one, so near-tied
    peaks cannot shadow the true max) is polished by Newton on d|T|^2/dt,
    quadratically convergent since |T|^2 on the circle is a trigonometric
    polynomial. Every value taken is a true pointwise value. err_estimate is
    sum |j a_j|, a bound on |dT/dt|, times the largest final Newton step.
    """
    if T.is_zero():
        return MeanResult(p=math.inf, value=0.0, err_estimate=0.0, method="sampled-max")
    n = T.n
    j = np.arange(-n, n + 1)
    # angular-derivative series: u = T(e^{it}), u' = sum (ij) a_j e^{ijt}, ...
    stack = np.vstack([T.coeffs, 1j * j * T.coeffs, -(j * j) * T.coeffs])

    def u_series(t, rows=stack):
        z = np.exp(1j * t)
        return horner_laurent(rows, z, np.conj(z))

    samples = max(16 * (2 * n + 1), 64)
    t = TWO_PI * np.arange(samples) / samples
    g = np.abs(u_series(t, T.coeffs))
    peak = (g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
    h = TWO_PI / samples
    best = float(np.max(g))
    tk = t[peak]
    lo, hi = tk - h, tk + h
    for _ in range(6):
        u, du, ddu = u_series(tk)
        g1 = 2.0 * np.real(np.conj(u) * du)
        g2 = 2.0 * (np.abs(du) ** 2 + np.real(np.conj(u) * ddu))
        step = np.where(g2 < 0.0, g1 / np.where(g2 < 0.0, g2, -1.0), 0.0)
        tk = np.clip(tk - step, lo, hi)
        best = max(best, float(np.max(np.abs(u))))
    best = max(best, float(np.max(np.abs(u_series(tk, T.coeffs)))))
    err = float(np.sum(np.abs(j * T.coeffs))) * float(np.max(np.abs(step)))
    return MeanResult(p=math.inf, value=best, err_estimate=err, method="sampled-max")


def mean(
    T: LaurentPolynomial,
    p: float,
    grid: QuadratureConfig = DEFAULT_GRID,
    roots_hint: RootSet | None = None,
) -> MeanResult:
    """M_p of T for any 0 <= p <= inf: the one-element case of ``means``."""
    return means(T, [p], grid, roots_hint)[0]


def means(
    T: LaurentPolynomial,
    ps,
    grid: QuadratureConfig = DEFAULT_GRID,
    roots_hint: RootSet | None = None,
) -> list[MeanResult]:
    """M_p of T for each p of ``ps`` (0 <= p <= inf), in the order given.

    p = 0 takes the product formula over the zeros of z^n T, p = inf the sup
    of mean_inf, and every p in between mean_p's quadrature. The p on the
    trapezoid route share one doubling pass: |T| is evaluated once per node
    for all of them, and each keeps its own running sum and stopping level.
    The singular-panel route runs per p. The zeros are solved at most once,
    and only when a p reads them: p = 0, or a finite p that is not an even
    integer. ``roots_hint``, zeros of the stored z^n T (see
    rootfind.checked_roots), saves that solve.
    """
    ps = list(ps)
    finite = [i for i, p in enumerate(ps) if p != 0 and not math.isinf(p)]
    if finite:
        _reject_zero(T)
        if not all(ps[i] > 0 for i in finite):
            raise ValueError("mean_p needs a finite p > 0")
    odd = [i for i in finite if not _is_even_integer(ps[i])]
    R = roots_hint
    if R is None and (odd or 0 in ps):
        R = roots(T.to_algebraic())
    out = [None] * len(ps)
    for i, p in enumerate(ps):
        if p == 0:
            out[i] = mahler_from_roots(R)
        elif math.isinf(p):
            out[i] = mean_inf(T)
    if not finite:
        return out
    scale = float(np.max(np.abs(T.coeffs)))
    at = _abs_on_circle(T, grid.rel_tol)
    # |T|^p is smooth at a zero on the circle only for even p
    angles = _near_circle_angles(R) if odd else np.zeros(0)
    singular = odd if angles.size else []
    for i in singular:
        p = ps[i]

        def f(t, p=p, scale_p=scale**p):
            return at(t)(p) ** p / scale_p

        raw, raw_err = quad.singular_circle_mean(
            f, angles, 2 * T.n, grid.rel_tol, absolute=False
        )
        value = scale * raw ** (1.0 / p)
        err = value * raw_err / (p * max(raw, 1e-300))
        out[i] = MeanResult(p=p, value=value, err_estimate=err, method="adaptive-singular")
    smooth = [i for i in finite if i not in singular]
    if smooth:
        qs = [ps[i] for i in smooth]
        _, values, errs, _ = quad.periodic_mean_doubling(
            at,
            grid.start_nodes,
            grid.max_nodes,
            grid.rel_tol,
            transform=[lambda raw, q=q: scale * max(raw, 0.0) ** (1.0 / q) for q in qs],
            integrands=[lambda abs_for, q=q, scale_q=scale**q: abs_for(q) ** q / scale_q
                        for q in qs],
        )
        for i, value, err in zip(smooth, values, errs):
            out[i] = MeanResult(p=ps[i], value=value, err_estimate=err, method="trapezoid")
    return out


def logplus_integral(T: LaurentPolynomial, grid: QuadratureConfig = DEFAULT_GRID) -> float:
    """(1/2pi) integral of log^+|T(e^{it})| = max(log|T|, 0) over the circle.

    The integrand is continuous with kinks where |T| crosses 1. Crossings are
    located by a fine scan plus bisection and become panel boundaries; panels
    entirely below 1 contribute zero, the rest are integrated adaptively.
    """
    _reject_zero(T)

    def h(t):
        return np.log(np.maximum(np.abs(T.on_circle(t)), 1e-300))

    def hplus(t):
        return np.maximum(h(t), 0.0)

    n_scan = max(8192, 64 * (2 * T.n + 1))
    n_scan = 1 << int(np.ceil(np.log2(n_scan)))
    t = quad.circle_grid(n_scan)
    hv = np.log(np.maximum(np.abs(T.on_grid(n_scan)), 1e-300))
    pos = hv > 0.0
    if not np.any(pos):
        # grazing from below can still poke above 1 between scan points, but
        # the excursion area is O(spacing^3); below every tolerance used here
        return 0.0
    flips = np.nonzero(pos != np.roll(pos, -1))[0]
    if flips.size == 0:
        _, mean_val, _, _ = quad.periodic_mean_doubling(
            hplus, grid.start_nodes, grid.max_nodes, grid.rel_tol, absolute=True
        )
        return float(mean_val)
    lo = t[flips]
    hi = lo + TWO_PI / n_scan
    crossings = np.sort(quad.bisect_roots(h, lo, hi))
    brk = np.concatenate([crossings, [crossings[0] + TWO_PI]])

    rough = float(np.mean(np.maximum(hv, 0.0)))
    tol_total = 1e-13 + grid.rel_tol * max(rough, 1e-3)
    total = 0.0
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a <= 1e-13:
            continue
        probes = a + (b - a) * (np.arange(1, 10) / 10.0)
        if np.all(h(probes) <= 0.0):
            continue
        val, _ = quad.adaptive_gl(hplus, a, b, tol_total * (b - a) / TWO_PI)
        total += val
    return total / TWO_PI

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

import numpy as np

from . import quadrature as quad
from .polynomials import LaurentPolynomial, fft_on_grid, horner_compensated
from .rootfind import RootSet, _refined, checked_roots

__all__ = [
    "DEFAULT_REL_TOL",
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

# A zero closer to the circle than this sends the means whose integrands are
# not smooth at it to the mapped pass, which resolves it at its angle; when
# every zero is farther out, the uniform pass by FFT is cheaper.
NEAR_CIRCLE_THRESHOLD = 1e-3
# Once the mapped pass is taken, every zero this close to the circle is a
# panel end: one inside a panel is resolved only by doubling the whole grid.
# With three zeros at modulus 1.001, a band of 1e-3 left one inside, and the
# pass took 85-171 times the nodes it takes with any band from 0.01 to 0.2.
_PANEL_END_BAND = 0.05

# Relative tolerance of every quadrature-backed mean, unless a caller sets one.
DEFAULT_REL_TOL = 1e-10

TWO_PI = 2.0 * np.pi
_SUP_PASSES = 6  # Newton passes per sampled peak of mean_inf at most
_START_NODES = 64  # first trapezoid grid of the doubling pass
_MAX_NODES = 1 << 20  # node cap of the doubling pass


@dataclass(frozen=True)
class MeanResult:
    """Value of M_p with an error estimate and the route that produced it."""

    p: float  # 0.0 for the geometric mean, math.inf for the sup norm
    value: float
    err_estimate: float
    # the route taken: jensen-product (product formula over the zeros),
    # trapezoid (node doubling on the uniform grid), adaptive-singular (node
    # doubling on Kress's map into the zeros near the circle) or sampled-max
    # (Newton-polished sup)
    method: str


def _reject_zero(T: LaurentPolynomial):
    if T.is_zero():
        raise ValueError("mean of the zero polynomial is undefined")


def _check_rel_tol(rel_tol: float):
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError("rel_tol must be finite and positive")


def mahler_from_roots(R: RootSet) -> MeanResult:
    """Geometric mean from the product formula |c| * prod max(1, |z_k|)."""
    mods = np.abs(R.roots)
    value = float(abs(R.leading) * np.prod(np.maximum(1.0, mods)))
    err = value * 1e-14 * (len(R) + 1)
    return MeanResult(p=0.0, value=value, err_estimate=err, method="jensen-product")


def _panel_ends(T: LaurentPolynomial, R: RootSet) -> np.ndarray:
    """Angles of the zeros within _PANEL_END_BAND of the circle, or none when no zero is near it.

    R may sit up to about MAX_RESIDUAL off the zeros of the stored z^n T (a planted set
    does), so they first take rootfind's compensated-Horner Aberth steps onto those: a
    singularity that far inside a panel is resolved only after grids that agree without it.
    """
    gap = np.abs(np.abs(R.roots) - 1.0)
    if not np.any(gap <= NEAR_CIRCLE_THRESHOLD):
        return np.zeros(0)
    return np.angle(_refined(T.coeffs, R.roots[gap <= _PANEL_END_BAND]))


def _abs_on_circle(T: LaurentPolynomial, rel_tol: float, p: float):
    """|T(e^{it})| good to ``rel_tol`` for M_q of every q >= p (p = 0 is M_0), one batch at a time.

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
    noise. s_i falls as |T_i| grows, so its |T|^q-weighted mean falls as q
    grows: a batch that some q > p would compensate, p compensates too, and
    one decision at the smallest p of a pass serves every p the pass reads.

    The returned function at(t, grid=None) gives the |T| array at a batch
    of angles t. A caller whose t is the uniform grid circle_grid(m, shift)
    passes grid=(m, shift), and the batch is evaluated by one FFT
    (LaurentPolynomial.on_grid); any other batch is evaluated by plain
    Horner. The FFT value errs by about u (2 + log2 m) sum |a_j|, inside the
    same B for the n that matter: against mpmath at 40 digits at the exact
    angles (n = 16, m = 128, shift 1/2, six samples each of roots-on-circle,
    coeff-gaussian and roots-mixed) its worst error was 0.18-0.40 B, where
    Horner at the rounded point e^{it} reached 3.8-4.4 B. So the rule and
    its measured margin carry over.
    """
    bound = math.sqrt(2 * T.n + 1) * 2.0**-53 * float(np.sum(np.abs(T.coeffs)))

    def at(t, grid=None):
        t = np.asarray(t, dtype=float)
        v = np.abs(T.on_grid(*grid) if grid else T(np.exp(1j * t)))
        if bound <= rel_tol * np.min(v):
            return v
        slack = bound / np.maximum(v, 1e-300)
        if np.average(slack, weights=(v / np.max(v)) ** p if p else None) > rel_tol:
            noisy = slack > rel_tol
            v[noisy] = np.abs(horner_compensated(T.coeffs, np.exp(1j * t[noisy])))
        return v

    return at


def _smooth_at_zeros(p: float) -> bool:
    """Whether |T|^p stays smooth at a zero of T: exactly for even integers p > 0."""
    return p > 0 and p == int(p) and int(p) % 2 == 0


def _quadrature_means(
    T: LaurentPolynomial, ps, R: RootSet | None, rel_tol: float
) -> list[MeanResult]:
    """M_p of T for each p of ``ps`` (0 <= p < inf) by quadrature on the circle.

    The integrand is log|T| at p = 0 and |T|^p otherwise, scaled by the
    largest coefficient. Two passes of one trapezoid doubling engine share
    the p, each reading |T| once per node for all of its p from one
    _abs_on_circle evaluator set at its smallest p (which compensates every
    batch a larger p would), and each p stops once its M_p is within rel_tol
    relative (at p = 0, to first order an absolute test on the mean of
    log|T|). When z^n T has a zero within NEAR_CIRCLE_THRESHOLD of the
    circle (``R``, read only then), p = 0 and the p that are not even
    integers share the mapped pass, quadrature.singular_circle_mean, on the
    ends of _panel_ends; the rest share the uniform pass, by FFT.
    err_estimate is the engine's estimate on M_p plus 1e-13 relative.
    """
    _reject_zero(T)
    _check_rel_tol(rel_tol)
    scale = float(np.max(np.abs(T.coeffs)))
    out = [None] * len(ps)

    def terms(chosen):  # the transforms and integrands of the p at these indices
        transforms, integrands = [], []
        for p in (ps[i] for i in chosen):
            if p == 0:
                transforms.append(lambda raw: scale * math.exp(raw))
                integrands.append(lambda v: np.log(np.maximum(v / scale, 1e-300)))
            else:
                transforms.append(lambda raw, p=p: scale * max(raw, 0.0) ** (1.0 / p))
                integrands.append(lambda v, p=p: (v / scale) ** p)
        return transforms, integrands

    def record(chosen, result, route):
        for i, value, err in zip(chosen, result[1], result[2]):
            err += value * 1e-13  # the rounding of the sums
            out[i] = MeanResult(p=ps[i], value=value, err_estimate=err, method=route)

    mapped = [i for i, p in enumerate(ps) if not _smooth_at_zeros(p)]
    ends = _panel_ends(T, R) if mapped else np.zeros(0)
    if ends.size:
        at = _abs_on_circle(T, rel_tol, min(ps[i] for i in mapped))
        # |T|^2 has degree 2n, and the map halves the node density mid-panel
        result = quad.singular_circle_mean(at, ends, 4 * T.n + 2, _MAX_NODES, rel_tol, *terms(mapped))
        record(mapped, result, "adaptive-singular")
    uniform = [i for i in range(len(ps)) if out[i] is None]
    if uniform:
        at = _abs_on_circle(T, rel_tol, min(ps[i] for i in uniform))
        result = quad.periodic_mean_doubling(
            # the pass samples circle_grid(m, 0), then circle_grid(m, 1/2)
            lambda t: at(t, (t.size, 0.5 if t[0] else 0.0)),
            _START_NODES, _MAX_NODES, rel_tol, *terms(uniform), math.inf,
        )
        record(uniform, result, "trapezoid")
    return out


def mean_0_quadrature(
    T: LaurentPolynomial, R: RootSet, rel_tol: float = DEFAULT_REL_TOL
) -> MeanResult:
    """Geometric mean by integrating log|T| on the circle: the cross-check of mahler_from_roots.

    ``R`` must hold zeros of the stored z^n T (see rootfind.checked_roots);
    only those near the circle are read. Route, ``method`` and err_estimate
    are _quadrature_means's at p = 0 ("adaptive-singular" or "trapezoid");
    the log singularities are integrable, so nothing is excluded.
    """
    return _quadrature_means(T, [0.0], R, rel_tol)[0]


def mean_p(
    T: LaurentPolynomial,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    roots_hint: RootSet | None = None,
) -> MeanResult:
    """M_p for finite p > 0 by quadrature of |T|^p: the one-element case of ``means``.

    The route is _quadrature_means's; ``roots_hint`` is taken as in ``means``.
    """
    if not p > 0 or math.isinf(p):
        raise ValueError("mean_p needs a finite p > 0")
    return means(T, [p], rel_tol, roots_hint)[0]


def mean_inf(T: LaurentPolynomial) -> MeanResult:
    """Sup of |T| on the circle: the one-row case of _sups, which takes a stack of rows.

    The rows are sampled by one FFT (polynomials.fft_on_grid) at 16 points
    per coefficient. Every local maximum of the samples (so near-tied peaks
    cannot shadow the true max) is polished by Newton on d|T|^2/dt, reading
    u, u' and u'' by one einsum over exp(i j t) for the moving peaks of every
    row. Each peak stops once its own step is below the rounding level of t,
    or after _SUP_PASSES, so a row's values do not depend on the other rows.
    A peak whose slope Re(conj(u) u') is within its rounding,
    2 (2n + 1) u sum |a_j| sum |j a_j|, takes no step, as on a flat |T|.
    err_estimate is sum |j a_j| (a bound on |dT/dt|) times the last step of
    any peak that could still rise past the value, plus the rounding of the
    samples or of the polish, 2 (2n + 1) u sum |a_j|. Zero gives 0.
    """
    (value,), (err,) = _sups(T.coeffs[None])
    return MeanResult(p=math.inf, value=float(value), err_estimate=float(err), method="sampled-max")


def _sups(rows) -> tuple[np.ndarray, np.ndarray]:
    """mean_inf's value and err_estimate for each coefficient row of a stack of one class."""
    j = np.arange(rows.shape[1]) - rows.shape[1] // 2
    samples = max(16 * rows.shape[1], 64)
    g = np.abs(fft_on_grid(rows, samples, 0.0))
    wrap = np.concatenate([g[:, -1:], g, g[:, :1]], axis=1)
    row, k = np.nonzero((g >= wrap[:, :-2]) & (g >= wrap[:, 2:]))
    series = np.stack([rows, 1j * j * rows, -(j * j) * rows], axis=1)[row]
    slope = np.abs(j * rows).sum(axis=1)
    rounding = 2.0**-52 * rows.shape[1] * np.abs(rows).sum(axis=1)
    g1_noise = (rounding * slope)[row]
    tk = TWO_PI * k / samples
    lo, hi = tk - TWO_PI / samples, tk + TWO_PI / samples
    best = g.max(axis=1)
    # |T| plus |dT/dt| times the last step at each stopped peak: how far the row may still rise
    rise = np.zeros(rows.shape[0])
    for passes_left in reversed(range(_SUP_PASSES)):
        u, du, ddu = np.einsum("kj,kdj->dk", np.exp(1j * (tk[:, None] * j)), series)
        np.maximum.at(best, row, np.abs(u))
        g1 = np.real(np.conj(u) * du)
        g2 = np.abs(du) ** 2 + np.real(np.conj(u) * ddu)
        # a step only where concave and the slope is above its rounding
        step = np.divide(g1, g2, out=np.zeros_like(g1), where=(g2 < 0) & (np.abs(g1) > g1_noise))
        # a peak stops once its step is at the rounding level of t, or on the last pass
        moving = (np.abs(step) > np.spacing(TWO_PI)) & (passes_left > 0)
        if not moving.all():
            stop = ~moving
            np.maximum.at(rise, row[stop], np.abs(u[stop]) + slope[row[stop]] * np.abs(step[stop]))
            if not moving.any():
                break
            row, series, g1_noise, tk, lo, hi, step = (
                a[moving] for a in (row, series, g1_noise, tk, lo, hi, step)
            )
        tk = np.minimum(np.maximum(tk - step, lo), hi)
    return best, np.maximum(best, rise) - best + rounding


def mean(
    T: LaurentPolynomial,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    roots_hint: RootSet | None = None,
) -> MeanResult:
    """M_p of T for any 0 <= p <= inf: the one-element case of ``means``."""
    return means(T, [p], rel_tol, roots_hint)[0]


def means(
    T: LaurentPolynomial,
    ps,
    rel_tol: float = DEFAULT_REL_TOL,
    roots_hint: RootSet | None = None,
) -> list[MeanResult]:
    """M_p of T for each p of ``ps`` (0 <= p <= inf), in the order given.

    p = 0 takes the product formula over the zeros of z^n T, p = inf the sup
    of mean_inf, and every p in between the circle quadrature that
    mean_0_quadrature also runs (_quadrature_means: a mapped pass for the p
    not smooth at zeros near the circle, a uniform one for the rest). The
    zeros are found at most once, and only when a p reads them: p = 0, or
    a finite p that is not an even integer. They are
    rootfind.checked_roots(T.to_algebraic(), roots_hint): ``roots_hint``,
    candidate zeros of z^n T such as a planted root set, saves the solve
    when it factors the stored coefficients, and is refined or replaced by
    a solve when it does not.
    """
    _check_rel_tol(rel_tol)
    ps = list(ps)
    finite = [i for i, p in enumerate(ps) if p != 0 and not math.isinf(p)]
    if finite:
        _reject_zero(T)
        if not all(ps[i] > 0 for i in finite):
            raise ValueError("mean_p needs a finite p > 0")
    odd = [i for i in finite if not _smooth_at_zeros(ps[i])]
    R = checked_roots(T.to_algebraic(), roots_hint) if odd or 0 in ps else None
    out = [None] * len(ps)
    for i, p in enumerate(ps):
        if p == 0:
            out[i] = mahler_from_roots(R)
        elif math.isinf(p):
            out[i] = mean_inf(T)
    if finite:
        for i, res in zip(finite, _quadrature_means(T, [ps[i] for i in finite], R, rel_tol)):
            out[i] = res
    return out


def logplus_integral(T: LaurentPolynomial, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """(1/2pi) integral of log^+|T(e^{it})| = max(log|T|, 0) over the circle.

    The integrand is continuous with kinks where |T| crosses 1. Crossings are
    located by a fine scan plus bisection and become panel ends (one panel,
    [0, 2pi], when the scan shows none). One adaptive_gl pass then takes
    every panel at once, to an absolute tolerance on the integral set from
    rel_tol and the scan's rough value: panels below 1 are exactly 0
    under both of its rules, and a kink the scan missed is bisected like any
    other. |T| comes from _abs_on_circle at p = 0 (by FFT on the scan).
    """
    _reject_zero(T)
    _check_rel_tol(rel_tol)
    at = _abs_on_circle(T, rel_tol, 0.0)

    def h(t, grid=None):
        return np.log(np.maximum(at(t, grid), 1e-300))

    def hplus(t):
        return np.maximum(h(t), 0.0)

    n_scan = max(8192, 64 * (2 * T.n + 1))
    n_scan = 1 << int(np.ceil(np.log2(n_scan)))
    hv = h(quad.circle_grid(n_scan), (n_scan, 0.0))
    pos = hv > 0.0
    if not np.any(pos):
        # grazing from below can still poke above 1 between scan points, but
        # the excursion area is O(spacing^3); below every tolerance used here
        return 0.0
    flips = np.nonzero(pos != np.roll(pos, -1))[0]
    if flips.size == 0:
        brk = np.array([0.0, TWO_PI])
    else:
        lo = quad.circle_grid(n_scan)[flips]
        crossings = np.sort(quad.bisect_roots(h, lo, lo + TWO_PI / n_scan))
        brk = np.concatenate([crossings, [crossings[0] + TWO_PI]])

    rough = float(np.mean(np.maximum(hv, 0.0)))
    tol_total = 1e-13 + rel_tol * max(rough, 1e-3)
    total, _ = quad.adaptive_gl(hplus, brk[:-1], brk[1:], tol_total / TWO_PI, True)
    return total / TWO_PI

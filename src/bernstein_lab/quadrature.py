"""Quadrature building blocks for integrands on the unit circle.

Two engines cover every integrand shape the package meets:

* uniform trapezoid sums with node doubling (periodic_mean_doubling), the
  cheapest high-accuracy rule for smooth periodic integrands;
* adaptive Gauss-Legendre panels (adaptive_gl), bisected where an
  order-halved rule disagrees, for integrands with kinks or integrable
  singularities at or near known points. singular_circle_mean feeds it
  panels that graded_edges grades geometrically into singular angles
  (log-type or |t|^alpha), down to slivers 256 ulps wide; a
  piecewise-smooth integrand gets its kinks as panel ends.

All functions take vectorized callables: f(ndarray of angles) -> ndarray.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gl_rule",
    "periodic_mean_doubling",
    "circle_grid",
    "graded_edges",
    "panel_integrals",
    "adaptive_gl",
    "singular_circle_mean",
    "bisect_roots",
]

TWO_PI = 2.0 * np.pi

# graded_edges: each subpanel toward a singular end is this fraction of the
# one before, down to a sliver of at most 256 ulps of the endpoint scale.
_GRADING_RATIO = 0.3
# Gauss-Legendre order of adaptive_gl's panels, checked against half this order.
_PANEL_ORDER = 16
# Refinement limits of adaptive_gl. Panels below this width are, in
# singular_circle_mean, the innermost slivers at a singular angle: there the
# order-halved estimate stays a fixed fraction of the panel's integral
# however far it is split, while that integral is itself below about 1e-10.
# The panel cap bounds the integrand values at about 4 * 10^5.
_MIN_PANEL_WIDTH = 1e-12
_MAX_PANELS = 1 << 14
# bisect_roots halvings: 50 take a panel of width up to 2 pi below 1e-14.
_BISECT_STEPS = 50


@lru_cache(maxsize=None)
def gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def circle_grid(m: int, shift: float = 0.0) -> np.ndarray:
    """The m angles 2 pi (k + shift) / m, k = 0..m-1, as periodic_mean_doubling samples them."""
    return TWO_PI * (np.arange(m) + shift) / m


def periodic_mean_doubling(
    f,
    start_nodes: int,
    max_nodes: int,
    rel_tol: float,
    transform,
    integrands,
):
    """Means of k integrands over [0, 2pi) by uniform sampling with node doubling.

    One pass computes the k means on the same nodes: f(t) evaluates what the
    integrands share once per batch of nodes, and integrands[i](f(t)) gives
    the values of integrand i. Doubling interleaves midpoints so earlier
    samples are reused. Integrand i converges on transform[i](mean) between
    successive refinements, relative to it; a log-scale integrand, whose mean
    may sit at zero, converges on exp: to first order that is an absolute
    test on its mean. Each integrand keeps its own running sum, stops at its
    own level and is not evaluated after it stops. Returns (raw_means,
    transformed, errs, nodes): lists of k floats, errs[i] being the last
    refinement delta on transformed[i], and the largest node count reached.

    f is always called with one whole grid, circle_grid(m, s): s = 0 for the
    first m = start_nodes angles, then s = 1/2 for the m midpoints of each
    doubling: m = t.size, and s = 0 exactly when t[0] == 0.
    """
    n = max(int(start_nodes), 8)
    shared = f(circle_grid(n))
    totals = [float(np.sum(g(shared))) for g in integrands]
    raw = [total / n for total in totals]
    prev = [tr(x) for tr, x in zip(transform, raw)]
    err = [np.inf] * len(integrands)
    active = list(range(len(integrands)))
    while active and n < max_nodes:
        shared = f(circle_grid(n, 0.5))
        n *= 2
        still = []
        for i in active:
            totals[i] += float(np.sum(integrands[i](shared)))
            raw[i] = totals[i] / n
            cur = transform[i](raw[i])
            err[i] = abs(cur - prev[i])
            prev[i] = cur
            if err[i] > rel_tol * max(abs(cur), 1e-300):
                still.append(i)
        active = still
    return raw, prev, err, n


def graded_edges(a: float, b: float, max_width: float) -> np.ndarray:
    """Subpanel edges over [a, b], grading geometrically into both ends.

    Each half [lo, hi] grades toward its end of the panel by _GRADING_RATIO
    down to an innermost sliver of 0.3 to 1 times 256 ulps of its endpoint
    scale max(|lo|, |hi|, 1): wide enough that Gauss nodes cannot round onto
    the end, and with an integrable endpoint singularity its Gauss-Legendre
    value is accurate enough that nothing needs to be dropped. Every subpanel
    is then split into equal pieces at most max_width wide, so
    oscillatory-but-smooth stretches stay resolved.
    """
    if b <= a:
        raise ValueError("empty panel")
    mid = 0.5 * (a + b)
    halves = []
    # both halves grade toward lo; the right one is mirrored, less its midpoint
    for lo, hi in ((a, mid), (mid, b)):
        h = hi - lo
        sliver = 256.0 * np.finfo(float).eps * max(abs(lo), abs(hi), 1.0) / h
        levels = max(int(np.ceil(np.log(sliver) / np.log(_GRADING_RATIO))), 1)
        edges = np.concatenate([[lo], lo + h * _GRADING_RATIO ** np.arange(levels, -1, -1)])
        width = np.diff(edges)
        pieces = np.maximum(np.ceil(width / max_width), 1).astype(int)
        sub = np.repeat(np.arange(width.shape[0]), pieces)
        k = np.arange(1, sub.shape[0] + 1) - np.repeat(np.cumsum(pieces) - pieces, pieces)
        halves.append(np.concatenate([[lo], edges[:-1][sub] + width[sub] * k / pieces[sub]]))
    left, right = halves
    return np.concatenate([left, (mid + b - right)[-2::-1]])


def panel_integrals(f, lo: np.ndarray, hi: np.ndarray, orders) -> list[np.ndarray]:
    """Per-panel Gauss-Legendre integrals of f over [lo_i, hi_i], one array per rule order.

    The nodes of every panel and every rule are stacked into a single call to f.
    """
    rules = [gl_rule(k) for k in orders]
    nodes = np.concatenate([x for x, _ in rules])
    half = 0.5 * (hi - lo)
    pts = lo[:, None] + half[:, None] * (nodes[None, :] + 1.0)
    vals = f(pts.reshape(-1)).reshape(pts.shape)
    out = []
    start = 0
    for x, w in rules:
        out.append(half * (vals[:, start : start + x.shape[0]] @ w))
        start += x.shape[0]
    return out


def adaptive_gl(f, a, b, tol: float, absolute: bool):
    """Adaptive Gauss-Legendre of f over the panels [a_i, b_i].

    ``a`` and ``b`` are the panel ends: scalars for one panel, or arrays.
    Each pass stacks every panel into one call to f. A panel's error is
    estimated by an order-halved re-evaluation, and panels whose estimate
    exceeds their width's share of the tolerance are bisected until the total
    meets ``tol`` on the integral divided by the panels' total width
    (absolute when ``absolute``, relative to it otherwise). Panels narrower
    than _MIN_PANEL_WIDTH are not split; nor is anything once _MAX_PANELS is
    reached. Returns (integral, err_estimate), the estimate being the one
    reached when refinement stopped.
    """
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    width = float(np.sum(hi - lo))
    orders = (_PANEL_ORDER, _PANEL_ORDER // 2)
    fine, coarse = panel_integrals(f, lo, hi, orders)
    while True:
        err = np.abs(fine - coarse)
        scale = 1.0 if absolute else abs(np.sum(fine)) / width
        if np.sum(err) <= tol * scale * width:
            break
        split = (err > tol * scale * (hi - lo)) & (hi - lo > _MIN_PANEL_WIDTH)
        if not np.any(split) or lo.shape[0] + np.count_nonzero(split) > _MAX_PANELS:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_fine, new_coarse = panel_integrals(f, new_lo, new_hi, orders)
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        fine = np.concatenate([fine[~split], new_fine])
        coarse = np.concatenate([coarse[~split], new_coarse])
    return float(np.sum(fine)), float(np.sum(np.abs(fine - coarse)))


def singular_circle_mean(
    f,
    angles: np.ndarray,
    oscillation_degree: int,
    rel_tol: float,
    absolute: bool,
):
    """Mean of f over [0, 2pi) with panels graded into each angle in ``angles``.

    The circle is split at the given (singular) angles into panels that
    graded_edges grades into both of their ends, with subpanels at most
    min(0.5, pi / (degree + 2)) wide so smooth stretches stay resolved for
    integrands oscillating on the scale of the given degree.
    The panels are refined by adaptive_gl until the estimate meets ``rel_tol``
    on the mean (absolute when ``absolute``, relative to it otherwise).
    Returns (mean, err_estimate).
    """
    a = np.sort(np.asarray(angles, dtype=float) % TWO_PI)
    keep = [a[0]]
    for x in a[1:]:
        if x - keep[-1] > 1e-12:
            keep.append(x)
    a = np.asarray(keep)
    brk = np.concatenate([a, [a[0] + TWO_PI]])
    max_width = min(0.5, np.pi / (oscillation_degree + 2))
    pieces = [
        graded_edges(lo, hi, max_width)
        for lo, hi in zip(brk[:-1], brk[1:])
        if hi > lo
    ]
    edges = np.concatenate([e if i == 0 else e[1:] for i, e in enumerate(pieces)])
    total, err = adaptive_gl(f, edges[:-1], edges[1:], rel_tol, absolute)
    return total / TWO_PI, err / TWO_PI


def bisect_roots(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized bisection: one sign change of f assumed in each [lo, hi]."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.sign(f(lo))
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        fm = np.sign(f(mid))
        same = fm == flo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)

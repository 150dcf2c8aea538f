"""Quadrature building blocks for integrands on the unit circle.

One engine computes every circle mean: trapezoid sums with node doubling
(periodic_mean_doubling). singular_circle_mean runs it in the variable u of
Kress's sigmoidal map of order q (graded_edges), which splits the circle at
given singular angles and clusters the nodes into both ends of every panel:
log-type or |t|^alpha singularities at those angles then cost the trapezoid
rule an error that falls like h^q (Kress, Numer. Math. 58, 1990; Trefethen
and Weideman, SIAM Review 56, 2014).

Adaptive Gauss-Legendre panels (adaptive_gl) serve the piecewise-smooth
integrands whose kinks are found by bisection (bisect_roots) and given as
panel ends, where a map buys no nodes.

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

# Order q of Kress's map in graded_edges: the integrand times dt/du vanishes
# like u^(q-1) at each panel end, and the mapped sums err like h^q.
_MAP_ORDER = 6
# singular_circle_mean's first nodes per panel: from 16, the first grids of a long panel
# can agree by chance (M_0.25 of a roots-on-circle T stopped 5e-10 relative off).
_PANEL_START_NODES = 32
# Gauss-Legendre order of adaptive_gl's panels, checked against half this order.
_PANEL_ORDER = 16
# Refinement limit of adaptive_gl: it bounds the integrand values at about 4 * 10^5.
_MAX_PANELS = 1 << 14
# bisect_roots halvings: 50 take a panel of width up to 2 pi below 1e-14.
_BISECT_STEPS = 50


@lru_cache(maxsize=None)
def gl_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


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
    decay: float,
):
    """Means of k integrands over [0, 2pi) by uniform sampling with node doubling.

    f(t) evaluates what the integrands share once per batch of nodes, and
    integrands[i](f(t)) gives the values of integrand i. Doubling
    interleaves midpoints, so earlier samples are reused. Integrand i keeps
    its own running sum and stops, and is no longer evaluated, once
    transform[i](mean) is within rel_tol relative of the level before; a
    log-scale integrand, whose mean may sit at zero, converges on exp, to
    first order an absolute test on its mean. ``decay`` is the factor by
    which one doubling divides the error: 2^q for sums that err like h^q,
    inf where they converge exponentially. A delta below the last error
    estimate over decay is taken as two grids agreeing by chance, so the
    estimate is the larger of the two. Returns (raw_means, transformed,
    errs, nodes): lists of k floats, errs[i] that estimate on
    transformed[i], and the largest node count reached.

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
            delta = abs(cur - prev[i])
            err[i] = delta if err[i] == np.inf else max(delta, err[i] / decay)
            prev[i] = cur
            if err[i] > rel_tol * max(abs(cur), 1e-300):
                still.append(i)
        active = still
    return raw, prev, err, n


def graded_edges(u: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Kress's sigmoidal map at the angles u in [0, 2pi): one row (t, dt/du) per node.

    The sorted angles ``ends`` split the circle into panels [a, b] of length
    L = b - a, the last one wrapping past 2pi. Panel k takes the k-th of
    len(ends) equal shares of u, and maps its fraction s in [0, 1) to
    t = a + L w(s), where w(s) = v(s)^q / (v(s)^q + v(1 - s)^q),
    v(s) = (1/q - 1/2)(1 - 2s)^3 + (2s - 1)/q + 1/2 and q = _MAP_ORDER.
    For s > 1/2, t = b - L w(1 - s), so both ends keep their resolution.
    w' vanishes to order q - 1 at both ends, and so does the weight dt/du;
    a node whose t rounds onto a panel end gets weight 0.
    """
    q, share = _MAP_ORDER, ends.size / TWO_PI
    x = np.asarray(u, dtype=float) * share
    k = np.minimum(np.floor(x).astype(int), ends.size - 1)
    s = x - k
    a = ends[k]
    length = np.diff(np.append(ends, ends[0] + TWO_PI))[k]
    # v(1 - s) = 1 - v(s) and w'(1 - s) = w'(s): evaluate at the nearer end
    c = 1.0 - 2.0 * np.minimum(s, 1.0 - s)
    v = (1.0 / q - 0.5) * c**3 - c / q + 0.5
    vq, rest = v**q, (1.0 - v) ** q
    offset = length * vq / (vq + rest)
    t = np.where(s <= 0.5, a + offset, a + length - offset)
    dv = 2.0 / q - 6.0 * (1.0 / q - 0.5) * c**2
    dt = length * share * q * dv * (v * (1.0 - v)) ** (q - 1) / (vq + rest) ** 2
    return np.stack([t, np.where((t == a) | (t == a + length), 0.0, dt)], axis=1)


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
    (absolute when ``absolute``, relative to it otherwise), or until
    _MAX_PANELS is reached. Returns (integral, err_estimate), the estimate
    being the one reached when refinement stopped.
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
        split = err > tol * scale * (hi - lo)
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
    start_nodes: int,
    max_nodes: int,
    rel_tol: float,
    transform,
    integrands,
):
    """Means of k integrands over [0, 2pi) with singularities at the given angles.

    periodic_mean_doubling in the variable u of graded_edges, whose panels
    end at the given angles (one within 1e-12 of the one before is merged
    into it), from start_nodes nodes or _PANEL_START_NODES per panel if more:
    the mean over t of integrands[i](f(t)) is the mean over u of
    integrands[i](f(t(u))) t'(u), where t'(u) reaches 2 mid-panel. f is
    called with the mapped angles t of each grid, less those of weight 0.
    The sums err like h^6, so the pass runs at decay 2^_MAP_ORDER; the other
    arguments and the results are periodic_mean_doubling's.
    """
    a = np.sort(np.asarray(angles, dtype=float) % TWO_PI)
    ends = a[np.concatenate([[True], np.diff(a) > 1e-12])]

    def mapped(u):
        t, dt = graded_edges(u, ends).T
        inner = dt > 0
        return f(t[inner]), dt[inner]

    weighted = [lambda shared, g=g: g(shared[0]) * shared[1] for g in integrands]
    return periodic_mean_doubling(
        mapped, max(start_nodes, _PANEL_START_NODES * ends.size), max_nodes, rel_tol,
        transform, weighted, 2.0**_MAP_ORDER,
    )


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

"""Quadrature building blocks for integrands on the unit circle.

Three engines cover every integrand shape the package meets:

* uniform trapezoid sums with node doubling, the cheapest high-accuracy rule
  for smooth periodic integrands;
* fixed Gauss-Legendre panels whose subpanel widths grade geometrically into
  an endpoint, for integrable endpoint singularities (log-type or |t|^alpha);
* adaptive Gauss-Legendre bisection for piecewise-smooth integrands whose
  awkward points are only approximately known.

All functions take vectorized callables: f(ndarray of angles) -> ndarray.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "gl_rule",
    "periodic_mean_doubling",
    "circle_grid",
    "grid_of",
    "graded_edges",
    "integrate_edges",
    "adaptive_gl",
    "singular_circle_mean",
    "bisect_roots",
]

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def gl_rule(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def circle_grid(m: int, shift: float = 0.0) -> np.ndarray:
    """The m angles 2 pi (k + shift) / m, k = 0..m-1, as periodic_mean_doubling samples them."""
    return TWO_PI * (np.arange(m) + shift) / m


def grid_of(t) -> tuple[int, float] | None:
    """(m, shift) when t is bitwise circle_grid(m, shift) for shift 0 or 1/2, else None.

    Lets an integrand shared by the trapezoid sums and the Gauss-Legendre
    panels evaluate on uniform grids by FFT (LaurentPolynomial.on_grid) and
    anywhere else pointwise.
    """
    if not isinstance(t, np.ndarray) or t.ndim != 1 or t.size == 0 or t.dtype != float:
        return None
    m = t.shape[0]
    for shift in (0.0, 0.5):
        # the first angle rules out other arrays before any O(m) work
        if t[0] == TWO_PI * shift / m and np.array_equal(t, circle_grid(m, shift)):
            return m, shift
    return None


def periodic_mean_doubling(
    f,
    start_nodes: int,
    max_nodes: int,
    rel_tol: float,
    transform=None,
    absolute: bool = False,
    integrands=None,
):
    """Mean of f over [0, 2pi) by uniform sampling with node doubling.

    Doubling interleaves midpoints so earlier samples are reused. Convergence
    is judged on transform(mean) between successive refinements: relative by
    default, absolute when ``absolute`` (for log-scale integrands whose mean
    may legitimately sit near zero). Returns (raw_mean, transformed, err, nodes)
    where err is the last refinement delta on the transformed value.

    f is always called with one whole grid, circle_grid(m, s): s = 0 for the
    first m = start_nodes angles, then s = 1/2 for the m midpoints of each
    doubling. grid_of(t) recovers (m, s) from it.

    With ``integrands``, a list of k callables, one pass computes k means on
    the same nodes: f(t) evaluates what they share once per batch of nodes,
    integrands[i](f(t)) gives the values of integrand i, and ``transform`` is
    a list of k callables. Each integrand keeps its own running sum and stops
    at its own level, and is not evaluated after it stops. raw_mean,
    transformed and err are then lists of k floats; nodes is the largest node
    count reached.
    """
    single = integrands is None
    if single:
        integrands, transform = [lambda v: v], [transform]
    transforms = [(lambda x: x) if tr is None else tr for tr in transform]
    n = max(int(start_nodes), 8)
    shared = f(circle_grid(n))
    totals = [float(np.sum(g(shared))) for g in integrands]
    raw = [total / n for total in totals]
    prev = [tr(x) for tr, x in zip(transforms, raw)]
    err = [np.inf] * len(integrands)
    active = list(range(len(integrands)))
    while active and n < max_nodes:
        shared = f(circle_grid(n, 0.5))
        n *= 2
        still = []
        for i in active:
            totals[i] += float(np.sum(integrands[i](shared)))
            raw[i] = totals[i] / n
            cur = transforms[i](raw[i])
            err[i] = abs(cur - prev[i])
            prev[i] = cur
            scale = 1.0 if absolute else max(abs(cur), 1e-300)
            if err[i] > rel_tol * scale:
                still.append(i)
        active = still
    if single:
        return raw[0], prev[0], err[0], n
    return raw, prev, err, n


def graded_edges(
    a: float,
    b: float,
    singular_left: bool,
    singular_right: bool,
    max_width: float,
    ratio: float = 0.3,
    floor: float = 1e-15,
) -> np.ndarray:
    """Subpanel edges over [a, b], grading geometrically into singular ends.

    The innermost sliver at a singular end has relative width ``floor``; with
    an integrable endpoint singularity its Gauss-Legendre value is accurate
    enough that nothing needs to be dropped.
    """
    if b <= a:
        raise ValueError("empty panel")
    if singular_left and singular_right:
        mid = 0.5 * (a + b)
        left = graded_edges(a, mid, True, False, max_width, ratio, floor)
        right = graded_edges(mid, b, False, True, max_width, ratio, floor)
        return np.concatenate([left, right[1:]])
    if singular_right:
        rev = graded_edges(a, b, True, False, max_width, ratio, floor)
        return (a + b - rev)[::-1]
    if singular_left:
        h = b - a
        # keep the innermost sliver wide enough (in ulps of the endpoint
        # scale) that Gauss nodes cannot round onto the singular endpoint
        scale = max(abs(a), abs(b), 1.0)
        floor_eff = max(floor, 256.0 * np.finfo(float).eps * scale / h)
        levels = max(int(np.ceil(np.log(floor_eff) / np.log(ratio))), 1)
        offsets = h * ratio ** np.arange(levels, -1, -1)
        edges = np.concatenate([[a], a + offsets])
    else:
        edges = np.array([a, b])
    # cap subpanel widths so oscillatory-but-smooth stretches stay resolved
    out = [edges[0]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        pieces = max(1, int(np.ceil((hi - lo) / max_width)))
        out.extend(lo + (hi - lo) * np.arange(1, pieces + 1) / pieces)
    return np.asarray(out)


def integrate_edges(f, edges: np.ndarray, order: int = 16) -> float:
    """Gauss-Legendre of f over consecutive [edges[i], edges[i+1]] panels.

    All nodes are stacked into a single call to f.
    """
    (panels,) = _panel_integrals(f, edges[:-1], edges[1:], (order,))
    return float(np.sum(panels))


def _panel_integrals(f, lo: np.ndarray, hi: np.ndarray, orders) -> list[np.ndarray]:
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


def adaptive_gl(
    f,
    a: float,
    b: float,
    abs_tol: float,
    order: int = 12,
    max_depth: int = 48,
):
    """Adaptive Gauss-Legendre bisection of f over [a, b].

    Returns (value, err_estimate). Panels are accepted when one rule and its
    bisected refinement agree within the panel's share of abs_tol; depth-capped
    panels are accepted as-is with their disagreement charged to the estimate.
    """
    nodes, weights = gl_rule(order)

    def rule(lo, hi):
        pts = lo + 0.5 * (hi - lo) * (nodes + 1.0)
        return float(0.5 * (hi - lo) * np.dot(weights, f(pts)))

    total = 0.0
    err = 0.0
    stack = [(a, b, rule(a, b), abs_tol, 0)]
    while stack:
        lo, hi, coarse, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = rule(lo, mid)
        right = rule(mid, hi)
        disagreement = abs(left + right - coarse)
        if disagreement <= max(tol, 1e-16 * (abs(left) + abs(right))) or depth >= max_depth:
            total += left + right
            err += disagreement
        else:
            stack.append((lo, mid, left, 0.5 * tol, depth + 1))
            stack.append((mid, hi, right, 0.5 * tol, depth + 1))
    return total, err


def singular_circle_mean(
    f,
    angles: np.ndarray,
    oscillation_degree: int,
    rel_tol: float = 1e-10,
    absolute: bool = True,
    order: int = 16,
):
    """Mean of f over [0, 2pi) with panels graded into each angle in ``angles``.

    The circle is split at the given (singular) angles; every panel grades
    geometrically into both of its endpoints and is capped so smooth stretches
    stay resolved for integrands oscillating on the scale of the given degree.
    Each panel's error is estimated by an order-halved re-evaluation, and
    panels whose estimate exceeds their share of the tolerance are bisected
    until the total meets ``rel_tol`` (absolute on the mean when
    ``absolute``, relative to it otherwise). Panels narrower than
    _MIN_PANEL_WIDTH, the innermost slivers at a singular angle, are not
    split; nor is anything once _MAX_PANELS is reached. Returns (mean,
    err_estimate), the estimate being the one reached when refinement stopped.
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
        graded_edges(lo, hi, True, True, max_width)
        for lo, hi in zip(brk[:-1], brk[1:])
        if hi > lo
    ]
    edges = np.concatenate([e if i == 0 else e[1:] for i, e in enumerate(pieces)])
    lo, hi = edges[:-1], edges[1:]
    fine, coarse = _panel_integrals(f, lo, hi, (order, order // 2))
    while True:
        err = np.abs(fine - coarse)
        scale = 1.0 if absolute else abs(np.sum(fine)) / TWO_PI
        if np.sum(err) <= rel_tol * scale * TWO_PI:
            break
        split = (err > rel_tol * scale * (hi - lo)) & (hi - lo > _MIN_PANEL_WIDTH)
        if not np.any(split) or lo.shape[0] + np.count_nonzero(split) > _MAX_PANELS:
            break
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_fine, new_coarse = _panel_integrals(f, new_lo, new_hi, (order, order // 2))
        lo = np.concatenate([lo[~split], new_lo])
        hi = np.concatenate([hi[~split], new_hi])
        fine = np.concatenate([fine[~split], new_fine])
        coarse = np.concatenate([coarse[~split], new_coarse])
    return float(np.sum(fine)) / TWO_PI, float(np.sum(np.abs(fine - coarse))) / TWO_PI


# Refinement limits of singular_circle_mean. Panels below this width are the
# innermost slivers at a singular angle: there the order-halved estimate
# stays a fixed fraction of the panel's integral however far it is split,
# while that integral is itself below about 1e-10. The panel cap bounds the
# integrand values at about 4 * 10^5.
_MIN_PANEL_WIDTH = 1e-12
_MAX_PANELS = 1 << 14


def bisect_roots(f, lo: np.ndarray, hi: np.ndarray, iters: int = 50) -> np.ndarray:
    """Vectorized bisection: one sign change of f assumed in each [lo, hi]."""
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    flo = np.sign(f(lo))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = np.sign(f(mid))
        same = fm == flo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)

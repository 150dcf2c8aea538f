"""Derivative-free search for polynomials maximizing the derivative-mean ratio.

The objective is M_p(T') / (n M_p(T)) over the real-and-imaginary coefficient
vector of T, a scale-invariant quantity bounded by 1 with equality attained
on the monomial class. A compass (axis-aligned pattern) search on the unit
sphere, one from each random start, needs no gradient, so it works on the
p = 0 and p = inf objectives, which are non-smooth where zeros cross the
circle or maxima tie; every function evaluation is recorded so a run doubles
as a brute-force confirmation that the bound is never exceeded.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .circle_means import _sups, mean
from .errors import NumericFailure
from .polynomials import LaurentPolynomial

__all__ = ["RatioTrace", "maximize_ratio", "bernstein_ratio"]

RATIO_CEILING = 1.0 + 1e-6
DEGENERATE_MEAN = 1e-12
# maximize_ratio's defaults, which the CLI's --restarts and --budget share
DEFAULT_RESTARTS = 8
DEFAULT_BUDGET = 20000
# first step of _compass_polish on the unit sphere, halved while no axis step improves
_COMPASS_STEP = 0.1


@dataclass(frozen=True)
class RatioTrace:
    """Search record: best ratio found, its polynomial, and the improvement history."""

    n: int
    p: float
    best_ratio: float
    best_poly: LaurentPolynomial
    iterations: int
    history: list  # (evaluation index, ratio) at each improvement
    anomaly_count: int = 0  # evaluations exceeding 1 + 1e-6 (numerical inconsistency)

    def to_json_dict(self) -> dict:
        hist = self.history
        if len(hist) > 200:
            idx = np.linspace(0, len(hist) - 1, 200).astype(int)
            hist = [hist[i] for i in idx]
        return {
            "n": self.n,
            "p": "inf" if math.isinf(self.p) else float(self.p),
            "best_ratio": self.best_ratio,
            "best_poly": self.best_poly.to_json_dict(),
            "iterations": self.iterations,
            "anomaly_count": self.anomaly_count,
            "history": [[int(i), float(r)] for i, r in hist],
        }


def bernstein_ratio(T: LaurentPolynomial, p: float) -> float:
    """M_p(T') / (n M_p(T)), the search's inner loop; each mean as circle_means.mean gives it.

    p = 2 reads the coefficient power sums (Parseval). At p = inf, T and T'
    are two rows of class n + 1 in one call of mean_inf's engine, sharing the
    grid, the FFT sample and the Newton loop; a constant T gives 0.
    Returns -1.0 for degenerate inputs (mean below the guard threshold).
    """
    n = T.n
    if n < 1:
        raise ValueError("class bound must be at least 1")
    if T.is_zero():
        return -1.0
    dT = T.derivative()
    if p == 2.0:
        num = math.sqrt(float(np.sum(np.abs(dT.coeffs) ** 2)))
        den = math.sqrt(float(np.sum(np.abs(T.coeffs) ** 2)))
    elif math.isinf(p):
        (den, num), _ = _sups(np.array([np.concatenate([[0], T.coeffs, [0]]), dT.coeffs]))
    else:
        den = mean(T, p).value
        num = 0.0 if dT.is_zero() else mean(dT, p).value
    if den < DEGENERATE_MEAN:
        return -1.0
    return float(num / (n * den))


def _coeffs_from_vector(x: np.ndarray, n: int) -> LaurentPolynomial:
    half = 2 * n + 1
    return LaurentPolynomial(n, x[:half] + 1j * x[half:])


class _Tracker:
    """Wraps the objective: normalizes iterates, records improvements."""

    def __init__(self, n: int, p: float):
        self.n = n
        self.p = p
        self.evaluations = 0
        self.best_ratio = -np.inf
        self.best_x = None
        self.history = []
        self.anomalies = 0

    def __call__(self, x: np.ndarray) -> float:
        self.evaluations += 1
        norm = float(np.linalg.norm(x))
        if norm < DEGENERATE_MEAN:
            return 2.0
        xn = x / norm
        ratio = bernstein_ratio(_coeffs_from_vector(xn, self.n), self.p)
        if ratio < 0.0:
            return 2.0
        if ratio > RATIO_CEILING:
            self.anomalies += 1
        if ratio > self.best_ratio:
            self.best_ratio = ratio
            self.best_x = xn.copy()
            self.history.append((self.evaluations, ratio))
        return -ratio


def _compass_polish(tracker: _Tracker, x: np.ndarray, budget: int):
    """Axis-aligned pattern search on the unit sphere from x, in at most ``budget`` evaluations.

    Each axis is tried both ways at the current step, an improving direction
    is followed with doubling strides, and the step halves after a sweep
    with no improvement; the budget is checked before every evaluation. The
    start and every accepted point are normalized: the ratio does not change
    when T is rescaled, so no value moves, and the step (_COMPASS_STEP down
    to 1e-9) stays relative to the iterate instead of shrinking against a
    norm that grows with each move (Kolda, Lewis and Torczon, SIAM Review 45,
    2003). Compass steps keep making progress on the non-smooth p = 0 and
    p = inf objectives, and the extremal family itself is axis-aligned in the
    coefficient vector (middle coefficients go to zero).
    """
    best_x = x / np.linalg.norm(x)
    fx = tracker(best_x)
    dim = x.shape[0]
    step = _COMPASS_STEP
    while step > 1e-9:
        improved = False
        for i in range(dim):
            for sign in (1.0, -1.0):
                if tracker.evaluations >= budget:
                    return
                trial = best_x.copy()
                trial[i] += sign * step
                ft = tracker(trial)
                if ft < fx - 1e-16:
                    best_x, fx = trial / np.linalg.norm(trial), ft
                    improved = True
                    # ride the improving direction while it keeps paying
                    stride = step
                    for _ in range(10):
                        if tracker.evaluations >= budget:
                            return
                        stride *= 2.0
                        trial = best_x.copy()
                        trial[i] += sign * stride
                        ft = tracker(trial)
                        if ft < fx - 1e-16:
                            best_x, fx = trial / np.linalg.norm(trial), ft
                        else:
                            break
                    break
        if not improved:
            step *= 0.5


def _one_restart(n: int, p: float, budget: int, seed: int, restart: int):
    """One Gaussian start drawn from (seed, restart), then one _compass_polish."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(restart,))
    )
    tracker = _Tracker(n, p)
    _compass_polish(tracker, rng.normal(size=2 * (2 * n + 1)), budget)
    return (
        tracker.best_ratio,
        tracker.best_x,
        tracker.evaluations,
        tracker.history,
        tracker.anomalies,
    )


def maximize_ratio(
    n: int,
    p: float,
    restarts: int = DEFAULT_RESTARTS,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    jobs: int | None = None,
) -> RatioTrace:
    """Best derivative-mean ratio over ``restarts`` pattern searches (_one_restart).

    Each restart draws its own Gaussian start from (seed, restart), so traces
    are reproducible per seed and independent of how restarts are scheduled;
    ``jobs`` > 1 runs them in a process pool. ``budget`` caps function
    evaluations per restart; a search whose step reaches its floor first
    stops there.
    """
    if n < 1:
        raise ValueError("class bound must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if budget < 100:
        raise ValueError("budget below any useful search length")
    args = [(n, p, budget, seed, r) for r in range(restarts)]
    if jobs is None:
        jobs = min(os.cpu_count() or 1, restarts)
    if jobs <= 1 or restarts == 1:
        results = [_one_restart(*a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_one_restart, *zip(*args)))

    total_evals = 0
    offset_history = []
    best_ratio = -np.inf
    best_x = None
    anomalies = 0
    for ratio, x, evals, history, anom in results:
        offset_history.extend((i + total_evals, r) for i, r in history)
        total_evals += evals
        anomalies += anom
        if x is not None and ratio > best_ratio:
            best_ratio = ratio
            best_x = x
    if best_x is None:
        raise NumericFailure("all restarts hit degenerate iterates only")
    running = -np.inf
    monotone = []
    for i, r in offset_history:
        if r > running:
            running = r
            monotone.append((i, r))
    return RatioTrace(
        n=n,
        p=float(p),
        best_ratio=float(best_ratio),
        best_poly=_coeffs_from_vector(best_x, n),
        iterations=total_evals,
        history=monotone,
        anomaly_count=anomalies,
    )

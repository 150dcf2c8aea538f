"""Derivative-free search for polynomials maximizing the derivative-mean ratio.

The objective is M_p(T') / (n M_p(T)) over the real-and-imaginary coefficient
vector of T, a scale-invariant quantity bounded by 1 with equality attained
on the monomial class. Nelder-Mead (restarted from random points) is used
because the p = 0 and p = inf objectives are non-smooth where zeros cross the
circle or maxima tie; every function evaluation is recorded so a run doubles
as a brute-force confirmation that the bound is never exceeded.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .circle_means import mean
from .errors import NumericFailure
from .polynomials import LaurentPolynomial

__all__ = ["RatioTrace", "maximize_ratio", "bernstein_ratio"]

RATIO_CEILING = 1.0 + 1e-6
DEGENERATE_MEAN = 1e-12


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
    """M_p(T') / (n M_p(T)), each mean by circle_means.mean.

    p = 2 uses the coefficient sums directly (the circle mean of |T|^2 is the
    coefficient power sum); this is the search's inner loop.
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
    else:
        den = mean(T, p).value
        num = 0.0 if dT.is_zero() else mean(dT, p).value
    if den < DEGENERATE_MEAN:
        return -1.0
    return num / (n * den)


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


def _simplex_around(x: np.ndarray, size: float) -> np.ndarray:
    dim = x.shape[0]
    simplex = np.tile(x, (dim + 1, 1))
    simplex[1:] += size * np.eye(dim)
    return simplex


def _compass_polish(tracker: _Tracker, x: np.ndarray, budget: int, step: float = 0.1):
    """Axis-aligned pattern search from x until the budget or step floor.

    Nelder-Mead stalls on the non-smooth p = 0 and p = inf objectives well
    short of the optimum; compass steps keep making progress there, and the
    extremal family itself is axis-aligned in the coefficient vector (middle
    coefficients go to zero), so this closes the endgame cheaply.
    """
    fx = tracker(x)
    best_x = x.copy()
    dim = x.shape[0]
    while tracker.evaluations < budget and step > 1e-9:
        improved = False
        for i in range(dim):
            if tracker.evaluations >= budget:
                break
            for sign in (1.0, -1.0):
                trial = best_x.copy()
                trial[i] += sign * step
                ft = tracker(trial)
                if ft < fx - 1e-16:
                    best_x, fx = trial, ft
                    improved = True
                    # ride the improving direction while it keeps paying
                    stride = step
                    for _ in range(10):
                        if tracker.evaluations >= budget:
                            break
                        stride *= 2.0
                        trial = best_x.copy()
                        trial[i] += sign * stride
                        ft = tracker(trial)
                        if ft < fx - 1e-16:
                            best_x, fx = trial, ft
                        else:
                            break
                    break
        if not improved:
            step *= 0.5
    return best_x


def _one_restart(n: int, p: float, budget: int, seed: int, restart: int):
    """One random start: a Nelder-Mead leg, then a pattern-search polish."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(restart,))
    )
    dim = 2 * (2 * n + 1)
    tracker = _Tracker(n, p)
    x = rng.normal(size=dim)
    minimize(
        tracker,
        x,
        method="Nelder-Mead",
        options={
            "maxfev": max(budget // 2, 100),
            "fatol": 1e-11,
            "xatol": 1e-9,
            "adaptive": True,
            "initial_simplex": _simplex_around(x, 0.5),
        },
    )
    while tracker.best_x is not None and budget - tracker.evaluations > 4 * dim:
        before = tracker.best_ratio
        _compass_polish(tracker, tracker.best_x, budget)
        if budget - tracker.evaluations <= 4 * dim:
            break
        minimize(
            tracker,
            tracker.best_x,
            method="Nelder-Mead",
            options={
                "maxfev": budget - tracker.evaluations,
                "fatol": 1e-12,
                "xatol": 1e-10,
                "adaptive": True,
                "initial_simplex": _simplex_around(tracker.best_x, 1e-4),
            },
        )
        if tracker.best_ratio - before < 1e-11:
            break
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
    restarts: int = 8,
    budget: int = 20000,
    seed: int = 0,
    jobs: int | None = None,
) -> RatioTrace:
    """Best derivative-mean ratio over ``restarts`` Nelder-Mead runs.

    Each restart draws its own Gaussian start from (seed, restart), so traces
    are reproducible per seed and independent of how restarts are scheduled;
    ``jobs`` > 1 runs them in a process pool. ``budget`` caps function
    evaluations per restart.
    """
    if n < 1:
        raise ValueError("class bound must be at least 1")
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

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
from dataclasses import dataclass

import numpy as np

from .circle_means import _sups, mean
from .errors import NumericFailure
from .polynomials import LaurentPolynomial
from .tasks import run_in_order, task_rng

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
    """M_p(T') / (n M_p(T)) as _ratios gives it for one row; -1.0 if M_p(T) is below the guard."""
    if T.n < 1:
        raise ValueError("class bound must be at least 1")
    return float(next(_ratios(T.coeffs[None], p)))


def _ratios(rows: np.ndarray, p: float):
    """Yield bernstein_ratio of each coefficient row of a stack of one class n >= 1, as it is alone.

    At the first read, p = 2 takes each row's coefficient power sums (Parseval)
    and p = inf one call of mean_inf's engine over the T and T' rows of the
    stack, in class n + 1 (a constant T gives 0). Any other p takes
    circle_means.mean row by row as each is read, so an unread row costs nothing.
    """
    count, width = rows.shape
    n = width // 2
    derivs = np.zeros((count, width + 2), dtype=complex)
    derivs[:, :width] = (np.arange(width) - n) * rows
    if p == 2.0:
        num = np.sqrt(np.sum(np.abs(derivs) ** 2, axis=1))
        den = np.sqrt(np.sum(np.abs(rows) ** 2, axis=1))
    elif math.isinf(p):
        padded = np.zeros_like(derivs)
        padded[:, 1:-1] = rows
        sups, _ = _sups(np.concatenate([padded, derivs]))
        den, num = sups[:count], sups[count:]
    else:
        for row, deriv in zip(rows, derivs):
            den = mean(LaurentPolynomial(n, row), p).value if np.any(row) else 0.0
            num = mean(LaurentPolynomial(n + 1, deriv), p).value if np.any(deriv) else 0.0
            yield -1.0 if den < DEGENERATE_MEAN else num / (n * den)
        return
    yield from np.divide(num, n * den, out=np.full(count, -1.0), where=~(den < DEGENERATE_MEAN))


def _coeffs_from_vector(x: np.ndarray, n: int) -> np.ndarray:
    half = 2 * n + 1
    return x[..., :half] + 1j * x[..., half:]


class _Tracker:
    """Evaluates the objective on the unit sphere and records every counted evaluation."""

    def __init__(self, n: int, p: float):
        self.n = n
        self.p = p
        self.evaluations = 0
        self.best_ratio = -np.inf
        self.best_x = None
        self.history = []
        self.anomalies = 0

    def scan(self, trials: np.ndarray, budget: int):
        """Yield -ratio of each row of ``trials`` in order (2.0 where degenerate), from one _ratios call.

        Rows past ``budget`` evaluations are not evaluated. A row is counted
        and recorded when it is read, so rows after the last one read are
        dropped uncounted.
        """
        trials = trials[: max(budget - self.evaluations, 0)]
        # one 1-D norm per row: the norm of a stack sums in another order
        norms = np.array([np.linalg.norm(x) for x in trials])
        live = ~(norms < DEGENERATE_MEAN)
        units = trials / np.where(live, norms, 1.0)[:, None]
        ratios = _ratios(_coeffs_from_vector(units[live], self.n), self.p)
        for unit, ok in zip(units, live):
            self.evaluations += 1
            ratio = float(next(ratios)) if ok else -1.0
            if ratio < 0.0:
                yield 2.0
                continue
            if ratio > RATIO_CEILING:
                self.anomalies += 1
            if ratio > self.best_ratio:
                self.best_ratio = ratio
                self.best_x = unit
                self.history.append((self.evaluations, ratio))
            yield -ratio


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

    Each batch of trials from one point goes to one _Tracker.scan (at p = 2
    and inf, one stacked objective call): the axis trials left in the sweep,
    read up to the first that improves, and the ride, as the chain it follows
    if every stride is accepted, read up to the first stride that does not
    improve. Trials after the last one read are dropped uncounted, so the
    evaluations, history and result are those of trying one point at a time.
    """
    best_x = x / np.linalg.norm(x)
    (fx,) = tracker.scan(best_x[None], budget)
    dim = x.shape[0]
    step = _COMPASS_STEP
    while step > 1e-9:
        improved = False
        axis = 0
        while axis < dim:
            if tracker.evaluations >= budget:
                return
            moves = [(i, sign) for i in range(axis, dim) for sign in (1.0, -1.0)]
            trials = np.repeat(best_x[None], len(moves), axis=0)
            for trial, (i, sign) in zip(trials, moves):
                trial[i] += sign * step
            for trial, (i, sign), ft in zip(trials, moves, tracker.scan(trials, budget)):
                if ft < fx - 1e-16:
                    break
            else:
                break
            best_x, fx = trial / np.linalg.norm(trial), ft
            improved = True
            # ride the improving direction while it keeps paying
            ride, units, stride = [], [best_x], step
            for _ in range(10):
                stride *= 2.0
                trial = units[-1].copy()
                trial[i] += sign * stride
                ride.append(trial)
                units.append(trial / np.linalg.norm(trial))
            for unit, ft in zip(units[1:], tracker.scan(np.array(ride), budget)):
                if not ft < fx - 1e-16:
                    break
                best_x, fx = unit, ft
            axis = i + 1
        if not improved:
            step *= 0.5


def _one_restart(n: int, p: float, budget: int, seed: int, restart: int) -> _Tracker:
    """The tracker of one _compass_polish from the Gaussian start task_rng(seed, restart) draws."""
    tracker = _Tracker(n, p)
    _compass_polish(tracker, task_rng(seed, restart).normal(size=2 * (2 * n + 1)), budget)
    return tracker


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
    are reproducible per seed and independent of how restarts are scheduled.
    The restarts are the tasks of tasks.run_in_order: ``jobs`` workers at
    most (None: one per core), never more than the restarts, one of them in
    this process, and below 1 raises ValueError. ``budget`` caps function
    evaluations per restart; a search whose step reaches its floor first
    stops there.
    """
    if n < 1:
        raise ValueError("class bound must be at least 1")
    if restarts < 1:
        raise ValueError("need at least one restart")
    if budget < 100:
        raise ValueError("budget below any useful search length")
    tasks = [(n, p, budget, seed, r) for r in range(restarts)]
    total_evals = 0
    offset_history = []
    best_ratio = -np.inf
    best_x = None
    anomalies = 0
    for t in run_in_order(_one_restart, tasks, jobs):
        offset_history.extend((i + total_evals, r) for i, r in t.history)
        total_evals += t.evaluations
        anomalies += t.anomalies
        if t.best_x is not None and t.best_ratio > best_ratio:
            best_ratio = t.best_ratio
            best_x = t.best_x
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
        best_poly=LaurentPolynomial(n, _coeffs_from_vector(best_x, n)),
        iterations=total_evals,
        history=monotone,
        anomaly_count=anomalies,
    )

import math
import os

import numpy as np
import pytest

from bernstein_lab import extremal
from bernstein_lab.circle_means import _sups, mean_inf
from bernstein_lab.cli import main
from bernstein_lab.extremal import (
    DEGENERATE_MEAN,
    RATIO_CEILING,
    RatioTrace,
    _coeffs_from_vector,
    _compass_polish,
    _ratios,
    _Tracker,
    bernstein_ratio,
    maximize_ratio,
)
from bernstein_lab.polynomials import LaurentPolynomial


class SequentialTracker:
    """The tracker that preceded batched sweeps, kept as reference: one objective call per trial.

    ``phases`` names what each evaluation was: "start", "axis" or "ride".
    """

    def __init__(self, n, p):
        self.n = n
        self.p = p
        self.evaluations = 0
        self.best_ratio = -np.inf
        self.best_x = None
        self.history = []
        self.anomalies = 0
        self.phases = []

    def __call__(self, x, phase):
        self.evaluations += 1
        self.phases.append(phase)
        norm = float(np.linalg.norm(x))
        if norm < DEGENERATE_MEAN:
            return 2.0
        xn = x / norm
        ratio = bernstein_ratio(LaurentPolynomial(self.n, _coeffs_from_vector(xn, self.n)), self.p)
        if ratio < 0.0:
            return 2.0
        if ratio > RATIO_CEILING:
            self.anomalies += 1
        if ratio > self.best_ratio:
            self.best_ratio = ratio
            self.best_x = xn.copy()
            self.history.append((self.evaluations, ratio))
        return -ratio


def sequential_compass(n, p, x, budget):
    """The compass search that preceded batched sweeps, kept as reference; returns its tracker."""
    tracker = SequentialTracker(n, p)
    best_x = x / np.linalg.norm(x)
    fx = tracker(best_x, "start")
    dim = x.shape[0]
    step = 0.1
    while step > 1e-9:
        improved = False
        for i in range(dim):
            for sign in (1.0, -1.0):
                if tracker.evaluations >= budget:
                    return tracker
                trial = best_x.copy()
                trial[i] += sign * step
                ft = tracker(trial, "axis")
                if ft < fx - 1e-16:
                    best_x, fx = trial / np.linalg.norm(trial), ft
                    improved = True
                    stride = step
                    for _ in range(10):
                        if tracker.evaluations >= budget:
                            return tracker
                        stride *= 2.0
                        trial = best_x.copy()
                        trial[i] += sign * stride
                        ft = tracker(trial, "ride")
                        if ft < fx - 1e-16:
                            best_x, fx = trial / np.linalg.norm(trial), ft
                        else:
                            break
                    break
        if not improved:
            step *= 0.5
    return tracker


class TestRatio:
    def test_monomial_attains_one(self):
        for p in (0.0, 2.0, math.inf):
            assert bernstein_ratio(LaurentPolynomial.monomial(4, 4), p) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        T = LaurentPolynomial(3, rng.normal(size=7) + 1j * rng.normal(size=7))
        for p in (0.0, 2.0, math.inf):
            base = bernstein_ratio(T, p)
            assert bernstein_ratio((0.037 - 5j) * T, p) == pytest.approx(base, abs=1e-10)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            T = LaurentPolynomial(n, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))
            for p in (0.0, 2.0, math.inf):
                assert bernstein_ratio(T, p) <= 1.0 + 1e-6

    def test_sup_matches_dense_grid(self):
        # the dense grid is a lower bound of the sup that undershoots the
        # peak by O(h^2); the polished value must sit in that gap
        rng = np.random.default_rng(7)
        T = LaurentPolynomial(4, rng.normal(size=9) + 1j * rng.normal(size=9))
        t = 2 * np.pi * np.arange(1 << 18) / (1 << 18)
        dense = float(np.max(np.abs(T.on_circle(t))))
        mine = mean_inf(T).value
        assert mine >= dense - 1e-12 * dense
        assert mine <= dense + 1e-8 * dense


class TestSupRatio:
    def test_one_stacked_pass_matches_the_two_sups(self, sup_corpus):
        polys, monomials = sup_corpus
        for T in polys + monomials:
            dT = T.derivative()
            num, den = mean_inf(dT), mean_inf(T)
            (v_T, v_dT), (e_T, e_dT) = _sups(
                np.array([np.concatenate([[0], T.coeffs, [0]]), dT.coeffs])
            )
            reference = num.value / (T.n * den.value)
            rel = (num.err_estimate + e_dT) / v_dT + (den.err_estimate + e_T) / v_T
            assert abs(bernstein_ratio(T, math.inf) - reference) <= rel * reference

    def test_constant_gives_zero(self):
        assert bernstein_ratio(LaurentPolynomial(2, [0, 0, 3 - 1j, 0, 0]), math.inf) == 0.0

    def test_extreme_monomials_give_one(self):
        for n in range(1, 9):
            for j in (-n, n):
                T = LaurentPolynomial.monomial(n, j, 0.5 - 2j)
                assert bernstein_ratio(T, math.inf) == pytest.approx(1.0, abs=1e-12)


class TestStackedObjective:
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_rows_match_one_row_calls(self, sup_classes, p):
        for n, rows in sup_classes.items():
            if n < 1:
                continue
            one_row = np.array([bernstein_ratio(LaurentPolynomial(n, row), p) for row in rows])
            assert np.array(list(_ratios(rows, p))).tobytes() == one_row.tobytes()


class TestMaximize:
    def test_small_search_reaches_the_bound(self):
        trace = maximize_ratio(1, 2.0, restarts=3, budget=4000, seed=2, jobs=1)
        assert trace.best_ratio >= 0.999
        assert trace.anomaly_count == 0

    def test_history_nondecreasing(self):
        trace = maximize_ratio(2, 2.0, restarts=2, budget=3000, seed=3, jobs=1)
        ratios = [r for _, r in trace.history]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))

    def test_seed_reproducibility(self):
        a = maximize_ratio(1, 2.0, restarts=2, budget=2000, seed=9, jobs=1)
        b = maximize_ratio(1, 2.0, restarts=2, budget=2000, seed=9, jobs=2)
        assert a.best_ratio == b.best_ratio
        assert a.history == b.history

    def test_sup_search_converges_before_its_budget(self):
        # steps relative to the iterate halve down to the floor instead of
        # creeping on a point whose norm grows with every move
        trace = maximize_ratio(1, math.inf, restarts=8, budget=20000, seed=20260419, jobs=2)
        assert trace.iterations < 20000
        assert trace.best_ratio >= 1.0 - 1e-12
        assert trace.anomaly_count == 0

    @pytest.mark.parametrize("p", [0.0, 2.0, math.inf])
    def test_budget_is_never_exceeded(self, p):
        # the last axis sweep of a restart may not add its -1 step past the budget
        for seed in range(4):
            trace = maximize_ratio(4, p, restarts=2, budget=300, seed=seed, jobs=1)
            assert trace.iterations <= 2 * 300

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            maximize_ratio(1, 2.0, restarts=1, budget=10, seed=0)

    def test_needs_a_restart(self):
        with pytest.raises(ValueError, match="restart"):
            maximize_ratio(1, 2.0, restarts=0, seed=0)

    def test_trace_serialization_downsamples(self):
        trace = RatioTrace(
            n=1,
            p=2.0,
            best_ratio=1.0,
            best_poly=LaurentPolynomial.monomial(1, 1),
            iterations=999,
            history=[(i, i / 1000.0) for i in range(1000)],
        )
        obj = trace.to_json_dict()
        assert len(obj["history"]) <= 200
        assert obj["p"] == 2.0


class TestCompassPolish:
    def test_scale_of_the_start_does_not_matter(self):
        # the ratio is scale-invariant and the search runs on the unit
        # sphere; scaling by a power of two is exact, so the runs agree bitwise
        x = np.random.default_rng(12).normal(size=10)
        histories = []
        for start in (x, 1024.0 * x):
            tracker = _Tracker(2, 2.0)
            _compass_polish(tracker, start, 3000)
            histories.append(tracker.history)
        assert histories[0] == histories[1]
        assert len(histories[0]) > 10

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("p", [0.0, 2.0, math.inf])
    def test_batched_search_repeats_the_sequential_one(self, n, p):
        x = np.random.default_rng(50 + n).normal(size=2 * (2 * n + 1))
        full = sequential_compass(n, p, x, 1000)

        def last_stop_between(before, after):
            # the last budget whose next evaluation, in the sequential search, is ``after``
            phases = full.phases
            pairs = zip(phases, phases[1:])
            return [b for b, pair in enumerate(pairs, 1) if pair == (before, after)][-1:]

        # stops mid-sweep, before a ride and mid-ride (rides of two or more strides happen early)
        pairs = [("axis", "axis"), ("axis", "ride"), ("ride", "ride")]
        inside = [last_stop_between(*pair) for pair in pairs]
        for budget in sorted({100, 137, 1000}.union(*inside)):
            ref = full if budget == 1000 else sequential_compass(n, p, x, budget)
            tracker = _Tracker(n, p)
            _compass_polish(tracker, x, budget)
            assert tracker.evaluations == ref.evaluations
            assert tracker.history == ref.history
            assert tracker.anomalies == ref.anomalies
            assert tracker.best_x.tobytes() == ref.best_x.tobytes()


class TestTaskRunner:
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_trace_does_not_depend_on_jobs(self, tmp_path, restarts):
        out = str(tmp_path / "trace.json")
        argv = ["extremal", "--n", "2", "--p", "inf", "--restarts", str(restarts),
                "--budget", "300", "--seed", "7", "--out", out]
        traces = []
        for jobs in ("1", "2", "3"):
            assert main([*argv, "--jobs", jobs]) == 0
            traces.append(open(out, "rb").read())
        assert traces[1] == traces[0] and traces[2] == traces[0]

    @pytest.mark.parametrize(
        "restarts, jobs, sizes", [(1, 64, []), (3, 64, [3]), (2, None, [2]), (4, 3, [3])]
    )
    def test_workers_never_exceed_restarts(self, pool_sizes, monkeypatch, restarts, jobs, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        pooled = maximize_ratio(1, 2.0, restarts=restarts, budget=100, seed=5, jobs=jobs)
        assert pool_sizes == sizes
        serial = maximize_ratio(1, 2.0, restarts=restarts, budget=100, seed=5, jobs=1)
        assert pooled.to_json_dict() == serial.to_json_dict()

    def test_starts_draw_what_the_seed_sequence_rule_drew(self, monkeypatch, seed_sequence_rng):
        def traces():
            return [
                maximize_ratio(2, math.inf, restarts=3, budget=200, seed=seed, jobs=1).to_json_dict()
                for seed in (0, 7001, -1, 2**64 + 5)
            ]

        now = traces()
        monkeypatch.setattr(extremal, "task_rng", seed_sequence_rng)
        assert now == traces()

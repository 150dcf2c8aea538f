import math

import numpy as np
import pytest

from bernstein_lab.circle_means import mean_inf
from bernstein_lab.extremal import RatioTrace, bernstein_ratio, maximize_ratio
from bernstein_lab.polynomials import LaurentPolynomial


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

    def test_budget_floor(self):
        with pytest.raises(ValueError):
            maximize_ratio(1, 2.0, restarts=1, budget=10, seed=0)

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

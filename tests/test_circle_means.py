import math

import numpy as np
import pytest

from bernstein_lab.circle_means import (
    QuadratureConfig,
    logplus_integral,
    mahler_from_roots,
    mean,
    mean_0_quadrature,
    mean_inf,
    mean_p,
)
from bernstein_lab.polynomials import (
    LaurentPolynomial,
    RootSet,
    from_roots,
    laurent_from_algebraic,
)
from bernstein_lab.rootfind import roots


def planted(rng, n, inside=0, outside=0, on=0, lead=None):
    mods = np.concatenate(
        [
            rng.uniform(0.1, 0.85, inside),
            rng.uniform(1.15, 3.0, outside),
            np.ones(on),
        ]
    )
    ang = rng.uniform(0, 2 * np.pi, mods.size)
    c = lead if lead is not None else rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    P = from_roots(c, mods * np.exp(1j * ang))
    return laurent_from_algebraic(P, n), roots(P)


class TestMahlerFromRoots:
    def test_single_outside_root(self):
        assert mahler_from_roots(RootSet(1.0, [2.0])).value == pytest.approx(2.0)

    def test_all_inside_gives_leading(self):
        res = mahler_from_roots(RootSet(3.0, [0.5, 0.1]))
        assert res.value == pytest.approx(3.0)
        assert res.method == "jensen-product"

    def test_cross_checked_by_quadrature(self):
        T = laurent_from_algebraic(from_roots(1.0, [2.0, 0.5]), 1)
        R = roots(T.to_algebraic())
        mj = mahler_from_roots(R)
        mq = mean_0_quadrature(T, R)
        assert mj.value == pytest.approx(2.0, rel=1e-10)
        assert abs(mj.value - mq.value) <= 1e-8 * mj.value


class TestMeanP:
    def test_constant_any_p(self):
        T = LaurentPolynomial(0, [-1.5 + 2j])
        for p in (0.25, 1.0, 2.0, 7.5):
            assert mean_p(T, p).value == pytest.approx(abs(-1.5 + 2j), rel=1e-12)

    def test_parseval_sqrt2(self):
        T = LaurentPolynomial(1, [1, 0, 1])
        assert mean_p(T, 2.0).value == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_z_minus_two_p1_against_brute_trapezoid(self):
        # oracle: 2^20-node uniform trapezoid computed here, independent of
        # the doubling/convergence logic under test
        T = LaurentPolynomial(1, [0, -2, 1])
        N = 1 << 20
        t = 2 * np.pi * np.arange(N) / N
        oracle = float(np.mean(np.abs(np.exp(1j * t) - 2.0)))
        assert mean_p(T, 1.0).value == pytest.approx(oracle, rel=1e-8)

    def test_rejects_zero_polynomial_and_bad_p(self):
        with pytest.raises(ValueError):
            mean_p(LaurentPolynomial.zero(2), 1.0)
        T = LaurentPolynomial(0, [1.0])
        with pytest.raises(ValueError):
            mean_p(T, 0.0)
        with pytest.raises(ValueError):
            mean_p(T, math.inf)

    def test_singular_branch_matches_smooth_value(self):
        # a zero ON the circle with p < 1: panel route against dense trapezoid
        rng = np.random.default_rng(6)
        T, R = planted(rng, 3, inside=3, on=3)
        res = mean_p(T, 0.5, roots_hint=R)
        assert res.method == "adaptive-singular"
        N = 1 << 21
        t = 2 * np.pi * np.arange(N) / N
        oracle = float(np.mean(np.abs(T.on_circle(t)) ** 0.5)) ** 2
        assert res.value == pytest.approx(oracle, rel=1e-6)


class TestMean0Quadrature:
    def test_matches_product_formula(self):
        T = LaurentPolynomial(1, [0, -2, 1])
        R = roots(T.to_algebraic())
        assert mean_0_quadrature(T, R).value == pytest.approx(2.0, rel=1e-10)

    def test_survives_zero_on_circle(self):
        T = LaurentPolynomial(1, [0, -1, 1])
        R = roots(T.to_algebraic())
        res = mean_0_quadrature(T, R)
        assert res.value == pytest.approx(1.0, rel=1e-8)

    def test_random_degree8_against_jensen(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            T, R = planted(rng, 4, inside=4, outside=4)
            mj = mahler_from_roots(R)
            mq = mean_0_quadrature(T, R)
            assert mq.value == pytest.approx(mj.value, rel=1e-10)

    def test_cross_method_consistency_within_error_estimates(self):
        rng = np.random.default_rng(23)
        T, R = planted(rng, 4, inside=4, on=4)
        mj = mahler_from_roots(R)
        mq = mean_0_quadrature(T, R)
        assert abs(mj.value - mq.value) <= mj.err_estimate + mq.err_estimate + 1e-9 * mj.value


class TestMeanInf:
    def test_monomial(self):
        assert mean_inf(LaurentPolynomial.monomial(5, 5)).value == pytest.approx(1.0)

    def test_z_minus_two_attains_at_minus_one(self):
        assert mean_inf(LaurentPolynomial(1, [0, -2, 1])).value == pytest.approx(3.0, rel=1e-12)

    def test_dominates_finite_means(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            T = LaurentPolynomial(4, rng.normal(size=9) + 1j * rng.normal(size=9))
            mi = mean_inf(T).value
            for p in (1.0, 2.0, 8.0):
                assert mean_p(T, p).value <= mi + 1e-9

    @pytest.mark.parametrize(
        "T",
        [
            LaurentPolynomial(0, [3 - 4j]),
            LaurentPolynomial.monomial(3, -2, 1.5j),
            LaurentPolynomial.zero(2),
            LaurentPolynomial(1, [0, -2, 1]),
            LaurentPolynomial(4, [1, 1j] @ np.random.default_rng(41).normal(size=(2, 9))),
        ],
    )
    def test_value_plus_error_covers_dense_grid(self, T):
        t = 2 * np.pi * np.arange(1 << 18) / (1 << 18)
        dense = float(np.max(np.abs(T.on_circle(t))))
        res = mean_inf(T)
        assert res.value + res.err_estimate >= dense
        assert res.value <= dense + 1e-8 * dense


class TestMeanDispatch:
    def test_each_p_takes_its_route(self):
        rng = np.random.default_rng(42)
        T, R = planted(rng, 3, inside=3, outside=3)
        assert mean(T, 0.0, roots_hint=R) == mahler_from_roots(R)
        assert mean(T, 0.0) == mahler_from_roots(roots(T.to_algebraic()))
        assert mean(T, 0.5, roots_hint=R) == mean_p(T, 0.5, roots_hint=R)
        assert mean(T, 2.0) == mean_p(T, 2.0)
        assert mean(T, math.inf) == mean_inf(T)


class TestLogPlus:
    def test_small_constant_is_zero(self):
        assert logplus_integral(LaurentPolynomial(0, [0.5])) == 0.0
        assert logplus_integral(LaurentPolynomial(0, [1.0])) == pytest.approx(0.0, abs=1e-12)

    def test_two_z(self):
        T = LaurentPolynomial(1, [0, 0, 2])
        assert logplus_integral(T) == pytest.approx(math.log(2.0), rel=1e-10)

    def test_z_minus_two_equals_log_mahler(self):
        # |z - 2| >= 1 on the circle, so log^+ reduces to log
        T = LaurentPolynomial(1, [0, -2, 1])
        assert logplus_integral(T) == pytest.approx(math.log(2.0), rel=1e-10)

    def test_against_dense_sampling(self):
        rng = np.random.default_rng(3)
        T, _ = planted(rng, 3, inside=3, outside=3)
        N = 1 << 21
        t = 2 * np.pi * np.arange(N) / N
        oracle = float(np.mean(np.maximum(np.log(np.abs(T.on_circle(t))), 0.0)))
        assert logplus_integral(T) == pytest.approx(oracle, abs=5e-8)


class TestMeanProperties:
    def test_power_mean_monotonicity(self):
        rng = np.random.default_rng(70)
        for _ in range(8):
            T, R = planted(rng, 3, inside=3, outside=3)
            values = [mahler_from_roots(R).value]
            for p in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
                values.append(mean_p(T, p, roots_hint=R).value)
            values.append(mean_inf(T).value)
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-9 * max(a, 1.0)

    def test_limit_p_to_zero(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            T, R = planted(rng, 3, inside=4, outside=2)
            m0 = mahler_from_roots(R).value
            mp = mean_p(T, 1e-3, roots_hint=R).value
            assert abs(mp - m0) / m0 <= 1e-2

    def test_limit_p_to_infinity(self):
        # the M_p -> M_inf gap at p = 64 scales like log(p)/(2p) times a
        # peak-curvature term, so only low class bounds sit inside 5%
        rng = np.random.default_rng(72)
        for _ in range(10):
            T = LaurentPolynomial(1, rng.normal(size=3) + 1j * rng.normal(size=3))
            mi = mean_inf(T).value
            m64 = mean_p(T, 64.0).value
            assert abs(m64 - mi) / mi <= 0.05

    def test_scale_equivariance(self):
        rng = np.random.default_rng(73)
        T, R = planted(rng, 3, inside=3, outside=3)
        c = -2.5 + 1.25j
        cT = c * T
        cR = roots(cT.to_algebraic())
        for p, get in [
            (0.0, lambda S, RS: mahler_from_roots(RS).value),
            (0.5, lambda S, RS: mean_p(S, 0.5, roots_hint=RS).value),
            (2.0, lambda S, RS: mean_p(S, 2.0, roots_hint=RS).value),
            (math.inf, lambda S, RS: mean_inf(S).value),
        ]:
            assert get(cT, cR) == pytest.approx(abs(c) * get(T, R), rel=1e-10)

    def test_mahler_multiplicativity(self):
        rng = np.random.default_rng(74)
        for _ in range(8):
            za = rng.uniform(0.3, 2.5, 5) * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
            zb = rng.uniform(0.3, 2.5, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            A = from_roots(1.3, za)
            B = from_roots(0.8 - 0.4j, zb)
            AB = from_roots(1.3 * (0.8 - 0.4j), np.concatenate([za, zb]))
            ma = mahler_from_roots(roots(A)).value
            mb = mahler_from_roots(roots(B)).value
            mab = mahler_from_roots(roots(AB)).value
            assert mab == pytest.approx(ma * mb, rel=1e-10)

    def test_quadrature_config_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(start_nodes=8)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernstein_lab.polynomials import (
    AlgebraicPolynomial,
    LaurentPolynomial,
    fft_on_grid,
    from_roots,
    horner,
    horner_laurent,
    laurent_from_algebraic,
)


def random_laurent(rng, n):
    return LaurentPolynomial(n, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1))


def naive_eval(T, z):
    return sum(T.coeffs[j + T.n] * z**j for j in range(-T.n, T.n + 1))


class TestEval:
    def test_z_plus_inverse_at_i(self):
        T = LaurentPolynomial(1, [1, 0, 1])
        assert T(1j) == pytest.approx(0.0)

    def test_z_minus_two_at_one(self):
        T = LaurentPolynomial(1, [0, -2, 1])
        assert T(1.0) == pytest.approx(-1.0)

    def test_rejects_zero(self):
        T = LaurentPolynomial(1, [1, 0, 1])
        with pytest.raises(ZeroDivisionError):
            T(0.0)
        with pytest.raises(ZeroDivisionError):
            T(np.array([1.0 + 0j, 0j]))

    def test_two_sided_horner_matches_naive_summation(self):
        # oracle: direct term-by-term summation at random circle points
        rng = np.random.default_rng(2024)
        T = random_laurent(rng, 8)
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
        fast = T(z)
        slow = naive_eval(T, z)
        assert np.max(np.abs(fast - slow)) <= 1e-12 * np.max(np.abs(slow))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        T = random_laurent(rng, 3)
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        vec = T(z)
        assert np.allclose(vec, [T(w) for w in z], rtol=1e-14)


class TestHorner:
    def test_one_row_matches_naive_sum(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=7) + 1j * rng.normal(size=7)
        z = rng.normal(size=(4, 5)) + 1j * rng.normal(size=(4, 5))
        one_sided, two_sided = horner(c, z), horner_laurent(c, z)
        assert one_sided.shape == two_sided.shape == (4, 5)
        assert np.array_equal(two_sided, LaurentPolynomial(3, c)(z))
        naive = sum(c[j] * z**j for j in range(7))
        assert np.max(np.abs(one_sided - naive)) <= 1e-12 * np.max(np.abs(naive))
        naive = sum(c[j + 3] * z**j for j in range(-3, 4))
        assert np.max(np.abs(two_sided - naive)) <= 1e-12 * np.max(np.abs(naive))

    def test_constant_spreads_over_the_points(self):
        z = np.array([[0.5, 2j], [1.0, -1.0]])
        assert np.array_equal(horner([3 - 1j], z), np.full((2, 2), 3 - 1j))
        assert np.array_equal(LaurentPolynomial(0, [2j])(z), np.full((2, 2), 2j))

    def test_scalar_point_gives_complex(self):
        rng = np.random.default_rng(9)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        T = LaurentPolynomial(4, c)
        for k, w in enumerate(z):
            for f in (lambda x: horner(c, x), AlgebraicPolynomial(c), T):
                value = f(w)
                assert type(value) is complex
                # a point rounds the same alone as inside an array
                assert value == f(z)[k]


class TestOnGrid:
    """T on the grid 2 pi (k + s) / m by one FFT, against Horner and mpmath."""

    @staticmethod
    def corpus():
        from bernstein_lab.verify import DISTRIBUTIONS, SampleSpec, sample_polynomial

        for dist in DISTRIBUTIONS:
            for n in (0, 1, 4, 16):
                yield sample_polynomial(SampleSpec(n, dist, 31, 1), 0)

    @staticmethod
    def grid_sizes(n):
        # below, at and above 2n + 1 (the number of exponents)
        return sorted({max(1, 2 * n - 3), 2 * n + 1, 2 * n + 8, 64})

    def test_matches_horner(self):
        from bernstein_lab.quadrature import circle_grid

        for T in self.corpus():
            size = np.sum(np.abs(T.coeffs))
            for m in self.grid_sizes(T.n):
                for s in (0.0, 0.5):
                    fft = T.on_grid(m, s)
                    assert fft.shape == (m,)
                    horner = T.on_circle(circle_grid(m, s))
                    assert np.max(np.abs(fft - horner), initial=0.0) <= 1e-13 * size

    def test_matches_mpmath_at_exact_angles(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for T in self.corpus():
                size = np.sum(np.abs(T.coeffs))
                coeffs = [mpmath.mpc(c.real, c.imag) for c in T.coeffs]
                for m in self.grid_sizes(T.n):
                    # the error model of on_grid: u (2 + log2(m)) sum |a_j|
                    bound = 2.0**-53 * (2.0 + np.log2(m)) * size
                    for s in (0.0, 0.5):
                        fft = T.on_grid(m, s)
                        for k in range(m):
                            w = mpmath.expjpi(2 * (k + mpmath.mpf(s)) / m)
                            exact = mpmath.polyval(coeffs[::-1], w) / w**T.n
                            assert abs(complex(exact) - fft[k]) <= bound

    def test_stacked_rows_match_one_row_calls(self, sup_classes):
        # a row's values do not depend on the other rows of its stack, bitwise
        for n, rows in sup_classes.items():
            for m in self.grid_sizes(n):
                for s in (0.0, 0.5):
                    stacked = fft_on_grid(rows, m, s)
                    for row, values in zip(rows, stacked):
                        assert values.tobytes() == LaurentPolynomial(n, row).on_grid(m, s).tobytes()

    def test_zero_polynomial(self):
        for n in (0, 3):
            for m in (1, 5, 16):
                assert np.array_equal(LaurentPolynomial.zero(n).on_grid(m, 0.5), np.zeros(m))

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            LaurentPolynomial(1, [1, 2, 3]).on_grid(0)

    def test_only_doubling_grids_take_the_fft(self):
        from bernstein_lab.circle_means import _abs_on_circle
        from bernstein_lab.quadrature import circle_grid

        rng = np.random.default_rng(12)
        T = random_laurent(rng, 6)
        at = _abs_on_circle(T, 1e-10, 1.0)
        for m in (8, 64, 96):
            for s in (0.0, 0.5):
                t = circle_grid(m, s)
                # a named grid is evaluated by FFT, an unnamed one by Horner, bitwise
                assert np.array_equal(at(t, (m, s)), np.abs(T.on_grid(m, s)))
                assert np.array_equal(at(t), np.abs(T(np.exp(1j * t))))
        nodes = rng.uniform(0, 2 * np.pi, 50)
        assert np.array_equal(at(nodes), np.abs(T(np.exp(1j * nodes))))


class TestDerivative:
    def test_z_plus_inverse(self):
        T = LaurentPolynomial(1, [1, 0, 1])
        dT = T.derivative()
        assert dT.n == 2
        # 1 - z^{-2}
        a = dict(zip(range(-2, 3), dT.coeffs))  # exponent -> coefficient
        assert a[-2] == pytest.approx(-1.0)
        assert a[0] == pytest.approx(1.0)
        assert all(a[j] == 0 for j in (-1, 1, 2))

    def test_monomial(self):
        n = 5
        dT = LaurentPolynomial.monomial(n, n).derivative()
        assert dT.coeffs[(n - 1) + dT.n] == pytest.approx(n)
        assert np.count_nonzero(dT.coeffs) == 1

    def test_constant_gives_zero(self):
        assert LaurentPolynomial(0, [3.0]).derivative().is_zero()

    @given(st.integers(0, 6), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, n, seed):
        rng = np.random.default_rng(seed)
        T = random_laurent(rng, n)
        S = random_laurent(rng, n)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        left = (a * T + b * S).derivative()
        right = a * T.derivative() + b * S.derivative()
        z = np.exp(1j * 2 * np.pi * np.arange(16) / 16)
        scale = max(np.max(np.abs(right(z))), 1.0)
        assert np.max(np.abs(left(z) - right(z))) <= 1e-12 * scale

    def test_angular_derivative_consistency(self):
        # |d/dt T(e^{it})| must equal |T'(e^{it})|; oracle is a central
        # finite difference in t
        rng = np.random.default_rng(77)
        T = random_laurent(rng, 6)
        dT = T.derivative()
        ts = rng.uniform(0, 2 * np.pi, 25)
        step = 1e-6
        fd = (T.on_circle(ts + step) - T.on_circle(ts - step)) / (2 * step)
        assert np.abs(fd) == pytest.approx(np.abs(dT.on_circle(ts)), rel=1e-4)


class TestConversion:
    def test_to_algebraic_examples(self):
        P = LaurentPolynomial(1, [1, 0, 1]).to_algebraic()
        assert np.allclose(P.coeffs, [1, 0, 1])
        P2 = LaurentPolynomial(1, [0, -2, 1]).to_algebraic()
        assert np.allclose(P2.coeffs, [0, -2, 1])

    def test_eval_identity_on_circle(self):
        rng = np.random.default_rng(31)
        T = random_laurent(rng, 7)
        P = T.to_algebraic()
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        lhs = P(z)
        rhs = z**T.n * T(z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_bijection_recovers_coefficients_exactly(self):
        rng = np.random.default_rng(13)
        T = random_laurent(rng, 5)
        back = laurent_from_algebraic(T.to_algebraic(), 5)
        assert np.array_equal(back.coeffs, T.coeffs)

    def test_degree_guard(self):
        P = AlgebraicPolynomial([1, 2, 3])
        with pytest.raises(ValueError):
            laurent_from_algebraic(P, 0)


class TestFromRoots:
    def test_conjugate_pair(self):
        P = from_roots(1.0, [1j, -1j])
        assert np.allclose(P.coeffs, [1, 0, 1])

    def test_origin_and_two(self):
        P = from_roots(1.0, [0.0, 2.0])
        assert np.allclose(P.coeffs, [0, -2, 1])

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            from_roots(0.0, [1.0])

    def test_roundtrip_through_rootfind(self):
        from bernstein_lab.rootfind import roots

        rng = np.random.default_rng(8)
        zs = rng.uniform(0.3, 2.5, 16) * np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        P = from_roots(1.5 - 0.5j, zs)
        R = roots(P)
        Q = from_roots(R.leading, R.roots)
        z = np.exp(1j * 2 * np.pi * np.arange(64) / 64)
        scale = np.max(np.abs(P(z)))
        assert np.max(np.abs(P(z) - Q(z))) <= 1e-8 * scale


class TestHousekeeping:
    def test_coeff_count_enforced(self):
        with pytest.raises(ValueError):
            LaurentPolynomial(2, [1, 2, 3])

    def test_zero_representable(self):
        assert LaurentPolynomial.zero(3).is_zero()

    def test_immutable_coeffs(self):
        T = LaurentPolynomial(1, [1, 2, 3])
        with pytest.raises(ValueError):
            T.coeffs[0] = 5.0

    def test_deflated_strips_wings(self):
        T = LaurentPolynomial(3, [0, 0, 1, 2, 1, 0, 0])
        d = T.deflated()
        assert d.n == 1
        assert np.allclose(d.coeffs, [1, 2, 1])

    def test_deflated_zero(self):
        assert LaurentPolynomial.zero(4).deflated().n == 0

    def test_rotation(self):
        rng = np.random.default_rng(4)
        T = random_laurent(rng, 4)
        theta = 0.83
        z = np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        # z -> T(e^{i theta} z): a_j picks up e^{i j theta}
        j = np.arange(-T.n, T.n + 1)
        rot = LaurentPolynomial(T.n, T.coeffs * np.exp(1j * theta * j))
        assert np.allclose(rot(z), T(np.exp(1j * theta) * z), rtol=1e-12)

    def test_json_roundtrip(self):
        rng = np.random.default_rng(90)
        T = random_laurent(rng, 3)
        back = LaurentPolynomial.from_json_dict(T.to_json_dict())
        assert np.array_equal(back.coeffs, T.coeffs)

    def test_json_validates_count(self):
        with pytest.raises(ValueError):
            LaurentPolynomial.from_json_dict({"n": 2, "coeffs": [[1, 0]]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_rejects_coefficients_that_are_not_finite(self, bad):
        for pair in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ValueError, match="finite"):
                LaurentPolynomial.from_json_dict({"n": 1, "coeffs": [[1, 0], pair, [2, 0]]})

    @pytest.mark.parametrize("n", [1.7, 0.5, True, False, math.inf, math.nan])
    def test_json_rejects_n_that_is_not_whole(self, n):
        coeffs = [[1, 0]] * 3
        with pytest.raises(ValueError, match="whole number"):
            LaurentPolynomial.from_json_dict({"n": n, "coeffs": coeffs})

    def test_json_takes_a_whole_float_n(self):
        T = LaurentPolynomial.from_json_dict({"n": 1.0, "coeffs": [[1, 0], [0, 0], [2, 0]]})
        assert T.n == 1 and isinstance(T.n, int)

    def test_normalized_strips_leading_zeros(self):
        P = AlgebraicPolynomial([1, 2, 0, 0])
        stripped, deficit = P.normalized()
        assert deficit == 2
        assert stripped.effective_degree() == 1

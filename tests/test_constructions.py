import math

import numpy as np
import pytest

from bernstein_lab.circle_means import logplus_integral, mahler_from_roots
from bernstein_lab.constructions import (
    mu_moment,
    perturb_by_en,
    reflect_outside,
    smoothed_logplus,
)
from bernstein_lab.errors import RootCountError
from bernstein_lab.polynomials import (
    LaurentPolynomial,
    RootSet,
    from_roots,
    laurent_from_algebraic,
)
from bernstein_lab.rootfind import roots


def planted(rng, n, inside=0, outside=0, on=0):
    mods = np.concatenate(
        [rng.uniform(0.1, 0.85, inside), rng.uniform(1.2, 3.0, outside), np.ones(on)]
    )
    ang = rng.uniform(0, 2 * np.pi, mods.size)
    c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    zs = mods * np.exp(1j * ang)
    return laurent_from_algebraic(from_roots(c, zs), n), zs, c


class TestReflectOutside:
    def test_z_minus_two_reflects_to_one_minus_two_z(self):
        # expanding a_n z^{-n} (1 - conj(2) z) for the single outside zero 2
        # gives 1 - 2z; modulus must agree with |z - 2| everywhere on the circle
        T = LaurentPolynomial(1, [0, -2, 1])
        out = reflect_outside(T)
        assert out.m == 1
        assert np.allclose(out.v.coeffs, [0, 1, -2])
        t = 2 * np.pi * np.arange(256) / 256
        assert np.max(np.abs(np.abs(out.v.on_circle(t)) - np.abs(T.on_circle(t)))) < 1e-12

    def test_all_inside_is_identity(self):
        T = LaurentPolynomial(1, [0, -0.5, 1])
        out = reflect_outside(T)
        assert out.m == 0
        assert out.v is T
        assert out.modulus_discrepancy == 0.0

    def test_reflected_mahler_matches_product_of_outside_moduli(self):
        # after reflection the geometric mean is |a_n| times the product of
        # the reflected moduli (each max(1,.) of an inside zero is 1)
        rng = np.random.default_rng(12)
        T, zs, c = planted(rng, 4, inside=5, outside=3)
        out = reflect_outside(T)
        outside_mods = np.abs(zs)[np.abs(zs) > 1]
        expected = abs(c) * np.prod(outside_mods)
        got = mahler_from_roots(roots(out.v.to_algebraic())).value
        assert got == pytest.approx(expected, rel=1e-8)
        assert out.m == 3

    def test_reflection_preserves_circle_modulus(self):
        rng = np.random.default_rng(13)
        for n, inside, outside in [(2, 2, 2), (8, 9, 7), (16, 16, 16)]:
            T, _, _ = planted(rng, n, inside=inside, outside=outside)
            out = reflect_outside(T)
            t = 2 * np.pi * np.arange(4096) / 4096
            tmax = np.max(np.abs(T.on_circle(t)))
            disc = np.max(np.abs(np.abs(out.v.on_circle(t)) - np.abs(T.on_circle(t))))
            assert disc <= 1e-8 * tmax
            assert out.modulus_discrepancy <= 1e-8 * tmax

    def test_reflection_preserves_mahler(self):
        rng = np.random.default_rng(14)
        T, _, _ = planted(rng, 6, inside=6, outside=6)
        R = roots(T.to_algebraic())
        out = reflect_outside(T, R)
        m_t = mahler_from_roots(R).value
        m_v = mahler_from_roots(roots(out.v.to_algebraic())).value
        assert m_v == pytest.approx(m_t, rel=1e-8)

    def test_idempotent(self):
        rng = np.random.default_rng(15)
        T, _, _ = planted(rng, 5, inside=4, outside=6)
        first = reflect_outside(T)
        second = reflect_outside(first.v)
        assert second.m == 0
        a, b = first.v.coeffs, second.v.coeffs
        assert first.v.n == second.v.n
        assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)

    def test_reflected_zeros_in_closed_disk(self):
        from bernstein_lab.rootfind import classify

        rng = np.random.default_rng(16)
        T, _, _ = planted(rng, 4, inside=3, outside=5)
        out = reflect_outside(T)
        part = classify(roots(out.v.to_algebraic()), 1e-9)
        assert part.all_in_closed_disk

    def test_rejects_vanishing_top_coefficient(self):
        T = LaurentPolynomial(1, [1, 1, 0])  # z^{-1} + 1, top exponent empty
        with pytest.raises(ValueError):
            reflect_outside(T)

    def test_rejects_wrong_root_count(self):
        T = LaurentPolynomial(1, [0, -2, 1])
        with pytest.raises(RootCountError):
            reflect_outside(T, RootSet(1.0, [2.0, 0.0, 0.5]))


class TestPerturbByEn:
    def test_zero_class_polynomial_becomes_monomial(self):
        T = LaurentPolynomial.zero(3)
        out = perturb_by_en(T, 1.0)
        assert np.array_equal(out.coeffs, LaurentPolynomial.monomial(3, 3).coeffs)

    def test_cancels_monomial(self):
        T = LaurentPolynomial.monomial(2, 2)
        assert perturb_by_en(T, -1.0).is_zero()

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            perturb_by_en(LaurentPolynomial.zero(1), 0.5)

    def test_w_average_of_log_means_recovers_logplus(self):
        # averaging the geometric mean of T + w z^n over unimodular w smooths
        # log into log^+; 64 grid points already agree to 1e-3
        rng = np.random.default_rng(17)
        T, _, _ = planted(rng, 3, inside=3, outside=3)
        ws = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
        avg = 0.0
        for w in ws:
            Tp = perturb_by_en(T, w)
            avg += math.log(mahler_from_roots(roots(Tp.to_algebraic())).value)
        avg /= ws.size
        assert avg == pytest.approx(logplus_integral(T), abs=1e-3)


class TestSmoothedLogplus:
    def test_inside_value_is_zero(self):
        assert smoothed_logplus(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_outside_value_is_log(self):
        assert smoothed_logplus(2.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_random_annulus_against_closed_form(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            v = 10.0 ** rng.uniform(-1, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            expected = max(math.log(abs(v)), 0.0)
            tol = 1e-4 if abs(abs(v) - 1.0) < 1e-3 else 1e-8
            assert abs(smoothed_logplus(v) - expected) <= tol

    def test_near_circle_band(self):
        for r in (1.0 - 5e-4, 1.0, 1.0 + 5e-4):
            v = r * np.exp(0.4j)
            expected = max(math.log(r), 0.0)
            assert abs(smoothed_logplus(v) - expected) <= 1e-4

    def test_rotation_invariance(self):
        v = 1.7 * np.exp(0.3j)
        base = smoothed_logplus(v)
        for theta in (0.5, 2.0, 4.4):
            assert smoothed_logplus(v * np.exp(1j * theta)) == pytest.approx(base, abs=1e-10)


class TestMuMoment:
    def test_zero_u(self):
        assert mu_moment(0.0, 2.0) == 0.0

    def test_unit_u_p_two(self):
        assert mu_moment(1.0, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_u_two_p_one(self):
        assert mu_moment(2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_log_grid(self):
        for u in np.geomspace(1e-3, 1e3, 13):
            for p in (0.25, 0.5, 1.0, 2.0, 4.0):
                assert mu_moment(float(u), p) / u**p == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            mu_moment(1.0, 0.0)
        with pytest.raises(ValueError):
            mu_moment(-1.0, 1.0)

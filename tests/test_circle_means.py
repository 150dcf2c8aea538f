import math

import numpy as np
import pytest

from bernstein_lab.circle_means import (
    _sups,
    logplus_integral,
    mahler_from_roots,
    mean,
    mean_0_quadrature,
    mean_inf,
    mean_p,
    means,
)
from bernstein_lab.polynomials import (
    LaurentPolynomial,
    RootSet,
    from_roots,
    horner_laurent,
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

    def test_method_names_the_route_taken(self):
        # zeros 0 and 2 lie far from the circle, zero 1 lies on it
        far = LaurentPolynomial(1, [0, -2, 1])
        on = LaurentPolynomial(1, [0, -1, 1])
        assert mean_0_quadrature(far, roots(far.to_algebraic())).method == "trapezoid"
        assert mean_0_quadrature(on, roots(on.to_algebraic())).method == "adaptive-singular"

    def test_cross_method_consistency_within_error_estimates(self):
        rng = np.random.default_rng(23)
        T, R = planted(rng, 4, inside=4, on=4)
        mj = mahler_from_roots(R)
        mq = mean_0_quadrature(T, R)
        assert abs(mj.value - mq.value) <= mj.err_estimate + mq.err_estimate + 1e-9 * mj.value


class TestPanelEndBand:
    """Three zeros at modulus 1.001: the stored zeros sit within 1e-16 of the
    NEAR_CIRCLE_THRESHOLD of 1e-3, on both sides. Each must be a panel end
    of the mapped pass, or the one left inside a panel is resolved only by
    doubling the whole grid."""

    ANGLES = (0.5, 2.0, 4.2)

    @pytest.fixture
    def case(self):
        zeros = 1.001 * np.exp(1j * np.array(self.ANGLES))
        T = laurent_from_algebraic(from_roots(1.0, zeros), 2)
        return T, roots(T.to_algebraic())

    @pytest.fixture
    def nodes(self, monkeypatch):
        from bernstein_lab import quadrature

        seen = []
        doubling = quadrature.periodic_mean_doubling

        def counting(*args):
            out = doubling(*args)
            seen.append(out[3])
            return out

        monkeypatch.setattr(quadrature, "periodic_mean_doubling", counting)
        return seen

    def test_geometric_mean_matches_product_formula(self, case, nodes):
        T, R = case
        res = mean_0_quadrature(T, R)
        assert res.method == "adaptive-singular"
        assert res.value == pytest.approx(mahler_from_roots(R).value, rel=1e-10)
        assert res.err_estimate <= 1e-10 * res.value
        assert nodes == [768]

    @pytest.mark.parametrize("p", [0.5, 1.0])
    def test_power_means_match_mpmath(self, case, nodes, p):
        mpmath = pytest.importorskip("mpmath")
        T, R = case
        res = mean_p(T, p, roots_hint=R)
        with mpmath.workdps(20):
            coeffs = [mpmath.mpc(c.real, c.imag) for c in T.coeffs[::-1]]
            ends = [0, *self.ANGLES, 2 * mpmath.pi]
            integral = mpmath.quad(lambda t: abs(mpmath.polyval(coeffs, mpmath.expj(t))) ** p, ends)
            oracle = float((integral / (2 * mpmath.pi)) ** (1 / p))
        assert res.method == "adaptive-singular"
        assert res.value == pytest.approx(oracle, rel=1e-10)
        assert res.err_estimate <= 1e-10 * res.value
        assert len(nodes) == 1 and nodes[0] <= 1024


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


def six_pass_mean_inf(T):
    """(value, err_estimate) of the sup routine that preceded the stacked engine, as reference.

    Its own grid, Horner at every Newton pass, six fixed passes, and an
    err_estimate of sum |j a_j| times the largest last step, without a
    rounding term.
    """
    if T.is_zero():
        return 0.0, 0.0
    n = T.n
    j = np.arange(-n, n + 1)
    stack = np.vstack([T.coeffs, 1j * j * T.coeffs, -(j * j) * T.coeffs])

    def u_series(t):
        z = np.exp(1j * t)
        return [horner_laurent(r, z) for r in stack]

    samples = max(16 * (2 * n + 1), 64)
    t = 2 * np.pi * np.arange(samples) / samples
    g = np.abs(u_series(t)[0])
    peak = (g >= np.roll(g, 1)) & (g >= np.roll(g, -1))
    h = 2 * np.pi / samples
    best = float(np.max(g))
    tk = t[peak]
    lo, hi = tk - h, tk + h
    for _ in range(6):
        u, du, ddu = u_series(tk)
        g1 = 2.0 * np.real(np.conj(u) * du)
        g2 = 2.0 * (np.abs(du) ** 2 + np.real(np.conj(u) * ddu))
        step = np.where(g2 < 0.0, g1 / np.where(g2 < 0.0, g2, -1.0), 0.0)
        tk = np.clip(tk - step, lo, hi)
        best = max(best, float(np.max(np.abs(u))))
    best = max(best, float(np.max(np.abs(u_series(tk)[0]))))
    return best, float(np.sum(np.abs(j * T.coeffs))) * float(np.max(np.abs(step)))


class TestStackedSup:
    def test_agrees_with_the_six_pass_routine(self, sup_corpus):
        polys, monomials = sup_corpus
        for T in polys + monomials:
            old_value, old_err = six_pass_mean_inf(T)
            res = mean_inf(T)
            rounding = 4 * 2.0**-53 * float(np.sum(np.abs(T.coeffs)))
            assert abs(res.value - old_value) <= max(old_err, res.err_estimate) + rounding

    def test_at_or_above_every_grid_sample(self, sup_corpus):
        polys, monomials = sup_corpus
        t = 2 * np.pi * np.arange(1 << 12) / (1 << 12)
        for T in polys:
            assert mean_inf(T).value >= np.max(np.abs(T.on_circle(t)))
        # |T| is flat on a monomial, so the grid's largest sample is Horner's
        # rounding above |c|, which err_estimate covers
        for T in monomials:
            res = mean_inf(T)
            assert res.value + res.err_estimate >= np.max(np.abs(T.on_circle(t)))

    def test_flat_peaks_settle(self, sup_corpus):
        # on a monomial every slope is rounding noise, so no peak takes a step
        _, monomials = sup_corpus
        for T in monomials:
            res = mean_inf(T)
            assert res.value == pytest.approx(1.5, rel=1e-14)
            assert res.err_estimate <= 1e-13 * res.value

    def test_rows_do_not_depend_on_their_stack(self, sup_classes):
        # each peak stops on its own step, so a row's value and err_estimate
        # are those of its one-row call, bitwise
        for rows in sup_classes.values():
            values, errs = _sups(rows)
            for k, row in enumerate(rows):
                (value,), (err,) = _sups(row[None])
                assert values[k].tobytes() == value.tobytes()
                assert errs[k].tobytes() == err.tobytes()

    def test_polish_converges(self):
        rng = np.random.default_rng(5)
        for _ in range(400):
            res = mean_inf(LaurentPolynomial(4, rng.normal(size=9) + 1j * rng.normal(size=9)))
            assert res.err_estimate <= 1e-12 * res.value


class TestMeanDispatch:
    def test_each_p_takes_its_route(self):
        rng = np.random.default_rng(42)
        T, R = planted(rng, 3, inside=3, outside=3)
        assert mean(T, 0.0, roots_hint=R) == mahler_from_roots(R)
        assert mean(T, 0.0) == mahler_from_roots(roots(T.to_algebraic()))
        assert mean(T, 0.5, roots_hint=R) == mean_p(T, 0.5, roots_hint=R)
        assert mean(T, 2.0) == mean_p(T, 2.0)
        assert mean(T, math.inf) == mean_inf(T)

    def test_wrong_hint_is_checked(self):
        # z (z - 2): M_0 is 2, and the hint's zeros {0, 3} do not factor it
        T = LaurentPolynomial(1, [0, -2, 1])
        wrong = RootSet(1.0, [0.0, 3.0])
        assert mean(T, 0.0, roots_hint=wrong).value == pytest.approx(2.0, rel=1e-12)
        exact = mean_p(T, 0.5, roots_hint=RootSet(1.0, [0.0, 2.0]))
        assert mean_p(T, 0.5, roots_hint=wrong) == exact


class TestSmallTopCoefficient:
    """A tiny top coefficient puts a zero of z^n T near 1e9, where no root
    set meets an absolute residual of 1e-10 in double precision."""

    @pytest.mark.parametrize(
        "T",
        [
            LaurentPolynomial(1, [1, 0.5, 1e-9]),
            LaurentPolynomial(2, [1, 0, 0, 0.3, 1e-10]),
        ],
    )
    def test_geometric_mean_is_one(self, T):
        m0, m_half = means(T, [0.0, 0.5])
        assert m0.value == pytest.approx(1.0, abs=1e-14)
        assert m_half.value > 0.0


class TestSharedLadder:
    """``means`` runs the finite p through at most two shared passes, each
    reading |T| compensated as its smallest p needs. A p that reads the same
    values in the pass as alone gets bitwise the value mean_p gives it alone,
    as every p of test_ladder_equals_per_p_means's samples does; one that
    reads more compensated values may move."""

    LADDER = (0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 16.0, math.inf)

    def test_ladder_equals_per_p_means(self, monkeypatch):
        from bernstein_lab import circle_means
        from bernstein_lab.rootfind import checked_roots
        from bernstein_lab.verify import DISTRIBUTIONS, SampleSpec, sample_with_roots

        compensated = []
        horner_compensated = circle_means.horner_compensated

        def counting(coeffs, z):
            compensated.append(np.size(z))
            return horner_compensated(coeffs, z)

        monkeypatch.setattr(circle_means, "horner_compensated", counting)
        seen_compensated = seen_near = False
        for dist in DISTRIBUTIONS:
            for n in (1, 4, 16):
                spec = SampleSpec(n, dist, 2024, 2)
                for index in range(spec.count):
                    T, planted = sample_with_roots(spec, index)
                    R = checked_roots(T.to_algebraic(), planted)
                    del compensated[:]
                    ladder = means(T, self.LADDER, roots_hint=R)
                    seen_compensated |= bool(compensated)
                    seen_near |= bool(np.any(np.abs(np.abs(R.roots) - 1.0) <= 1e-3))
                    single = [
                        mean_p(T, p, roots_hint=R) if 0 < p < math.inf else mean(T, p, roots_hint=R)
                        for p in self.LADDER
                    ]
                    for a, b in zip(ladder, single):
                        assert (a.value, a.err_estimate, a.method) == (
                            b.value, b.err_estimate, b.method
                        ), (dist, n, index, a.p)
        assert seen_compensated and seen_near

    def test_near_zero_means_share_one_mapped_pass(self, monkeypatch):
        # a zero 1e-6 inside the circle: every p of the ladder takes the
        # mapped pass, and one call serves them all
        from bernstein_lab import quadrature

        calls = []
        mapped = quadrature.singular_circle_mean
        monkeypatch.setattr(
            quadrature, "singular_circle_mean", lambda *a: calls.append(1) or mapped(*a)
        )
        zeros = np.array([(1 - 1e-6) * np.exp(0.7j), 0.3, -2.0 + 1j, 0.5j])
        T = laurent_from_algebraic(from_roots(1.5, zeros), 2)
        R = roots(T.to_algebraic())
        ps = [0.01, 0.1, 0.5, 1.0]
        ladder = means(T, ps, roots_hint=R)
        assert len(calls) == 1
        for p, a in zip(ps, ladder):
            b = mean_p(T, p, roots_hint=R)
            assert a.method == b.method == "adaptive-singular"
            assert abs(a.value - b.value) <= max(a.err_estimate, b.err_estimate)
        assert len(calls) == 1 + len(ps)

    def test_ladder_compensates_at_its_smallest_p(self, monkeypatch):
        # a zero 1e-6 outside the circle beside four unimodular factors: the
        # ladder's mapped pass takes compensated Horner at p = 0.01 on
        # batches that p = 1 alone reads plain
        from bernstein_lab import circle_means

        compensated = []
        kernel = circle_means.horner_compensated
        monkeypatch.setattr(
            circle_means, "horner_compensated", lambda c, z: compensated.append(1) or kernel(c, z)
        )
        unimodular = np.exp(1j * (0.7 + 0.1 * np.arange(4)))
        zeros = np.concatenate([[(1 + 1e-6) * np.exp(0.6j)], unimodular, [0.3, -2.0 + 1j, 0.5j]])
        T = laurent_from_algebraic(from_roots(1.5, zeros), 4)
        R = roots(T.to_algebraic())
        ps = [0.01, 0.5, 1.0, 4.0]
        ladder = means(T, ps, roots_hint=R)
        assert compensated
        for p, a in zip(ps, ladder):
            del compensated[:]
            b = mean(T, p, roots_hint=R)
            assert bool(compensated) == (p < 1.0), p
            assert a.method == b.method
            assert abs(a.value - b.value) <= max(a.err_estimate, b.err_estimate)

    def test_order_and_repeats_kept(self):
        rng = np.random.default_rng(8)
        T, R = planted(rng, 2, inside=2, outside=2)
        ps = [math.inf, 2.0, 0.5, 0.0, 2.0]
        assert means(T, ps, roots_hint=R) == [mean(T, p, roots_hint=R) for p in ps]

    def test_rejects_bad_p(self):
        T = LaurentPolynomial(1, [1.0, 0.0, 1.0])
        for bad in ([0.5, -1.0], [float("nan")]):
            with pytest.raises(ValueError):
                means(T, bad)

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rejects_bad_rel_tol_before_any_route(self, rel_tol, monkeypatch):
        # p = 0 and p = inf read no quadrature, and no zeros are solved
        from bernstein_lab import circle_means

        monkeypatch.setattr(circle_means, "checked_roots", lambda *a: pytest.fail("a solve ran"))
        T = LaurentPolynomial(1, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="rel_tol"):
            means(T, [0.0, math.inf], rel_tol=rel_tol)


class TestOneCompensationDecision:
    """_abs_on_circle decides on compensation once per batch, at the p it is
    given: a batch that a larger p would compensate, a smaller p compensates
    too, so one evaluator at the smallest p of a pass serves all of them."""

    PS = (0.0, 0.01, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0)

    def test_smaller_p_compensates_every_batch_a_larger_p_does(self):
        from bernstein_lab.circle_means import _abs_on_circle, _panel_ends
        from bernstein_lab.quadrature import circle_grid, graded_edges
        from bernstein_lab.rootfind import checked_roots
        from bernstein_lab.verify import SampleSpec, sample_with_roots

        # eight unimodular factors: near their zeros the plain value is noise
        T, planted = sample_with_roots(SampleSpec(8, "roots-on-circle", 123, 10), 0)
        ends = np.sort(_panel_ends(T, checked_roots(T.to_algebraic(), planted)) % (2 * np.pi))
        split = set()
        for m in (64, 256, 1024):
            t, dt = graded_edges(circle_grid(m, 0.5), ends).T
            for kind, batch in (("mapped", t[dt > 0]), ("uniform", circle_grid(m, 0.5))):
                plain = np.abs(T(np.exp(1j * batch)))
                values = [_abs_on_circle(T, 1e-12, p)(batch) for p in self.PS]
                compensated = [not np.array_equal(v, plain) for v in values]
                # once one p reads plain values, every larger p does
                assert compensated == sorted(compensated, reverse=True), (kind, m)
                k = sum(compensated)
                assert all(np.array_equal(v, values[0]) for v in values[:k]), (kind, m)
                if 0 < k < len(self.PS):
                    split.add(kind)
        assert split == {"mapped", "uniform"}


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

    def test_dip_between_scan_points(self):
        # a zero 1.1e-4 from the circle: |T| < 1 only for t in about
        # [1.8553557, 1.8557181], which the 8192-point scan misses; the value
        # is mpmath's at 30 and 40 digits
        from bernstein_lab.verify import SampleSpec, sample_polynomial

        T = sample_polynomial(SampleSpec(16, "roots-mixed", 77, 10), 1)
        assert logplus_integral(T) == pytest.approx(11.497690057981873, abs=1e-10)

    def test_tolerance_below_horner_rounding(self):
        # T'/16 of a product of unimodular factors: its coefficients are far
        # above |T'/16| near the clustered zeros, where plain Horner is
        # rounding noise; the value is mpmath's
        from bernstein_lab.verify import SampleSpec, sample_polynomial

        T = sample_polynomial(SampleSpec(16, "roots-on-circle", 123, 2), 1)
        D = T.derivative() * (1.0 / 16)
        value = logplus_integral(D, 1e-14)
        assert value == pytest.approx(2.3217515570592684441, abs=1e-13)


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

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, math.nan, math.inf])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        T = LaurentPolynomial(1, [1.0, 0.5, 2.0])
        with pytest.raises(ValueError, match="rel_tol"):
            means(T, [0.5], rel_tol=rel_tol)
        with pytest.raises(ValueError, match="rel_tol"):
            logplus_integral(T, rel_tol)


class TestMappedPassEstimates:
    """The mapped pass's err_estimate must cover its error. Each reference is
    the product formula over the zeros of the stored coefficients."""

    @staticmethod
    def stored_mahler(T, R):
        from bernstein_lab.rootfind import _refined

        return mahler_from_roots(RootSet(R.leading, _refined(T.coeffs, R.roots), 0)).value

    @pytest.mark.parametrize(
        "n, index, derivative",
        [
            # T': solved zeros up to 1e-11 off the stored ones in angle; at
            # the solved angles the pass stopped 7e-12 off with estimate 4e-12
            (8, 3, True),
            # T: levels 4096 and 8192 of the pass agreed by chance to 1e-13,
            # 9e-13 off the stored mean
            (16, 131, False),
        ],
    )
    def test_roots_on_circle(self, n, index, derivative):
        from bernstein_lab.rootfind import checked_roots
        from bernstein_lab.verify import SampleSpec, sample_with_roots

        T, planted = sample_with_roots(SampleSpec(n, "roots-on-circle", 20260410, 200), index)
        P = T.derivative() if derivative else T
        R = checked_roots(P.to_algebraic(), None if derivative else planted)
        res = mean_0_quadrature(P, R)
        assert res.method == "adaptive-singular"
        assert abs(res.value - self.stored_mahler(P, R)) <= res.err_estimate <= 1e-10 * res.value

    def test_high_degree_single_panel(self):
        # T = (z - z0)(z^199 - 1.1^199): from 32 nodes in its one panel, the
        # grids missed the 199 ripples of |T| and stopped 1.4e-10 off, with
        # estimate 8e-11
        m = 199
        z0 = (1 + 1e-8) * np.exp(4.93j)
        zeros = np.concatenate([[z0], 1.1 * np.exp(2j * np.pi * np.arange(m) / m)])
        c = np.polynomial.polynomial.polymul(np.r_[-(1.1**m), np.zeros(m - 1), 1.0], [-z0, 1.0])
        T = LaurentPolynomial(100, c / np.max(np.abs(c)))
        R = RootSet(complex(T.coeffs[-1]), zeros, 0)
        exact = abs(T.coeffs[-1]) * abs(z0) * 1.1**m
        res = mean_0_quadrature(T, R)
        assert res.method == "adaptive-singular"
        assert abs(res.value - exact) <= res.err_estimate <= 1e-10 * exact

import numpy as np
import pytest

from bernstein_lab.polynomials import AlgebraicPolynomial, from_roots
from bernstein_lab.rootfind import classify, roots


def match_distance(found, planted):
    """Largest distance from a found root to its nearest planted one.

    inf unless that pairing is a bijection: two found roots sharing a planted
    one leave another unmatched. When it is, no pairing has a smaller largest
    distance.
    """
    cost = np.abs(np.subtract.outer(np.asarray(found), np.asarray(planted)))
    nearest = cost.argmin(axis=1)
    if cost.shape[0] != cost.shape[1] or np.unique(nearest).size != nearest.size:
        return np.inf
    return cost[np.arange(nearest.size), nearest].max()


class TestMatchDistance:
    def test_perturbed_root_shows(self):
        zs = np.array([0.5, -1.0 + 1j, 2.0j, 3.0])
        moved = zs.copy()
        moved[2] += 1e-6
        assert match_distance(zs[::-1], zs) == 0.0
        assert match_distance(moved, zs) == pytest.approx(1e-6, rel=1e-6)

    def test_pairing_must_be_one_to_one(self):
        zs = np.array([0.5, -1.0 + 1j, 2.0j, 3.0])
        doubled = zs.copy()
        doubled[3] = zs[0] + 1e-9  # 3.0 is lost, 0.5 is found twice
        assert match_distance(doubled, zs) == np.inf
        assert match_distance(zs[:3], zs) == np.inf


class TestRoots:
    def test_conjugate_pair(self):
        R = roots(AlgebraicPolynomial([1, 0, 1]))
        assert match_distance(R.roots, [1j, -1j]) < 1e-12

    def test_origin_root_exact(self):
        R = roots(AlgebraicPolynomial([0, -2, 1]))
        assert 0.0 in R.roots
        assert match_distance(R.roots, [0.0, 2.0]) < 1e-12

    def test_rejects_zero_polynomial(self):
        with pytest.raises(ValueError):
            roots(AlgebraicPolynomial([0.0, 0.0]))

    def test_degree_deficit_counts_stripped_leading_zeros(self):
        R = roots(AlgebraicPolynomial([1.0, 1.0, 0.0, 0.0]))
        assert R.degree_deficit == 2
        assert len(R) == 1

    def test_planted_annulus_roots_recovered(self):
        rng = np.random.default_rng(42)
        zs = rng.uniform(0.2, 3.0, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        R = roots(from_roots(1.0, zs))
        assert match_distance(R.roots, zs) < 1e-6

    def test_against_companion_eigenvalues(self):
        # independent oracle: numpy's eigenvalue-based solver
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = rng.normal(size=13) + 1j * rng.normal(size=13)
            R = roots(AlgebraicPolynomial(c))
            oracle = np.roots(c[::-1])
            assert match_distance(R.roots, oracle) < 1e-8

    def test_residual_invariant(self):
        rng = np.random.default_rng(11)
        tol = 1e-10
        for _ in range(5):
            zs = rng.uniform(0.3, 2.0, 12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
            # enforce pairwise separation for the residual claim
            if np.min(np.abs(np.subtract.outer(zs, zs) + np.eye(12))) < 1e-2:
                continue
            P = from_roots(2.0, zs)
            R = roots(P)
            residual = np.max(np.abs(P(R.roots)))
            assert residual <= tol * (1.0 + np.max(np.abs(P.coeffs)))

    def test_root_count_matches_degree(self):
        rng = np.random.default_rng(9)
        for deg in (1, 2, 3, 7, 16):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            R = roots(AlgebraicPolynomial(c))
            assert len(R) + R.degree_deficit == deg

    def test_high_degree_with_origin_cluster(self):
        R = roots(AlgebraicPolynomial([0, 0, 0, 1, 0, 0, 1]))
        assert np.count_nonzero(R.roots == 0) == 3
        assert len(R) == 6


class TestClassify:
    def test_inside_outside(self):
        R = roots(AlgebraicPolynomial([0, -2, 1]))
        part = classify(R, 1e-9)
        assert np.allclose(part.inside, [0.0])
        assert part.on.size == 0
        assert np.allclose(part.outside, [2.0])

    def test_on_circle(self):
        R = roots(AlgebraicPolynomial([1, 0, 1]))
        part = classify(R, 1e-9)
        assert part.on.size == 2
        assert part.all_in_closed_disk

    def test_tolerance_band(self):
        from bernstein_lab.polynomials import RootSet

        R = RootSet(leading=1.0, roots=[0.999999999])
        part = classify(R, 1e-6)
        assert part.on.size == 1

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(21)
        zs = rng.uniform(0.5, 1.5, 14) * np.exp(1j * rng.uniform(0, 2 * np.pi, 14))
        R = roots(from_roots(1.0, zs))
        part = classify(R, 1e-3)
        total = np.concatenate([part.inside, part.on, part.outside])
        assert match_distance(np.sort_complex(total), np.sort_complex(R.roots)) == 0
        assert np.all(np.abs(part.inside) < 1.0 - 1e-3)
        assert np.all(np.abs(np.abs(part.on) - 1.0) <= 1e-3)
        assert np.all(np.abs(part.outside) > 1.0 + 1e-3)

    def test_shrinking_eps_only_resolves_the_band(self):
        rng = np.random.default_rng(33)
        zs = rng.uniform(0.2, 2.0, 12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        R = roots(from_roots(1.0, zs))
        wide = classify(R, 1e-2)
        narrow = classify(R, 1e-8)
        assert set(np.round(wide.inside, 10)) <= set(np.round(narrow.inside, 10))
        assert set(np.round(wide.outside, 10)) <= set(np.round(narrow.outside, 10))

    def test_epsilon_range_enforced(self):
        R = roots(AlgebraicPolynomial([1, 0, 1]))
        with pytest.raises(ValueError):
            classify(R, 0.7)


def corpus():
    """(distribution, z^n T) and (distribution, z^{n+1} T') for samples of every distribution."""
    from bernstein_lab.verify import DISTRIBUTIONS, SampleSpec, sample_polynomial

    for dist in DISTRIBUTIONS:
        for n in (2, 4, 8):
            for index in range(2):
                T = sample_polynomial(SampleSpec(n, dist, 4242, 2), index)
                for P in (T.to_algebraic(), T.derivative().to_algebraic()):
                    yield dist, P


class TestNewtonPolish:
    """Newton polish stops at the rounding level; every solve still meets the rule."""

    def test_every_solve_meets_the_residual_rule(self):
        mpmath = pytest.importorskip("mpmath")
        from bernstein_lab.rootfind import MAX_RESIDUAL

        with mpmath.workdps(40):
            for _, P in corpus():
                R = roots(P)
                c = P.normalized()[0].coeffs
                coeffs = [mpmath.mpc(x.real, x.imag) for x in c[::-1]]
                z = R.roots
                for k, zk in enumerate(z):
                    value = abs(mpmath.polyval(coeffs, mpmath.mpc(zk.real, zk.imag)))
                    others = np.abs(np.delete(z, k) - zk)
                    residual = float(value) / (abs(c[-1]) * np.prod(others))
                    assert residual <= MAX_RESIDUAL

    def test_well_conditioned_solve_takes_at_most_three_passes(self, monkeypatch):
        from bernstein_lab import rootfind

        passes = []
        kernel = rootfind._horner_bound

        def counting(c, z):
            passes.append(z.shape[0])
            return kernel(c, z)

        monkeypatch.setattr(rootfind, "_horner_bound", counting)
        zs = np.array([0.5, 0.8, 1.2, 1.5, 0.6, 0.9, 1.3, 1.7]) * np.exp(
            2j * np.pi * np.arange(8) / 8 + 0.3j
        )
        R = roots(from_roots(1.5 - 0.5j, zs))
        assert match_distance(R.roots, zs) < 1e-12
        assert 1 <= len(passes) <= 3

    def test_escalation_starts_from_the_eigenvalues(self, monkeypatch):
        # Newton polish can move two iterates onto one zero of this z^32 T,
        # which Aberth steps from the polished set cannot separate again
        mpmath = pytest.importorskip("mpmath")
        from bernstein_lab import rootfind
        from bernstein_lab.verify import SampleSpec, sample_polynomial

        def no_mpmath(*args, **kwargs):
            raise AssertionError("the solve reached mpmath.polyroots")

        monkeypatch.setattr(mpmath, "polyroots", no_mpmath)
        P = sample_polynomial(SampleSpec(32, "roots-in-disk", 4242, 60), 11).to_algebraic()
        R = roots(P)
        assert len(R) == 64
        c = rootfind._scaled(P.normalized()[0].coeffs)
        assert rootfind._residual_within(c, R.roots, rootfind.MAX_RESIDUAL)[0]

    def test_mahler_measure_matches_mpmath_polyroots(self):
        mpmath = pytest.importorskip("mpmath")
        from bernstein_lab.circle_means import mahler_from_roots

        with mpmath.workdps(40):
            for dist, P in corpus():
                # Products of unimodular factors have zeros in near-multiple
                # clusters on the circle, which double precision pins only to
                # the residual rule: M_0 may move by a few MAX_RESIDUAL there.
                rel = 1e-10 if dist == "roots-on-circle" else 1e-12
                c = P.normalized()[0].coeffs
                exact = mpmath.polyroots(
                    [mpmath.mpc(x.real, x.imag) for x in c[::-1]], maxsteps=200, extraprec=80
                )
                m0 = abs(mpmath.mpc(c[-1])) * mpmath.fprod(max(1, abs(r)) for r in exact)
                assert mahler_from_roots(roots(P)).value == pytest.approx(float(m0), rel=rel)


class TestHintMemo:
    def test_second_call_with_the_same_hint_does_not_refine(self, monkeypatch):
        from bernstein_lab import rootfind
        from bernstein_lab.rootfind import checked_roots
        from bernstein_lab.verify import SampleSpec, sample_with_roots

        refined = []
        refine = rootfind._refined

        def counting(c, z):
            refined.append(z.shape[0])
            return refine(c, z)

        monkeypatch.setattr(rootfind, "_refined", counting)
        rootfind._hint_zeros.cache_clear()
        # 32 unimodular factors: the planted zeros miss the rule and are refined
        T, planted = sample_with_roots(SampleSpec(16, "roots-on-circle", 20260410, 4), 3)
        first = checked_roots(T.to_algebraic(), planted)
        assert len(refined) == 1 and first is not planted
        second = checked_roots(T.to_algebraic(), planted)
        assert len(refined) == 1
        assert np.array_equal(second.roots, first.roots)
        assert second.leading == first.leading
        assert second.degree_deficit == first.degree_deficit

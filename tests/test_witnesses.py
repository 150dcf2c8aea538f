"""Regression witnesses of the p = 0 derivative-mean sweep, pinned against mpmath.

Every reference value is M_0 of the polynomial as stored in double precision:
mpmath.polyroots on the stored coefficients at 40 and at 60 digits, which
agree to 40 significant digits, then |lead| * prod max(1, |z_k|). Samples are
(distribution, n, seed, index) of verify.sample_with_roots; T' is the
derivative computed in double precision, as the checks compute it.
"""

import numpy as np
import pytest

from bernstein_lab.circle_means import mahler_from_roots, mean_0_quadrature
from bernstein_lab.polynomials import horner_compensated
from bernstein_lab.rootfind import checked_roots, roots
from bernstein_lab.verify import SampleSpec, check_bernstein, sample_with_roots

SEED = 20260410


def sample(distribution, index, seed=SEED, n=16):
    spec = SampleSpec(n=n, distribution=distribution, seed=seed, count=index + 1)
    return sample_with_roots(spec, index)


class TestCircleWitness:
    """(roots-on-circle, 16, 20260410, 3): 32 unimodular factors, coefficients up to 3.3e5.

    Aberth plateaus at residual 1.5e-3 on z^16 T and 2.5e-4 on z^17 T', and the
    planted zeros have residual 0.13 against the stored coefficients (their
    M_0 is 0.835099).
    """

    M0_T = 0.86124523686088488008
    M0_DT = 13.384589580449388561

    def test_roots_give_stored_means(self):
        T, _ = sample("roots-on-circle", 3)
        m0 = mahler_from_roots(roots(T.to_algebraic())).value
        m0d = mahler_from_roots(roots(T.derivative().to_algebraic())).value
        assert m0 == pytest.approx(self.M0_T, rel=1e-9)
        assert m0d == pytest.approx(self.M0_DT, rel=1e-9)

    def test_planted_hint_is_refined_without_a_solve(self, monkeypatch):
        from bernstein_lab import rootfind

        def no_solve(P, tol=1e-12):
            raise AssertionError("hint refinement fell back to roots()")

        monkeypatch.setattr(rootfind, "roots", no_solve)
        T, planted = sample("roots-on-circle", 3)
        R = checked_roots(T.to_algebraic(), planted)
        assert R is not planted
        assert mahler_from_roots(R).value == pytest.approx(self.M0_T, rel=1e-9)

    def test_check_bernstein_with_planted_hint(self):
        T, planted = sample("roots-on-circle", 3)
        rep = check_bernstein(T, 0.0, 1e-6, roots_hint=planted)
        assert rep.passed
        assert rep.rhs == pytest.approx(16 * self.M0_T, rel=1e-9)


def test_outside_plateau_witness():
    # Aberth stops at residual 1.7e-7 on z^17 T' and the plateau was accepted;
    # its M_0 was 8.6e-8 low, which failed the 1e-8 verdict tolerance.
    T, _ = sample("roots-outside", 3)
    m0d = mahler_from_roots(roots(T.derivative().to_algebraic())).value
    assert m0d == pytest.approx(10822433542.365194087, rel=1e-9)


@pytest.mark.parametrize(
    "distribution, seed, index, derivative, expected, rel",
    [
        # a zero just beyond 1e-3 of the circle, unresolved by fixed panels
        ("coeff-gaussian", 1000, 2, True, 55.411657465680086428, 1e-9),
        ("roots-in-disk", SEED, 131, False, 1.6652897755665404023, 1e-9),
        # double-precision |T| is rounding noise near the clustered zeros
        ("roots-on-circle", SEED, 26, False, 0.97528674122397943287, 1e-8),
    ],
)
def test_mean_0_quadrature_witnesses(distribution, seed, index, derivative, expected, rel):
    T, _ = sample(distribution, index, seed=seed)
    P = T.derivative() if derivative else T
    res = mean_0_quadrature(P, roots(P.to_algebraic()))
    assert res.method == "adaptive-singular"
    assert res.value == pytest.approx(expected, rel=rel)
    assert res.err_estimate <= rel * expected


def test_planted_mixed_hint_is_used():
    T, planted = sample("roots-mixed", 0, seed=1000)
    assert checked_roots(T.to_algebraic(), planted) is planted


def test_hint_with_wrong_leading_coefficient_is_rejected():
    T, planted = sample("roots-mixed", 0, seed=1000)
    other = type(planted)(leading=2.0 * planted.leading, roots=planted.roots)
    R = checked_roots(T.to_algebraic(), other)
    assert R is not other
    assert R.leading == planted.leading


def test_compensated_horner_resolves_noise():
    import mpmath

    T, planted = sample("roots-on-circle", 3)
    c = T.to_algebraic().coeffs
    z = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    z = np.concatenate([z, planted.roots])
    with mpmath.workdps(40):
        cs = [mpmath.mpc(float(a.real), float(a.imag)) for a in c[::-1]]
        exact = np.array(
            [complex(mpmath.polyval(cs, mpmath.mpc(float(w.real), float(w.imag)))) for w in z]
        )
    got = horner_compensated(c, z)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-14

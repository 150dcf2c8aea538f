"""Root finding and unit-circle classification.

The zeros come from the eigenvalues of the companion matrix (numpy.roots,
LAPACK), which are backward stable (Edelman and Murakami, Math. Comp. 64,
1995), polished by per-root Newton steps that are kept only where they
lower |P|. Multiple roots are returned as nearby simple roots; every
downstream formula is continuous in the roots, so clusters are harmless at
our tolerances.

Every root set is judged against the stored double-precision coefficients by
its Weierstrass residual, with P(z_k) evaluated by compensated Horner where
plain Horner cannot resolve it. Double precision does not always pin the
zeros: products of many unimodular factors have coefficients five orders
above |P| on the circle. A solve whose residual stays above MAX_RESIDUAL is
continued on the same coefficients in extended precision (Bini and
Fiorentino, Numer. Algorithms 23, 2000): Aberth steps on compensated-Horner
values first, mpmath at _ESCALATION_DPS digits if those miss too.
NumericFailure is raised only when the mpmath solve fails as well.
Generative root sets (planted zeros) go through ``checked_roots``, which holds
them to the same rule, refining them by the same extended-precision steps
when they miss it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure
from .polynomials import AlgebraicPolynomial, RootSet, horner, horner_compensated

__all__ = [
    "roots",
    "checked_roots",
    "classify",
    "CirclePartition",
    "DEFAULT_CIRCLE_EPS",
    "MAX_RESIDUAL",
]

DEFAULT_CIRCLE_EPS = 1e-9

# Largest Weierstrass residual at which a root set, solved or supplied as a
# hint, is taken as the zeros of the stored coefficients. The residual is
# about each root's distance to a zero of the stored coefficients, and M_0
# by the product formula moves by at most the sum of those distances to
# first order (0.9x the residual in the median of the planted sets
# measured, 3.1x at most). For degree up to about 100 this keeps
# root-product means inside the 1e-8 relative verdict tolerance.
MAX_RESIDUAL = 1e-10
_COMPENSATED_ITER = 30
_ESCALATION_DPS = 30
_ESCALATION_MAXSTEPS = 400


def _horner_pair(c: np.ndarray, z: np.ndarray):
    """Value and derivative of sum c_j z^j at the points z, as two stacked rows."""
    dc = np.zeros_like(c)
    dc[:-1] = np.arange(1, c.shape[0]) * c[1:]
    return horner(np.vstack([c, dc]), z)


def _residual_from_values(c: np.ndarray, z: np.ndarray, abs_p: np.ndarray) -> float:
    diff = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(diff, 1.0)
    logprod = np.sum(np.log(np.maximum(diff, 1e-300)), axis=1)
    logres = np.log(np.maximum(abs_p, 1e-300)) - np.log(np.abs(c[-1])) - logprod
    return float(np.exp(np.max(logres)))


def _residual_within(c: np.ndarray, z: np.ndarray, limit: float) -> tuple[bool, float]:
    """Whether the Weierstrass residual of z against c is at most ``limit``, and its value.

    The plain-Horner residual plus its running rounding bound settles the
    comparison whenever that upper bound is within the limit; otherwise
    P(z_k) is evaluated again by compensated Horner, which resolves it down
    to about 1e-16 |z_k| even where the plain value is rounding noise.
    """
    if z.shape[0] == 0:
        return True, 0.0
    # Horner with a running error bound (Higham, Accuracy and Stability of
    # Numerical Algorithms, 5.1): step s_k = s_{k+1} z + c_k errs by at most
    # 2 sqrt(2) u |s_{k+1} z| + u |s_k|, so P(z) by (2 sqrt(2) + 1) u mu with
    # mu = sum_k |s_k| |z|^k.
    p = np.full_like(z, c[-1])
    mu = np.abs(p)
    r = np.abs(z)
    for k in range(c.shape[0] - 2, -1, -1):
        p *= z
        p += c[k]
        mu *= r
        mu += np.abs(p)
    upper = _residual_from_values(c, z, np.abs(p) + 4 * 2.0**-53 * mu)
    if upper <= limit:
        return True, upper
    res = _residual_from_values(c, z, np.abs(horner_compensated(c, z)))
    return res <= limit, res


def _newton_polish(c: np.ndarray, z: np.ndarray, iters: int = 8) -> np.ndarray:
    """Per-root Newton steps, keeping each update only if |P| decreased."""
    best = cur = z
    best_abs = np.full(z.shape, np.inf)
    for _ in range(iters + 1):
        pv, dpv = _horner_pair(c, cur)
        improved = np.abs(pv) < best_abs
        best = np.where(improved, cur, best)
        best_abs = np.where(improved, np.abs(pv), best_abs)
        cur = cur - pv / np.where(np.abs(dpv) < 1e-300, 1e-300 + 0j, dpv)
    return best


def _aberth_step(z: np.ndarray, p: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Aberth correction: the Newton step p/dp divided by 1 - (p/dp) sum_j 1/(z_k - z_j)."""
    dp = np.where(np.abs(dp) < 1e-300, 1e-300 + 0j, dp)
    newton = p / dp
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, np.inf)
    denom = 1.0 - newton * np.sum(1.0 / diff, axis=1)
    denom = np.where(np.abs(denom) < 1e-300, 1e-300 + 0j, denom)
    return newton / denom


def _refined(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Aberth steps from z with P evaluated by compensated Horner.

    Compensated Horner behaves like twice double precision, so the steps
    converge to the zeros of the stored coefficients where plain Aberth
    plateaus: a few dozen milliseconds for 32 unimodular factors.
    """
    for _ in range(_COMPENSATED_ITER):
        _, dp = _horner_pair(c, z)
        step = _aberth_step(z, horner_compensated(c, z), dp)
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(np.abs(z), 1.0)):
            break
    return z


def _escalated(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Zeros of c in extended precision, starting from the double-precision iterate z.

    First _refined steps from z. If their residual still misses MAX_RESIDUAL,
    mpmath.polyroots solves c anew at _ESCALATION_DPS digits, about a
    second at degree 32. NumericFailure when both fail.
    """
    z = _refined(c, z)
    if _residual_within(c, z, MAX_RESIDUAL)[0]:
        return z

    import mpmath

    with mpmath.workdps(_ESCALATION_DPS):
        try:
            found = mpmath.polyroots(
                [mpmath.mpc(x.real, x.imag) for x in c[::-1]],
                maxsteps=_ESCALATION_MAXSTEPS,
                extraprec=2 * _ESCALATION_DPS,
            )
        except mpmath.libmp.NoConvergence as exc:
            raise NumericFailure(
                f"extended-precision root solve did not converge at degree {c.shape[0] - 1}"
            ) from exc
    z = np.array([complex(r) for r in found])
    ok, res = _residual_within(c, z, MAX_RESIDUAL)
    if not ok:
        raise NumericFailure(
            f"extended-precision roots miss residual {MAX_RESIDUAL:.0e}: {res:.3e}",
            residual=res,
        )
    return z


def _scaled(c: np.ndarray) -> np.ndarray:
    """c divided by the power of two nearest above max |c_j|: exact, so the zeros stay put."""
    return c / 2.0 ** np.frexp(np.max(np.abs(c)))[1]


def roots(P: AlgebraicPolynomial) -> RootSet:
    """All zeros of P, multiplicities listed repeatedly.

    High-order zero coefficients are stripped first (counted in
    degree_deficit); low-order zero coefficients become exact roots at the
    origin. The rest are companion-matrix eigenvalues polished by Newton
    steps. When they have a Weierstrass residual above MAX_RESIDUAL against
    the stored coefficients, the same coefficients are solved again in
    extended precision: Aberth steps on compensated-Horner values, then, if
    those still miss, mpmath.polyroots. NumericFailure is raised when the
    eigenvalue solve fails, or when the mpmath solve does not converge or its
    roots, rounded to double, still miss MAX_RESIDUAL.
    """
    if P.is_zero():
        raise ValueError("zero polynomial has no root set")
    work, deficit = P.normalized()
    c = work.coeffs
    nz_low = np.nonzero(c)[0][0]
    origin_mult = int(nz_low)
    c = c[nz_low:]
    leading = complex(c[-1])
    found = np.zeros(0, dtype=complex)
    if c.shape[0] > 1:
        scaled = _scaled(c)
        try:
            found = _newton_polish(scaled, np.roots(scaled[::-1]))
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(
                f"companion eigenvalues failed at degree {c.shape[0] - 1}"
            ) from exc
        if not _residual_within(scaled, found, MAX_RESIDUAL)[0]:
            found = _escalated(scaled, found)
    all_roots = np.concatenate([np.zeros(origin_mult, dtype=complex), found])
    return RootSet(leading=leading, roots=all_roots, degree_deficit=deficit)


def checked_roots(P: AlgebraicPolynomial, hint: RootSet | None = None) -> RootSet:
    """Zeros of P taken from ``hint`` when it factors the stored coefficients, else roots(P).

    A hint must have P's leading coefficient and degree. It is used as it is
    when its Weierstrass residual against P is at most MAX_RESIDUAL, the rule
    a solve meets. Otherwise its roots are refined by the extended-precision
    Aberth steps roots() escalates to, and the refined set is used if it
    meets the rule. roots() is called only when there is no hint or the hint
    is rejected.
    """
    if hint is not None and not P.is_zero():
        work, deficit = P.normalized()
        c = work.coeffs
        if (
            deficit == hint.degree_deficit
            and len(hint) == c.shape[0] - 1
            and abs(hint.leading - c[-1]) <= 1e-14 * abs(c[-1])
        ):
            scaled = _scaled(c)
            if _residual_within(scaled, hint.roots, MAX_RESIDUAL)[0]:
                return hint
            z = _refined(scaled, hint.roots)
            if _residual_within(scaled, z, MAX_RESIDUAL)[0]:
                return RootSet(leading=hint.leading, roots=z, degree_deficit=deficit)
    return roots(P)


@dataclass(frozen=True, eq=False)
class CirclePartition:
    """Roots split by modulus against the unit circle with tolerance band epsilon."""

    inside: np.ndarray
    on: np.ndarray
    outside: np.ndarray
    epsilon: float

    def __post_init__(self):
        for name in ("inside", "on", "outside"):
            arr = np.asarray(getattr(self, name), dtype=complex).reshape(-1).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def all_in_closed_disk(self) -> bool:
        return self.outside.shape[0] == 0


def classify(R: RootSet, epsilon: float = DEFAULT_CIRCLE_EPS) -> CirclePartition:
    """Partition the roots into |z| < 1-eps, | |z|-1 | <= eps, |z| > 1+eps."""
    if not 0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")
    mod = np.abs(R.roots)
    on = np.abs(mod - 1.0) <= epsilon
    inside = ~on & (mod < 1.0)
    outside = ~on & (mod > 1.0)
    return CirclePartition(
        inside=R.roots[inside],
        on=R.roots[on],
        outside=R.roots[outside],
        epsilon=epsilon,
    )

"""Executable checks for the derivative inequalities and their supporting facts.

Every check consumes a polynomial (supplied or drawn from a seeded sampler),
computes both sides of one claimed inequality or identity, and emits a
VerificationReport with the margin and the exact tolerance used. Inputs that
violate a conditional claim's hypothesis yield a skipped report, never a
failure: only genuine counterexample candidates may fail. Sweeps evaluate
samples independently (optionally across processes) and keep the worst
witness for regression pinning.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .circle_means import (
    DEFAULT_GRID,
    QuadratureConfig,
    logplus_integral,
    mahler_from_roots,
    mean,
    mean_0_quadrature,
    means,
)
from .constructions import perturb_by_en, reflect_outside, smoothed_logplus, mu_moment
from .errors import NumericFailure
from .polynomials import LaurentPolynomial, RootSet, from_roots, laurent_from_algebraic
from .rootfind import checked_roots, classify, roots

__all__ = [
    "VerificationReport",
    "SampleSpec",
    "CLAIMS",
    "sample_polynomial",
    "sample_with_roots",
    "check_bernstein",
    "check_equality_case",
    "check_lemma_2_1",
    "check_lemma_2_2",
    "check_theorem_1_2",
    "check_monotone_p",
    "run_sweep",
    "summarize",
]

CLAIMS = (
    "thm-1-1",
    "thm-1-2",
    "thm-1-3",
    "lemma-2-1",
    "lemma-2-2",
    "equality-case",
    "monotone-p",
    "identity-3-1",
    "identity-3-2",
)

DISTRIBUTIONS = (
    "coeff-gaussian",
    "roots-in-disk",
    "roots-outside",
    "roots-mixed",
    "roots-on-circle",
)

DEFAULT_P_GRID = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 16.0)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record of one check, with margins and the worst sample.

    passed is equivalent to margin >= -tolerance_used * max(|lhs|, |rhs|, 1);
    skipped reports mark inputs that do not meet a conditional hypothesis and
    never count as failures.
    """

    claim: str
    passed: bool
    lhs: float
    rhs: float
    margin: float
    witness: dict | None
    tolerance_used: float
    skipped: bool = False
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "witness": self.witness,
            "tolerance_used": self.tolerance_used,
            "skipped": self.skipped,
            "detail": self.detail,
        }


def _scale(lhs: float, rhs: float) -> float:
    return max(abs(lhs), abs(rhs), 1.0)


def _ineq_report(claim, lhs, rhs, tol, witness, detail="") -> VerificationReport:
    """Report for a one-sided claim lhs <= rhs."""
    margin = rhs - lhs
    passed = margin >= -tol * _scale(lhs, rhs)
    return VerificationReport(
        claim=claim,
        passed=bool(passed),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        witness=witness,
        tolerance_used=float(tol),
        detail=detail,
    )


def _eq_report(claim, lhs, rhs, tol, witness, detail="") -> VerificationReport:
    """Report for a two-sided claim lhs == rhs; margin is -|lhs - rhs|."""
    margin = -abs(rhs - lhs)
    passed = margin >= -tol * _scale(lhs, rhs)
    return VerificationReport(
        claim=claim,
        passed=bool(passed),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        witness=witness,
        tolerance_used=float(tol),
        detail=detail,
    )


def _skip_report(claim, tol, witness, detail) -> VerificationReport:
    return VerificationReport(
        claim=claim,
        passed=True,
        lhs=0.0,
        rhs=0.0,
        margin=0.0,
        witness=witness,
        tolerance_used=float(tol),
        skipped=True,
        detail=detail,
    )


def _witness(T: LaurentPolynomial, **params) -> dict:
    return {"polynomial": T.to_json_dict(), "params": params}


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class SampleSpec:
    """Reproducible family of random polynomials: (spec, seed, index) -> T."""

    n: int
    distribution: str
    seed: int
    count: int

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.n < 0 or self.count <= 0:
            raise ValueError("need n >= 0 and count > 0")


def _rng_for(spec: SampleSpec, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(spec.seed) & (2**64 - 1), spawn_key=(index,))
    )


def sample_with_roots(
    spec: SampleSpec, index: int
) -> tuple[LaurentPolynomial, RootSet | None]:
    """Sample plus the generative root set of z^n T, where one exists.

    For roots-* distributions the planted zeros are the zeros of the
    idealized product c prod (z - z_k). The stored coefficients are that
    product rounded by from_roots, whose zeros can sit away from the planted
    ones: for 32 unimodular factors the coefficients reach 3e5 and a planted
    set can have Weierstrass residual 0.13 against the stored coefficients.
    The checks therefore take the planted set only as a hint, through
    rootfind.checked_roots, which uses it when it factors the stored
    coefficients and solves them otherwise. coeff-gaussian has no generative
    roots and returns None.
    """
    if not 0 <= index < spec.count:
        raise ValueError(f"index {index} outside [0, {spec.count})")
    rng = _rng_for(spec, index)
    n = spec.n
    if spec.distribution == "coeff-gaussian":
        while True:
            coeffs = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
            if abs(coeffs[-1]) >= 1e-6 * np.max(np.abs(coeffs)):
                return LaurentPolynomial(n, coeffs), None
    count = 2 * n
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    if spec.distribution == "roots-in-disk":
        mods = rng.uniform(0.0, 1.0, count)
    elif spec.distribution == "roots-outside":
        mods = rng.uniform(1.0, 3.0, count)
    elif spec.distribution == "roots-on-circle":
        mods = np.ones(count)
    else:  # roots-mixed
        inside = rng.random(count) < 0.5
        mods = np.where(inside, rng.uniform(0.0, 1.0, count), rng.uniform(1.0, 3.0, count))
    c = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    zs = mods * np.exp(1j * angles)
    T = laurent_from_algebraic(from_roots(c, zs), n)
    if n == 0:
        return T, RootSet(leading=c)
    return T, RootSet(leading=c, roots=zs)


def sample_polynomial(spec: SampleSpec, index: int) -> LaurentPolynomial:
    """Draw sample ``index`` of the family; identical inputs give identical output.

    coeff-gaussian draws i.i.d. complex Gaussian coefficients, re-drawn while
    the top coefficient is negligible (|a_n| < 1e-6 max|a_j|) so the class
    bound is effective. roots-* distributions plant 2n zeros in the named
    region and attach a leading coefficient with modulus in [0.5, 2].
    """
    return sample_with_roots(spec, index)[0]


# ---------------------------------------------------------------------------
# checks


def check_bernstein(
    T: LaurentPolynomial,
    p: float,
    tol: float = 1e-8,
    grid: QuadratureConfig = DEFAULT_GRID,
    roots_hint: RootSet | None = None,
    droots_hint: RootSet | None = None,
) -> VerificationReport:
    """M_p of the derivative against n times M_p of the polynomial.

    p = 0 checks the geometric-mean inequality through both the root-product
    route and the quadrature route; both must pass individually. Every other
    p takes circle_means.mean. The class bound n is the stored one, which
    only weakens the right side favorably when the top coefficient vanishes.
    ``roots_hint`` and ``droots_hint`` are candidate zeros of z^n T and of
    z^{n+1} T'; each is used only if it factors the stored coefficients
    (rootfind.checked_roots), so both sides are computed for the polynomial
    actually stored. T' is T.derivative(), whose coefficients j a_j are
    rounded to double: the verdict is for that rounded T', whose M_0 can sit
    1.5e-8 relative from the exact derivative's for 32 unimodular factors.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    dT = T.derivative()
    claim = "thm-1-1" if p == 0 else "thm-1-3"
    if p == 0:
        rT = checked_roots(T.to_algebraic(), roots_hint)
        rdT = checked_roots(dT.to_algebraic(), droots_hint)
        lhs_j = mahler_from_roots(rdT).value
        rhs_j = n * mahler_from_roots(rT).value
        lhs_q = mean_0_quadrature(dT, rdT, grid).value
        rhs_q = n * mean_0_quadrature(T, rT, grid).value
        rep_j = _ineq_report(claim, lhs_j, rhs_j, tol, _witness(T, p=0.0), "jensen-product")
        rep_q = _ineq_report(claim, lhs_q, rhs_q, tol, _witness(T, p=0.0), "quadrature")
        worse = min(
            (rep_j, rep_q), key=lambda r: r.margin / _scale(r.lhs, r.rhs)
        )
        both = rep_j.passed and rep_q.passed
        return replace(worse, passed=both, detail=f"worse of both routes ({worse.detail})")
    if not math.isinf(p):
        # without a hint mean_p solves only when p needs the zeros (non-even p)
        if droots_hint is not None:
            droots_hint = checked_roots(dT.to_algebraic(), droots_hint)
        if roots_hint is not None:
            roots_hint = checked_roots(T.to_algebraic(), roots_hint)
    lhs = mean(dT, p, grid, roots_hint=droots_hint).value
    rhs = n * mean(T, p, grid, roots_hint=roots_hint).value
    witness = _witness(T, p="inf" if math.isinf(p) else float(p))
    return _ineq_report(claim, lhs, rhs, tol, witness)


def check_equality_case(
    T: LaurentPolynomial,
    tol: float = 1e-7,
    eps: float = 1e-9,
    roots_hint: RootSet | None = None,
) -> VerificationReport:
    """For zeros of z^n T all in the closed disk: M_0(T) = |a_n|, M_0(T') = n|a_n|.

    Inputs with zeros strictly outside the circle get a skipped report.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    R = checked_roots(T.to_algebraic(), roots_hint)
    if not classify(R, eps).all_in_closed_disk:
        return _skip_report(
            "equality-case", tol, _witness(T), "zeros outside the closed disk"
        )
    a_n = abs(T.top)
    m0 = mahler_from_roots(R).value
    dT = T.derivative()
    m0d = 0.0 if dT.is_zero() else mean(dT, 0.0).value
    rep1 = _eq_report("equality-case", m0, a_n, tol, _witness(T), "M_0(T) vs |a_n|")
    rep2 = _eq_report(
        "equality-case", m0d, n * a_n, tol, _witness(T), "M_0(T') vs n|a_n|"
    )
    worse = min((rep1, rep2), key=lambda r: r.margin / _scale(r.lhs, r.rhs))
    return replace(worse, passed=rep1.passed and rep2.passed)


def check_lemma_2_1(
    S: LaurentPolynomial,
    eps: float = 1e-6,
    roots_hint: RootSet | None = None,
) -> VerificationReport:
    """Zeros of z^n S in the closed disk force the zeros of S' into it too.

    The zeros of S' as a function on the punctured plane are the non-origin
    zeros of z^{n+1} S'(z); the report's lhs is their largest modulus.
    """
    if S.is_zero():
        raise ValueError("cannot check the zero polynomial")
    R = checked_roots(S.to_algebraic(), roots_hint)
    if not classify(R, eps).all_in_closed_disk:
        return _skip_report(
            "lemma-2-1", eps, _witness(S), "hypothesis unmet: zeros outside the closed disk"
        )
    dS = S.derivative()
    if dS.is_zero():
        return _ineq_report("lemma-2-1", 0.0, 1.0, eps, _witness(S), "derivative is constant zero")
    rd = roots(dS.to_algebraic())
    nonzero = rd.roots[rd.roots != 0]
    max_mod = float(np.max(np.abs(nonzero))) if nonzero.size else 0.0
    return _ineq_report("lemma-2-1", max_mod, 1.0, eps, _witness(S))


def check_lemma_2_2(
    T: LaurentPolynomial,
    V: LaurentPolynomial,
    points: int = 4096,
    tol: float = 1e-8,
    eps: float = 1e-9,
) -> VerificationReport:
    """|T| <= |V| on the circle plus zeros of z^n V in the disk give |T'| <= |V'|.

    Hypothesis violations produce a precondition-failure (skipped) report,
    distinct from a failure of the conclusion. The report carries the minimum
    slack over the grid and the angle where it occurs.
    """
    if T.is_zero() or V.is_zero():
        raise ValueError("cannot check the zero polynomial")
    rv = roots(V.to_algebraic())
    if not classify(rv, max(eps, 1e-9)).all_in_closed_disk:
        return _skip_report(
            "lemma-2-2", tol, _witness(T), "precondition failed: zeros of the dominating polynomial outside the closed disk"
        )
    abs_t = np.abs(T.on_grid(points))
    abs_v = np.abs(V.on_grid(points))
    if np.any(abs_t > abs_v * (1.0 + tol) + tol * max(np.max(abs_v), 1.0)):
        return _skip_report(
            "lemma-2-2", tol, _witness(T), "precondition failed: |T| exceeds |V| on the circle"
        )
    abs_dt = np.abs(T.derivative().on_grid(points))
    abs_dv = np.abs(V.derivative().on_grid(points))
    k = int(np.argmin(abs_dv - abs_dt))
    return _ineq_report(
        "lemma-2-2",
        float(abs_dt[k]),
        float(abs_dv[k]),
        tol,
        _witness(T, worst_angle=2.0 * np.pi * k / points),
    )


def _w_grid(count: int = 64) -> np.ndarray:
    # half-step offset keeps the grid off the axis where T = c z^n degenerates
    return np.exp(2j * np.pi * (np.arange(count) + 0.5) / count)


def _log_mahler(T: LaurentPolynomial) -> float:
    return math.log(mean(T, 0.0).value)


def check_theorem_1_2(
    T: LaurentPolynomial,
    grid: QuadratureConfig = DEFAULT_GRID,
    tol: float = 1e-6,
    fubini: bool = True,
    fubini_tol: float = 1e-3,
) -> VerificationReport:
    """Mean of log^+|T'/n| on the circle never exceeds the mean of log^+|T|.

    With ``fubini`` set, both sides are recomputed by averaging geometric
    means of top-coefficient perturbations T + w z^n over a 64-point w grid
    (each of those means taken by the root-product formula), and the averages
    must agree with the direct integrals within fubini_tol.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    dT_over_n = T.derivative() * (1.0 / n) if n else T.derivative()
    if n == 0:
        # derivative of a constant: left side integrand is log^+ 0 = 0
        lhs = 0.0
    else:
        lhs = logplus_integral(dT_over_n, grid)
    rhs = logplus_integral(T, grid)
    rep = _ineq_report("thm-1-2", lhs, rhs, tol, _witness(T))
    if not fubini or n == 0:
        return rep
    ws = _w_grid()
    lhs_avg = 0.0
    rhs_avg = 0.0
    for w in ws:
        Tp = perturb_by_en(T, w)
        rhs_avg += _log_mahler(Tp)
        lhs_avg += _log_mahler(Tp.derivative() * (1.0 / n))
    lhs_avg /= ws.size
    rhs_avg /= ws.size
    dev = max(abs(lhs_avg - lhs) / _scale(lhs_avg, lhs), abs(rhs_avg - rhs) / _scale(rhs_avg, rhs))
    if dev > fubini_tol:
        return replace(
            rep,
            passed=False,
            detail=f"smoothing-route averages deviate from direct integrals by {dev:.2e}",
        )
    return replace(rep, detail=f"smoothing-route deviation {dev:.2e}")


def check_monotone_p(
    T: LaurentPolynomial,
    p_grid=DEFAULT_P_GRID,
    tol: float = 1e-8,
    grid: QuadratureConfig = DEFAULT_GRID,
    roots_hint: RootSet | None = None,
) -> VerificationReport:
    """M_0 <= M_{p_1} <= ... <= M_{p_k} <= M_inf along an ascending p grid."""
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    ps = [float(q) for q in p_grid]
    if any(b <= a for a, b in zip(ps, ps[1:])) or not all(0 < q < math.inf for q in ps):
        raise ValueError("p grid must be strictly ascending, positive and finite")
    R = checked_roots(T.to_algebraic(), roots_hint)
    ladder = [0.0, *ps, math.inf]
    values = [res.value for res in means(T, ladder, grid, roots_hint=R)]
    labels = [f"{q:g}" for q in ladder]
    worst = None
    for (a, la), (b, lb) in zip(zip(values, labels), zip(values[1:], labels[1:])):
        rep = _ineq_report(
            "monotone-p", a, b, tol, _witness(T, step=f"p={la} vs p={lb}")
        )
        if worst is None or rep.margin / _scale(rep.lhs, rep.rhs) < worst.margin / _scale(
            worst.lhs, worst.rhs
        ):
            worst = rep
    all_ok = worst.passed and all(
        b >= a - tol * _scale(a, b) for a, b in zip(values, values[1:])
    )
    return replace(worst, passed=bool(all_ok))


# ---------------------------------------------------------------------------
# identity sweeps (scalar claims)


def _check_identity_3_1(spec: SampleSpec, index: int) -> VerificationReport:
    rng = _rng_for(spec, index)
    v = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lhs = smoothed_logplus(v)
    rhs = max(math.log(abs(v)), 0.0)
    tol = 1e-4 if abs(abs(v) - 1.0) < 1e-3 else 1e-8
    witness = {"v": [float(v.real), float(v.imag)], "params": {}}
    # absolute comparison: the identity is additive, not homogeneous
    margin = -abs(lhs - rhs)
    return VerificationReport(
        claim="identity-3-1",
        passed=bool(abs(lhs - rhs) <= tol),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        witness=witness,
        tolerance_used=tol,
    )


def identity_3_2_grid(
    u_points: int = 25, p_values=(0.25, 0.5, 1.0, 2.0, 4.0)
) -> list[tuple[float, float]]:
    us = np.geomspace(1e-3, 1e3, u_points)
    return [(float(u), float(q)) for u in us for q in p_values]


def _check_identity_3_2(u: float, p: float, tol: float = 1e-8) -> VerificationReport:
    lhs = mu_moment(u, p)
    rhs = u**p
    margin = -abs(lhs / rhs - 1.0)
    return VerificationReport(
        claim="identity-3-2",
        passed=bool(abs(lhs / rhs - 1.0) <= tol),
        lhs=float(lhs),
        rhs=float(rhs),
        margin=float(margin),
        witness={"u": float(u), "p": float(p), "params": {}},
        tolerance_used=tol,
    )


# ---------------------------------------------------------------------------
# sweeps


def _run_one(claim: str, spec: SampleSpec, index: int, opts: dict) -> VerificationReport:
    tol = opts.get("tol")
    grid = opts.get("grid", DEFAULT_GRID)
    if claim == "identity-3-1":
        return _check_identity_3_1(spec, index)
    if claim == "identity-3-2":
        pairs = opts.get("pairs") or identity_3_2_grid()
        u, q = pairs[index]
        return _check_identity_3_2(u, q, tol if tol is not None else 1e-8)
    T, planted = sample_with_roots(spec, index)
    if claim == "thm-1-1":
        rep = check_bernstein(
            T, 0.0, tol if tol is not None else 1e-8, grid, roots_hint=planted
        )
    elif claim == "thm-1-3":
        p = opts.get("p", 2.0)
        rep = check_bernstein(
            T, p, tol if tol is not None else 1e-8, grid, roots_hint=planted
        )
    elif claim == "thm-1-2":
        rep = check_theorem_1_2(
            T, grid, tol if tol is not None else 1e-6, fubini=opts.get("fubini", True)
        )
    elif claim == "lemma-2-1":
        rep = check_lemma_2_1(T, opts.get("eps", 1e-6), roots_hint=planted)
    elif claim == "lemma-2-2":
        hint = None if planted is None else checked_roots(T.deflated().to_algebraic(), planted)
        out = reflect_outside(T, hint)
        rep = check_lemma_2_2(
            T, out.v, opts.get("points", 4096), tol if tol is not None else 1e-8
        )
    elif claim == "equality-case":
        rep = check_equality_case(T, tol if tol is not None else 1e-7, roots_hint=planted)
    elif claim == "monotone-p":
        rep = check_monotone_p(
            T,
            opts.get("p_grid", DEFAULT_P_GRID),
            tol if tol is not None else 1e-8,
            grid,
            roots_hint=planted,
        )
    else:
        raise ValueError(f"unknown claim {claim!r}")
    if rep.witness is not None:
        rep = replace(rep, witness={**rep.witness, "index": index})
    return rep


def run_sweep(
    claim: str,
    spec: SampleSpec,
    jobs: int | None = None,
    **opts,
) -> list[VerificationReport]:
    """Evaluate one claim over every sample of ``spec``, in index order.

    With jobs > 1 the samples are scored by a process pool; outputs are
    collected in index order, so results do not depend on the pool size.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    if claim == "identity-3-2":
        pairs = opts.get("pairs") or identity_3_2_grid()
        opts = {**opts, "pairs": pairs}
        count = len(pairs)
    else:
        count = spec.count
    indices = range(count)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or count < 8:
        return [_run_one(claim, spec, i, opts) for i in indices]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, count // (8 * jobs))
        return list(
            pool.map(
                _run_one,
                (claim for _ in indices),
                (spec for _ in indices),
                indices,
                (opts for _ in indices),
                chunksize=chunk,
            )
        )


def summarize(reports: list[VerificationReport]) -> dict:
    """Associative roll-up: AND of passed, min margin, worst witness."""
    active = [r for r in reports if not r.skipped]
    worst = None
    for r in active:
        if worst is None or r.margin / _scale(r.lhs, r.rhs) < worst.margin / _scale(
            worst.lhs, worst.rhs
        ):
            worst = r
    return {
        "count": len(reports),
        "checked": len(active),
        "skipped": len(reports) - len(active),
        "passed": all(r.passed for r in active) if active else True,
        "min_margin": worst.margin if worst is not None else 0.0,
        "worst": worst,
    }

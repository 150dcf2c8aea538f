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
from dataclasses import dataclass, fields, replace

import numpy as np

from .circle_means import (
    DEFAULT_REL_TOL,
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
from .tasks import run_in_order, task_rng

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

# The sweep options each claim reads besides tol and rel_tol, with their
# defaults: run_sweep's keyword arguments override them, and the CLI's
# --p, --fubini, --points and --p-grid set them.
SWEEP_OPTIONS = {
    "thm-1-3": {"p": 2.0},
    "thm-1-2": {"fubini": True},
    "lemma-2-2": {"points": 4096},
    "monotone-p": {"p_grid": DEFAULT_P_GRID},
}

# Largest relative gap allowed between the direct log^+ integrals of
# Theorem 1.2 and their smoothing-route averages.
FUBINI_TOL = 1e-3
# Points of the smoothing route's w grid.
W_POINTS = 64
# The (u, p) pairs of identity 3.2, one sample each, in sweep order.
IDENTITY_3_2_GRID = tuple(
    (float(u), q) for u in np.geomspace(1e-3, 1e3, 25) for q in (0.25, 0.5, 1.0, 2.0, 4.0)
)


@dataclass(frozen=True)
class VerificationReport:
    """Pass/fail record of one check, with margins and the worst sample.

    For most claims, margin is rhs - lhs (one-sided claims) or -|lhs - rhs|
    (equalities), and passed is margin >= -tolerance_used * max(|lhs|, |rhs|, 1).
    Three claims judge otherwise:

    * identity-3-1: margin is -|lhs - rhs|, and passed is
      |lhs - rhs| <= tolerance_used, an absolute test;
    * identity-3-2: margin is -|lhs / rhs - 1|, and passed is
      |lhs / rhs - 1| <= tolerance_used;
    * thm-1-2: the margin rule above, and with the smoothing route on, also
      a deviation of at most FUBINI_TOL between its averages and the direct
      integrals; a larger deviation fails the report whatever its margin.

    Skipped reports mark inputs that do not meet a conditional hypothesis and
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
        # shallow: the witness dicts are serialized as they are, not copied
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _scale(lhs: float, rhs: float) -> float:
    return max(abs(lhs), abs(rhs), 1.0)


def _worst(reports) -> VerificationReport | None:
    """The report with the least margin / _scale, the first on ties; None when empty.

    Among reports judged at one tolerance it passed exactly when all did.
    """
    return min(reports, key=lambda r: r.margin / _scale(r.lhs, r.rhs), default=None)


def _report(claim, lhs, rhs, margin, tol, witness, detail="", passed=None) -> VerificationReport:
    """The report of one check; passed is margin >= -tol * _scale(lhs, rhs) unless given.

    One-sided claims lhs <= rhs pass the margin rhs - lhs, equalities
    -|lhs - rhs|.
    """
    if passed is None:
        passed = margin >= -tol * _scale(lhs, rhs)
    return VerificationReport(
        claim, bool(passed), float(lhs), float(rhs), float(margin), witness, float(tol),
        detail=detail,
    )


def _skip_report(claim, tol, witness, detail) -> VerificationReport:
    return replace(_report(claim, 0.0, 0.0, 0.0, tol, witness, detail), skipped=True)


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
    roots and returns None. The draws come from tasks.task_rng(spec.seed,
    index), so a sample does not depend on the others or on the process.
    """
    if not 0 <= index < spec.count:
        raise ValueError(f"index {index} outside [0, {spec.count})")
    rng = task_rng(spec.seed, index)
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
    rel_tol: float = DEFAULT_REL_TOL,
    roots_hint: RootSet | None = None,
    droots_hint: RootSet | None = None,
) -> VerificationReport:
    """M_p of the derivative against n times M_p of the polynomial.

    p = 0 checks the geometric-mean inequality through both the root-product
    route and the quadrature route; both must pass individually. Every other
    p takes circle_means.mean. The class bound n is the stored one, which
    only weakens the right side favorably when the top coefficient vanishes.
    ``roots_hint`` and ``droots_hint`` are candidate zeros of z^n T and of
    z^{n+1} T'; each is checked where it is read (rootfind.checked_roots)
    and used only if it factors the stored coefficients, so both sides are
    computed for the polynomial actually stored. T' is T.derivative(), whose
    coefficients j a_j are rounded to double: the verdict is for that
    rounded T', whose M_0 can sit 1.5e-8 relative from the exact
    derivative's for 32 unimodular factors.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    dT = T.derivative()
    claim = "thm-1-1" if p == 0 else "thm-1-3"
    witness = _witness(T, p="inf" if math.isinf(p) else float(p))
    if p == 0 and not dT.is_zero():
        rT = checked_roots(T.to_algebraic(), roots_hint)
        rdT = checked_roots(dT.to_algebraic(), droots_hint)
        lhs_j = mahler_from_roots(rdT).value
        rhs_j = n * mahler_from_roots(rT).value
        lhs_q = mean_0_quadrature(dT, rdT, rel_tol).value
        rhs_q = n * mean_0_quadrature(T, rT, rel_tol).value
        rep_j = _report(claim, lhs_j, rhs_j, rhs_j - lhs_j, tol, witness, "jensen-product")
        rep_q = _report(claim, lhs_q, rhs_q, rhs_q - lhs_q, tol, witness, "quadrature")
        worse = _worst((rep_j, rep_q))
        return replace(worse, detail=f"worse of both routes ({worse.detail})")
    # a constant T has T' = 0, so M_p(T') = 0 at every p, as in check_equality_case
    lhs = 0.0 if dT.is_zero() else mean(dT, p, rel_tol, roots_hint=droots_hint).value
    rhs = n * mean(T, p, rel_tol, roots_hint=roots_hint).value
    return _report(claim, lhs, rhs, rhs - lhs, tol, witness)


def check_equality_case(
    T: LaurentPolynomial,
    tol: float = 1e-7,
    roots_hint: RootSet | None = None,
) -> VerificationReport:
    """For zeros of z^n T all in the closed disk: M_0(T) = |a_n|, M_0(T') = n|a_n|.

    Inputs with zeros outside the circle by more than
    rootfind.DEFAULT_CIRCLE_EPS get a skipped report.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    R = checked_roots(T.to_algebraic(), roots_hint)
    if not classify(R).all_in_closed_disk:
        return _skip_report(
            "equality-case", tol, _witness(T), "zeros outside the closed disk"
        )
    a_n = abs(T.top)
    m0 = mahler_from_roots(R).value
    dT = T.derivative()
    m0d = 0.0 if dT.is_zero() else mean(dT, 0.0).value
    rep1 = _report(
        "equality-case", m0, a_n, -abs(a_n - m0), tol, _witness(T), "M_0(T) vs |a_n|"
    )
    rep2 = _report(
        "equality-case", m0d, n * a_n, -abs(n * a_n - m0d), tol, _witness(T),
        "M_0(T') vs n|a_n|",
    )
    return _worst((rep1, rep2))


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
        return _report(
            "lemma-2-1", 0.0, 1.0, 1.0, eps, _witness(S), "derivative is constant zero"
        )
    rd = roots(dS.to_algebraic())
    nonzero = rd.roots[rd.roots != 0]
    max_mod = float(np.max(np.abs(nonzero))) if nonzero.size else 0.0
    return _report("lemma-2-1", max_mod, 1.0, 1.0 - max_mod, eps, _witness(S))


def check_lemma_2_2(
    T: LaurentPolynomial,
    V: LaurentPolynomial,
    points: int = SWEEP_OPTIONS["lemma-2-2"]["points"],
    tol: float = 1e-8,
) -> VerificationReport:
    """|T| <= |V| on the circle plus zeros of z^n V in the disk give |T'| <= |V'|.

    Hypothesis violations produce a precondition-failure (skipped) report,
    distinct from a failure of the conclusion. The report carries the minimum
    slack over the grid and the angle where it occurs.
    """
    if T.is_zero() or V.is_zero():
        raise ValueError("cannot check the zero polynomial")
    rv = roots(V.to_algebraic())
    if not classify(rv).all_in_closed_disk:
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
    lhs, rhs = float(abs_dt[k]), float(abs_dv[k])
    witness = _witness(T, worst_angle=2.0 * np.pi * k / points)
    return _report("lemma-2-2", lhs, rhs, rhs - lhs, tol, witness)


def _w_grid() -> np.ndarray:
    # half-step offset keeps the grid off the axis where T = c z^n degenerates
    return np.exp(2j * np.pi * (np.arange(W_POINTS) + 0.5) / W_POINTS)


def _log_mahler(T: LaurentPolynomial) -> float:
    return math.log(mean(T, 0.0).value)


def check_theorem_1_2(
    T: LaurentPolynomial,
    rel_tol: float = DEFAULT_REL_TOL,
    tol: float = 1e-6,
    fubini: bool = SWEEP_OPTIONS["thm-1-2"]["fubini"],
) -> VerificationReport:
    """Mean of log^+|T'/n| on the circle never exceeds the mean of log^+|T|.

    With ``fubini`` set, both sides are recomputed by averaging geometric
    means of top-coefficient perturbations T + w z^n over a 64-point w grid
    (each of those means taken by the root-product formula), and the averages
    must agree with the direct integrals within FUBINI_TOL.
    """
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    n = T.n
    dT_over_n = T.derivative() * (1.0 / n) if n else T.derivative()
    if n == 0:
        # derivative of a constant: left side integrand is log^+ 0 = 0
        lhs = 0.0
    else:
        lhs = logplus_integral(dT_over_n, rel_tol)
    rhs = logplus_integral(T, rel_tol)
    rep = _report("thm-1-2", lhs, rhs, rhs - lhs, tol, _witness(T))
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
    if dev > FUBINI_TOL:
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
    rel_tol: float = DEFAULT_REL_TOL,
    roots_hint: RootSet | None = None,
) -> VerificationReport:
    """M_0 <= M_{p_1} <= ... <= M_{p_k} <= M_inf along an ascending p grid."""
    if T.is_zero():
        raise ValueError("cannot check the zero polynomial")
    ps = [float(q) for q in p_grid]
    if any(b <= a for a, b in zip(ps, ps[1:])) or not all(0 < q < math.inf for q in ps):
        raise ValueError("p grid must be strictly ascending, positive and finite")
    ladder = [0.0, *ps, math.inf]
    values = [res.value for res in means(T, ladder, rel_tol, roots_hint=roots_hint)]
    labels = [f"{q:g}" for q in ladder]
    # the worst step first (as _worst picks it), so only its witness is built
    a, b, la, lb = min(
        zip(values, values[1:], labels, labels[1:]),
        key=lambda step: (step[1] - step[0]) / _scale(step[0], step[1]),
    )
    return _report("monotone-p", a, b, b - a, tol, _witness(T, step=f"p={la} vs p={lb}"))


# ---------------------------------------------------------------------------
# identity sweeps (scalar claims)


def _check_identity_3_1(spec: SampleSpec, index: int) -> VerificationReport:
    rng = task_rng(spec.seed, index)
    v = 10.0 ** rng.uniform(-1.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    lhs = smoothed_logplus(v)
    rhs = max(math.log(abs(v)), 0.0)
    tol = 1e-4 if abs(abs(v) - 1.0) < 1e-3 else 1e-8
    witness = {"v": [float(v.real), float(v.imag)], "params": {}}
    # absolute comparison: the identity is additive, not homogeneous
    gap = abs(lhs - rhs)
    return _report("identity-3-1", lhs, rhs, -gap, tol, witness, passed=gap <= tol)


def _check_identity_3_2(u: float, p: float, tol: float = 1e-8) -> VerificationReport:
    lhs = mu_moment(u, p)
    rhs = u**p
    gap = abs(lhs / rhs - 1.0)
    witness = {"u": float(u), "p": float(p), "params": {}}
    return _report("identity-3-2", lhs, rhs, -gap, tol, witness, passed=gap <= tol)


# ---------------------------------------------------------------------------
# sweeps


def _run_one(claim: str, spec: SampleSpec, index: int, opts: dict) -> VerificationReport:
    if claim in SWEEP_OPTIONS:
        opts = {**SWEEP_OPTIONS[claim], **opts}
    # tol and rel_tol reach a check only when the caller set them, so each
    # check keeps its own defaults otherwise
    tol = {} if opts.get("tol") is None else {"tol": opts["tol"]}
    rel_tol = {} if opts.get("rel_tol") is None else {"rel_tol": opts["rel_tol"]}
    if claim == "identity-3-1":
        return _check_identity_3_1(spec, index)
    if claim == "identity-3-2":
        return _check_identity_3_2(*IDENTITY_3_2_GRID[index], **tol)
    T, planted = sample_with_roots(spec, index)
    if claim in ("thm-1-1", "thm-1-3"):
        p = 0.0 if claim == "thm-1-1" else opts["p"]
        rep = check_bernstein(T, p, roots_hint=planted, **rel_tol, **tol)
    elif claim == "thm-1-2":
        rep = check_theorem_1_2(T, fubini=opts["fubini"], **rel_tol, **tol)
    elif claim == "lemma-2-1":
        rep = check_lemma_2_1(T, roots_hint=planted)
    elif claim == "lemma-2-2":
        hint = None if planted is None else checked_roots(T.deflated().to_algebraic(), planted)
        out = reflect_outside(T, hint)
        rep = check_lemma_2_2(T, out.v, opts["points"], **tol)
    elif claim == "equality-case":
        rep = check_equality_case(T, roots_hint=planted, **tol)
    elif claim == "monotone-p":
        rep = check_monotone_p(T, opts["p_grid"], roots_hint=planted, **rel_tol, **tol)
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

    ``opts`` may set tol, rel_tol and the claim's SWEEP_OPTIONS, and any other
    key raises ValueError; the rest keep their defaults. identity-3-2 sweeps
    IDENTITY_3_2_GRID instead of spec's samples. The samples are the tasks
    of tasks.run_in_order: ``jobs`` workers at most (None: one per core),
    never more than the samples, one of them in this process, and below 1
    raises ValueError. Reports come back in index order, so they do not
    depend on the worker count.
    """
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    unread = set(opts) - {"tol", "rel_tol", *SWEEP_OPTIONS.get(claim, ())}
    if unread:
        raise ValueError(f"{claim} does not read the sweep options {sorted(unread)}")
    if claim == "thm-1-3" and "p" in opts and not opts["p"] > 0:
        raise ValueError("thm-1-3 needs p > 0; p = 0 is thm-1-1")
    count = len(IDENTITY_3_2_GRID) if claim == "identity-3-2" else spec.count
    return run_in_order(_run_one, [(claim, spec, i, opts) for i in range(count)], jobs)


def summarize(reports: list[VerificationReport]) -> dict:
    """Associative roll-up: AND of passed, min margin, worst witness."""
    active = [r for r in reports if not r.skipped]
    worst = _worst(active)
    return {
        "count": len(reports),
        "checked": len(active),
        "skipped": len(reports) - len(active),
        "passed": all(r.passed for r in active) if active else True,
        "min_margin": worst.margin if worst is not None else 0.0,
        "worst": worst,
    }

"""50-digit oracle for p = 0 reports: M_0 of T and T' from the stored coefficients.

M_0 of a Laurent polynomial is Jensen's product |lead| * prod max(1, |z_k|)
over the zeros of z^n T(z). The zeros come from ``mpmath.polyroots`` on the
double-precision coefficients the report stores, so the oracle judges the
polynomial actually written, not an idealized one.
"""

from __future__ import annotations

import mpmath

DIGITS = 50


def _mahler(coeffs) -> mpmath.mpf:
    """M_0 of sum c_k z^k (lowest power first)."""
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    while c and c[0] == 0:
        c.pop(0)
    value = abs(c[-1])
    if len(c) > 1:
        for z in mpmath.polyroots(c[::-1], maxsteps=400, extraprec=2 * DIGITS):
            value *= max(mpmath.mpf(1), abs(z))
    return value


def check_report(report: dict) -> tuple[bool, float]:
    """(verdict agrees with the oracle, largest relative gap of lhs or rhs to it)."""
    poly = report["witness"]["polynomial"]
    n = int(poly["n"])
    with mpmath.workdps(DIGITS):
        a = [mpmath.mpc(re, im) for re, im in poly["coeffs"]]
        rhs = n * _mahler(a)
        lhs = _mahler([(j - n) * a_j for j, a_j in enumerate(a)])
        tol = report["tolerance_used"] * max(abs(lhs), abs(rhs), 1)
        agrees = (rhs - lhs >= -tol) == bool(report["passed"])
        dev = max(abs(report["lhs"] - lhs) / lhs, abs(report["rhs"] - rhs) / rhs)
    return agrees, float(dev)

"""Laurent and algebraic polynomials with exact coefficient bookkeeping.

A Laurent polynomial here is T(z) = sum_{j=-n}^{n} a_j z^j, kept as a dense
coefficient vector indexed from exponent -n to n. The class bound n is stored
explicitly: a polynomial with a_n = 0 still belongs to the class of bound n,
which matters for every inequality that quantifies over the class rather than
over exact degree. Algebraic polynomials are plain a_0..a_m coefficient
vectors. Conversion between the two forms is multiplication by z^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LaurentPolynomial",
    "AlgebraicPolynomial",
    "RootSet",
    "from_roots",
    "laurent_from_algebraic",
    "fft_on_grid",
    "horner",
    "horner_laurent",
    "horner_compensated",
]

_SPLITTER = 2.0**27 + 1.0


def _as_complex_array(values, expected_len=None):
    arr = np.asarray(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError("coefficient sequence must be one-dimensional")
    if expected_len is not None and arr.shape[0] != expected_len:
        raise ValueError(
            f"expected {expected_len} coefficients, got {arr.shape[0]}"
        )
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class LaurentPolynomial:
    """T(z) = sum a_j z^j for j in [-n, n], stored densely.

    ``coeffs[j + n]`` holds a_j. The zero polynomial is representable; mean
    and verification operations reject it at their own boundaries.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("class bound n must be nonnegative")
        object.__setattr__(
            self, "coeffs", _as_complex_array(self.coeffs, 2 * self.n + 1)
        )

    @classmethod
    def monomial(cls, n: int, j: int, c: complex = 1.0) -> "LaurentPolynomial":
        """c * z^j as a member of the class with bound n (requires |j| <= n)."""
        if abs(j) > n:
            raise ValueError("exponent outside the class bound")
        coeffs = np.zeros(2 * n + 1, dtype=complex)
        coeffs[j + n] = c
        return cls(n, coeffs)

    @classmethod
    def zero(cls, n: int) -> "LaurentPolynomial":
        return cls(n, np.zeros(2 * n + 1, dtype=complex))

    @property
    def top(self) -> complex:
        """a_n, the coefficient the equality case and reflection pivot on."""
        return complex(self.coeffs[-1])

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __call__(self, z):
        """Evaluate by a two-sided Horner scheme (z for j >= 0, 1/z for j < 0).

        Accepts a scalar or an ndarray of nonzero points.
        """
        if np.any(np.asarray(z) == 0):
            raise ZeroDivisionError("Laurent polynomial undefined at 0")
        return horner_laurent(self.coeffs, z)

    def on_circle(self, t):
        """Values T(e^{it}) for an array (or scalar) of angles t."""
        return self(np.exp(1j * np.asarray(t, dtype=float)))

    def on_grid(self, m: int, shift: float = 0.0) -> np.ndarray:
        """T(e^{i t_k}) at t_k = 2 pi (k + shift) / m: the one-row case of fft_on_grid."""
        return fft_on_grid(self.coeffs[None], m, shift)[0]

    def derivative(self) -> "LaurentPolynomial":
        """d/dz, re-housed in the class of bound n + 1.

        The exponent window widens by one instead of asserting which end
        coefficients cancel; callers needing a tight class call deflated().
        Each coefficient j a_j is rounded to double, so every mean of the
        result is that of the rounded derivative: for a product of 32
        unimodular factors M_0 moves by up to 1.5e-8 relative from the exact
        derivative of the stored T.
        """
        m = self.n + 1
        out = np.zeros(2 * m + 1, dtype=complex)
        j = np.arange(-self.n, self.n + 1)
        out[(j - 1) + m] = j * self.coeffs
        return LaurentPolynomial(m, out)

    def deflated(self) -> "LaurentPolynomial":
        """Smallest-class representative: strips zero coefficient wings."""
        nz = np.nonzero(self.coeffs)[0]
        if nz.size == 0:
            return LaurentPolynomial(0, [0j])
        n_eff = int(max(abs(nz - self.n)))
        lo = self.n - n_eff
        return LaurentPolynomial(n_eff, self.coeffs[lo : lo + 2 * n_eff + 1])

    def to_algebraic(self) -> "AlgebraicPolynomial":
        """z^n * T(z) as an algebraic polynomial of degree <= 2n."""
        return AlgebraicPolynomial(self.coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        n = max(self.n, other.n)
        out = np.zeros(2 * n + 1, dtype=complex)
        out[n - self.n : n + self.n + 1] += self.coeffs
        out[n - other.n : n + other.n + 1] += other.coeffs
        return LaurentPolynomial(n, out)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-1.0) * other

    def __mul__(self, c) -> "LaurentPolynomial":
        if not np.isscalar(c):
            return NotImplemented
        return LaurentPolynomial(self.n, self.coeffs * complex(c))

    __rmul__ = __mul__

    def to_json_dict(self) -> dict:
        """Polynomial literal: {"n": int, "coeffs": [[re, im], ...]}."""
        return {
            "n": self.n,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LaurentPolynomial":
        if not isinstance(obj, dict) or "n" not in obj or "coeffs" not in obj:
            raise ValueError('polynomial literal needs "n" and "coeffs" fields')
        if isinstance(obj["n"], bool) or not float(obj["n"]).is_integer():
            raise ValueError(f'"n" must be a whole number, got {obj["n"]!r}')
        n = int(obj["n"])
        pairs = obj["coeffs"]
        if len(pairs) != 2 * n + 1:
            raise ValueError(
                f"polynomial literal with n={n} needs {2 * n + 1} coefficient"
                f" pairs, got {len(pairs)}"
            )
        coeffs = np.array([complex(re, im) for re, im in pairs])
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("polynomial literal has a coefficient that is not finite")
        return cls(n, coeffs)

    def __repr__(self):
        return f"LaurentPolynomial(n={self.n}, coeffs={self.coeffs!r})"


@dataclass(frozen=True, eq=False)
class AlgebraicPolynomial:
    """P(z) = sum_{j=0}^{m} a_j z^j with a dense coefficient vector.

    High-order zero coefficients are legal transiently; normalized() strips
    them and exposes the effective degree.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_complex_array(self.coeffs))
        if self.coeffs.shape[0] == 0:
            raise ValueError("need at least one coefficient")

    @property
    def degree_bound(self) -> int:
        return self.coeffs.shape[0] - 1

    def effective_degree(self) -> int:
        """Largest j with a_j != 0, or -1 for the zero polynomial."""
        nz = np.nonzero(self.coeffs)[0]
        return int(nz[-1]) if nz.size else -1

    def normalized(self) -> tuple["AlgebraicPolynomial", int]:
        """Strip high-order zero coefficients; return (poly, count stripped)."""
        d = self.effective_degree()
        if d < 0:
            raise ValueError("zero polynomial has no normalized form")
        return AlgebraicPolynomial(self.coeffs[: d + 1]), self.degree_bound - d

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __call__(self, z):
        return horner(self.coeffs, z)

    def derivative(self) -> "AlgebraicPolynomial":
        if self.coeffs.shape[0] == 1:
            return AlgebraicPolynomial([0j])
        j = np.arange(1, self.coeffs.shape[0])
        return AlgebraicPolynomial(j * self.coeffs[1:])

    def __repr__(self):
        return f"AlgebraicPolynomial(coeffs={self.coeffs!r})"


@dataclass(frozen=True, eq=False)
class RootSet:
    """Zeros with multiplicity (listed repeatedly) plus the leading coefficient.

    degree_deficit counts high-order zero coefficients stripped before root
    finding, so len(roots) + degree_deficit equals the nominal degree bound.
    """

    leading: complex
    roots: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=complex))
    degree_deficit: int = 0

    def __post_init__(self):
        if self.leading == 0:
            raise ValueError("leading coefficient must be nonzero")
        arr = np.asarray(self.roots, dtype=complex).reshape(-1).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "roots", arr)
        object.__setattr__(self, "leading", complex(self.leading))

    def __len__(self):
        return self.roots.shape[0]


def from_roots(c: complex, roots) -> AlgebraicPolynomial:
    """Expand c * prod (z - z_k) to coefficients by iterated convolution."""
    if c == 0:
        raise ValueError("leading coefficient must be nonzero")
    coeffs = np.array([complex(c)])
    for r in np.asarray(roots, dtype=complex).reshape(-1):
        grown = np.zeros(coeffs.shape[0] + 1, dtype=complex)
        grown[1:] += coeffs
        grown[:-1] -= r * coeffs
        coeffs = grown
    return AlgebraicPolynomial(coeffs)


def laurent_from_algebraic(P: AlgebraicPolynomial, n: int) -> LaurentPolynomial:
    """Inverse of to_algebraic: P(z) / z^n housed in the class of bound n."""
    if P.effective_degree() > 2 * n:
        raise ValueError("degree exceeds 2n; polynomial not in the class")
    coeffs = np.zeros(2 * n + 1, dtype=complex)
    coeffs[: P.coeffs.shape[0]] = P.coeffs[: 2 * n + 1]
    return LaurentPolynomial(n, coeffs)


def fft_on_grid(rows, m: int, shift: float) -> np.ndarray:
    """T(e^{i t_k}) at t_k = 2 pi (k + shift) / m for each coefficient row (a_{-n}..a_n) of an array.

    With the twisted coefficients b_j = a_j e^{2 pi i j shift / m} folded mod
    m (c_r = sum of b_j over j = r mod m), T(e^{i t_k}) = sum_r c_r e^{2 pi i
    r k / m}: one unscaled inverse FFT of length m per row. The folding is the
    aliasing of exponents on m points, so m < 2n + 1 is exact too. Each value
    errs by about u (2 + log2 m) sum |a_j| (twist, fold, FFT), less than
    two-sided Horner at the rounded point e^{i t_k} for the n used here, and
    costs O(log m) per point instead of O(n). No row's values depend on another.
    """
    if m < 1:
        raise ValueError("a grid needs at least one point")
    j = np.arange(rows.shape[1]) - rows.shape[1] // 2
    if shift:
        rows = rows * np.exp(2j * np.pi * shift * j / m)
    folded = np.zeros((rows.shape[0], m), dtype=complex)
    np.add.at(folded, (slice(None), j % m), rows)
    return np.fft.ifft(folded, norm="forward")


def horner(coeffs, z):
    """sum_j coeffs[j] z^j by Horner's scheme, at a scalar z (giving a complex) or an array z."""
    c = np.asarray(coeffs, dtype=complex)
    zz = np.asarray(z, dtype=complex)
    acc = np.full(zz.shape, c[-1])
    for ck in c[-2::-1]:
        acc = acc * zz + ck
    return complex(acc) if acc.ndim == 0 else acc


def horner_laurent(coeffs, z):
    """sum_{j=-n}^{n} coeffs[j + n] z^j: Horner in z for j >= 0, in 1/z for j < 0."""
    c = np.asarray(coeffs, dtype=complex)
    n = (c.shape[0] - 1) // 2
    pos = horner(c[n:], z)
    if n == 0:
        return pos
    # 1/z as an array, so a scalar point rounds as it does inside an array
    w = np.asarray(1.0 / np.asarray(z, dtype=complex))
    total = pos + horner(c[n - 1 :: -1], w) * w
    return complex(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# accurate evaluation (Graillat, Langlois and Louvet, "Compensated Horner
# scheme", 2005): error-free transforms recover the rounding error of every
# Horner step, and a second Horner pass over those errors corrects the value.


def _split(a):
    """Veltkamp split a = hi + lo with hi and lo of at most 26 significant bits."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_product(a, a_hi, a_lo, b, b_hi, b_lo):
    """(x, e) with x = fl(a * b) and a * b = x + e exactly (Dekker)."""
    x = a * b
    return x, a_lo * b_lo - (((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _two_sum(a, b):
    """(x, e) with x = fl(a + b) and a + b = x + e exactly (Knuth)."""
    x = a + b
    z = x - a
    return x, (a - (x - z)) + (b - z)


def horner_compensated(coeffs, z) -> np.ndarray:
    """sum_j coeffs[j] z^j at an array of points, as if in twice double precision.

    The error is about u |P(z)| + (4 d u)^2 sum_j |a_j| |z|^j for degree d and
    unit roundoff u, so values near clustered zeros keep their leading digits
    where plain Horner returns rounding noise. Costs about 20 plain Horners.
    """
    c = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real.copy(), z.imag.copy()
    zr_hi, zr_lo = _split(zr)
    zi_hi, zi_lo = _split(zi)
    sr = np.full(z.shape, c[-1].real)
    si = np.full(z.shape, c[-1].imag)
    er = np.zeros(z.shape)
    ei = np.zeros(z.shape)
    for k in range(c.shape[0] - 2, -1, -1):
        sr_hi, sr_lo = _split(sr)
        si_hi, si_lo = _split(si)
        p1, e1 = _two_product(sr, sr_hi, sr_lo, zr, zr_hi, zr_lo)
        p2, e2 = _two_product(si, si_hi, si_lo, zi, zi_hi, zi_lo)
        p3, e3 = _two_product(sr, sr_hi, sr_lo, zi, zi_hi, zi_lo)
        p4, e4 = _two_product(si, si_hi, si_lo, zr, zr_hi, zr_lo)
        qr, fr = _two_sum(p1, -p2)
        qi, fi = _two_sum(p3, p4)
        sr, gr = _two_sum(qr, c[k].real)
        si, gi = _two_sum(qi, c[k].imag)
        er, ei = (
            er * zr - ei * zi + (e1 - e2 + fr + gr),
            er * zi + ei * zr + (e3 + e4 + fi + gi),
        )
    return (sr + er) + 1j * (si + ei)


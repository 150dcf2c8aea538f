import numpy as np
import pytest

from bernstein_lab.polynomials import LaurentPolynomial
from bernstein_lab.verify import SampleSpec, sample_with_roots

# (distribution, seed, index) of the n = 16 witnesses in test_witnesses.py
WITNESSES = (
    ("roots-on-circle", 20260410, 3),
    ("roots-outside", 20260410, 3),
    ("coeff-gaussian", 1000, 2),
    ("roots-in-disk", 20260410, 131),
    ("roots-on-circle", 20260410, 26),
    ("roots-mixed", 1000, 0),
)


@pytest.fixture(scope="session")
def sup_corpus():
    """Fixed corpus for the sup route: 200 Gaussian T at n = 1..8, monomials, witnesses and T'."""
    rng = np.random.default_rng(20261019)
    polys = []
    for i in range(200):
        n = 1 + i % 8
        polys.append(LaurentPolynomial(n, rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)))
    monomials = [
        LaurentPolynomial.monomial(n, j, 1.5j) for n in range(1, 9) for j in (-n, -1, 1, n)
    ]
    for distribution, seed, index in WITNESSES:
        spec = SampleSpec(n=16, distribution=distribution, seed=seed, count=index + 1)
        T, _ = sample_with_roots(spec, index)
        polys += [T, T.derivative()]
    return polys, monomials


@pytest.fixture(scope="session")
def sup_classes(sup_corpus):
    """The sup corpus as stacks: {n: coefficient rows of every T of class n}."""
    polys, monomials = sup_corpus
    classes = {}
    for T in polys + monomials:
        classes.setdefault(T.n, []).append(T.coeffs)
    return {n: np.array(rows) for n, rows in classes.items()}

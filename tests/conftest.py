import numpy as np
import pytest

from bernstein_lab import tasks
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


@pytest.fixture(scope="session")
def seed_sequence_rng():
    """Reference for tasks.task_rng: the generator rule the sweeps and searches each spelled out."""

    def rng(seed, index):
        return np.random.default_rng(
            np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(index,))
        )

    return rng


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of each pool tasks.run_in_order opens, in order.

    Each recorded pool starts at most 2 real workers, so a runner that asked
    for one worker per requested job could not fork dozens of processes.
    """
    sizes = []

    class Recorder(tasks.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(tasks, "ProcessPoolExecutor", Recorder)
    return sizes

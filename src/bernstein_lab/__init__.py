"""Circle means of Laurent polynomials and checks of their sharp derivative bounds."""

import os
import sys

# One BLAS thread per process: the only LAPACK call is eigvals on small
# companion matrices, where OpenBLAS's helper threads spin for CPU time that
# the process pool already uses. A value set by the user wins, and a process
# that loaded numpy first keeps its threads.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .circle_means import (
    DEFAULT_REL_TOL,
    MeanResult,
    logplus_integral,
    mahler_from_roots,
    mean,
    mean_0_quadrature,
    mean_inf,
    mean_p,
    means,
)
from .constructions import (
    ReflectionOutput,
    mu_moment,
    perturb_by_en,
    reflect_outside,
    smoothed_logplus,
)
from .errors import NumericFailure, RootCountError
from .extremal import RatioTrace, bernstein_ratio, maximize_ratio
from .polynomials import (
    AlgebraicPolynomial,
    LaurentPolynomial,
    RootSet,
    from_roots,
    laurent_from_algebraic,
)
from .rootfind import CirclePartition, checked_roots, classify, roots
from .verify import (
    SampleSpec,
    VerificationReport,
    check_bernstein,
    check_equality_case,
    check_lemma_2_1,
    check_lemma_2_2,
    check_monotone_p,
    check_theorem_1_2,
    run_sweep,
    sample_polynomial,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicPolynomial",
    "CirclePartition",
    "DEFAULT_REL_TOL",
    "LaurentPolynomial",
    "MeanResult",
    "NumericFailure",
    "RatioTrace",
    "ReflectionOutput",
    "RootCountError",
    "RootSet",
    "SampleSpec",
    "VerificationReport",
    "bernstein_ratio",
    "check_bernstein",
    "check_equality_case",
    "check_lemma_2_1",
    "check_lemma_2_2",
    "check_monotone_p",
    "check_theorem_1_2",
    "checked_roots",
    "classify",
    "from_roots",
    "laurent_from_algebraic",
    "logplus_integral",
    "mahler_from_roots",
    "maximize_ratio",
    "mean",
    "mean_0_quadrature",
    "mean_inf",
    "mean_p",
    "means",
    "mu_moment",
    "perturb_by_en",
    "reflect_outside",
    "roots",
    "run_sweep",
    "sample_polynomial",
    "smoothed_logplus",
    "summarize",
]

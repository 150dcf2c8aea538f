"""The benchmark's workloads: each is a fixed list of bernstein-lab CLI invocations.

A round of a workload runs its invocations one after another, all with the
same CLI seed. The claim, distribution and class bound n of every invocation
are fixed here; only the seed changes from round to round and run to run.
Each workload keeps the reason it exists next to its definition, together
with the layers it is meant to exercise.
"""

from __future__ import annotations

from dataclasses import dataclass

# Best ratio an extremal search must reach, and the ceiling it must never pass.
RATIO_FLOOR = 0.999
RATIO_CEILING = 1.0 + 1e-6


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``out`` is relative to the directory it runs in."""

    command: str  # "verify" or "extremal"
    flags: tuple[str, ...]
    out: str
    operations: int  # samples for verify, 1 search for extremal
    roots_per_sample: int | None = None  # exact rootfind.roots calls per sample, if known
    oracle: bool = False  # spot-check the first samples at 50 digits

    def argv(self, seed: int, jobs: int | None = None) -> list[str]:
        args = [self.command, *self.flags, "--seed", str(seed), "--out", self.out]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        return args

    def output_files(self) -> list[str]:
        """Files the invocation writes on success, all covered by the byte-identity check."""
        if self.command == "extremal":
            return [self.out]
        return [self.out, self.out + ".worst.json", self.out + ".run.json"]


def _verify(name, claim, n, distribution, count, extra=(), **kw) -> Invocation:
    flags = ("--claim", claim, "--n", str(n), "--distribution", distribution,
             "--count", str(count), *extra)
    return Invocation("verify", flags, f"{name}.jsonl", count, **kw)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


_WORKLOADS = (
    Workload(
        "geomean-sweep",
        "The paper's headline p = 0 inequality M_0(T') <= n M_0(T). Each "
        "sample makes 1 (roots-mixed) or 2 (coeff-gaussian) root solves of "
        "degree 32-34, about 70% of the sample; trapezoid M_0 quadrature takes "
        "the rest. A change to the root layer has to show here.",
        (
            _verify("mixed", "thm-1-1", 16, "roots-mixed", 192,
                    roots_per_sample=1, oracle=True),
            _verify("gaussian", "thm-1-1", 16, "coeff-gaussian", 128,
                    roots_per_sample=2, oracle=True),
        ),
    ),
    Workload(
        "logplus-smoothing",
        "Theorem 1.2 with the smoothing route on: exactly 128 root solves of "
        "degree 8-10 per sample, so per-call overhead dominates rather than "
        "O(d^2) work. The only workload for logplus_integral, adaptive_gl, "
        "bisect_roots and perturb_by_en.",
        (
            _verify("logplus", "thm-1-2", 4, "roots-mixed", 16, ("--fubini", "1"),
                    roots_per_sample=128),
        ),
    ),
    Workload(
        "means-ladder",
        "M_0 <= M_p <= M_inf along the default p grid. Planted roots mean no "
        "root solve at all: the time goes to circle evaluation, trapezoid "
        "doubling (mean_p) and the golden-section sup (mean_inf). The control "
        "for root-layer changes, where the prediction is no change.",
        (
            _verify("ladder", "monotone-p", 16, "roots-mixed", 320,
                    roots_per_sample=0),
        ),
    ),
    Workload(
        "extremal-sup",
        "Sharpness search for p = inf at n = 4 with 4 restarts, so the pool "
        "runs. No root solve and no quadrature: the time is the sup on the "
        "circle inside the Nelder-Mead and pattern-search loop, so it measures "
        "the optimizer and per-call overhead.",
        (
            Invocation(
                "extremal",
                ("--n", "4", "--p", "inf", "--restarts", "4", "--budget", "1000",
                 "--threshold", str(RATIO_FLOOR)),
                "extremal.json",
                1,
                roots_per_sample=0,
            ),
        ),
    ),
    Workload(
        "geomean-circle",
        "The p = 0 inequality with all zeros on the circle: the only workload "
        "for singular-panel quadrature (singular_circle_mean, graded_edges). "
        "At the parent of the benchmark it aborts or fails verdicts on every "
        "seed tried, because planted roots describe the idealized product and "
        "not the stored coefficients; it records that as failed operations.",
        # Not listed in BENCHMARK.json while it fails operations: its wall
        # time is +inf then, so it has no spread to bound. Run it by name.
        (_verify("circle", "thm-1-1", 16, "roots-on-circle", 96, oracle=True),),
    ),
)
WORKLOADS = {w.name: w for w in _WORKLOADS}
WORKLOADS["verify-mix"] = Workload(
    "verify-mix",
    "Every passing verify workload in one round: geomean-sweep, then "
    "logplus-smoothing, then means-ladder. One round takes 6-9 s, so a 50 s "
    "run holds five to seven and rides out the host's slow phases better "
    "than three separate shorter runs. Root-layer changes show here; "
    "extremal-sup, with no root solve, is their control.",
    sum((WORKLOADS[name].invocations
         for name in ("geomean-sweep", "logplus-smoothing", "means-ladder")), ()),
)
# The workloads BENCHMARK.json lists, and ``--workload all`` runs. The others
# run by name: the parts of verify-mix, to split a change between them, and
# geomean-circle, which fails operations at the parent of the benchmark.
LISTED = ("verify-mix", "extremal-sup")

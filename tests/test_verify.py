import math
import os

import numpy as np
import pytest

from bernstein_lab import verify
from bernstein_lab.cli import main
from bernstein_lab.constructions import reflect_outside
from bernstein_lab.polynomials import LaurentPolynomial
from bernstein_lab.rootfind import classify, roots
from bernstein_lab.verify import (
    DISTRIBUTIONS,
    SampleSpec,
    check_bernstein,
    check_equality_case,
    check_lemma_2_1,
    check_lemma_2_2,
    check_monotone_p,
    check_theorem_1_2,
    run_sweep,
    sample_polynomial,
    sample_with_roots,
    summarize,
)


class TestSampler:
    def test_deterministic(self):
        spec = SampleSpec(n=5, distribution="coeff-gaussian", seed=7, count=4)
        a = sample_polynomial(spec, 2)
        b = sample_polynomial(spec, 2)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_index_range_enforced(self):
        spec = SampleSpec(n=2, distribution="roots-in-disk", seed=1, count=3)
        with pytest.raises(ValueError):
            sample_polynomial(spec, 3)

    def test_roots_in_disk_verified_by_classify(self):
        spec = SampleSpec(n=3, distribution="roots-in-disk", seed=11, count=5)
        for i in range(5):
            T = sample_polynomial(spec, i)
            part = classify(roots(T.to_algebraic()), 1e-6)
            assert part.outside.size == 0

    def test_roots_outside_verified_by_classify(self):
        spec = SampleSpec(n=3, distribution="roots-outside", seed=11, count=5)
        for i in range(5):
            T = sample_polynomial(spec, i)
            part = classify(roots(T.to_algebraic()), 1e-6)
            assert part.inside.size == 0

    def test_on_circle_moduli(self):
        spec = SampleSpec(n=4, distribution="roots-on-circle", seed=3, count=3)
        for i in range(3):
            T = sample_polynomial(spec, i)
            R = roots(T.to_algebraic())
            assert np.max(np.abs(np.abs(R.roots) - 1.0)) < 1e-8

    def test_gaussian_class_bound_effective(self):
        spec = SampleSpec(n=4, distribution="coeff-gaussian", seed=5, count=8)
        for i in range(8):
            T = sample_polynomial(spec, i)
            assert T.n == 4
            assert abs(T.top) >= 1e-6 * np.max(np.abs(T.coeffs))
            assert np.all(np.isfinite(T.on_circle(np.linspace(0, 6, 10))))

    def test_unknown_distribution_rejected(self):
        with pytest.raises(ValueError):
            SampleSpec(n=1, distribution="bogus", seed=0, count=1)


class TestCheckBernstein:
    def test_monomial_all_p(self):
        T = LaurentPolynomial.monomial(3, 3)
        for p in (0.0, 0.25, 1.0, 2.0, math.inf):
            rep = check_bernstein(T, p)
            assert rep.passed
            assert rep.lhs == pytest.approx(rep.rhs, rel=1e-9)

    def test_z_minus_two_at_p_zero_closed_forms(self):
        rep = check_bernstein(LaurentPolynomial(1, [0, -2, 1]), 0.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)
        assert rep.rhs == pytest.approx(2.0, rel=1e-10)
        assert rep.margin == pytest.approx(1.0, rel=1e-9)

    def test_claim_tags(self):
        T = LaurentPolynomial(1, [0, -2, 1])
        assert check_bernstein(T, 0.0).claim == "thm-1-1"
        assert check_bernstein(T, 2.0).claim == "thm-1-3"
        assert check_bernstein(T, math.inf).claim == "thm-1-3"

    def test_stored_class_bound_used_when_top_vanishes(self):
        # T = z^{-1} housed in class 2: rhs uses n = 2, which only helps
        T = LaurentPolynomial(2, [1, 0, 0, 0, 0])
        rep = check_bernstein(T, 2.0)
        assert rep.passed
        assert rep.rhs == pytest.approx(2.0, rel=1e-10)

    def test_scale_invariance_of_verdict(self):
        spec = SampleSpec(n=4, distribution="roots-mixed", seed=23, count=3)
        for i in range(3):
            T = sample_polynomial(spec, i)
            base = check_bernstein(T, 2.0)
            scaled = check_bernstein((-3.25 + 1j) * T, 2.0)
            assert scaled.passed == base.passed
            assert scaled.margin / scaled.rhs == pytest.approx(
                base.margin / base.rhs, abs=1e-9
            )

    def test_rotation_invariance_of_verdict(self):
        spec = SampleSpec(n=3, distribution="coeff-gaussian", seed=29, count=3)
        for i in range(3):
            T = sample_polynomial(spec, i)
            base = check_bernstein(T, 2.0)
            # T(e^{i theta} z): a_j picks up e^{i j theta}
            j = np.arange(-T.n, T.n + 1)
            rot = check_bernstein(LaurentPolynomial(T.n, T.coeffs * np.exp(1.234j * j)), 2.0)
            assert rot.margin / rot.rhs == pytest.approx(base.margin / base.rhs, abs=1e-9)

    def test_report_determinism(self):
        T = sample_polynomial(SampleSpec(n=4, distribution="roots-mixed", seed=3, count=1), 0)
        a = check_bernstein(T, 0.5)
        b = check_bernstein(T, 0.5)
        assert a == b

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            check_bernstein(LaurentPolynomial.zero(2), 1.0)

    def test_constant_has_zero_derivative_mean(self):
        # T' = 0, so M_p(T') = 0 <= n M_p(T) at every p
        for T in (LaurentPolynomial(0, [3 - 4j]), LaurentPolynomial(2, [0, 0, 3 - 4j, 0, 0])):
            for p in (0.0, 0.5, 2.0, math.inf):
                rep = check_bernstein(T, p)
                assert rep.passed and rep.lhs == 0.0
                assert rep.rhs == pytest.approx(5.0 * T.n, rel=1e-12)
                assert rep.margin == rep.rhs

    def test_bad_rel_tol_rejected_on_every_route(self):
        T = LaurentPolynomial(1, [0, -2, 1])
        for p in (0.0, 0.5, math.inf):
            with pytest.raises(ValueError, match="rel_tol"):
                check_bernstein(T, p, rel_tol=float("nan"))


class TestEqualityCase:
    def test_z_minus_half(self):
        rep = check_equality_case(LaurentPolynomial(1, [0, -0.5, 1]))
        assert rep.passed and not rep.skipped
        assert rep.lhs == pytest.approx(1.0, rel=1e-10)

    def test_monomial(self):
        rep = check_equality_case(LaurentPolynomial.monomial(4, 4, 2.5))
        assert rep.passed

    def test_outside_roots_skip(self):
        rep = check_equality_case(LaurentPolynomial(1, [0, -2, 1]))
        assert rep.skipped and rep.passed


class TestLemma21:
    def test_z_plus_inverse(self):
        rep = check_lemma_2_1(LaurentPolynomial(1, [1, 0, 1]))
        assert rep.passed and not rep.skipped
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)

    def test_monomial_all_derivative_zeros_at_origin(self):
        rep = check_lemma_2_1(LaurentPolynomial.monomial(3, 3))
        assert rep.passed
        assert rep.lhs == 0.0

    def test_hypothesis_unmet_is_skip(self):
        rep = check_lemma_2_1(LaurentPolynomial(1, [0, -2, 1]))
        assert rep.skipped


class TestLemma22:
    def test_with_reflection_construction(self):
        spec = SampleSpec(n=5, distribution="roots-mixed", seed=31, count=3)
        for i in range(3):
            T = sample_polynomial(spec, i)
            V = reflect_outside(T).v
            rep = check_lemma_2_2(T, V)
            assert rep.passed and not rep.skipped

    def test_equal_inputs_zero_margin(self):
        T = sample_polynomial(SampleSpec(n=3, distribution="roots-in-disk", seed=37, count=1), 0)
        rep = check_lemma_2_2(T, T)
        assert rep.passed
        assert rep.margin == pytest.approx(0.0, abs=1e-12)

    def test_strict_domination(self):
        T = sample_polynomial(SampleSpec(n=3, distribution="roots-in-disk", seed=41, count=1), 0)
        rep = check_lemma_2_2(0.5 * T, T)
        assert rep.passed
        assert rep.margin > 0

    def test_hypothesis_violation_is_precondition_report(self):
        T = sample_polynomial(SampleSpec(n=3, distribution="roots-in-disk", seed=43, count=1), 0)
        rep = check_lemma_2_2(2.0 * T, T)
        assert rep.skipped
        assert "precondition" in rep.detail

    def test_dominator_with_outside_zeros_is_precondition_report(self):
        V = LaurentPolynomial(1, [0, -2, 1])
        rep = check_lemma_2_2(V, V)
        assert rep.skipped


class TestTheorem12:
    def test_monomial_both_sides_zero(self):
        rep = check_theorem_1_2(LaurentPolynomial.monomial(5, 5), fubini=False)
        assert rep.passed
        assert abs(rep.lhs) < 1e-12 and abs(rep.rhs) < 1e-12

    def test_scaled_monomial_equality(self):
        rep = check_theorem_1_2(LaurentPolynomial.monomial(5, 5, 2.0))
        assert rep.passed
        assert rep.lhs == pytest.approx(math.log(2.0), rel=1e-9)
        assert rep.rhs == pytest.approx(math.log(2.0), rel=1e-9)
        assert rep.margin == pytest.approx(0.0, abs=1e-9)

    def test_random_samples_with_fubini(self):
        spec = SampleSpec(n=6, distribution="roots-mixed", seed=47, count=3)
        for i in range(3):
            rep = check_theorem_1_2(sample_polynomial(spec, i))
            assert rep.passed
            assert "deviation" in rep.detail


class TestMonotone:
    def test_constant(self):
        rep = check_monotone_p(LaurentPolynomial(0, [3.0 - 4.0j]))
        assert rep.passed
        assert rep.lhs == pytest.approx(5.0, rel=1e-9)

    def test_z_plus_inverse(self):
        rep = check_monotone_p(LaurentPolynomial(1, [1, 0, 1]), p_grid=(2.0,))
        assert rep.passed

    def test_random(self):
        spec = SampleSpec(n=4, distribution="coeff-gaussian", seed=53, count=3)
        for i in range(3):
            rep = check_monotone_p(sample_polynomial(spec, i))
            assert rep.passed

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError):
            check_monotone_p(LaurentPolynomial(0, [1.0]), p_grid=(2.0, 1.0))


class TestSweeps:
    @pytest.mark.parametrize(
        "claim,dist",
        [
            ("thm-1-1", "roots-mixed"),
            ("thm-1-3", "coeff-gaussian"),
            ("thm-1-2", "roots-mixed"),
            ("lemma-2-1", "roots-in-disk"),
            ("lemma-2-2", "roots-mixed"),
            ("equality-case", "roots-in-disk"),
            ("monotone-p", "coeff-gaussian"),
            ("identity-3-1", "roots-mixed"),
        ],
    )
    def test_small_sweep_passes(self, claim, dist):
        spec = SampleSpec(n=3, distribution=dist, seed=59, count=6)
        reports = run_sweep(claim, spec, jobs=1)
        summary = summarize(reports)
        assert summary["passed"]
        assert summary["count"] == 6

    def test_identity_3_2_grid_sweep(self):
        spec = SampleSpec(n=1, distribution="roots-mixed", seed=1, count=1)
        reports = run_sweep("identity-3-2", spec, jobs=1)
        assert len(reports) == 125
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "claim, opts",
        [
            ("monotone-p", {"pgrid": (0.5,)}),
            ("thm-1-1", {"p": 0.5}),
            ("identity-3-2", {"points": 8}),
        ],
    )
    def test_option_the_claim_does_not_read_is_rejected(self, claim, opts):
        spec = SampleSpec(n=3, distribution="roots-mixed", seed=5, count=2)
        with pytest.raises(ValueError, match="does not read"):
            run_sweep(claim, spec, jobs=1, **opts)

    def test_conditional_claim_on_wrong_distribution_skips(self):
        spec = SampleSpec(n=3, distribution="roots-outside", seed=61, count=5)
        reports = run_sweep("lemma-2-1", spec, jobs=1)
        summary = summarize(reports)
        assert summary["skipped"] == 5
        assert summary["passed"]

    def test_parallel_matches_serial(self):
        spec = SampleSpec(n=3, distribution="roots-mixed", seed=67, count=10)
        serial = run_sweep("thm-1-1", spec, jobs=1)
        parallel = run_sweep("thm-1-1", spec, jobs=2)
        assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]

    def test_worst_witness_retained(self):
        spec = SampleSpec(n=2, distribution="roots-mixed", seed=71, count=8)
        summary = summarize(run_sweep("thm-1-1", spec, jobs=1))
        assert summary["worst"] is not None
        assert "polynomial" in summary["worst"].witness


class TestTaskRunner:
    @pytest.mark.parametrize("count", [1, 2, 5, 16])
    def test_outputs_do_not_depend_on_jobs(self, tmp_path, count):
        # task counts below, at and above the worker counts 2 and 3
        out = str(tmp_path / "r.jsonl")
        argv = ["verify", "--claim", "thm-1-1", "--n", "3", "--count", str(count),
                "--seed", "11", "--out", out]
        files = []
        for jobs in ("1", "2", "3"):
            assert main([*argv, "--jobs", jobs]) == 0
            files.append([open(out + ext, "rb").read() for ext in ("", ".worst.json", ".run.json")])
        assert files[1] == files[0] and files[2] == files[0]

    @pytest.mark.parametrize(
        "count, jobs, sizes",
        [(1, 64, []), (2, 64, [2]), (5, 3, [3]), (16, 2, [2]), (3, None, [3]), (1, None, [])],
    )
    def test_workers_never_exceed_samples(self, pool_sizes, monkeypatch, count, jobs, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        spec = SampleSpec(n=1, distribution="roots-mixed", seed=3, count=count)
        pooled = run_sweep("identity-3-1", spec, jobs=jobs)
        assert pool_sizes == sizes
        assert pooled == run_sweep("identity-3-1", spec, jobs=1)

    def test_samples_draw_what_the_seed_sequence_rule_drew(self, monkeypatch, seed_sequence_rng):
        cases = [(dist, seed, i) for dist in DISTRIBUTIONS
                 for seed in (0, 1000, 20260410, -1, 2**64 + 5) for i in (0, 3, 131)]

        def draws():
            out = []
            for dist, seed, i in cases:
                spec = SampleSpec(n=4, distribution=dist, seed=seed, count=i + 1)
                T, planted = sample_with_roots(spec, i)
                out.append(T.coeffs.tobytes())
                if planted is not None:
                    out.append(planted.roots.tobytes() + np.complex128(planted.leading).tobytes())
                out.append(verify._check_identity_3_1(spec, i).lhs)
            return out

        now = draws()
        monkeypatch.setattr(verify, "task_rng", seed_sequence_rng)
        assert now == draws()

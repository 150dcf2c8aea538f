import json
import math
import os

import numpy as np
import pytest

from bernstein_lab import jsonio
from bernstein_lab.cli import main, parse_p
from bernstein_lab.polynomials import LaurentPolynomial
from bernstein_lab.verify import SWEEP_OPTIONS, SampleSpec, run_sweep, sample_polynomial


@pytest.fixture
def poly_file(tmp_path):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"n": 1, "coeffs": [[0, 0], [-2, 0], [1, 0]]}))
    return str(path)


class TestParseP:
    def test_grammar(self):
        assert parse_p("0") == 0.0
        assert parse_p("inf") == math.inf
        assert parse_p("0.25") == 0.25

    def test_rejects_garbage(self):
        import argparse

        for bad in ("-1", "nan", "x", ""):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_p(bad)


class TestMeans:
    def test_csv_table(self, poly_file, capsys):
        assert main(["means", poly_file, "--p", "0,1,2,inf"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "p,value,err,method"
        rows = {line.split(",")[0]: line.split(",") for line in out[1:]}
        assert float(rows["0"][1]) == pytest.approx(2.0, rel=1e-10)
        assert float(rows["inf"][1]) == pytest.approx(3.0, rel=1e-10)
        assert float(rows["2"][1]) == pytest.approx(math.sqrt(5.0), rel=1e-12)
        assert rows["0"][3] == "jensen-product"

    def test_constant_polynomial(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 0, "coeffs": [[3, -4]]}))
        assert main(["means", str(path), "--p", "0.5,1,2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        for line in out[1:]:
            assert float(line.split(",")[1]) == pytest.approx(5.0, rel=1e-9)

    def test_parseval_for_random_file(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        T = LaurentPolynomial(3, rng.normal(size=7) + 1j * rng.normal(size=7))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(T.to_json_dict()))
        assert main(["means", str(path), "--p", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        expected = math.sqrt(float(np.sum(np.abs(T.coeffs) ** 2)))
        assert float(out[1].split(",")[1]) == pytest.approx(expected, rel=1e-12)

    def test_high_p_with_large_coefficients(self, tmp_path, capsys):
        # the largest coefficient is 1.5e5, so its 64th power overflows a float
        T = sample_polynomial(SampleSpec(16, "roots-mixed", 5, 2), 0)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(T.to_json_dict()))
        assert main(["means", str(path), "--p", "64,63.5", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        scale = float(np.max(np.abs(T.coeffs)))
        ratio = np.abs(T.on_grid(1 << 16)) / scale
        for row, p in zip(rows, (64.0, 63.5)):
            expected = scale * float(np.mean(ratio**p)) ** (1.0 / p)
            assert row["value"] == pytest.approx(expected, rel=1e-12)

    def test_json_format_roundtrips(self, poly_file, capsys):
        assert main(["means", poly_file, "--p", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["method"] == "trapezoid"

    def test_syntax_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "coeffs": [[0, 0],')
        assert main(["means", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_schema_error_exit_2(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "coeffs": [[1, 0]]}))
        assert main(["means", str(path)]) == 2

    @pytest.mark.parametrize(
        "literal",
        [
            # json reads NaN and Infinity; a NaN gave exit 3 at p = 0 and
            # printed nan with exit 0 at p = 2 and inf
            '{"n": 1, "coeffs": [[1, 0], [NaN, 0], [2, 0]]}',
            '{"n": 1, "coeffs": [[1, 0], [0, -Infinity], [2, 0]]}',
            # a fractional n ran as its integer part
            '{"n": 1.7, "coeffs": [[1, 0], [0, 0], [2, 0]]}',
            '{"n": true, "coeffs": [[1, 0], [0, 0], [2, 0]]}',
        ],
    )
    @pytest.mark.parametrize("p", ["0", "2", "inf"])
    def test_bad_literal_exit_2(self, tmp_path, capsys, literal, p):
        path = tmp_path / "bad.json"
        path.write_text(literal)
        assert main(["means", str(path), "--p", p]) == 2
        captured = capsys.readouterr()
        assert "bad.json" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flags",
        [
            ["--rel-tol=-inf"],
            ["--rel-tol", "1e-400"],  # parses to 0
            ["--rel-tol", "0"],
            ["--rel-tol", "-1"],
            ["--rel-tol", "nan"],
            ["--rel-tol", "inf"],
        ],
    )
    def test_bad_grid_exit_2(self, poly_file, capsys, flags):
        assert main(["means", poly_file, "--p", "0.5,3", *flags]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_rel_tol_in_config_exit_2(self, poly_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rel_tol": 0}))
        out = tmp_path / "m.csv"
        assert main(["means", poly_file, "--config", str(cfg), "--out", str(out)]) == 2
        assert "--rel-tol" in capsys.readouterr().err
        assert not out.exists()

    def test_json_config_records_rel_tol(self, poly_file, capsys):
        assert main(["means", poly_file, "--p", "0.5", "--format", "json", "--rel-tol", "1e-9"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["params"]["rel_tol"] == 1e-9


    def test_zeros_solved_only_when_read(self, tmp_path, capsys, monkeypatch):
        from bernstein_lab import rootfind

        rng = np.random.default_rng(11)
        T = LaurentPolynomial(3, rng.normal(size=7) + 1j * rng.normal(size=7))
        path = tmp_path / "r.json"
        path.write_text(json.dumps(T.to_json_dict()))
        calls = []
        solve = rootfind.roots
        monkeypatch.setattr(rootfind, "roots", lambda P: calls.append(P) or solve(P))

        def table(ps):
            del calls[:]
            assert main(["means", str(path), "--p", ps]) == 0
            return len(calls), capsys.readouterr().out.splitlines()

        assert table("2,4,inf")[0] == 0
        assert table("0,0.5,2")[0] == 1
        # the rows of p that read no zeros are the same whether or not they were solved
        _, without = table("2,4,inf")
        _, with_zeros = table("0.5,2,4,inf")
        assert without == [with_zeros[0], *with_zeros[2:]]


class TestBadPToken:
    @pytest.mark.parametrize(
        "argv",
        [
            ["means", None, "--p", "0,foo"],
            ["verify", "--claim", "monotone-p", "--p-grid", "1,x", "--count", "2"],
            ["extremal", "--p", "foo"],
        ],
    )
    def test_exit_2_with_error_line(self, poly_file, tmp_path, capsys, argv):
        argv = [poly_file if a is None else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestImportBudget:
    def test_no_command_loads_scipy(self, poly_file, tmp_path):
        import subprocess
        import sys

        import bernstein_lab

        script = f"""
import json, math, sys
from bernstein_lab import cli
assert cli.main(["means", {poly_file!r}, "--p", "0,0.5,2,inf"]) == 0
for claim in ("thm-1-1", "monotone-p"):
    out = {str(tmp_path)!r} + "/" + claim + ".jsonl"
    argv = ["verify", "--claim", claim, "--n", "3", "--count", "4", "--jobs", "1", "--out", out]
    assert cli.main(argv) == 0
from bernstein_lab.extremal import maximize_ratio
pooled = maximize_ratio(1, math.inf, restarts=2, budget=300, seed=5, jobs=2)
serial = maximize_ratio(1, math.inf, restarts=2, budget=300, seed=5, jobs=1)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({{"scipy": loaded, "same": pooled.to_json_dict() == serial.to_json_dict()}}))
"""
        src = os.path.dirname(os.path.dirname(bernstein_lab.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        assert result == {"scipy": [], "same": True}


class TestVerifyCommand:
    def test_pass_run_and_reproducibility(self, tmp_path, capsys):
        out1 = str(tmp_path / "a.jsonl")
        out2 = str(tmp_path / "b.jsonl")
        argv = [
            "verify", "--claim", "thm-1-1", "--distribution", "roots-mixed",
            "--count", "12", "--n", "3", "--seed", "42", "--jobs", "1",
        ]
        assert main(argv + ["--out", out1]) == 0
        assert main(argv + ["--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        lines = open(out1).read().splitlines()
        assert len(lines) == 12
        rec = json.loads(lines[0])
        assert rec["claim"] == "thm-1-1" and rec["passed"]
        assert os.path.exists(out1 + ".worst.json")
        assert os.path.exists(out1 + ".run.json")

    def test_emitted_witness_reparses_identically(self, tmp_path):
        out = str(tmp_path / "w.jsonl")
        main([
            "verify", "--claim", "thm-1-3", "--p", "2", "--distribution",
            "coeff-gaussian", "--count", "5", "--n", "2", "--seed", "7",
            "--jobs", "1", "--out", out,
        ])
        from bernstein_lab.verify import SampleSpec, sample_polynomial

        for line in open(out).read().splitlines():
            rec = json.loads(line)
            T = LaurentPolynomial.from_json_dict(rec["witness"]["polynomial"])
            orig = sample_polynomial(
                SampleSpec(2, "coeff-gaussian", 7, 5), rec["witness"]["index"]
            )
            assert np.array_equal(T.coeffs, orig.coeffs)

    def test_skipped_sweep_exits_zero(self, tmp_path, capsys):
        out = str(tmp_path / "s.jsonl")
        rc = main([
            "verify", "--claim", "lemma-2-1", "--distribution", "roots-outside",
            "--count", "6", "--n", "2", "--seed", "1", "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        assert "skipped=6" in capsys.readouterr().out

    def test_forced_failure_exits_one(self, tmp_path):
        # tolerance 0 cannot absorb quadrature rounding in the moment identity
        out = str(tmp_path / "f.jsonl")
        rc = main([
            "verify", "--claim", "identity-3-2", "--count", "1", "--n", "1",
            "--seed", "5", "--tol", "0", "--jobs", "1", "--out", out,
        ])
        assert rc == 1

    @pytest.mark.parametrize("claim", [["thm-1-1"], ["thm-1-3", "--p", "0.5"]])
    def test_constant_class_passes(self, tmp_path, capsys, claim):
        # n = 0: T is a constant, T' = 0, and 0 <= 0 holds
        out = tmp_path / "c.jsonl"
        argv = ["verify", "--claim", *claim, "--n", "0", "--count", "3", "--jobs", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert rec["passed"] and rec["lhs"] == 0 and rec["rhs"] == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1"])
    def test_bad_tol_exit_2_before_any_sample(self, tmp_path, capsys, monkeypatch, tol):
        # a usage error, not a counterexample, and no sample runs
        from bernstein_lab import verify

        monkeypatch.setattr(verify, "_run_one", lambda *a: pytest.fail("a sample ran"))
        out = tmp_path / "t.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--count", "4", "--jobs", "1"]
        assert main([*argv, f"--tol={tol}", "--out", str(out)]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "t.jsonl.run.json").exists()

    def test_thm_1_3_at_p_0_exit_2_before_any_sample(self, tmp_path, capsys, monkeypatch):
        # p = 0 is thm-1-1: check_bernstein would label every report so
        from bernstein_lab import verify

        monkeypatch.setattr(verify, "_run_one", lambda *a: pytest.fail("a sample ran"))
        out = tmp_path / "z.jsonl"
        argv = ["verify", "--claim", "thm-1-3", "--p", "0", "--n", "2", "--count", "2"]
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 2
        assert "thm-1-1" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "z.jsonl.run.json").exists()
        with pytest.raises(ValueError, match="thm-1-1"):
            run_sweep("thm-1-3", SampleSpec(2, "roots-mixed", 1, 2), jobs=1, p=0.0)

    def test_run_record_holds_the_rel_tol_used(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--count", "2", "--jobs", "1"]
        for flags, used in (([], 1e-10), (["--rel-tol", "1e-12"], 1e-12)):
            assert main([*argv, *flags, "--out", str(out)]) == 0
            run = json.loads((tmp_path / "r.jsonl.run.json").read_text())
            assert run["params"]["rel_tol"] == used
            assert "grid" not in run["params"]

    def test_identity_sweeps(self, tmp_path, capsys):
        out = str(tmp_path / "i.jsonl")
        rc = main([
            "verify", "--claim", "identity-3-2", "--count", "1", "--n", "1",
            "--seed", "1", "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 125

    def test_identity_run_record_counts_reports_written(self, tmp_path, capsys):
        out = tmp_path / "i.jsonl"
        argv = ["verify", "--claim", "identity-3-2", "--count", "12", "--jobs", "1"]
        assert main([*argv, "--out", str(out)]) == 0
        run = json.loads((tmp_path / "i.jsonl.run.json").read_text())
        assert run["params"]["count"] == len(out.read_text().splitlines()) == 125

    @pytest.mark.parametrize(
        "claim, flag",
        [("thm-1-1", ["--p", "0.5"]), ("thm-1-3", ["--p-grid", "0.5,3"]),
         ("monotone-p", ["--points", "1024"]), ("lemma-2-2", ["--fubini", "0"])],
    )
    def test_flag_the_claim_does_not_read_exits_two(self, tmp_path, capsys, claim, flag):
        out = tmp_path / "u.jsonl"
        argv = ["verify", "--claim", claim, "--n", "2", "--count", "2", "--jobs", "1"]
        assert main([*argv, *flag, "--out", str(out)]) == 2
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_are_shared_defaults(self, tmp_path):
        # --config may set options for other claims; each claim reads its own
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"p": "0.5", "points": 1024, "fubini": 0}))
        out = tmp_path / "c.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--count", "2", "--seed", "3"]
        assert main([*argv, "--config", str(cfg), "--jobs", "1", "--out", str(out)]) == 0
        assert json.loads((tmp_path / "c.jsonl.run.json").read_text())["params"]["extra"] == {}

    def test_unimodular_products_pass(self, tmp_path, capsys):
        # sample 3 of this seed, whatever the count, has 32 unimodular factors
        # whose stored coefficients double precision does not pin
        out = str(tmp_path / "circle.jsonl")
        rc = main([
            "verify", "--claim", "thm-1-1", "--distribution", "roots-on-circle",
            "--n", "16", "--count", "8", "--seed", "20260410", "--jobs", "1",
            "--out", out,
        ])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 8

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        out1 = str(tmp_path / "e1.jsonl")
        out2 = str(tmp_path / "e2.jsonl")
        argv = [
            "verify", "--claim", "thm-1-3", "--p", "1", "--distribution",
            "roots-in-disk", "--count", "3", "--n", "2", "--jobs", "1",
        ]
        monkeypatch.setenv("BERNSTEIN_LAB_SEED", "777")
        main(argv + ["--out", out1])
        monkeypatch.delenv("BERNSTEIN_LAB_SEED")
        main(argv + ["--seed", "777", "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_config_file_merges_under_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count": 3, "n": 2, "distribution": "roots-in-disk"}))
        out = str(tmp_path / "c.jsonl")
        rc = main([
            "verify", "--claim", "thm-1-3", "--p", "2", "--seed", "3",
            "--config", str(cfg), "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 3


    @pytest.mark.parametrize("claim", sorted(SWEEP_OPTIONS))
    def test_defaults_match_library(self, tmp_path, claim):
        out = tmp_path / "r.jsonl"
        argv = ["verify", "--claim", claim, "--n", "3", "--count", "3", "--seed", "5"]
        main([*argv, "--jobs", "1", "--out", str(out)])
        spec = SampleSpec(n=3, distribution="roots-mixed", seed=5, count=3)
        library = run_sweep(claim, spec, jobs=1)
        assert out.read_text() == "".join(jsonio.dump_line(r.to_json_dict()) for r in library)
        run = json.loads((tmp_path / "r.jsonl.run.json").read_text())
        assert run["params"]["extra"] == json.loads(jsonio.dumps(SWEEP_OPTIONS[claim]))


class TestExtremalCommand:
    def test_quick_run(self, tmp_path, capsys):
        out = str(tmp_path / "trace.json")
        rc = main([
            "extremal", "--n", "1", "--p", "2", "--restarts", "2",
            "--budget", "2000", "--seed", "4", "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        payload = json.loads(open(out).read())
        assert payload["trace"]["best_ratio"] >= 0.99
        assert payload["config"]["params"]["n"] == 1

    def test_fractional_p_search_reaches_the_bound(self, tmp_path, capsys):
        # the search converges toward z^-n, whose top coefficient is near
        # zero; its root solves must still meet the residual rule
        out = str(tmp_path / "trace.json")
        rc = main([
            "extremal", "--n", "3", "--p", "0.5", "--restarts", "2",
            "--budget", "3000", "--seed", "1", "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        assert json.loads(open(out).read())["trace"]["best_ratio"] >= 0.999

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_exits_2_before_the_search(
        self, tmp_path, capsys, monkeypatch, threshold
    ):
        from bernstein_lab import cli

        monkeypatch.setattr(cli, "maximize_ratio", lambda *a, **k: pytest.fail("the search ran"))
        out = tmp_path / "trace.json"
        argv = ["extremal", "--n", "1", "--p", "2", "--jobs", "1", "--out", str(out)]
        assert main([*argv, f"--threshold={threshold}"]) == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_restarts_exit_2(self, capsys):
        assert main(["extremal", "--n", "1", "--p", "2", "--restarts", "0"]) == 2
        assert "restart" in capsys.readouterr().err

    def test_unreachable_threshold_exits_one(self, capsys):
        rc = main(["extremal", "--n", "1", "--p", "2", "--threshold", "1.0001"])
        assert rc == 1
        assert "ceiling" in capsys.readouterr().err


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_verify_rejects_jobs_below_one_before_any_sample(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        from bernstein_lab import verify

        monkeypatch.setattr(verify, "_run_one", lambda *a: pytest.fail("a sample ran"))
        out = tmp_path / "j.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--count", "8", "--jobs", jobs]
        assert main([*argv, "--out", str(out)]) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "j.jsonl.run.json").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_extremal_rejects_jobs_below_one_before_the_search(
        self, tmp_path, capsys, monkeypatch, jobs
    ):
        from bernstein_lab import extremal

        monkeypatch.setattr(extremal, "_one_restart", lambda *a: pytest.fail("the search ran"))
        out = tmp_path / "trace.json"
        argv = ["extremal", "--n", "1", "--p", "2", "--jobs", jobs, "--out", str(out)]
        assert main(argv) == 2
        assert "jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_config_jobs_below_one_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        out = tmp_path / "c.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--count", "2", "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_means_takes_no_jobs(self, poly_file, capsys):
        # means runs in one process, so --jobs would be accepted and ignored
        assert main(["means", poly_file, "--jobs", "4"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_library_rejects_jobs_below_one(self):
        from bernstein_lab.extremal import maximize_ratio

        spec = SampleSpec(n=2, distribution="roots-mixed", seed=1, count=2)
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                run_sweep("thm-1-1", spec, jobs=jobs)
            with pytest.raises(ValueError, match="jobs"):
                maximize_ratio(1, 2.0, restarts=1, budget=100, jobs=jobs)


class TestArgparseErrors:
    # argparse's own usage errors come back from main as 2, like every other usage error
    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "--claim", "thm-1-1", "--n", "x"], "--n"),
            (["extremal", "--n", "x"], "--n"),
            (["extremal", "--budget"], "--budget"),
            (["verify", "--claim", "thm-1-1", "--bogus", "1"], "--bogus"),
            (["means", None, "--n", "x"], "--n"),
            # means draws nothing, so it takes no seed
            (["means", None, "--seed", "3"], "--seed"),
            ([], "command"),
        ],
    )
    def test_return_2(self, poly_file, capsys, argv, named):
        assert main([poly_file if a is None else a for a in argv]) == 2
        assert named in capsys.readouterr().err


class TestConfigValues:
    # each --config key is read as its flag's text, so it passes the flag's checks
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["verify", "--claim", "thm-1-1"], {"count": 2.9}),  # ran 2 samples
            (["verify", "--claim", "thm-1-1"], {"count": True}),  # ran 1
            (["verify", "--claim", "thm-1-1"], {"n": 2.5}),  # ran n = 2
            (["verify", "--claim", "thm-1-1"], {"jobs": 1.5}),  # ran 1 worker
            (["verify", "--claim", "thm-1-1"], {"seed": 1.5}),  # ran seed 1
            (["verify", "--claim", "thm-1-2"], {"fubini": 2}),
            (["verify", "--claim", "thm-1-2"], {"fubini": True}),
            (["extremal", "--p", "2"], {"restarts": 2.5}),
            (["extremal", "--p", "2"], {"budget": 100.5}),
            (["means", None], {"format": "xml"}),  # wrote CSV with exit 0
            (["means", None], {"p": [0, 1]}),  # an AttributeError traceback
        ],
    )
    def test_bad_value_exits_2_before_any_work(
        self, poly_file, tmp_path, capsys, monkeypatch, argv, config
    ):
        from bernstein_lab import cli, verify

        monkeypatch.setattr(verify, "_run_one", lambda *a: pytest.fail("a sample ran"))
        monkeypatch.setattr(cli, "maximize_ratio", lambda *a, **k: pytest.fail("the search ran"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "count": 2, **config}))
        out = tmp_path / "out"
        argv = [poly_file if a is None else a for a in argv]
        assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "poly.json"]

    def test_config_and_flags_write_the_same_files(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n": 2, "count": 3, "seed": 4, "p": 1.5, "rel_tol": 1e-9, "tol": 0, "jobs": 1}
        ))
        flags = ["--n", "2", "--count", "3", "--seed", "4", "--p", "1.5", "--rel-tol", "1e-9",
                 "--tol", "0", "--jobs", "1"]
        files = []
        for name, extra in (("flags", flags), ("config", ["--config", str(cfg)])):
            out = tmp_path / f"{name}.jsonl"
            assert main(["verify", "--claim", "thm-1-3", *extra, "--out", str(out)]) == 0
            files.append((out.read_bytes(), (tmp_path / f"{name}.jsonl.run.json").read_text()))
        assert files[0][0] == files[1][0]
        assert files[0][1].replace("flags.jsonl", "config.jsonl") == files[1][1]

    def test_unknown_keys_and_nulls_are_skipped_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "poly_file": "x.json", "claim": "thm-1-3", "restarts": 3, "rel-tol": "x",
            "tol": None, "n": 5, "count": 2,
        }))
        out = tmp_path / "s.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--config", str(cfg)]
        assert main([*argv, "--jobs", "1", "--out", str(out)]) == 0
        params = json.loads((tmp_path / "s.jsonl.run.json").read_text())["params"]
        assert (params["claim"], params["n"], params["count"], params["tol"]) == (
            "thm-1-1", 2, 2, None)


class TestEntryPoint:
    """``python -m bernstein_lab.cli``, the path of the console script, in a fresh interpreter."""

    @staticmethod
    def run(args, cwd=None, **env):
        import subprocess
        import sys

        import bernstein_lab

        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.path.dirname(os.path.dirname(bernstein_lab.__file__))
        return subprocess.run([sys.executable, *args], env={**base, **env}, cwd=cwd,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize(
        "script, env, expected",
        [
            ("import bernstein_lab", {}, "1"),
            ("import bernstein_lab", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
            # numpy loaded first has already read the environment
            ("import numpy, bernstein_lab", {}, None),
        ],
    )
    def test_one_blas_thread_unless_set(self, script, env, expected):
        done = self.run(["-c", f"{script}; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
                        **env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(expected)

    @pytest.mark.parametrize("config, code", [({"count": 2}, 0), ({"count": 2.5}, 2)])
    def test_cli_module_reads_config(self, tmp_path, config, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["verify", "--claim", "thm-1-1", "--n", "2", "--jobs", "1", "--config", str(cfg)]
        done = self.run(["-m", "bernstein_lab.cli", *argv], cwd=tmp_path)
        assert done.returncode == code, done.stderr
        assert (tmp_path / "reports.jsonl").exists() == (code == 0)
        if code:
            assert done.stderr.startswith("error: ") and "--count" in done.stderr


class TestJsonIO:
    def test_float_17_digits(self):
        assert jsonio.dumps(0.1) == "0.10000000000000001"
        assert jsonio.dumps(2.0) == "2"
        assert jsonio.dumps({"a": [1, True, None, "x"]}) == '{"a":[1,true,null,"x"]}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            jsonio.dumps(math.inf)

    def test_roundtrip_precision(self):
        rng = np.random.default_rng(0)
        for x in rng.normal(size=50):
            assert json.loads(jsonio.dumps(float(x))) == float(x)

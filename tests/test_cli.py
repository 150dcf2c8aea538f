import json
import math
import os

import numpy as np
import pytest

from bernstein_lab import jsonio
from bernstein_lab.cli import main, parse_p
from bernstein_lab.polynomials import LaurentPolynomial


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
        "flags",
        [
            ["--start-nodes", "8"],
            ["--max-nodes", "8"],
            ["--rel-tol", "0"],
            ["--rel-tol", "-1"],
            ["--rel-tol", "nan"],
            ["--rel-tol", "inf"],
        ],
    )
    def test_bad_grid_exit_2(self, poly_file, capsys, flags):
        assert main(["means", poly_file, "--p", "0.5,3", *flags]) == 2
        assert "error:" in capsys.readouterr().err


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

    def test_identity_sweeps(self, tmp_path, capsys):
        out = str(tmp_path / "i.jsonl")
        rc = main([
            "verify", "--claim", "identity-3-2", "--count", "1", "--n", "1",
            "--seed", "1", "--jobs", "1", "--out", out,
        ])
        assert rc == 0
        assert len(open(out).read().splitlines()) == 125

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

    def test_unreachable_threshold_exits_one(self, capsys):
        rc = main(["extremal", "--n", "1", "--p", "2", "--threshold", "1.0001"])
        assert rc == 1
        assert "ceiling" in capsys.readouterr().err


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

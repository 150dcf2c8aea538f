"""Command-line surface: means tables, verification sweeps, extremal search.

Everything is flag-driven; an optional --config JSON supplies defaults that
explicit flags override. Outputs are deterministic: identical flags and seed
produce byte-identical files (fixed field order, floats at 17 significant
digits). Exit codes: 0 pass, 1 verification failure, 2 usage or parse error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import jsonio
from .circle_means import DEFAULT_REL_TOL, means
from .errors import NumericFailure
from .extremal import DEFAULT_BUDGET, DEFAULT_RESTARTS, RATIO_CEILING, maximize_ratio
from .polynomials import LaurentPolynomial
from .verify import (
    CLAIMS,
    DISTRIBUTIONS,
    SWEEP_OPTIONS,
    SampleSpec,
    run_sweep,
    summarize,
)

DEFAULT_SEED = 0
SEED_ENV = "BERNSTEIN_LAB_SEED"


def parse_p(token: str) -> float:
    """One-token grammar for the mean parameter: "0", a positive decimal, or "inf"."""
    tok = token.strip().lower()
    if tok == "0":
        return 0.0
    if tok == "inf":
        return math.inf
    try:
        p = float(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse p value {token!r}")
    if not (p > 0 and math.isfinite(p)):
        raise argparse.ArgumentTypeError(f"p must be 0, positive, or inf; got {token!r}")
    return p


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError("--config must hold a JSON object")
    return obj


def _resolve(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return DEFAULT_SEED


def _load_polynomial(path: str) -> LaurentPolynomial:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            _usage_error(f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
        )
    except OSError as exc:
        raise SystemExit(_usage_error(f"cannot read {path}: {exc}"))
    try:
        return LaurentPolynomial.from_json_dict(obj)
    except (ValueError, TypeError) as exc:
        raise SystemExit(_usage_error(f"{path}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _number(args, config: dict, name: str, default, rule: str, ok) -> float:
    """Flag or --config value ``name`` as a float; not finite or failing ``ok`` is a usage error."""
    value = float(_resolve(args, config, name, default))
    if not (math.isfinite(value) and ok(value)):
        raise ValueError(f"--{name.replace('_', '-')} must be {rule}; got {value}")
    return value


def _rel_tol(args, config: dict) -> float:
    return _number(args, config, "rel_tol", DEFAULT_REL_TOL, "finite and > 0", lambda x: x > 0)


# How a flag or --config value of each SWEEP_OPTIONS entry is read.
_SWEEP_OPTION_PARSERS = {
    "p": lambda v: parse_p(str(v)),
    "p_grid": lambda v: tuple(parse_p(t) for t in str(v).split(",") if t),
    "points": int,
    "fubini": lambda v: bool(int(v)),
}


# ---------------------------------------------------------------------------
# means


def cmd_means(args) -> int:
    config = _load_config(args.config)
    T = _load_polynomial(args.poly_file)
    rel_tol = _rel_tol(args, config)
    tokens = [t for t in _resolve(args, config, "p", "0,1,2,inf").split(",") if t]
    fmt = _resolve(args, config, "format", "csv")
    out_path = _resolve(args, config, "out", None)

    ps = [parse_p(tok) for tok in tokens]
    rows = [
        {
            "p": "inf" if math.isinf(p) else format(p, ".17g"),
            "value": res.value,
            "err": res.err_estimate,
            "method": res.method,
        }
        for p, res in zip(ps, means(T, ps, rel_tol))
    ]

    run = {
        "command": "means",
        "seed": DEFAULT_SEED,
        "out": out_path,
        "format": fmt,
        "params": {"poly_file": args.poly_file, "p": tokens, "rel_tol": rel_tol},
    }
    if fmt == "json":
        text = jsonio.dumps({"config": run, "rows": rows}) + "\n"
    else:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "value", "err", "method"])
        for row in rows:
            writer.writerow(
                [row["p"], format(row["value"], ".17g"), format(row["err"], ".17g"), row["method"]]
            )
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    claim = args.claim
    spec = SampleSpec(
        n=int(_resolve(args, config, "n", 8)),
        distribution=_resolve(args, config, "distribution", "roots-mixed"),
        seed=seed,
        count=int(_resolve(args, config, "count", 100)),
    )
    opts: dict = {"rel_tol": _rel_tol(args, config)}
    if _resolve(args, config, "tol", None) is not None:
        opts["tol"] = _number(args, config, "tol", None, "finite and >= 0", lambda x: x >= 0)
    row = SWEEP_OPTIONS.get(claim, {})
    # --config keys are shared defaults, so a claim reads only its own; a
    # flag it does not read is an error
    given = [name for name in _SWEEP_OPTION_PARSERS if getattr(args, name) is not None]
    unread = ["--" + name.replace("_", "-") for name in given if name not in row]
    if unread:
        return _usage_error(f"{claim} does not read {', '.join(unread)}")
    for name, default in row.items():
        value = _resolve(args, config, name, None)
        opts[name] = default if value is None else _SWEEP_OPTION_PARSERS[name](value)

    jobs = _resolve(args, config, "jobs", None)
    reports = run_sweep(claim, spec, jobs=None if jobs is None else int(jobs), **opts)

    out_path = _resolve(args, config, "out", "reports.jsonl")
    with open(out_path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(jsonio.dump_line(rep.to_json_dict()))

    summary = summarize(reports)
    worst_path = ""
    if summary["worst"] is not None and summary["worst"].witness is not None:
        worst_path = out_path + ".worst.json"
        with open(worst_path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(summary["worst"].witness) + "\n")

    run = {
        "command": "verify",
        "seed": seed,
        "out": out_path,
        "format": "jsonl",
        "params": {
            "claim": claim,
            "n": spec.n,
            "distribution": spec.distribution,
            "count": len(reports),
            "tol": opts.get("tol"),
            "rel_tol": opts["rel_tol"],
            "extra": {
                k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
                for k, v in opts.items()
                if k not in ("rel_tol", "tol")
            },
        },
    }
    with open(out_path + ".run.json", "w", encoding="utf-8") as fh:
        fh.write(jsonio.dumps(run) + "\n")

    print(
        f"claim={claim} count={summary['count']} checked={summary['checked']} "
        f"skipped={summary['skipped']} passed={summary['passed']} "
        f"min_margin={summary['min_margin']:.6e} worst={worst_path or '-'}"
    )
    return 0 if summary["passed"] else 1


# ---------------------------------------------------------------------------
# extremal


def cmd_extremal(args) -> int:
    config = _load_config(args.config)
    seed = _resolve_seed(args, config)
    p = parse_p(str(_resolve(args, config, "p", "2")))
    n = int(_resolve(args, config, "n", 2))
    restarts = int(_resolve(args, config, "restarts", DEFAULT_RESTARTS))
    budget = int(_resolve(args, config, "budget", DEFAULT_BUDGET))
    threshold = _number(args, config, "threshold", 0.99, "finite", lambda x: True)
    out_path = _resolve(args, config, "out", None)
    jobs = _resolve(args, config, "jobs", None)

    if threshold > RATIO_CEILING:
        print(
            f"error: threshold {threshold} exceeds the provable ceiling {RATIO_CEILING}; "
            "no run can satisfy it",
            file=sys.stderr,
        )
        return 1

    trace = maximize_ratio(
        n, p, restarts=restarts, budget=budget, seed=seed,
        jobs=None if jobs is None else int(jobs),
    )
    run = {
        "command": "extremal",
        "seed": seed,
        "out": out_path,
        "format": "json",
        "params": {
            "n": n,
            "p": "inf" if math.isinf(p) else p,
            "restarts": restarts,
            "budget": budget,
            "threshold": threshold,
        },
    }
    payload = jsonio.dumps({"config": run, "trace": trace.to_json_dict()}) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)

    ok = threshold <= trace.best_ratio <= RATIO_CEILING
    print(
        f"n={n} p={'inf' if math.isinf(p) else p} best_ratio={trace.best_ratio:.9f} "
        f"evaluations={trace.iterations} anomalies={trace.anomaly_count} "
        f"{'PASS' if ok else 'FAIL'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bernstein-lab",
        description="Circle means of Laurent polynomials and numerical checks "
        "of the sharp derivative inequalities they satisfy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file of defaults; flags override it")
        sp.add_argument("--out", default=None, help="output path")

    means = sub.add_parser("means", help="tabulate M_p of a polynomial file")
    means.add_argument("poly_file", help='JSON {"n": int, "coeffs": [[re, im], ...]}')
    means.add_argument("--p", default=None, help='comma list of p tokens ("0", decimals, "inf")')
    means.add_argument("--format", choices=("csv", "json"), default=None)
    means.add_argument("--rel-tol", type=float, default=None, help="quadrature tolerance")
    add_common(means)
    means.set_defaults(func=cmd_means)

    verify = sub.add_parser("verify", help="randomized sweep of one claim")
    verify.add_argument("--claim", required=True, choices=CLAIMS)
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--distribution", choices=DISTRIBUTIONS, default=None)
    verify.add_argument("--count", type=int, default=None)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--p", default=None, help="p for thm-1-3")
    verify.add_argument("--p-grid", dest="p_grid", default=None, help="comma list for monotone-p")
    verify.add_argument("--points", type=int, default=None, help="circle grid size for lemma-2-2")
    verify.add_argument("--fubini", type=int, default=None,
                        help="1/0: cross-check thm-1-2 via the smoothing route")
    verify.add_argument("--rel-tol", type=float, default=None, help="quadrature tolerance")
    add_common(verify)
    verify.set_defaults(func=cmd_verify)

    extremal = sub.add_parser("extremal", help="search for derivative-ratio maximizers")
    extremal.add_argument("--n", type=int, default=None)
    extremal.add_argument("--p", default=None)
    extremal.add_argument("--restarts", type=int, default=None)
    extremal.add_argument("--budget", type=int, default=None)
    extremal.add_argument("--threshold", type=float, default=None)
    add_common(extremal)
    extremal.set_defaults(func=cmd_extremal)
    for sp in (verify, extremal):
        sp.add_argument("--seed", type=int, default=None,
                        help=f"RNG seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes, at least 1, never more than the tasks "
                        "(default: one per core)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

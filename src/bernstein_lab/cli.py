"""Command-line surface: means tables, verification sweeps, extremal search.

Everything is flag-driven. An optional --config JSON object supplies
defaults: each key that names an option of the command is read as that
flag's own text (``{"rel_tol": 1e-9}`` as ``--rel-tol=1e-09``), ahead of the
explicit flags, so a flag overrides it and both pass the same checks. Outputs
are deterministic: identical flags and seed produce byte-identical files
(fixed field order, floats at 17 significant digits). Exit codes: 0 pass,
1 verification failure, 2 usage or parse error, 3 numeric failure.
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
from .verify import CLAIMS, DISTRIBUTIONS, SWEEP_OPTIONS, SampleSpec, run_sweep, summarize

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


def _p_tokens(text: str) -> list[str]:
    """A comma list of p tokens, empty items dropped; each must parse, and is kept as typed."""
    tokens = [t for t in text.split(",") if t]
    for tok in tokens:
        parse_p(tok)
    return tokens


def _checked_float(rule: str, ok):
    """type= for a float flag that must be finite and pass ``ok``."""

    def number(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}; got {value}")
        return value

    return number


# Every option any claim reads under SWEEP_OPTIONS.
_SWEEP_KEYS = {name for row in SWEEP_OPTIONS.values() for name in row}
# Parsed names that a --config key does not set: the subcommand and its
# handler, the polynomial file, the claim (it picks the sweep keys read) and
# the config path itself.
_NOT_CONFIG_KEYS = {"command", "func", "poly_file", "claim", "config"}


def _config_flags(args) -> list[str]:
    """The --config object of ``args`` as flag text, one ``--key=value`` token per key.

    Keys are shared defaults: a key that names no option of the command, a
    null value and a sweep key the claim does not read are skipped.
    """
    with open(args.config, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("--config must hold a JSON object")
    unread = _SWEEP_KEYS - SWEEP_OPTIONS.get(getattr(args, "claim", None), {}).keys()
    flags = []
    for key, value in config.items():
        if key not in vars(args) or key in _NOT_CONFIG_KEYS or value is None:
            continue
        if args.command == "verify" and key in unread:
            continue
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"--config {key}: want a number or a string, got {json.dumps(value)}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


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


# ---------------------------------------------------------------------------
# means


def cmd_means(args) -> int:
    T = _load_polynomial(args.poly_file)
    rel_tol, tokens, fmt, out_path = args.rel_tol, args.p, args.format, args.out
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
    seed, claim, out_path = args.seed, args.claim, args.out
    spec = SampleSpec(n=args.n, distribution=args.distribution, seed=seed, count=args.count)
    opts: dict = {"rel_tol": args.rel_tol}
    if args.tol is not None:
        opts["tol"] = args.tol
    row = SWEEP_OPTIONS.get(claim, {})
    # --config skips the sweep keys the claim does not read, so any such
    # value came from a flag
    unread = ["--" + name.replace("_", "-") for name in sorted(_SWEEP_KEYS - row.keys())
              if getattr(args, name) is not None]
    if unread:
        return _usage_error(f"{claim} does not read {', '.join(unread)}")
    for name, default in row.items():
        value = getattr(args, name)
        # the library default's type: --fubini's 0 or 1 is a bool
        opts[name] = default if value is None else type(default)(value)

    reports = run_sweep(claim, spec, jobs=args.jobs, **opts)
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
    seed, p, n, restarts, budget = args.seed, args.p, args.n, args.restarts, args.budget
    threshold, out_path = args.threshold, args.out

    if threshold > RATIO_CEILING:
        print(
            f"error: threshold {threshold} exceeds the provable ceiling {RATIO_CEILING}; "
            "no run can satisfy it",
            file=sys.stderr,
        )
        return 1

    trace = maximize_ratio(n, p, restarts=restarts, budget=budget, seed=seed, jobs=args.jobs)
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
    # a bad value (a flag's or a --config key's) raises argparse.ArgumentError,
    # which main prints as one error line
    parser = argparse.ArgumentParser(
        prog="bernstein-lab",
        description="Circle means of Laurent polynomials and numerical checks "
        "of the sharp derivative inequalities they satisfy.",
        exit_on_error=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, func, out, help):
        sp = sub.add_parser(name, help=help, exit_on_error=False)
        sp.add_argument("--config", help="JSON object of defaults, each key read as its flag; "
                        "flags override it")
        sp.add_argument("--out", default=out, help="output path")
        sp.set_defaults(func=func)
        return sp

    rel_tol = _checked_float("finite and > 0", lambda x: x > 0)
    means = add_command("means", cmd_means, None, "tabulate M_p of a polynomial file")
    means.add_argument("poly_file", help='JSON {"n": int, "coeffs": [[re, im], ...]}')
    means.add_argument("--p", type=_p_tokens, default="0,1,2,inf",
                       help='comma list of p tokens ("0", decimals, "inf")')
    means.add_argument("--format", choices=("csv", "json"), default="csv")
    means.add_argument("--rel-tol", type=rel_tol, default=DEFAULT_REL_TOL,
                       help="quadrature tolerance")

    verify = add_command("verify", cmd_verify, "reports.jsonl", "randomized sweep of one claim")
    verify.add_argument("--claim", required=True, choices=CLAIMS)
    verify.add_argument("--n", type=int, default=8)
    verify.add_argument("--distribution", choices=DISTRIBUTIONS, default="roots-mixed")
    verify.add_argument("--count", type=int, default=100)
    verify.add_argument("--tol", type=_checked_float("finite and >= 0", lambda x: x >= 0),
                        default=None)
    verify.add_argument("--p", type=parse_p, default=None, help="p for thm-1-3")
    verify.add_argument("--p-grid", type=lambda text: tuple(map(parse_p, _p_tokens(text))),
                        default=None, help="comma list for monotone-p")
    verify.add_argument("--points", type=int, default=None, help="circle grid size for lemma-2-2")
    verify.add_argument("--fubini", type=int, choices=(0, 1), default=None,
                        help="1/0: cross-check thm-1-2 via the smoothing route")
    verify.add_argument("--rel-tol", type=rel_tol, default=DEFAULT_REL_TOL,
                        help="quadrature tolerance")

    extremal = add_command("extremal", cmd_extremal, None,
                           "search for derivative-ratio maximizers")
    extremal.add_argument("--n", type=int, default=2)
    extremal.add_argument("--p", type=parse_p, default=2.0)
    extremal.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS)
    extremal.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    extremal.add_argument("--threshold", type=_checked_float("finite", lambda x: True),
                          default=0.99)
    for sp in (verify, extremal):
        # a string default passes through type=, so a bad $BERNSTEIN_LAB_SEED is a usage error
        sp.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, DEFAULT_SEED),
                        help=f"RNG seed (default: ${SEED_ENV} or {DEFAULT_SEED})")
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes, at least 1, never more than the tasks "
                        "(default: one per core)")

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            # the whole line again, config flags first so that the user's win
            args = parser.parse_args([argv[0], *_config_flags(args), *argv[1:]])
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, argparse.ArgumentError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

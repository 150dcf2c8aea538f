"""Layer spans for the traced run, installed from outside the library.

Each timed public function is replaced, for the length of a ``Tracer``
context, by a wrapper that records a span (layer, start, end, parent span,
invocation) and the layer's work counts. The wrapper is installed in the
defining module and in every ``bernstein_lab`` module that imported the
function by name, so calls are seen whichever name they go through. A layer
that calls itself (``graded_edges`` recursing into its halves) is one span:
only entries from outside the layer open one. Spans stay in memory until the
run ends; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# layer name -> extra per-layer count names (besides calls and self_s)
LAYERS = {
    "rootfind.roots": ("degree_sum", "failures"),
    "polynomials.eval": ("points", "terms"),
    "quadrature.periodic_mean_doubling": ("points", "capped"),
    "quadrature.singular_circle_mean": ("points",),
    "quadrature.graded_edges": ("points",),
    "quadrature.adaptive_gl": ("points",),
    "quadrature.bisect_roots": ("points",),
    "circle_means.mahler_from_roots": (),
    "circle_means.mean_0_quadrature": (),
    "circle_means.mean_p": ("singular",),
    "circle_means.mean_inf": (),
    "circle_means.logplus_integral": (),
    "constructions.perturb_by_en": (),
    "verify.sample_with_roots": (),
    "verify.check": (),
    "extremal.bernstein_ratio": (),
    "extremal.optimizer": (),
    "jsonio": ("bytes",),
    "cli.main": (),
}

# layers whose per-call duration percentiles are reported, and in which unit
PERCENTILE_LAYERS = {
    "rootfind.roots": ("ms", 1e3),
    "verify.check": ("ms", 1e3),
    "extremal.bernstein_ratio": ("us", 1e6),
}


def tail_percentile(count: int) -> int:
    """Highest whole percentile, at most 99, with at least ten samples beyond it."""
    if count < 20:
        return 50 if count else 0
    return min(99, int(100.0 * (1.0 - 10.0 / count)))


class Tracer:
    """Records spans and counts while installed; restores every original on exit."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.invocation = 0
        self._stack: list[tuple[str, int]] = []  # (layer, span slot)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def span(self, layer: str, fn, args, kwargs, measure=None):
        if self._stack and self._stack[-1][0] == layer:
            return fn(*args, **kwargs)
        parent = self._stack[-1][1] if self._stack else -1
        slot = len(self.spans)
        self.spans.append(None)
        self._stack.append((layer, slot))
        self.counts[layer]["calls"] += 1
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if measure is not None:
                measure(self.counts[layer], args, kwargs, None, exc)
            raise
        else:
            if measure is not None:
                measure(self.counts[layer], args, kwargs, result, None)
            return result
        finally:
            self.spans[slot] = (layer, t0, time.perf_counter_ns(), parent, self.invocation)
            self._stack.pop()

    def _wrapper(self, layer, fn, measure=None, count_integrand=False):
        tracer = self

        def traced(*args, **kwargs):
            if count_integrand:
                f, rest = args[0], args[1:]
                counts = tracer.counts[layer]

                def counted(t):
                    counts["points"] += int(np.size(t))
                    return f(t)

                args = (counted, *rest)
            return tracer.span(layer, fn, args, kwargs, measure)

        return traced

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "bernstein_lab" or name.startswith("bernstein_lab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _install(self, module, name, layer, **kw):
        original = getattr(module, name)
        self._patch_everywhere(original, self._wrapper(layer, original, **kw))

    def __enter__(self):
        from bernstein_lab import (
            circle_means, cli, constructions, extremal, jsonio, polynomials,
            quadrature, rootfind, verify,
        )
        from bernstein_lab.errors import NumericFailure

        def roots_measure(c, args, kwargs, result, exc):
            if result is not None:
                c["degree_sum"] += len(result)
            elif isinstance(exc, NumericFailure):
                c["failures"] += 1

        def eval_measure(c, args, kwargs, result, exc):
            points = int(np.size(args[1]))
            c["points"] += points
            c["terms"] += points * (2 * args[0].n + 1)

        def doubling_measure(c, args, kwargs, result, exc):
            max_nodes = args[2] if len(args) > 2 else kwargs["max_nodes"]
            if result is not None and result[3] >= max_nodes:
                c["capped"] += 1

        def edges_measure(c, args, kwargs, result, exc):
            if result is not None:
                c["points"] += len(result)

        def mean_p_measure(c, args, kwargs, result, exc):
            if result is not None and result.method == "adaptive-singular":
                c["singular"] += 1

        def bytes_measure(c, args, kwargs, result, exc):
            if result is not None:
                c["bytes"] += len(result.encode("utf-8"))

        self._install(rootfind, "roots", "rootfind.roots", measure=roots_measure)
        original_call = polynomials.LaurentPolynomial.__call__
        self._restore.append((polynomials.LaurentPolynomial, "__call__", original_call))
        polynomials.LaurentPolynomial.__call__ = self._wrapper(
            "polynomials.eval", original_call, measure=eval_measure
        )
        self._install(quadrature, "periodic_mean_doubling", "quadrature.periodic_mean_doubling",
                      measure=doubling_measure, count_integrand=True)
        for name in ("singular_circle_mean", "adaptive_gl", "bisect_roots"):
            self._install(quadrature, name, f"quadrature.{name}", count_integrand=True)
        self._install(quadrature, "graded_edges", "quadrature.graded_edges", measure=edges_measure)
        for name in ("mahler_from_roots", "mean_0_quadrature", "mean_inf", "logplus_integral"):
            self._install(circle_means, name, f"circle_means.{name}")
        self._install(circle_means, "mean_p", "circle_means.mean_p", measure=mean_p_measure)
        self._install(constructions, "perturb_by_en", "constructions.perturb_by_en")
        self._install(verify, "sample_with_roots", "verify.sample_with_roots")
        for name in [a for a in vars(verify) if a.startswith("check_")]:
            self._install(verify, name, "verify.check")
        self._install(extremal, "bernstein_ratio", "extremal.bernstein_ratio")
        self._install(extremal, "maximize_ratio", "extremal.optimizer")
        for name in ("dumps", "dump_line"):
            self._install(jsonio, name, "jsonio", measure=bytes_measure)
        self._install(cli, "main", "cli.main")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time, counts and duration percentiles by metric name."""
        child_ns = [0] * len(self.spans)
        durations: dict[str, list[int]] = defaultdict(list)
        for layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
            durations[layer].append(t1 - t0)
        self_ns: Counter = Counter()
        for (layer, t0, t1, _, _), covered in zip(self.spans, child_ns):
            self_ns[layer] += t1 - t0 - covered

        out: dict[str, tuple[float, str]] = {}
        for layer, extras in LAYERS.items():
            counts = self.counts[layer]
            out[f"{layer}.calls"] = (counts["calls"], "count")
            out[f"{layer}.self_s"] = (self_ns[layer] / 1e9, "s")
            for extra in extras:
                if extra == "singular":
                    share = counts["singular"] / counts["calls"] if counts["calls"] else 0.0
                    out[f"{layer}.singular_share"] = (share, "ratio")
                else:
                    out[f"{layer}.{extra}"] = (counts[extra], "bytes" if extra == "bytes" else "count")
            if layer in PERCENTILE_LAYERS:
                unit, scale = PERCENTILE_LAYERS[layer]
                d = np.asarray(durations[layer], dtype=float) / 1e9 * scale
                q = tail_percentile(d.size)
                p50, tail = (np.percentile(d, [50, q]) if d.size else (0.0, 0.0))
                out[f"{layer}.p50_{unit}"] = (float(p50), unit)
                out[f"{layer}.tail_{unit}"] = (float(tail), unit)
                out[f"{layer}.tail_pct"] = (q, "%")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for layer, t0, t1, parent, invocation in self.spans:
                fh.write(json.dumps({"layer": layer, "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "invocation": invocation}) + "\n")

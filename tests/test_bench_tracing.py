"""The traced benchmark wraps library functions by name and reads their call shapes.

bench/tracing.py installs its layers from outside the library: it reads
periodic_mean_doubling's max_nodes as its third positional argument and
counts the points of every integrand call as the size of its one ndarray
argument. These tests run a small means call, a logplus_integral call and a
small verify call under its Tracer, so a change to those names or call
shapes shows here and not only in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from bernstein_lab import circle_means, cli
from bernstein_lab.polynomials import from_roots, laurent_from_algebraic

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_is_installed_and_counts_its_points(tmp_path, capsys):
    tracing = _tracing_module()
    # a zero 1e-6 inside the circle sends p = 0.5 to the mapped pass of
    # singular_circle_mean, while p = 2 takes the uniform doubling pass;
    # logplus_integral reaches adaptive_gl and bisect_roots
    zeros = np.array([(1 - 1e-6) * np.exp(0.7j), 0.3, -2.0 + 1j, 0.5j])
    T = laurent_from_algebraic(from_roots(1.5, zeros), 2)
    tracer = tracing.Tracer()
    with tracer:
        # every installed name was found and replaced by its wrapper
        installed = list(tracer._restore)
        assert installed
        assert all(getattr(owner, attr) is not fn for owner, attr, fn in installed)
        results = circle_means.means(T, [0.5, 2.0])
        circle_means.logplus_integral(T)
        out = tmp_path / "v.jsonl"
        argv = ["verify", "--claim", "thm-1-1", "--n", "3", "--count", "2", "--jobs", "1"]
        assert cli.main([*argv, "--seed", "4", "--out", str(out)]) == 0
    assert [r.method for r in results] == ["adaptive-singular", "trapezoid"]
    assert all(getattr(owner, attr) is fn for owner, attr, fn in installed)
    capsys.readouterr()

    metrics = tracer.layer_metrics()
    for layer in tracing.LAYERS:
        assert f"{layer}.calls" in metrics
    for layer in ("quadrature.periodic_mean_doubling", "quadrature.adaptive_gl", "polynomials.eval"):
        assert metrics[f"{layer}.points"][0] > 0, layer
    for layer in (
        "rootfind.roots", "quadrature.singular_circle_mean", "quadrature.graded_edges",
        "circle_means.mahler_from_roots", "circle_means.mean_0_quadrature",
        "verify.sample_with_roots", "verify.check", "jsonio", "cli.main",
    ):
        assert metrics[f"{layer}.calls"][0] > 0, layer
    assert metrics["quadrature.periodic_mean_doubling.capped"][0] == 0

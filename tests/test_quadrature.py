import numpy as np
import pytest

from bernstein_lab import quadrature as quad


class TestPeriodicDoubling:
    def test_smooth_periodic_integral(self):
        # (1/2pi) int exp(cos t) dt = I_0(1), the modified Bessel value
        from scipy.special import iv

        raw, val, err, nodes = quad.periodic_mean_doubling(
            lambda t: np.exp(np.cos(t)), 16, 1 << 16, 1e-12, [lambda x: x], [lambda v: v]
        )
        assert val[0] == pytest.approx(float(iv(0, 1.0)), rel=1e-12)
        assert nodes <= 256

    def test_reports_last_delta(self):
        _, _, err, _ = quad.periodic_mean_doubling(
            np.cos, 16, 1 << 10, 1e-15, [lambda x: x], [lambda v: v]
        )
        assert err[0] >= 0.0

    def test_log_scale_mean_converges_on_exp(self):
        # (1/2pi) int log|e^{it} - 1/2| dt = log max(1, 1/2) = 0 (Jensen)
        raw, val, _, _ = quad.periodic_mean_doubling(
            lambda t: np.log(np.abs(np.exp(1j * t) - 0.5)), 16, 1 << 16, 1e-12,
            [np.exp], [lambda v: v],
        )
        assert raw[0] == pytest.approx(0.0, abs=1e-12)
        assert val[0] == pytest.approx(1.0, abs=1e-12)


class TestGradedPanels:
    def test_log_singularity_at_endpoint(self):
        # int_0^1 log(x) dx = -1
        edges = quad.graded_edges(0.0, 1.0, max_width=0.5)
        (panels,) = quad.panel_integrals(np.log, edges[:-1], edges[1:], (16,))
        value = float(np.sum(panels))
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_both_ends_singular(self):
        # int_0^1 log(x(1-x)) dx = -2
        edges = quad.graded_edges(0.0, 1.0, max_width=0.5)
        (panels,) = quad.panel_integrals(
            lambda x: np.log(x * (1.0 - x)), edges[:-1], edges[1:], (16,)
        )
        value = float(np.sum(panels))
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_width_cap(self):
        edges = quad.graded_edges(0.0, 4.0, max_width=0.5)
        assert np.max(np.diff(edges)) <= 0.5 + 1e-15

    def test_mesh_shape_on_circle_panels(self):
        # increasing edges, widths capped, and at each end an innermost sliver
        # of 0.3 x to 1 x 256 ulps of the scale of that end's half-panel
        rng = np.random.default_rng(5)
        ends = rng.uniform(0.0, quad.TWO_PI, (200, 2))
        panels = [tuple(np.sort(e)) for e in ends if abs(e[1] - e[0]) >= 1e-6]
        panels += [(0.0, 1e-6), (0.0, 0.7), (3.0, quad.TWO_PI), (quad.TWO_PI - 1e-6, quad.TWO_PI)]
        panels += [(0.0, quad.TWO_PI), (1.0, 1.0 + 1e-6)]
        for a, b in panels:
            for w in (0.5, np.pi / 18, np.pi / 66):
                edges = quad.graded_edges(a, b, w)
                widths = np.diff(edges)
                assert np.all(widths > 0)
                assert np.max(widths) <= w * (1 + 1e-12)
                eps = np.finfo(float).eps
                slack = 4 * eps * max(abs(a), abs(b), 1.0)
                mid = 0.5 * (a + b)
                for sliver, end in ((widths[0], a), (widths[-1], b)):
                    ulp = eps * max(abs(end), abs(mid), 1.0)
                    assert 0.3 * 256 * ulp - slack <= sliver <= 256 * ulp + slack


class TestAdaptiveGL:
    def test_kinked_integrand(self):
        # int_{-1}^{1} |x| dx = 1, kink off any panel boundary
        value, err = quad.adaptive_gl(np.abs, -1.0, 1.0, 1e-12, absolute=True)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_smooth_is_cheap_and_exact(self):
        value, _ = quad.adaptive_gl(np.sin, 0.0, np.pi, 1e-12, absolute=True)
        assert value == pytest.approx(2.0, rel=1e-13)

    def test_panels_at_once_match_one_at_a_time(self):
        # int_{-1}^{1} |x - 0.3| dx = 1.09, the kink inside the second panel;
        # the tolerance is on the total, so each side is run to below 1e-14
        f = lambda x: np.abs(x - 0.3)
        both, _ = quad.adaptive_gl(f, np.array([-1.0, 0.0]), np.array([0.0, 1.0]), 1e-15, True)
        left, _ = quad.adaptive_gl(f, -1.0, 0.0, 1e-15, True)
        right, _ = quad.adaptive_gl(f, 0.0, 1.0, 1e-15, True)
        assert both == pytest.approx(left + right, abs=1e-14)
        assert both == pytest.approx(1.09, abs=1e-14)


class TestSingularCircleMean:
    def test_geometric_mean_of_distance_to_one(self):
        # (1/2pi) int log|e^{it} - 1| dt = 0: the circle's own log-potential
        value, err = quad.singular_circle_mean(
            lambda t: np.log(np.abs(np.exp(1j * t) - 1.0)), np.array([0.0]), 2,
            rel_tol=1e-10, absolute=True,
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_shifted_singularity(self):
        a = 0.7
        value, _ = quad.singular_circle_mean(
            lambda t: np.log(np.abs(np.exp(1j * t) - np.exp(1j * a))), np.array([a]), 2,
            rel_tol=1e-10, absolute=True,
        )
        assert value == pytest.approx(0.0, abs=1e-12)


class TestBisect:
    def test_finds_crossings(self):
        f = lambda x: np.sin(x)
        out = quad.bisect_roots(f, np.array([3.0]), np.array([3.3]))
        assert out[0] == pytest.approx(np.pi, abs=1e-12)

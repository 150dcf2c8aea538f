import numpy as np
import pytest

from bernstein_lab import quadrature as quad


class TestPeriodicDoubling:
    def test_smooth_periodic_integral(self):
        # (1/2pi) int exp(cos t) dt = I_0(1), the modified Bessel value
        import mpmath

        raw, val, err, nodes = quad.periodic_mean_doubling(
            lambda t: np.exp(np.cos(t)), 16, 1 << 16, 1e-12, [lambda x: x], [lambda v: v], np.inf
        )
        assert val[0] == pytest.approx(float(mpmath.besseli(0, 1)), rel=1e-12)
        assert nodes <= 256

    def test_reports_last_delta(self):
        _, _, err, _ = quad.periodic_mean_doubling(
            np.cos, 16, 1 << 10, 1e-15, [lambda x: x], [lambda v: v], np.inf
        )
        assert err[0] >= 0.0

    def test_log_scale_mean_converges_on_exp(self):
        # (1/2pi) int log|e^{it} - 1/2| dt = log max(1, 1/2) = 0 (Jensen)
        raw, val, _, _ = quad.periodic_mean_doubling(
            lambda t: np.log(np.abs(np.exp(1j * t) - 0.5)), 16, 1 << 16, 1e-12,
            [np.exp], [lambda v: v], np.inf,
        )
        assert raw[0] == pytest.approx(0.0, abs=1e-12)
        assert val[0] == pytest.approx(1.0, abs=1e-12)


def mapped_panel_integral(f, ends, panels, m):
    """Trapezoid sum in u of f(t) dt/du over the first ``panels`` panels of graded_edges(., ends)."""
    u = quad.circle_grid(m)
    t, dt = quad.graded_edges(u, np.asarray(ends, dtype=float)).T
    inside = (u < panels * quad.TWO_PI / len(ends)) & (dt > 0)
    return quad.TWO_PI / m * float(np.sum(f(t[inside]) * dt[inside]))


class TestKressMap:
    """The trapezoid rule in u on Kress's map of order 6 errs like h^6:
    64 times less per doubling, for end singularities and kinks alike."""

    def test_log_singularity_at_endpoint(self):
        # int_0^1 log(x) dx = -1
        value = mapped_panel_integral(np.log, [0.0, 1.0], 1, 1024)
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_both_ends_singular(self):
        # int_0^1 log(x(1-x)) dx = -2
        value = mapped_panel_integral(lambda x: np.log(x * (1.0 - x)), [0.0, 1.0], 1, 1024)
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_kink_at_a_panel_end(self):
        # int_{-1}^{1} |x| dx = 1, the kink at the end shared by the first two panels
        value = mapped_panel_integral(np.abs, [-1.0, 0.0, 1.0], 2, 1536)
        assert value == pytest.approx(1.0, abs=1e-13)

    def test_map_covers_the_circle(self):
        # one row (t, dt/du) per node; t runs from each end to the next, the
        # weights average to 1 (the map takes [0, 2pi) onto a period), and a
        # node on a panel end has weight 0
        ends = np.array([0.4, 1.0, 4.0])
        u = quad.circle_grid(1536)
        rows = quad.graded_edges(u, ends)
        assert rows.shape == (1536, 2)
        t, dt = rows.T
        assert np.all(np.diff(t) >= 0)
        assert t[0] == 0.4 and t[-1] < 0.4 + quad.TWO_PI
        assert np.all(t[::512] == ends) and np.all(dt[::512] == 0)
        assert np.all(dt[dt != 0] > 0)
        assert np.mean(dt) == pytest.approx(1.0, abs=1e-12)


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
    @staticmethod
    def log_mean(f, angles):
        raw, value, err, nodes = quad.singular_circle_mean(
            f, np.asarray(angles), 8, 1 << 20, 1e-10, [np.exp], [lambda v: v]
        )
        return raw[0], err[0], nodes

    def test_geometric_mean_of_distance_to_one(self):
        # (1/2pi) int log|e^{it} - 1| dt = 0: the circle's own log-potential
        value, err, nodes = self.log_mean(lambda t: np.log(np.abs(np.exp(1j * t) - 1.0)), [0.0])
        assert value == pytest.approx(0.0, abs=1e-12)
        assert err <= 1e-10 and nodes <= 1024

    def test_shifted_singularity(self):
        a = 0.7
        value, _, _ = self.log_mean(
            lambda t: np.log(np.abs(np.exp(1j * t) - np.exp(1j * a))), [a, a + 1e-13]
        )
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_periodic_kinks(self):
        # (1/2pi) int |sin t| dt = 2 / pi, kinks at 0 and pi
        _, value, err, _ = quad.singular_circle_mean(
            np.sin, np.array([np.pi, 0.0]), 8, 1 << 20, 1e-12, [lambda x: x], [np.abs]
        )
        assert value[0] == pytest.approx(2.0 / np.pi, rel=1e-12)
        assert err[0] <= 1e-12 * value[0]

    def test_integrands_share_one_pass(self):
        # each integrand keeps its own sum and stopping level, so sharing the
        # pass gives bitwise the values of one pass per integrand
        f = lambda t: np.abs(np.exp(1j * t) - 1.0)
        integrands = [lambda v: np.log(v), lambda v: v**0.5, lambda v: v**3]
        transforms = [np.exp, lambda x: x**2, lambda x: x ** (1 / 3)]
        both = quad.singular_circle_mean(f, np.array([0.0]), 8, 1 << 20, 1e-10, transforms, integrands)
        for i, (tr, g) in enumerate(zip(transforms, integrands)):
            one = quad.singular_circle_mean(f, np.array([0.0]), 8, 1 << 20, 1e-10, [tr], [g])
            assert [r[i] for r in both[:3]] == [r[0] for r in one[:3]]


class TestBisect:
    def test_finds_crossings(self):
        f = lambda x: np.sin(x)
        out = quad.bisect_roots(f, np.array([3.0]), np.array([3.3]))
        assert out[0] == pytest.approx(np.pi, abs=1e-12)

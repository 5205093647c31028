"""Gauss edge rule: exactness degree, invariants, error branches."""

import numpy as np
import pytest

from steklov.quadrature import EdgeRule, gauss_edge_rule


def segment_integral(rule, p0, p1, integrand):
    """Integrate integrand((m, 2) points) over the segment [p0, p1]."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    points = p0 + rule.nodes[:, None] * (p1 - p0)
    return float(np.hypot(*(p1 - p0))) * float(rule.weights @ integrand(points))


def test_two_point_rule_integrates_cubic_exactly():
    rule = gauss_edge_rule(2)
    # int_0^1 s^3 ds = 1/4 on the reference segment
    assert abs(float(rule.weights @ rule.nodes**3) - 0.25) < 1e-15
    # and no further: s^4 integrates to 1/5 only up to the rule's error
    assert abs(float(rule.weights @ rule.nodes**4) - 0.2) > 1e-3


def test_edge_rule_invariants():
    for n in (1, 2, 3, 5):
        rule = gauss_edge_rule(n)
        assert len(rule.nodes) == n
        assert abs(rule.weights.sum() - 1.0) < 1e-15
        assert np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0)
        assert np.all(rule.weights > 0.0)
        # nodes are symmetric about the midpoint of [0, 1]
        assert np.allclose(np.sort(rule.nodes) + np.sort(rule.nodes)[::-1], 1.0)
        assert not rule.nodes.flags.writeable
        assert not rule.weights.flags.writeable


def test_edge_rule_rejects_zero_points():
    with pytest.raises(ValueError):
        gauss_edge_rule(0)


def test_slanted_segment_cubic_against_polynomial_oracle():
    # integrate q(x, y) = x^3 - 2 x y^2 + y along the segment from a to b and
    # compare to the 1d polynomial in the parameter, integrated with numpy
    a = np.array([0.2, -0.4])
    b = np.array([1.1, 0.9])
    rule = gauss_edge_rule(2)

    def q(p):
        x, y = p[:, 0], p[:, 1]
        return x**3 - 2.0 * x * y**2 + y

    sx = np.poly1d([b[0] - a[0], a[0]])
    sy = np.poly1d([b[1] - a[1], a[1]])
    param = sx**3 - 2.0 * sx * sy**2 + sy
    length = float(np.hypot(*(b - a)))
    exact = length * float(np.polyint(param)(1.0) - np.polyint(param)(0.0))
    assert abs(segment_integral(rule, a, b, q) - exact) < 1e-13 * abs(exact)


def test_degenerate_segment_integrates_to_zero():
    rule = gauss_edge_rule(2)
    assert segment_integral(rule, [0.3, 0.7], [0.3, 0.7], lambda p: p[:, 0] + 1.0) == 0.0


def test_edge_rule_is_plain_dataclass():
    rule = gauss_edge_rule(2)
    assert isinstance(rule, EdgeRule)
    clone = EdgeRule(nodes=rule.nodes.copy(), weights=rule.weights.copy())
    assert np.array_equal(clone.nodes, rule.nodes)

"""Torsion and curvature through the derivative operator and the bracket.

These apply the operational definitions, T(a, b) = nabla_a b - nabla_b a
- [a, b] and R(a, b) = [nabla_a, nabla_b] - nabla_[a, b], through the
public a_derivative and bracket_sections only, so they stay independent
of the symbol formulas that torsion and curvature use.
"""

import algebroidlab as al


def torsion_applied(conn, alpha, beta):
    """T(alpha, beta), a section."""
    a = conn.algebroid
    return (al.a_derivative(conn, alpha, beta)
            - al.a_derivative(conn, beta, alpha)
            - al.bracket_sections(a, alpha, beta))


def curvature_applied(conn, alpha, beta, target):
    """R(alpha, beta) target, for a section or a tensor section target."""
    a = conn.algebroid
    first = al.a_derivative(conn, beta, target)
    second = al.a_derivative(conn, alpha, target)
    out = al.a_derivative(conn, alpha, first)
    out = out - al.a_derivative(conn, beta, second)
    br = al.bracket_sections(a, alpha, beta)
    return out - al.a_derivative(conn, br, target)

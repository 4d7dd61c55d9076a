"""Whole-rule quadrature for the moment tests: one np.sum over every node.

No suite integrates this way: a norm weighs its leaves from the rule's table
(QuadratureRule.weigh) and never builds a rule's (N,) weights or its points.
"""

import numpy as np

from bergman_orlicz.measure import _checked_node_values


def integrate(rule, integrand) -> complex:
    """Apply the rule to a vectorized integrand (callable or node-value array).

    A callable receives the full (N, n) node array and must return (N,) values.
    Non-finite values abort with the offending node index; the reduction is a
    single deterministic numpy sum, so results do not depend on threading.
    """
    values = _checked_node_values(
        rule, integrand(rule.points) if callable(integrand) else integrand)
    acc = np.sum(rule.weights * values)
    return complex(acc) if np.iscomplexobj(values) else float(acc)

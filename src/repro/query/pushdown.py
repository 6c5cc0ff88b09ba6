"""Predicate pushdown through conversion functions.

A WHERE predicate is written in the query's metric, so evaluating it
means fetching every candidate instance and converting its values
first.  When a conversion chain is invertible and monotone — unit
conversions always are — the planner instead translates a *range*
predicate into the source's own metric, and the store evaluates it
before any conversion work:

    WHERE price <= 10000                (Euro, at the articulation)
      ==> price <= 7111.0               (Pound Sterling, at the carrier)
      ==> price <= 22037.100000000002   (Dutch Guilders, at the factory)

The translated threshold is exact in floating point: a stored value
passes the pushed predicate exactly when its converted value passes
the original one, so pushing changes which rows are fetched, never the
answer.  Decreasing conversions flip the comparison direction.
Equality and inequality are *not* pushed (a converted value may equal
the constant for several stored floats, or for none); unconvertible
attributes and unknown operators fall back to post-conversion
evaluation.  The QUERY benchmark measures the saving; correctness
tests assert pushed and unpushed plans return identical rows.
"""

from __future__ import annotations

import math

from repro.query.ast import Condition, Query
from repro.query.reformulate import SourcePlan

__all__ = ["push_condition", "split_conditions"]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: floats tried on either side of the inverse-converted threshold; an
#: invertible unit conversion lands within an ulp or two of the boundary
_MAX_STEPS = 64


def push_condition(
    condition: Condition, plan: SourcePlan
) -> Condition | None:
    """The condition in the source's metric, or None when it must run
    after conversion.

    A condition on an unconverted attribute pushes as it is; a
    converted one needs a range operator, a numeric constant and an
    invertible chain.  The inverse chain only approximates the
    boundary: no double is exactly 0.7111, so ``10000 * 0.7111``
    rounds to 7110.999999999999, and both that value and a stored 7111
    convert to exactly 10000.0.  The threshold therefore moves one
    float at a time until the floats on either side of it are kept
    exactly when their *converted* value satisfies ``condition``; the
    chain is monotone, so agreeing there means agreeing on every stored
    value.  None, too, when no such float lies within ``_MAX_STEPS``.
    """
    conversion = plan.conversions.get(condition.attribute)
    if conversion is None:
        return condition
    value = condition.value
    if (
        condition.op not in _FLIP
        or not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not conversion.invertible
    ):
        return None
    op = condition.op if conversion.is_increasing() else _FLIP[condition.op]
    # the pushed condition holds on the ``inward`` side of the
    # threshold; a strict one excludes the threshold itself
    inward = -math.inf if op in ("<", "<=") else math.inf
    strict = op in ("<", ">")
    threshold = conversion.apply_inverse(float(value))
    for _ in range(_MAX_STEPS):
        inside = math.nextafter(threshold, inward) if strict else threshold
        outside = threshold if strict else math.nextafter(threshold, -inward)
        if not condition.evaluate(conversion.apply(inside)):
            threshold = math.nextafter(threshold, inward)
        elif condition.evaluate(conversion.apply(outside)):
            threshold = math.nextafter(threshold, -inward)
        else:
            return Condition(condition.attribute, op, threshold)
    return None


def split_conditions(
    query: Query, plan: SourcePlan
) -> tuple[tuple[Condition, ...], tuple[Condition, ...]]:
    """Split a query's WHERE into ``(pushed, residual)`` for one source.

    ``pushed`` conditions are translated into the source's metric and
    stay *structured*, so a storage backend can evaluate them natively
    (the SQLite backend compiles them to SQL); ``residual`` conditions
    must run post-conversion in the executor.
    """
    pushed: list[Condition] = []
    residual: list[Condition] = []
    for condition in query.where:
        translated = push_condition(condition, plan)
        if translated is None:
            residual.append(condition)
        else:
            pushed.append(translated)
    return tuple(pushed), tuple(residual)

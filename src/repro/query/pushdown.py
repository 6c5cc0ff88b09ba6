"""Predicate pushdown through conversion functions.

The executor normally fetches every candidate instance, converts its
values into the query's metric, and only then evaluates WHERE
predicates.  When a conversion chain is invertible and monotone — unit
conversions always are — a *range* predicate can instead be translated
into the source's own metric and evaluated at the store, before any
conversion work:

    WHERE price < 10000        (Euro, at the articulation)
      ==> price < 7111.0       (Pound Sterling, at the carrier)
      ==> price < 22037.1      (Dutch Guilders, at the factory)

Decreasing conversions flip the comparison direction.  Equality and
inequality are *not* pushed (floating-point round-trips through the
inverse could flip an exact comparison); unconvertible attributes and
unknown operators fall back to post-conversion evaluation.  The QUERY
benchmark measures the saving; correctness tests assert pushed and
unpushed plans return identical rows.
"""

from __future__ import annotations

from repro.query.ast import Condition, Query
from repro.query.reformulate import SourcePlan

__all__ = [
    "pushable",
    "push_condition",
    "split_conditions",
]

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_RANGE_OPS = frozenset(_FLIP)


def pushable(condition: Condition, plan: SourcePlan) -> bool:
    """Can this condition be evaluated in the source's metric?

    Conditions on unconverted attributes are trivially pushable (the
    value is already in source metric); converted attributes need a
    range operator, a numeric constant and an invertible chain.
    """
    conversion = plan.conversions.get(condition.attribute)
    if conversion is None:
        return True
    if condition.op not in _RANGE_OPS:
        return False
    if not isinstance(condition.value, (int, float)) or isinstance(
        condition.value, bool
    ):
        return False
    return conversion.invertible


def push_condition(condition: Condition, plan: SourcePlan) -> Condition:
    """Translate one pushable condition into the source's metric."""
    conversion = plan.conversions.get(condition.attribute)
    if conversion is None:
        return condition
    threshold = conversion.apply_inverse(float(condition.value))  # type: ignore[arg-type]
    op = condition.op
    if not conversion.is_increasing():
        op = _FLIP[op]
    return Condition(condition.attribute, op, threshold)


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
        if pushable(condition, plan):
            pushed.append(push_condition(condition, plan))
        else:
            residual.append(condition)
    return tuple(pushed), tuple(residual)

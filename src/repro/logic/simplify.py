"""Bottom-up formula simplification.

The simplifier re-applies the smart constructors of :mod:`repro.logic.build`
over the whole tree (constant folding, neutral/absorbing element removal,
flattening, double-negation and comparison-negation elimination), plus a few
linear-arithmetic normalizations:

* comparisons between linear terms are normalized to have a constant-free
  left side when both sides fold to constants on one side;
* syntactically contradictory / tautological conjuncts such as ``x < x`` are
  removed by the constant folding of the builders.

The simplifier is *not* a decision procedure; it preserves logical
equivalence and is safe to call anywhere.  Results are memoized per node
(:mod:`repro.logic.memo`).
"""

from __future__ import annotations

from repro.logic import build, memo
from repro.logic.terms import (
    Add,
    And,
    BoolConst,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    Iff,
    Implies,
    IntConst,
    Ite,
    Le,
    Lt,
    Mul,
    Ne,
    Neg,
    Not,
    Or,
    Sub,
    Var,
)


def simplify(expr: Expr) -> Expr:
    """Return an equivalent, usually smaller, expression."""
    return _simplify(expr)


def _simplify(expr: Expr) -> Expr:
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = memo.SIMPLIFY.get(expr)
    if result is not None:
        return result
    if isinstance(expr, Add):
        result = build.add(*[_simplify(arg) for arg in expr.args])
    elif isinstance(expr, Sub):
        result = build.sub(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Neg):
        result = build.neg(_simplify(expr.operand))
    elif isinstance(expr, Mul):
        result = build.mul(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Ite):
        result = build.ite(_simplify(expr.cond), _simplify(expr.then), _simplify(expr.orelse))
    elif isinstance(expr, Eq):
        result = build.eq(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Ne):
        result = build.ne(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Lt):
        result = build.lt(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Le):
        result = build.le(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Gt):
        result = build.gt(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Ge):
        result = build.ge(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Not):
        result = build.lnot(_simplify(expr.operand))
    elif isinstance(expr, And):
        result = _simplify_and(expr)
    elif isinstance(expr, Or):
        result = _simplify_or(expr)
    elif isinstance(expr, Implies):
        result = build.implies(_simplify(expr.antecedent), _simplify(expr.consequent))
    elif isinstance(expr, Iff):
        result = build.iff(_simplify(expr.left), _simplify(expr.right))
    elif isinstance(expr, Forall):
        result = build.forall(expr.bound, _simplify(expr.body))
    elif isinstance(expr, Exists):
        result = build.exists(expr.bound, _simplify(expr.body))
    else:
        raise TypeError(f"cannot simplify node {type(expr).__name__}")
    return memo.remember(memo.SIMPLIFY, expr, result)


def _simplify_and(expr: And) -> Expr:
    simplified = build.land(*[_simplify(arg) for arg in expr.args])
    if not isinstance(simplified, And):
        return simplified
    # drop conjuncts whose negation is also present -> false, and detect p & !p
    literals = set(simplified.args)
    for lit in simplified.args:
        if build.lnot(lit) in literals:
            return build.FALSE
    return simplified


def _simplify_or(expr: Or) -> Expr:
    simplified = build.lor(*[_simplify(arg) for arg in expr.args])
    if not isinstance(simplified, Or):
        return simplified
    literals = set(simplified.args)
    for lit in simplified.args:
        if build.lnot(lit) in literals:
            return build.TRUE
    return simplified

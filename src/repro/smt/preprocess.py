"""Formula preprocessing for the SMT solver.

The solver core only understands two kinds of atoms:

* boolean variables, and
* canonical arithmetic atoms of the form ``t <= 0`` where ``t`` is a linear
  integer term.

This module rewrites arbitrary input formulas into that shape:

* boolean-sorted equalities / disequalities become ``Iff`` / ``!Iff``;
* integer-sorted ``ite`` terms are lifted into boolean case splits;
* every comparison is normalized into non-strict ``<= 0`` constraints, which
  is exact for integers (``a < b`` becomes ``a - b + 1 <= 0``, ``a != b``
  becomes a disjunction of two strict sides).

Each pass is memoized per node (:mod:`repro.logic.memo`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.logic import build, memo
from repro.logic.nnf import to_nnf
from repro.logic.simplify import simplify
from repro.logic.terms import (
    Add,
    And,
    BOOL,
    BoolConst,
    Eq,
    Exists,
    Expr,
    Forall,
    Ge,
    Gt,
    Iff,
    Implies,
    INT,
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
    is_atom,
    sort_of,
)
from repro.smt.linear import Constraint, LinExpr, linearize

_COMPARISONS = (Eq, Ne, Lt, Le, Gt, Ge)


def rewrite_bool_equalities(expr: Expr) -> Expr:
    """Rewrite ``Eq``/``Ne`` whose operands are boolean into ``Iff`` structure."""
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = memo.BOOL_EQUALITIES.get(expr)
    if result is not None:
        return result
    children = tuple(rewrite_bool_equalities(child) for child in expr.children())
    if isinstance(expr, (Eq, Ne)) and sort_of(children[0]) is BOOL:
        equiv = build.iff(children[0], children[1])
        result = equiv if isinstance(expr, Eq) else build.lnot(equiv)
    else:
        result = _rebuild(expr, children)
    return memo.remember(memo.BOOL_EQUALITIES, expr, result)


def lift_int_ite(expr: Expr) -> Expr:
    """Lift integer-sorted ``ite`` terms occurring inside atoms to case splits."""
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = memo.INT_ITE.get(expr)
    if result is not None:
        return result
    if isinstance(expr, _COMPARISONS):
        found = _find_int_ite(expr)
        if found is None:
            result = expr
        else:
            cond, then, orelse = found.cond, found.then, found.orelse
            then_atom = _replace_node(expr, found, then)
            else_atom = _replace_node(expr, found, orelse)
            result = lift_int_ite(
                build.lor(
                    build.land(lift_int_ite(cond), then_atom),
                    build.land(build.lnot(lift_int_ite(cond)), else_atom),
                )
            )
    else:
        children = tuple(lift_int_ite(child) for child in expr.children())
        if isinstance(expr, (Forall, Exists)):
            result = type(expr)(expr.bound, children[0])
        else:
            result = _rebuild(expr, children)
    return memo.remember(memo.INT_ITE, expr, result)


def _find_int_ite(expr: Expr) -> Optional[Ite]:
    if isinstance(expr, Ite) and sort_of(expr.then) is INT:
        return expr
    for child in expr.children():
        found = _find_int_ite(child)
        if found is not None:
            return found
    return None


def _replace_node(expr: Expr, target: Expr, replacement: Expr) -> Expr:
    if expr == target:
        return replacement
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    children = tuple(_replace_node(child, target, replacement) for child in expr.children())
    if isinstance(expr, (Forall, Exists)):
        return type(expr)(expr.bound, children[0])
    return _rebuild(expr, children)


def normalize_atoms(expr: Expr) -> Expr:
    """Rewrite every arithmetic comparison into canonical ``t <= 0`` atoms.

    The output only contains boolean structure, boolean variables, and
    ``Le(linear-term, 0)`` atoms.  Comparisons whose difference folds to a
    constant become boolean constants.
    """
    if isinstance(expr, (BoolConst, Var)):
        return expr
    result = memo.ATOMS.get(expr)
    if result is not None:
        return result
    if isinstance(expr, _COMPARISONS) and sort_of(expr.left) is INT:
        result = _normalize_comparison(expr)
    elif isinstance(expr, (Forall, Exists)):
        result = type(expr)(expr.bound, normalize_atoms(expr.body))
    else:
        children = tuple(normalize_atoms(child) for child in expr.children())
        result = _rebuild(expr, children)
    return memo.remember(memo.ATOMS, expr, result)


def _le_zero(lin: LinExpr) -> Expr:
    if lin.is_constant():
        return build.TRUE if lin.constant <= 0 else build.FALSE
    return Le(lin.to_expr(), IntConst(0))


def _normalize_comparison(expr: Expr) -> Expr:
    left = linearize(expr.left)
    right = linearize(expr.right)
    diff = left.sub(right)
    if isinstance(expr, Le):
        return _le_zero(diff)
    if isinstance(expr, Lt):
        return _le_zero(diff.shift(1))
    if isinstance(expr, Ge):
        return _le_zero(diff.scale(-1))
    if isinstance(expr, Gt):
        return _le_zero(diff.scale(-1).shift(1))
    if isinstance(expr, Eq):
        return build.land(_le_zero(diff), _le_zero(diff.scale(-1)))
    if isinstance(expr, Ne):
        return build.lor(_le_zero(diff.shift(1)), _le_zero(diff.scale(-1).shift(1)))
    raise TypeError(f"unexpected comparison {type(expr).__name__}")


def atom_constraint(atom: Expr) -> Optional[Constraint]:
    """Return the :class:`Constraint` for a canonical arithmetic atom, else None."""
    if isinstance(atom, Le) and isinstance(atom.right, IntConst) and atom.right.value == 0:
        return Constraint(linearize(atom.left))
    return None


def preprocess(expr: Expr) -> Expr:
    """Full preprocessing pipeline used by the solver (quantifier-free input)."""
    expr = simplify(expr)
    expr = rewrite_bool_equalities(expr)
    expr = lift_int_ite(expr)
    expr = to_nnf(expr)
    expr = normalize_atoms(expr)
    return simplify(expr)


def _rebuild(expr: Expr, children: Tuple[Expr, ...]) -> Expr:
    if isinstance(expr, (Add, And, Or)):
        return type(expr)(tuple(children))
    if isinstance(expr, (Sub, Mul, Eq, Ne, Lt, Le, Gt, Ge, Iff)):
        return type(expr)(children[0], children[1])
    if isinstance(expr, Implies):
        return Implies(children[0], children[1])
    if isinstance(expr, (Neg, Not)):
        return type(expr)(children[0])
    if isinstance(expr, Ite):
        return Ite(children[0], children[1], children[2])
    if isinstance(expr, (Forall, Exists)):
        return type(expr)(expr.bound, children[0])
    raise TypeError(f"cannot rebuild node {type(expr).__name__}")

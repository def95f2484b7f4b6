"""Step-at-a-time quantifier elimination: the reference for differential tests.

This is the elimination ``repro.smt.qe`` used before it projected DNF cubes
over all quantified variables in one pass.  After each eliminated integer
variable it turns the result back into a formula, then preprocesses,
re-expands to DNF and re-linearises it before the next variable.  The
production code must return the identical ``Expr`` (or raise the identical
``ValueError``) for every input.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.logic import build
from repro.logic.free_vars import free_vars
from repro.logic.nnf import to_dnf_clauses
from repro.logic.simplify import simplify
from repro.logic.substitute import substitute
from repro.logic.terms import BOOL, BoolConst, Expr, Not, Var
from repro.smt.linear import Constraint, LinExpr
from repro.smt.preprocess import atom_constraint, preprocess
from repro.smt.qe import QuantifierEliminationError


def eliminate_exists(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    result = formula
    for var in variables:
        if var.var_sort is BOOL:
            result = _eliminate_bool_exists(var, result)
        else:
            result = _eliminate_int_exists(var, result, strict=strict)
    return simplify(result)


def eliminate_forall(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    negated = build.lnot(formula)
    eliminated = eliminate_exists(variables, negated, strict=strict)
    return simplify(build.lnot(eliminated))


def _eliminate_bool_exists(var: Var, formula: Expr) -> Expr:
    true_case = substitute(formula, {var: build.TRUE})
    false_case = substitute(formula, {var: build.FALSE})
    return build.lor(simplify(true_case), simplify(false_case))


def _eliminate_int_exists(var: Var, formula: Expr, *, strict: bool) -> Expr:
    if var not in free_vars(formula):
        return formula
    processed = preprocess(formula)
    if isinstance(processed, BoolConst):
        return processed
    cubes = to_dnf_clauses(processed)
    eliminated_cubes: List[Expr] = []
    for cube in cubes:
        eliminated_cubes.append(_eliminate_from_cube(var, cube, strict=strict))
    return build.lor(*eliminated_cubes)


def _eliminate_from_cube(var: Var, cube: Tuple[Expr, ...], *, strict: bool) -> Expr:
    constraints: List[Constraint] = []
    other_literals: List[Expr] = []
    for literal in cube:
        if isinstance(literal, Not):
            other_literals.append(literal)
            continue
        constraint = atom_constraint(literal)
        if constraint is None:
            other_literals.append(literal)
            continue
        constraints.append(constraint)

    lowers: List[Tuple[int, LinExpr]] = []
    uppers: List[Tuple[int, LinExpr]] = []
    unrelated: List[Constraint] = []
    for constraint in constraints:
        coef = constraint.expr.coefficient(var.name)
        if coef == 0:
            unrelated.append(constraint)
            continue
        rest = LinExpr.of(
            {n: c for n, c in constraint.expr.coeffs if n != var.name},
            constraint.expr.constant,
        )
        if coef > 0:
            uppers.append((coef, rest.scale(-1)))
        else:
            lowers.append((-coef, rest))
        if strict and abs(coef) != 1:
            raise QuantifierEliminationError(
                f"non-unit coefficient {coef} for {var.name}; elimination would be inexact"
            )

    combined: List[Expr] = [c.to_formula() for c in unrelated]
    combined.extend(other_literals)
    for low_coef, low_rest in lowers:
        for up_coef, up_rest in uppers:
            lhs = low_rest.scale(up_coef)
            rhs = up_rest.scale(low_coef)
            combined.append(Constraint(lhs.sub(rhs)).to_formula())
    return build.land(*combined) if combined else build.TRUE

"""Negation normal form, DNF clause extraction, and atom collection.

These transformations feed both the SMT solver (which searches over the
boolean skeleton of a formula's atoms) and the abduction engine (which mines
candidate predicates from clauses of the weakest precondition).  NNF and
boolean-``ite`` elimination are memoized per node (:mod:`repro.logic.memo`);
the DNF expansion is not, since it also depends on the clause budget.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.logic import build, memo
from repro.logic.terms import (
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
    Ne,
    Not,
    Or,
    Var,
    is_atom,
)


def eliminate_bool_ite(expr: Expr) -> Expr:
    """Rewrite boolean-sorted ``Ite`` nodes into pure boolean structure.

    Integer-sorted ``Ite`` nodes are left alone; they are handled by the
    solver's linearizer through case splitting.
    """
    if isinstance(expr, (Var, IntConst, BoolConst)):
        return expr
    result = memo.BOOL_ITE.get(expr)
    if result is not None:
        return result
    if isinstance(expr, Ite) and expr.then.sort.name == "BOOL":
        cond = eliminate_bool_ite(expr.cond)
        then = eliminate_bool_ite(expr.then)
        orelse = eliminate_bool_ite(expr.orelse)
        result = build.lor(build.land(cond, then), build.land(build.lnot(cond), orelse))
    else:
        children = tuple(eliminate_bool_ite(child) for child in expr.children())
        result = _rebuild(expr, children)
    return memo.remember(memo.BOOL_ITE, expr, result)


def to_nnf(expr: Expr) -> Expr:
    """Convert *expr* to negation normal form.

    Implications and bi-implications are expanded, and negations are pushed
    down to atoms (comparisons get flipped; boolean variables keep a ``Not``
    wrapper).  Quantifiers are preserved with dualization under negation.
    """
    return _nnf(eliminate_bool_ite(expr), positive=True)


def _nnf(expr: Expr, positive: bool) -> Expr:
    if isinstance(expr, BoolConst):
        return BoolConst(expr.value if positive else not expr.value)
    key = (expr, positive)
    result = memo.NNF.get(key)
    if result is not None:
        return result
    if is_atom(expr):
        result = expr if positive else build.lnot(expr)
    elif isinstance(expr, Not):
        result = _nnf(expr.operand, not positive)
    elif isinstance(expr, And):
        parts = [_nnf(arg, positive) for arg in expr.args]
        result = build.land(*parts) if positive else build.lor(*parts)
    elif isinstance(expr, Or):
        parts = [_nnf(arg, positive) for arg in expr.args]
        result = build.lor(*parts) if positive else build.land(*parts)
    elif isinstance(expr, Implies):
        result = _nnf(build.lor(build.lnot(expr.antecedent), expr.consequent), positive)
    elif isinstance(expr, Iff):
        expanded = build.lor(
            build.land(expr.left, expr.right),
            build.land(build.lnot(expr.left), build.lnot(expr.right)),
        )
        result = _nnf(expanded, positive)
    elif isinstance(expr, Forall):
        body = _nnf(expr.body, positive)
        result = build.forall(expr.bound, body) if positive else build.exists(expr.bound, body)
    elif isinstance(expr, Exists):
        body = _nnf(expr.body, positive)
        result = build.exists(expr.bound, body) if positive else build.forall(expr.bound, body)
    else:
        raise TypeError(f"cannot convert node {type(expr).__name__} to NNF")
    return memo.remember(memo.NNF, key, result)


#: Default cube budget of a DNF expansion, read at call time (tests lower
#: it).  Quantifier elimination's cube lists come from these expansions.
MAX_DNF_CLAUSES = 4096


def to_dnf_clauses(expr: Expr, max_clauses: Optional[int] = None) -> List[Tuple[Expr, ...]]:
    """Return the DNF of *expr* as a list of literal tuples (cubes).

    The input must be quantifier free.  A :class:`ValueError` is raised when
    the expansion would exceed *max_clauses* cubes (default
    :data:`MAX_DNF_CLAUSES`), protecting the abduction engine from
    exponential blow-up on pathological inputs.
    """
    if max_clauses is None:
        max_clauses = MAX_DNF_CLAUSES
    nnf = to_nnf(expr)
    cubes = _dnf(nnf, max_clauses)
    return [tuple(cube) for cube in cubes]


def _dnf(expr: Expr, max_clauses: int) -> List[List[Expr]]:
    if isinstance(expr, BoolConst):
        return [[]] if expr.value else []
    if is_atom(expr) or isinstance(expr, Not):
        return [[expr]]
    if isinstance(expr, Or):
        cubes: List[List[Expr]] = []
        for arg in expr.args:
            cubes.extend(_dnf(arg, max_clauses))
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
        return cubes
    if isinstance(expr, And):
        cubes = [[]]
        for arg in expr.args:
            arg_cubes = _dnf(arg, max_clauses)
            cubes = [left + right for left in cubes for right in arg_cubes]
            if len(cubes) > max_clauses:
                raise ValueError("DNF expansion exceeded clause budget")
        return cubes
    if isinstance(expr, (Forall, Exists)):
        raise ValueError("DNF conversion requires a quantifier-free formula")
    raise TypeError(f"unexpected node in NNF formula: {type(expr).__name__}")


def to_cnf_clauses(expr: Expr, max_clauses: Optional[int] = None) -> List[Tuple[Expr, ...]]:
    """Return the CNF of *expr* as a list of literal tuples (clauses)."""
    negated_cubes = to_dnf_clauses(build.lnot(expr), max_clauses)
    clauses = []
    for cube in negated_cubes:
        clauses.append(tuple(build.lnot(lit) for lit in cube))
    return clauses


def atoms_of(expr: Expr) -> FrozenSet[Expr]:
    """Collect the theory atoms / boolean variables occurring in *expr*."""
    return frozenset(atoms_in_order(expr))


def atoms_in_order(expr: Expr) -> Tuple[Expr, ...]:
    """The atoms of *expr* in first-occurrence (pre-order) order.

    Use this instead of :func:`atoms_of` wherever the iteration order can
    reach an output: a frozenset's order depends on the string hash seed.
    """
    atoms: Dict[Expr, None] = {}
    _atoms(expr, atoms)
    return tuple(atoms)


def _atoms(expr: Expr, out: Dict[Expr, None]) -> None:
    if isinstance(expr, BoolConst):
        return
    if is_atom(expr):
        out.setdefault(expr)
        return
    for child in expr.children():
        _atoms(child, out)


def literal_atom(literal: Expr) -> Expr:
    """Return the atom underlying a literal (stripping an outer negation)."""
    if isinstance(literal, Not):
        return literal.operand
    return literal


def literal_polarity(literal: Expr) -> bool:
    """True for a positive literal, False for a negated one."""
    return not isinstance(literal, Not)


def _rebuild(expr: Expr, children) -> Expr:
    from repro.logic.substitute import _rebuild as rebuild_impl

    if isinstance(expr, (Forall, Exists)):
        return type(expr)(expr.bound, children[0])
    return rebuild_impl(expr, children)

"""Quantifier elimination for the abduction engine.

Existential quantifiers over booleans are eliminated by Shannon expansion;
existential quantifiers over integers by Fourier–Motzkin (FM) elimination on
the DNF of the body.  Universal quantification is handled by duality
(``∀x.φ = ¬∃x.¬φ``).

**Cube pipeline.**  The first integer variable that occurs free triggers one
``preprocess`` and one DNF expansion of the formula.  From then on the
formula stays a list of cubes, each a tuple of literals: a canonical
constraint ``t <= 0`` is held as its :class:`LinExpr` ``t``, a boolean
literal as its ``Expr``.  Every later integer variable is projected out of
each cube in place, and the cube list is turned back into a formula only at
the end, or before a boolean variable's Shannon step (after which the next
integer variable starts again from ``preprocess``).  The cube operations
reproduce exactly what re-simplifying and re-expanding the formula after
each variable would do, so the result is the identical ``Expr``:

* a projected cube lists the constraints without the variable, then the
  boolean literals, then the lower×upper bound products, keeping the first
  occurrence of each literal; a constant constraint ``c <= 0`` folds away
  when true and drops the cube when false;
* identical cubes keep their first occurrence, and a cube that folds to
  ``true`` makes the whole result ``true``;
* before a variable is projected, cubes holding both ``b`` and ``¬b`` are
  dropped, and single-literal cubes ``b`` and ``¬b`` make the result
  ``true``.

**Clause budget.**  A DNF expansion raises ``ValueError`` when it would
exceed :data:`repro.logic.nnf.MAX_DNF_CLAUSES` cubes.  Only expansions can
reach the budget: projection maps each cube to at most one cube, and
neither normalisation nor a Shannon step on a cube list adds cubes, so a
list that fit the budget keeps fitting it.

**Real shadow.**  FM over the integers is exact whenever the eliminated
variable appears with coefficient ±1 in every constraint (the only case the
monitor analyses produce, since guards and updates use unit coefficients).
When a larger coefficient appears, the real shadow is returned, which
over-approximates satisfiability; abduction candidates derived from it are
still filtered by Algorithm 2's validity checks, so soundness of the overall
pipeline is preserved.  Callers that need exactness can pass ``strict=True``
to raise instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.logic import build, nnf
from repro.logic.free_vars import free_vars
from repro.logic.simplify import simplify
from repro.logic.substitute import substitute
from repro.logic.terms import BoolConst, BOOL, Expr, Not, Var
from repro.smt.linear import Constraint, LinExpr
from repro.smt.preprocess import atom_constraint, preprocess

#: A literal of a cube: ``t <= 0`` held as ``t``, or a boolean literal.
CubeLiteral = Union[LinExpr, Expr]
Cube = Tuple[CubeLiteral, ...]


class QuantifierEliminationError(ValueError):
    """Raised in strict mode when elimination would be inexact, or on bad input."""


def eliminate_exists(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    """Compute a quantifier-free equivalent of ``exists variables. formula``."""
    result: Union[Expr, List[Cube]] = formula
    for var in variables:
        if var.var_sort is BOOL:
            result = _eliminate_bool_exists(var, _to_formula(result))
        else:
            result = _project_variable(var, result, strict=strict)
    return simplify(_to_formula(result))


def eliminate_forall(variables: Sequence[Var], formula: Expr, *, strict: bool = False) -> Expr:
    """Compute a quantifier-free equivalent of ``forall variables. formula``."""
    negated = build.lnot(formula)
    eliminated = eliminate_exists(variables, negated, strict=strict)
    return simplify(build.lnot(eliminated))


def _eliminate_bool_exists(var: Var, formula: Expr) -> Expr:
    true_case = substitute(formula, {var: build.TRUE})
    false_case = substitute(formula, {var: build.FALSE})
    return build.lor(simplify(true_case), simplify(false_case))


def _project_variable(var: Var, result: Union[Expr, List[Cube]], *,
                      strict: bool) -> Union[Expr, List[Cube]]:
    """Eliminate the integer *var* from a formula or a cube list."""
    if isinstance(result, Expr):
        if var not in free_vars(result):
            return result
        expanded = _expand(result)
        if isinstance(expanded, Expr):
            return expanded
        cubes = expanded
    else:
        if not any(isinstance(lit, LinExpr) and lit.coefficient(var.name)
                   for cube in result for lit in cube):
            return result
        normalised = _normalise(result)
        if isinstance(normalised, Expr):
            return normalised
        cubes = normalised
    if strict:
        _check_unit_coefficients(var, cubes)
    projected: Dict[Cube, None] = {}
    for cube in cubes:
        image = _project_cube(var.name, cube)
        if image is None:
            continue
        if not image:
            return build.TRUE
        projected.setdefault(image)
    return list(projected) if projected else build.FALSE


#: The last expansion, keyed by formula and clause budget.  Abduction
#: eliminates up to 16 variable subsets from one negated obligation in a row,
#: so one entry serves them all; a failed expansion is kept as its error.
#: The node memos (:mod:`repro.logic.memo`) make the repeated ``preprocess``
#: cheap, but not the DNF expansion, which this entry still saves.
#: The entry is a function of its key alone, so callers sharing it get the
#: results they would compute themselves; one entry bounds its memory.
_LAST_EXPANSION: Dict[Tuple[Expr, int], Union[Expr, List[Cube], ValueError]] = {}


def _expand(formula: Expr) -> Union[Expr, List[Cube]]:
    """``preprocess`` and DNF-expand *formula*: a constant or its cubes."""
    key = (formula, nnf.MAX_DNF_CLAUSES)
    expanded = _LAST_EXPANSION.get(key)
    if expanded is None:
        _LAST_EXPANSION.clear()
        try:
            processed = preprocess(formula)
            expanded = (processed if isinstance(processed, BoolConst)
                        else _to_cubes(nnf.to_dnf_clauses(processed)))
        except ValueError as error:
            # Without its traceback: the frames hold the partial expansion.
            expanded = error.with_traceback(None)
        _LAST_EXPANSION[key] = expanded
    if isinstance(expanded, ValueError):
        raise type(expanded)(*expanded.args)
    return expanded


def _to_cubes(clauses: List[Tuple[Expr, ...]]) -> List[Cube]:
    """Hold each canonical ``t <= 0`` atom as ``t``, linearising each atom once."""
    literals: Dict[Expr, CubeLiteral] = {}
    for clause in clauses:
        for lit in clause:
            if lit not in literals:
                constraint = atom_constraint(lit)
                literals[lit] = lit if constraint is None else constraint.expr
    return [tuple(literals[lit] for lit in clause) for clause in clauses]


def _check_unit_coefficients(var: Var, cubes: List[Cube]) -> None:
    for cube in cubes:
        for lit in cube:
            if isinstance(lit, LinExpr) and abs(lit.coefficient(var.name)) > 1:
                raise QuantifierEliminationError(
                    f"non-unit coefficient {lit.coefficient(var.name)} for {var.name}; "
                    "elimination would be inexact"
                )


def _project_cube(name: str, cube: Cube) -> Optional[Cube]:
    """Fourier–Motzkin elimination of *name* from one cube; None when false."""
    unrelated: List[CubeLiteral] = []
    others: List[CubeLiteral] = []
    lowers: List[Tuple[int, LinExpr]] = []   # a*var >= rest  encoded as (a, rest)
    uppers: List[Tuple[int, LinExpr]] = []   # a*var <= rest
    for lit in cube:
        if not isinstance(lit, LinExpr):
            others.append(lit)
            continue
        coef = lit.coefficient(name)
        if coef == 0:
            unrelated.append(lit)
            continue
        # lit: coef*var + rest <= 0
        rest = LinExpr.of({n: c for n, c in lit.coeffs if n != name}, lit.constant)
        if coef > 0:
            uppers.append((coef, rest.scale(-1)))
        else:
            lowers.append((-coef, rest))
    combined = unrelated + others
    for low_coef, low_rest in lowers:
        for up_coef, up_rest in uppers:
            # low_rest / low_coef <= var <= up_rest / up_coef
            # ==> up_coef * low_rest - low_coef * up_rest <= 0
            combined.append(low_rest.scale(up_coef).sub(up_rest.scale(low_coef)))
    kept: Dict[CubeLiteral, None] = {}
    for lit in combined:
        if isinstance(lit, LinExpr) and lit.is_constant():
            if lit.constant > 0:
                return None
            continue
        kept.setdefault(lit)
    return tuple(kept)


def _normalise(cubes: List[Cube]) -> Union[Expr, List[Cube]]:
    """What ``simplify`` does to the disjunction of *cubes*."""
    kept = [cube for cube in cubes if not _contradictory(cube)]
    if not kept:
        return build.FALSE
    units = {cube[0] for cube in kept if len(cube) == 1 and isinstance(cube[0], Expr)}
    if any(isinstance(lit, Not) and lit.operand in units for lit in units):
        return build.TRUE
    return kept


def _contradictory(cube: Cube) -> bool:
    booleans = {lit for lit in cube if isinstance(lit, Expr)}
    return any(isinstance(lit, Not) and lit.operand in booleans for lit in booleans)


def _to_formula(result: Union[Expr, List[Cube]]) -> Expr:
    if isinstance(result, Expr):
        return result
    return build.lor(*(build.land(*map(_literal_formula, cube)) for cube in result))


def _literal_formula(lit: CubeLiteral) -> Expr:
    return Constraint(lit).to_formula() if isinstance(lit, LinExpr) else lit

"""Memo tables of the pure formula rewrites.

Abduction (Algorithm 2), placement (Algorithm 1) and quantifier elimination
issue thousands of near-duplicate verification conditions in one compile,
and each query would otherwise rewrite its whole formula again, subterms
shared with earlier queries included.  Each rewrite below is a function of its argument
alone, so it keeps what it returns here, keyed by the node (whose hash is
cached on the instance):

* :data:`SIMPLIFY` -- :func:`repro.logic.simplify._simplify`;
* :data:`NNF` -- :func:`repro.logic.nnf._nnf`, keyed by ``(expr, positive)``;
* :data:`BOOL_ITE` -- :func:`repro.logic.nnf.eliminate_bool_ite`;
* :data:`BOOL_EQUALITIES` --
  :func:`repro.smt.preprocess.rewrite_bool_equalities`;
* :data:`INT_ITE` -- :func:`repro.smt.preprocess.lift_int_ite`;
* :data:`ATOMS` -- :func:`repro.smt.preprocess.normalize_atoms`;
* :data:`LINEARIZE` -- :func:`repro.smt.linear.linearize`.

Each function looks its argument up inline at its top, so the memo adds no
Python frame per level of recursion, and stores only what it returns: a
rewrite that raises (a non-linear product, an un-lifted ``ite``, an unknown
node) raises again on every call.  The DNF expansion is not memoized: its
result depends on :data:`repro.logic.nnf.MAX_DNF_CLAUSES` as well.

``ExpressoPipeline.compile`` clears every table when it returns or raises.
A table that has reached :data:`LIMIT` entries is cleared before its next
store, which bounds the memory of callers outside a compile.  Entries are
pure, so a caller that finds a table emptied under it only recomputes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple, TypeVar

from repro.logic.terms import Expr

if TYPE_CHECKING:
    from repro.smt.linear import LinExpr

#: Entries a table may hold before it is cleared.
LIMIT = 50_000

SIMPLIFY: Dict[Expr, Expr] = {}
NNF: Dict[Tuple[Expr, bool], Expr] = {}
BOOL_ITE: Dict[Expr, Expr] = {}
BOOL_EQUALITIES: Dict[Expr, Expr] = {}
INT_ITE: Dict[Expr, Expr] = {}
ATOMS: Dict[Expr, Expr] = {}
LINEARIZE: Dict[Expr, LinExpr] = {}

TABLES = (SIMPLIFY, NNF, BOOL_ITE, BOOL_EQUALITIES, INT_ITE, ATOMS, LINEARIZE)

_V = TypeVar("_V")


def remember(table: Dict, key: object, value: _V) -> _V:
    """Store *value* under *key* in *table* and return it."""
    if len(table) >= LIMIT:
        table.clear()
    table[key] = value
    return value


def clear() -> None:
    """Empty every table."""
    for table in TABLES:
        table.clear()

"""The per-node memo of the pure formula rewrites (``repro.logic.memo``).

* a rewrite returns the same result on cold tables and on tables already
  filled by unrelated formulas;
* a rewrite that raises raises again on every call, and its input never
  enters a table;
* ``ExpressoPipeline.compile`` leaves every table empty, also when it
  raises;
* a table that reaches ``memo.LIMIT`` is cleared, not grown;
* the memo adds no Python frame per level of recursion: a formula nested
  deeply enough to pass before the memo still simplifies and preprocesses.

``EXPRESSO_NIGHTLY=1`` raises the hypothesis example budget.
"""

import inspect
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from test_property_based import formulas, int_terms
from repro.benchmarks_lib.registry import ALL_BENCHMARKS
from repro.lang import MonitorParseError
from repro.logic import BOOL, i, le, memo, simplify, to_nnf, v
from repro.logic.nnf import eliminate_bool_ite
from repro.logic.terms import Expr, Implies, Ite, Le, Mul, Var
from repro.placement.pipeline import ExpressoPipeline
from repro.smt.linear import NonLinearError, linearize
from repro.smt.preprocess import normalize_atoms, preprocess

NIGHTLY = os.environ.get("EXPRESSO_NIGHTLY") == "1"
EXAMPLES = 3000 if NIGHTLY else 150

_REWRITES = (simplify, preprocess, to_nnf)


@pytest.fixture(autouse=True)
def _cold_tables():
    memo.clear()
    yield
    memo.clear()


def _rewrite_all(formula, term):
    return ([repr(rewrite(formula)) for rewrite in _REWRITES]
            + [repr(linearize(term))])


class TestPurity:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(formulas(), int_terms(),
           st.lists(st.tuples(formulas(), int_terms()), min_size=1, max_size=4))
    def test_filled_tables_give_the_cold_result(self, formula, term, unrelated):
        memo.clear()
        cold = _rewrite_all(formula, term)
        memo.clear()
        for other_formula, other_term in unrelated:
            _rewrite_all(other_formula, other_term)
        assert _rewrite_all(formula, term) == cold
        assert _rewrite_all(formula, term) == cold


class TestErrorsAreNotStored:
    def test_non_linear_product_raises_every_time(self):
        x, y = v("x"), v("y")
        product = Mul(x, y)
        atom = Le(product, i(0))
        for _ in range(2):
            with pytest.raises(NonLinearError):
                linearize(product)
            with pytest.raises(NonLinearError):
                preprocess(atom)
        assert product not in memo.LINEARIZE
        assert atom not in memo.ATOMS

    def test_unlifted_ite_raises_every_time(self):
        term = Ite(v("p", BOOL), v("x"), i(1))
        atom = Le(term, i(0))
        for _ in range(2):
            with pytest.raises(ValueError, match="lifted"):
                linearize(term)
            with pytest.raises(ValueError, match="lifted"):
                normalize_atoms(atom)
        assert term not in memo.LINEARIZE
        assert atom not in memo.ATOMS

    def test_boolean_variable_in_arithmetic_raises_every_time(self):
        flag = Var("p", BOOL)
        for _ in range(2):
            with pytest.raises(NonLinearError):
                linearize(flag)
        assert flag not in memo.LINEARIZE

    @pytest.mark.parametrize("rewrite", [simplify, to_nnf, eliminate_bool_ite])
    def test_unknown_node_raises_every_time(self, rewrite):
        node = Implies(le(v("x"), i(0)), Expr())
        for _ in range(2):
            with pytest.raises(TypeError):
                rewrite(node)
        assert all(node not in table and (node, True) not in table
                   for table in memo.TABLES)


class TestLifetime:
    def test_tables_are_empty_after_a_compile(self):
        simplify(le(v("x"), i(0)))
        ExpressoPipeline().compile(ALL_BENCHMARKS["BoundedBuffer"].source)
        assert all(not table for table in memo.TABLES)

    def test_tables_are_empty_after_a_failed_compile(self):
        preprocess(le(v("x"), v("y")))
        assert any(memo.TABLES)
        with pytest.raises(MonitorParseError):
            ExpressoPipeline().compile("monitor {")
        assert all(not table for table in memo.TABLES)

    @pytest.mark.parametrize("index", range(len(memo.TABLES)))
    def test_a_full_table_is_cleared_not_grown(self, index):
        table = memo.TABLES[index]
        table.update((i(k), i(k)) for k in range(memo.LIMIT))
        memo.remember(table, v("x"), v("x"))
        assert table == {v("x"): v("x")}

    def test_a_full_simplify_table_is_cleared_by_simplify(self):
        memo.SIMPLIFY.update((i(k), i(k)) for k in range(memo.LIMIT))
        formula = le(v("x"), v("y"))
        assert simplify(formula) == formula
        assert len(memo.SIMPLIFY) == 1
        assert formula in memo.SIMPLIFY


def _implication_chain(depth):
    formula = le(v("x"), i(0))
    for k in range(1, depth + 1):
        formula = Implies(le(v("x"), i(k)), formula)
    return formula


class TestRecursionDepth:
    """Without the memo, ``simplify`` takes one frame per level of this chain
    and passes 990 levels with 1000 frames of headroom, ``preprocess`` 330.
    A memo wrapper around each rewrite would add a frame per level and halve
    the ``simplify`` depth."""

    @pytest.mark.parametrize("rewrite, depth", [(simplify, 800), (preprocess, 300)])
    def test_deep_formula_still_rewrites(self, rewrite, depth):
        formula = _implication_chain(depth)
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 1000)
        try:
            result = rewrite(formula)
        finally:
            sys.setrecursionlimit(saved)
        assert isinstance(result, Expr)

"""Cube-level quantifier elimination against the step-at-a-time reference.

``repro.smt.qe`` projects each DNF cube over every quantified integer
variable in one pass; ``qe_reference`` re-simplifies and re-expands the
formula after each variable, as the elimination used to.  The two must
return the identical ``Expr``, or raise the identical ``ValueError``, on
every input:

* hypothesis formulas with mixed int/bool variable sequences, at the real
  clause budget and at a tiny one that makes the budget overflow reachable;
* a hand-built formula one cube past the budget, and exactly at it;
* every ``eliminate_forall`` call made while compiling the registry
  programs (Dining Philosophers only when ``EXPRESSO_NIGHTLY=1``).

For unit-coefficient inputs the result is also checked against ``∃x.φ``
by enumeration.

``EXPRESSO_NIGHTLY=1`` raises the hypothesis example budgets.
"""

import os
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

import qe_reference
from test_property_based import formulas
from repro.analysis import abduction
from repro.benchmarks_lib.registry import ALL_BENCHMARKS
from repro.logic import BOOL, INT, add, evaluate, i, land, le, lnot, lor, v
from repro.logic import nnf
from repro.logic.free_vars import free_vars
from repro.logic.terms import Var
from repro.placement.pipeline import ExpressoPipeline
from repro.smt import qe

NIGHTLY = os.environ.get("EXPRESSO_NIGHTLY") == "1"
EXAMPLES = 3000 if NIGHTLY else 150

_VARIABLES = [Var(name, INT) for name in ("x", "y", "z")] + [Var(name, BOOL) for name in ("p", "q")]


def _outcome(eliminate, variables, formula, strict=False):
    try:
        return ("ok", eliminate(variables, formula, strict=strict))
    except ValueError as error:
        return ("error", type(error), str(error))


@contextmanager
def _clause_budget(limit):
    saved = nnf.MAX_DNF_CLAUSES
    nnf.MAX_DNF_CLAUSES = limit
    try:
        yield
    finally:
        nnf.MAX_DNF_CLAUSES = saved


def _assert_same(variables, formula):
    # Strict mode raises on the first non-unit coefficient it projects, so
    # it also shows which cubes each implementation still projects.
    for name in ("eliminate_exists", "eliminate_forall"):
        for strict in (False, True):
            expected = _outcome(getattr(qe_reference, name), variables, formula, strict)
            assert _outcome(getattr(qe, name), variables, formula, strict) == expected, \
                (name, strict)


variable_sequences = st.lists(st.sampled_from(_VARIABLES), min_size=1, max_size=5)


class TestAgainstReference:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(formulas(depth=3), variable_sequences)
    def test_identical_results(self, formula, variables):
        _assert_same(variables, formula)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(formulas(depth=3), variable_sequences, st.integers(min_value=1, max_value=4))
    def test_identical_results_under_a_tiny_clause_budget(self, formula, variables, limit):
        with _clause_budget(limit):
            _assert_same(variables, formula)

    def test_budget_overflow_at_the_expansion(self):
        x, y, p = v("x"), v("y"), v("p", BOOL)
        # (x <= 0 | y <= k) for k = 0..5, conjoined: 2^6 cubes.
        formula = land(*(lor(le(x, i(0)), le(y, i(k))) for k in range(6)))
        for variables in ([x], [x, y], [p, x], [v("z"), y, x]):
            with _clause_budget(64):
                assert _outcome(qe.eliminate_exists, variables, formula)[0] == "ok"
                _assert_same(variables, formula)
            with _clause_budget(63):
                expected = _outcome(qe_reference.eliminate_exists, variables, formula)
                assert expected == ("error", ValueError, "DNF expansion exceeded clause budget")
                _assert_same(variables, formula)


    @pytest.mark.parametrize("case", ["true-cube", "b-or-not-b", "b-and-not-b"])
    def test_normalisation_before_the_next_projection(self, case):
        # After x is projected, the cube list is TRUE, or the non-unit
        # coefficient of y sits only in cubes that normalisation removes, so
        # strict mode must not see it.
        x, y, z, p = v("x"), v("y"), v("z"), v("p", BOOL)
        nonunit = le(add(y, y), z)
        formula = {
            "true-cube": lor(le(x, i(0)), land(nonunit, le(x, z))),
            "b-or-not-b": lor(land(p, le(x, i(0))), land(lnot(p), le(x, i(1))),
                              land(nonunit, le(x, i(0)))),
            "b-and-not-b": land(lor(land(p, nonunit), le(x, i(0))), lnot(p)),
        }[case]
        assert _outcome(qe_reference.eliminate_exists, [x, y], formula, True)[0] == "ok"
        _assert_same([x, y], formula)

    def test_a_kept_expansion_does_not_outlive_a_budget_change(self):
        x, y = v("x"), v("y")
        formula = land(*(lor(le(x, i(0)), le(y, i(k))) for k in range(6)))
        with _clause_budget(64):
            qe.eliminate_exists([x], formula)
        with _clause_budget(63):
            with pytest.raises(ValueError, match="clause budget"):
                qe.eliminate_exists([x], formula)

    def test_a_failed_expansion_raises_again(self):
        x, y = v("x"), v("y")
        formula = land(*(lor(le(x, i(0)), le(y, i(k))) for k in range(6)))
        with _clause_budget(63):
            for _ in range(2):
                with pytest.raises(ValueError, match="clause budget"):
                    qe.eliminate_exists([x], formula)


class TestAgainstEnumeration:
    """``∃x.φ`` with a unit coefficient on ``x`` is exact over the integers."""

    @settings(max_examples=EXAMPLES // 3, deadline=None)
    @given(formulas(depth=2))
    def test_exists_matches_enumeration(self, formula):
        x = Var("x", INT)
        try:
            eliminated = qe.eliminate_exists([x], formula, strict=True)
        except qe.QuantifierEliminationError:
            assume(False)
        assert x not in free_vars(eliminated)
        # Every atom is at most 12|y| + 12|z| + 48 away from zero at a unit
        # coefficient on x, so with y, z in [-1, 1] a witness, if there is
        # one, lies in [-64, 64].
        for y_value in (-1, 0, 1):
            for z_value in (-1, 0, 1):
                for p_value in (False, True):
                    for q_value in (False, True):
                        env = {"y": y_value, "z": z_value, "p": p_value, "q": q_value}
                        witnessed = any(evaluate(formula, {**env, "x": value})
                                        for value in range(-64, 65))
                        assert evaluate(eliminated, {**env, "x": 0}) == witnessed, env


def _record_forall_calls(names):
    calls = []
    original = abduction.eliminate_forall

    def recording(variables, formula, **kwargs):
        calls.append((tuple(variables), formula))
        return original(variables, formula, **kwargs)

    abduction.eliminate_forall = recording
    try:
        for name in names:
            ExpressoPipeline(lint=False).compile(ALL_BENCHMARKS[name].source)
    finally:
        abduction.eliminate_forall = original
    return calls


_SUITE = [name for name in sorted(ALL_BENCHMARKS) if name != "Dining Philosophers"]


@pytest.mark.parametrize("names", [
    pytest.param(_SUITE, id="suite"),
    pytest.param(["Dining Philosophers"], id="dining-philosophers", marks=pytest.mark.skipif(
        not NIGHTLY, reason="about 30 s; runs when EXPRESSO_NIGHTLY=1")),
])
def test_suite_replay(names):
    calls = _record_forall_calls(names)
    assert calls
    for variables, formula in calls:
        expected = _outcome(qe_reference.eliminate_forall, variables, formula)
        assert _outcome(qe.eliminate_forall, variables, formula) == expected

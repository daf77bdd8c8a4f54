"""The LP layer's shortcuts answer exactly as the steps they replace.

* The post-solve check of an optimal answer, inlined in
  ``repro.geometry.linprog``, keeps or demotes exactly the answers scipy's
  ``_check_result`` does, and the success message it returns is scipy's.
* A :class:`~repro.geometry.linprog.ConstraintStack` keeps each row's norm
  bit for bit as ``np.linalg.norm(matrix, axis=1)`` computes it, and a
  probe builds the arrays a ``vstack``/``append`` built.
* The bound evaluators assemble a cell once per evaluation, and every bound
  LP over that system answers as the per-LP assembly does, value and point
  bytes alike.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.bounds as bounds_module
import repro.geometry.linprog as linprog_module
import test_differential_kspr as grid
import test_geometry_linprog as corpus_module
from repro import kspr
from repro.data import independent_dataset
from repro.geometry.halfspace import Halfspace, Hyperplane
from repro.geometry.linprog import ConstraintStack
from repro.robust import LINPROG_CHECK_TOL

requires_highs_binding = pytest.mark.skipif(
    not linprog_module._HAVE_HIGHS,
    reason=f"scipy {scipy.__version__} lacks the HiGHS binding (scipy.optimize._highspy._core._Highs)",
)


# --------------------------------------------------------------------------- #
# the inline post-check
# --------------------------------------------------------------------------- #
BOX = np.array([[-1.0, 2.0], [-1.0, 2.0], [0.0, 1.0]])
X = np.array([0.25, 0.5, 0.125])
SLACK = np.array([0.5, 0.0, 0.75, 1.5])


def _check_cases() -> dict[str, tuple]:
    """Named ``(x, fun, slack)`` answers: NaNs, and every edge of the tolerance ± 1 ulp."""
    bound = linprog_module._CHECK_BOUND
    cases: dict[str, tuple] = {"inside": (X, -0.125, SLACK)}
    for name, position in (("x", 1), ("slack", 2)):
        values = (X if name == "x" else SLACK).copy()
        values[position] = np.nan
        cases[f"nan-{name}"] = (values, -0.125, SLACK) if name == "x" else (X, -0.125, values)
    cases["nan-fun"] = (X, math.nan, SLACK)
    for column, (low, high) in enumerate(BOX):
        for side, edge in (("low", low - bound), ("high", high + bound)):
            for step, value in (("-ulp", np.nextafter(edge, -np.inf)), ("", edge), ("+ulp", np.nextafter(edge, np.inf))):
                x = X.copy()
                x[column] = value
                cases[f"x{column}-{side}{step}"] = (x, -0.125, SLACK)
    for step, value in (("-ulp", np.nextafter(-bound, -np.inf)), ("", -bound), ("+ulp", np.nextafter(-bound, np.inf))):
        slack = SLACK.copy()
        slack[1] = value
        cases[f"slack-edge{step}"] = (X, -0.125, slack)
    return cases


CHECK_CASES = _check_cases()


def _scipy_status(x, fun, slack) -> int:
    status, _ = linprog_module._check_result(
        x, fun, 0, slack, np.zeros(0), BOX, LINPROG_CHECK_TOL, "", None
    )
    return status


@requires_highs_binding
class TestInlinePostCheck:
    def test_bound_is_derived_from_the_check_tolerance(self):
        assert linprog_module._CHECK_BOUND == np.sqrt(LINPROG_CHECK_TOL) * 10

    @pytest.mark.parametrize("name", sorted(CHECK_CASES))
    def test_same_verdict_as_check_result(self, name):
        x, fun, slack = CHECK_CASES[name]
        kept = linprog_module._passes_check(x, fun, slack, BOX)
        assert (0 if kept else 4) == _scipy_status(x, fun, slack)

    def test_cases_reach_both_verdicts_at_every_edge(self):
        verdicts = {name: linprog_module._passes_check(*CHECK_CASES[name][:3], BOX) for name in CHECK_CASES}
        assert verdicts["inside"] and not verdicts["nan-x"] and not verdicts["nan-fun"]
        assert not verdicts["nan-slack"]
        assert verdicts["slack-edge"] and not verdicts["slack-edge-ulp"]
        for column in range(len(BOX)):
            assert verdicts[f"x{column}-low"] and not verdicts[f"x{column}-low-ulp"]
            assert verdicts[f"x{column}-high"] and not verdicts[f"x{column}-high+ulp"]

    def test_scipy_path_answers_as_the_inline_one(self, monkeypatch):
        """With the inline check refusing every answer, scipy's helpers decide
        instead; they return the same status, message and bits, so the
        message computed once at import is scipy's own."""
        lps = corpus_module._lp_corpus()[:400]

        def solve_all():
            answers = []
            for c, a_ub, b_ub, box in lps:
                outcome = linprog_module.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=box, method="highs")
                answers.append((*corpus_module._answer(outcome), outcome.message, outcome.success))
            return answers

        inline = solve_all()
        monkeypatch.setattr(linprog_module, "_passes_check", lambda *args: False)
        assert solve_all() == inline
        assert any(status == 0 for status, *_ in inline)


# --------------------------------------------------------------------------- #
# the constraint stack's kept norms and probes
# --------------------------------------------------------------------------- #
_coefficient = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1e-300, 3.0e-12, 1.0 / 3.0]),
)


@st.composite
def _pushes(draw):
    dimensionality = draw(st.integers(min_value=1, max_value=6))
    halfspace = st.builds(
        lambda coefficients, offset, sign: Halfspace(Hyperplane(np.array(coefficients), offset), sign),
        st.lists(_coefficient, min_size=dimensionality, max_size=dimensionality),
        _coefficient,
        st.sampled_from(["+", "-"]),
    )
    space = draw(st.booleans())
    return dimensionality, space, draw(st.lists(halfspace, max_size=10)), draw(halfspace)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_pushes())
def test_stack_norms_and_probes_are_bit_identical(case):
    dimensionality, space, pushes, probed = case
    stack = ConstraintStack.for_space(dimensionality, include_space_bounds=space)
    for halfspace in pushes:
        stack = stack.push(halfspace)
        assert stack.norms.tobytes() == np.linalg.norm(stack.matrix, axis=1).tobytes()
    matrix, rhs = stack.probe(probed)
    coefficients, bound = probed.as_leq_constraint()
    old_matrix = np.vstack([stack.matrix, coefficients[None, :]])
    old_rhs = np.append(stack.rhs, bound)
    assert (matrix.shape, matrix.dtype, rhs.shape, rhs.dtype) == (old_matrix.shape, old_matrix.dtype, old_rhs.shape, old_rhs.dtype)
    assert matrix.tobytes() == old_matrix.tobytes()
    assert rhs.tobytes() == old_rhs.tobytes()


def test_stack_memory_counts_the_kept_norms():
    stack = ConstraintStack.for_space(3)
    assert stack.memory_bytes() == stack.matrix.nbytes + stack.rhs.nbytes + 8 * stack.rows


# --------------------------------------------------------------------------- #
# one assembly per bound evaluation
# --------------------------------------------------------------------------- #
EVALUATORS = (bounds_module.TransformedBoundEvaluator, bounds_module.OriginalSpaceBoundEvaluator)


def _record_bound_lps(monkeypatch) -> tuple[list, list]:
    """Record every bound LP with its cell's halfspaces, and ``_assemble`` calls per evaluation."""
    lps: list = []
    assemblies: list = []
    current: list = []
    assemble = linprog_module._assemble

    def counting_assemble(*args, **kwargs):
        if current:
            assemblies[-1] += 1
        return assemble(*args, **kwargs)

    def recording(solve):
        def wrapper(objective, system, dimensionality, counters=None):
            outcome = solve(objective, system, dimensionality, counters)
            lps.append((solve, np.array(objective, dtype=float), system, current[-1], dimensionality, outcome))
            return outcome

        return wrapper

    for evaluator in EVALUATORS:
        def evaluate(self, cell, k, _original=evaluator.evaluate):
            current.append(cell.bounding_halfspaces)
            assemblies.append(0)
            try:
                return _original(self, cell, k)
            finally:
                current.pop()

        monkeypatch.setattr(evaluator, "evaluate", evaluate)
    monkeypatch.setattr(linprog_module, "_assemble", counting_assemble)
    monkeypatch.setattr(bounds_module, "minimize_linear", recording(linprog_module.minimize_linear))
    monkeypatch.setattr(bounds_module, "maximize_linear", recording(linprog_module.maximize_linear))
    return lps, assemblies


def _check_bound_lps(monkeypatch, dataset, focal, k, method) -> tuple[int, int]:
    """Run one query; returns (evaluations, bound LPs) after checking both identities."""
    lps, assemblies = _record_bound_lps(monkeypatch)
    result = kspr(dataset, focal, k, method=method)
    assert all(count == 1 for count in assemblies), assemblies
    assert len(lps) == result.stats.lp.optimize_calls
    for solve, objective, system, halfspaces, dimensionality, outcome in lps:
        assert isinstance(system, ConstraintStack)
        expected = solve(objective, halfspaces, dimensionality)
        assert float(outcome.value).hex() == float(expected.value).hex()
        assert outcome.point.tobytes() == expected.point.tobytes()
    return len(assemblies), len(lps)


@pytest.mark.parametrize("method", ["lpcta", "olp-cta"])
@pytest.mark.parametrize("case", grid._cases(), ids=lambda value: str(value))
def test_bound_lps_over_the_assembled_cell_match_per_lp_assembly(monkeypatch, method, case):
    n, d, k, distribution, seed = case
    dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
    _check_bound_lps(monkeypatch, dataset, focal, k, method)


@pytest.mark.parametrize("method", ["lpcta", "olp-cta"])
def test_one_assembly_serves_many_bound_lps(monkeypatch, method):
    """On a skyline focal every evaluation solves many LPs over one assembly."""
    dataset = independent_dataset(150, 3, seed=7)
    focal = dataset.values[dataset.values.sum(axis=1).argmax()]
    evaluations, lps = _check_bound_lps(monkeypatch, dataset, focal, 2, method)
    assert evaluations > 0 and lps > 4 * evaluations

"""The LP layer's shortcuts answer exactly as the steps they replace.

* The post-solve check of an optimal answer, inlined in
  ``repro.geometry.linprog``, keeps or demotes exactly the answers scipy's
  ``_check_result`` does, and the success message it returns is scipy's.
* A :class:`~repro.geometry.linprog.ConstraintStack` keeps each row's norm
  bit for bit as ``np.linalg.norm(matrix, axis=1)`` computes it, a probe's
  push builds the arrays a ``vstack``/``append`` built, and a CellTree
  cell's rows rotated edges first are the per-LP assembly's, norms included.
* The bound evaluators assemble nothing: every bound LP solves over the
  cell's own rows and answers as the per-LP assembly does, value and point
  bytes alike.
* Bound LPs skip HiGHS's presolve; feasibility LPs keep it.  With every
  bound LP forced back through presolve, each evaluation's prune/report
  decision and each query's answer, LP counts and bound counts are the same.
"""

from __future__ import annotations

import functools
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
import test_robustness_fuzz as fuzz
from repro import Dataset, kspr, lpcta
from repro.core.celltree import Cell, CellTree
from repro.data import independent_dataset
from repro.geometry.halfspace import Halfspace, Hyperplane
from repro.core.original_space import olp_cta
from repro.geometry.linprog import ConstraintStack
from repro.robust import LINPROG_CHECK_TOL, resolve_tolerance

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
                answers.append((*corpus_module._answer(outcome), outcome.success))
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
    stack = (
        ConstraintStack.for_space(dimensionality)
        if space
        else ConstraintStack(np.zeros((0, dimensionality)), np.zeros(0))
    )
    for halfspace in pushes:
        stack = stack.push(halfspace)
        assert stack.norms.tobytes() == np.linalg.norm(stack.matrix, axis=1).tobytes()
    grown = stack.push(probed)
    matrix, rhs = grown.matrix, grown.rhs
    coefficients, bound = probed.as_leq_constraint()
    old_matrix = np.vstack([stack.matrix, coefficients[None, :]])
    old_rhs = np.append(stack.rhs, bound)
    assert (matrix.shape, matrix.dtype, rhs.shape, rhs.dtype) == (old_matrix.shape, old_matrix.dtype, old_rhs.shape, old_rhs.dtype)
    assert matrix.tobytes() == old_matrix.tobytes()
    assert rhs.tobytes() == old_rhs.tobytes()
    if space:
        # The bound evaluators' system: the cell's rows with the edges first.
        rotated = Cell(stack, np.empty((0, dimensionality))).edges_first()
        assembled, assembled_rhs = linprog_module._assemble(pushes, dimensionality)
        assert rotated.matrix.tobytes() == assembled.tobytes()
        assert rotated.rhs.tobytes() == assembled_rhs.tobytes()
        assert rotated.norms.tobytes() == np.linalg.norm(assembled, axis=1).tobytes()


def test_stack_memory_counts_the_kept_norms():
    stack = ConstraintStack.for_space(3)
    assert stack.memory_bytes() == stack.matrix.nbytes + stack.rhs.nbytes + 8 * stack.rows


# --------------------------------------------------------------------------- #
# no assembly per bound evaluation
# --------------------------------------------------------------------------- #
EVALUATORS = (bounds_module.TransformedBoundEvaluator, bounds_module.OriginalSpaceBoundEvaluator)


def _record_bound_lps(monkeypatch) -> tuple[list, list]:
    """Record every bound LP with its cell's halfspaces, and ``_assemble`` calls per evaluation."""
    lps: list = []
    assemblies: list = []
    current: list = []
    leaves: dict[int, tuple] = {}
    assemble = linprog_module._assemble
    iter_active_leaves = CellTree.iter_active_leaves

    def counting_assemble(*args, **kwargs):
        if current:
            assemblies[-1] += 1
        return assemble(*args, **kwargs)

    def listing(tree):
        # The driver lists the active leaves right before it evaluates their
        # cells; the map leads each evaluated cell back to its root path.
        for leaf in iter_active_leaves(tree):
            leaves[id(leaf.cell)] = (leaf.cell, leaf)
            yield leaf

    def recording(solve):
        def wrapper(objective, system, dimensionality, counters=None):
            outcome = solve(objective, system, dimensionality, counters)
            lps.append((solve, np.array(objective, dtype=float), system, current[-1], dimensionality, outcome))
            return outcome

        return wrapper

    for evaluator in EVALUATORS:
        def evaluate(self, cell, k, _original=evaluator.evaluate):
            listed, leaf = leaves[id(cell)]
            assert listed is cell
            current.append(tuple(leaf.path_halfspaces()))
            assemblies.append(0)
            try:
                return _original(self, cell, k)
            finally:
                current.pop()

        monkeypatch.setattr(evaluator, "evaluate", evaluate)
    monkeypatch.setattr(CellTree, "iter_active_leaves", listing)
    monkeypatch.setattr(linprog_module, "_assemble", counting_assemble)
    monkeypatch.setattr(bounds_module, "minimize_linear", recording(linprog_module.minimize_linear))
    monkeypatch.setattr(bounds_module, "maximize_linear", recording(linprog_module.maximize_linear))
    return lps, assemblies


def _check_bound_lps(monkeypatch, dataset, focal, k, method) -> tuple[int, int]:
    """Run one query; returns (evaluations, bound LPs) after checking both identities."""
    lps, assemblies = _record_bound_lps(monkeypatch)
    result = kspr(dataset, focal, k, method=method)
    assert all(count == 0 for count in assemblies), assemblies
    assert len(lps) == result.stats.lp.optimize_calls
    for solve, objective, system, halfspaces, dimensionality, outcome in lps:
        assert isinstance(system, ConstraintStack)
        expected = solve(objective, halfspaces, dimensionality)
        assert float(outcome.value).hex() == float(expected.value).hex()
        assert outcome.point.tobytes() == expected.point.tobytes()
    return len(assemblies), len(lps)


@pytest.mark.parametrize("method", ["lpcta", "olp-cta"])
@pytest.mark.parametrize("case", grid._cases(), ids=lambda value: str(value))
def test_bound_lps_over_the_cells_rows_match_per_lp_assembly(monkeypatch, method, case):
    n, d, k, distribution, seed = case
    dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
    _check_bound_lps(monkeypatch, dataset, focal, k, method)


@pytest.mark.parametrize("method", ["lpcta", "olp-cta"])
def test_the_cells_rows_serve_many_bound_lps(monkeypatch, method):
    """On a skyline focal every evaluation solves many LPs over the cell's rows."""
    dataset = independent_dataset(150, 3, seed=7)
    focal = dataset.values[dataset.values.sum(axis=1).argmax()]
    evaluations, lps = _check_bound_lps(monkeypatch, dataset, focal, 2, method)
    assert evaluations > 0 and lps > 4 * evaluations


# --------------------------------------------------------------------------- #
# bound LPs without presolve
# --------------------------------------------------------------------------- #
#: Every query that solves bound LPs: LP-CTA in each bounds mode, and OLP-CTA.
BOUND_METHODS = {
    **{f"lpcta-{mode}": functools.partial(lpcta, bounds_mode=mode) for mode in ("record", "group", "fast")},
    "olp-cta": olp_cta,
}


def _presolve_cases() -> list[tuple]:
    """The tier-1 grid and the fuzz corpus (policies included), unscaled."""
    return [("grid", case) for case in grid._cases()] + [("fuzz", case) for case in fuzz._cases()]


def _presolve_case(source: str, case: tuple):
    """``(dataset, focal, k, tolerance)`` for one case of :func:`_presolve_cases`."""
    if source == "grid":
        n, d, k, distribution, seed = case
        dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
        return dataset, focal, k, None
    kind, n, d, k, policy_name, seed = case
    dataset, focal, _ = fuzz._build_case(kind, n, d, seed)
    return Dataset(dataset.values), focal, k, resolve_tolerance(fuzz.POLICIES[policy_name])


def _answer_bits(result) -> tuple:
    """Regions (rank, halfspace ids and signs, witness bytes), impact, LP counts, bound decisions."""
    stats = result.stats
    regions = tuple(
        (
            region.rank,
            tuple((halfspace.record_id, halfspace.sign) for halfspace in region.halfspaces),
            None if region.witness is None else region.witness.tobytes(),
        )
        for region in result.regions
    )
    lp = (stats.lp.feasibility_calls, stats.lp.optimize_calls, stats.lp.total_constraints)
    return regions, float(result.impact_probability()).hex(), lp, stats.cells_pruned_by_bounds, stats.cells_reported_early


def _bound_run(query, force_presolve: bool) -> tuple:
    """One query's answer bits, every evaluation's ``(k, bounds, values of its
    bound LPs)``, every bound LP's value, and the presolve setting of every LP
    solved."""
    evaluations: list = []
    values: list = []
    presolved: list = []
    linprog = linprog_module.linprog

    def solve(*args, options=None, **kwargs):
        presolve = force_presolve or linprog_module._presolve(options)
        presolved.append(presolve)
        return linprog(*args, options=None if presolve else options, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linprog_module, "linprog", solve)
        for evaluator in EVALUATORS:
            def evaluate(self, cell, k, _original=evaluator.evaluate):
                first = len(values)
                bounds = _original(self, cell, k)
                evaluations.append((k, bounds, values[first:]))
                return bounds

            patch.setattr(evaluator, "evaluate", evaluate)
        for name in ("minimize_linear", "maximize_linear"):
            def bound(*args, _original=getattr(bounds_module, name)):
                outcome = _original(*args)
                values.append(outcome.value)
                return outcome

            patch.setattr(bounds_module, name, bound)
        result = query()
    return _answer_bits(result), evaluations, values, presolved


def _decision(k: int, bounds) -> tuple:
    """What :mod:`repro.core.progressive` reads of a cell's bounds at the
    ``k`` it passed: prune, report at rank ``upper``, or insert on."""
    if bounds.lower > k:
        return ("prune",)
    return ("report", bounds.upper) if bounds.upper <= k else ("insert",)


#: How far a bound LP's value may move with presolve and still count as the
#: same value: rounding at unit scale (the grid's values move by at most
#: about 1.5e-15).
ROUNDING = 1e-12


def _same_values(values: list, others: list) -> bool:
    return len(values) == len(others) and all(abs(a - b) <= ROUNDING for a, b in zip(values, others))


@requires_highs_binding
@pytest.mark.parametrize("source,case", _presolve_cases(), ids=lambda value: str(value))
def test_rank_bounds_do_not_depend_on_presolve(record_property, source, case):
    """Bound LPs solved without presolve, and then with it, give the same
    answer bits and the same decision at every evaluation, and the same
    ``RankBounds`` at every evaluation whose LP values agree up to rounding.

    A bound value may move: by a few ulps on the grid, and by up to about
    1e-6 on the collinear fuzz cases, whose near-degenerate cells leave
    HiGHS's optimum only as exact as its 1e-7 primal feasibility tolerance.
    Where such a value straddles a tolerance margin far below that, a rank
    bound moves with it (a near-tie counted as a potential beat or not); the
    moved values and bounds are counted as properties of the test.
    """
    dataset, focal, k, tolerance = _presolve_case(source, case)
    values_moved = bounds_moved = solved = evaluated = 0
    for name, method in BOUND_METHODS.items():
        query = functools.partial(method, dataset, focal, k, tolerance=tolerance)
        answer, evaluations, values, presolved = _bound_run(query, force_presolve=False)
        assert presolved.count(False) == len(values) == answer[2][1], name
        forced_answer, forced_evaluations, _, forced_presolved = _bound_run(query, force_presolve=True)
        assert all(forced_presolved) and len(forced_presolved) == len(presolved), name
        assert forced_answer == answer, name
        assert len(forced_evaluations) == len(evaluations), name
        for (passed, bounds, lp_values), (forced_passed, forced_bounds, forced_lp_values) in zip(
            evaluations, forced_evaluations
        ):
            assert forced_passed == passed and _decision(passed, forced_bounds) == _decision(passed, bounds), name
            if _same_values(lp_values, forced_lp_values):
                assert forced_bounds == bounds, name
            bounds_moved += forced_bounds != bounds
            values_moved += sum(a.hex() != b.hex() for a, b in zip(lp_values, forced_lp_values))
        solved += len(values)
        evaluated += len(evaluations)
    record_property("bound_values_moved", f"{values_moved}/{solved}")
    record_property("rank_bounds_moved", f"{bounds_moved}/{evaluated}")

"""Unit tests for the LP substrate (feasibility, optimisation, counters)."""

from __future__ import annotations

import multiprocessing
import os
import random
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog as stock_linprog

import repro.geometry.linprog as linprog_module
from repro import kspr
from repro.data import independent_dataset
from repro.geometry.halfspace import Halfspace, Hyperplane
from repro.geometry.linprog import (
    LPCounters,
    cell_feasible,
    maximize_linear,
    minimize_linear,
    preference_space_constraints,
)


def _axis_halfspace(axis: int, dimensionality: int, threshold: float, sign: str) -> Halfspace:
    coefficients = np.zeros(dimensionality)
    coefficients[axis] = 1.0
    return Halfspace(Hyperplane(coefficients, threshold), sign)


class TestPreferenceSpaceConstraints:
    def test_constraint_count(self):
        constraints = preference_space_constraints(3)
        assert len(constraints) == 4  # one per axis plus the sum constraint

    def test_simplex_centroid_satisfies_all(self):
        dimensionality = 3
        point = np.full(dimensionality, 1.0 / (dimensionality + 1))
        for coefficients, bound in preference_space_constraints(dimensionality):
            assert float(coefficients @ point) <= bound + 1e-12


class TestCellFeasible:
    def test_whole_space_is_feasible(self):
        outcome = cell_feasible([], 2)
        assert outcome.feasible
        assert outcome.witness is not None
        assert np.all(outcome.witness > 0)
        assert outcome.witness.sum() < 1
        assert outcome.margin > 0.1

    def test_empty_intersection_detected(self):
        above = _axis_halfspace(0, 2, 0.7, "+")
        below = _axis_halfspace(0, 2, 0.3, "-")
        outcome = cell_feasible([above, below], 2)
        assert not outcome.feasible

    def test_zero_width_slab_is_infeasible(self):
        """Open halfspaces sharing a boundary have empty interior."""
        above = _axis_halfspace(0, 2, 0.5, "+")
        below = _axis_halfspace(0, 2, 0.5, "-")
        assert not cell_feasible([above, below], 2).feasible

    def test_witness_lies_inside_all_halfspaces(self):
        halfspaces = [
            _axis_halfspace(0, 2, 0.2, "+"),
            _axis_halfspace(1, 2, 0.4, "-"),
        ]
        outcome = cell_feasible(halfspaces, 2)
        assert outcome.feasible
        for halfspace in halfspaces:
            assert halfspace.contains(outcome.witness)

    def test_outside_preference_space_is_infeasible(self):
        # w_0 > 0.6 and w_1 > 0.6 cannot both hold inside the simplex.
        halfspaces = [
            _axis_halfspace(0, 2, 0.6, "+"),
            _axis_halfspace(1, 2, 0.6, "+"),
        ]
        assert not cell_feasible(halfspaces, 2).feasible

    def test_counters_record_calls_and_constraints(self):
        counters = LPCounters()
        cell_feasible([_axis_halfspace(0, 2, 0.5, "+")], 2, counters=counters)
        assert counters.feasibility_calls == 1
        assert counters.optimize_calls == 0
        assert counters.total_constraints == 1 + 3  # one halfspace + space bounds
        assert counters.total_calls == 1

    def test_counters_merge(self):
        first, second = LPCounters(1, 2, 3), LPCounters(4, 5, 6)
        first.merge(second)
        assert (first.feasibility_calls, first.optimize_calls, first.total_constraints) == (5, 7, 9)


class TestOptimize:
    def test_minimize_and_maximize_on_simplex(self):
        objective = np.array([1.0, 0.0])
        low = minimize_linear(objective, [], 2)
        high = maximize_linear(objective, [], 2)
        assert low.value == pytest.approx(0.0, abs=1e-8)
        assert high.value == pytest.approx(1.0, abs=1e-8)

    def test_constrained_maximum(self):
        below = _axis_halfspace(0, 2, 0.25, "-")
        outcome = maximize_linear(np.array([1.0, 0.0]), [below], 2)
        assert outcome.value == pytest.approx(0.25, abs=1e-8)

    def test_optimize_counter(self):
        counters = LPCounters()
        minimize_linear(np.array([1.0, 1.0]), [], 2, counters=counters)
        assert counters.optimize_calls == 1
        assert counters.feasibility_calls == 0


# --------------------------------------------------------------------------- #
# The reused-HiGHS backend against stock scipy.optimize.linprog
# --------------------------------------------------------------------------- #
requires_highs_binding = pytest.mark.skipif(
    not linprog_module._HAVE_HIGHS,
    reason=f"scipy {scipy.__version__} lacks the HiGHS binding (scipy.optimize._highspy._core._Highs)",
)

CORPUS_SIZE = 2400


def _lp_corpus(seed: int = 20170514) -> list[tuple]:
    """Seeded ``(c, A_ub, b_ub, bounds)`` LPs of the two shapes the kernel emits.

    Even entries are feasibility LPs: halfspace rows plus the preference-space
    rows, a slack column scaled by the row norms and bounded by ``(0, 1)``,
    maximise the slack.  Odd entries are optimise LPs over ``(-1, 2)`` boxes,
    with rows (some with the space rows too) or with none.  About 20% of the
    random coefficients are exact zeros, and the preference-space rows carry
    more, so the dropped structural zeros are exercised.
    """
    rng = np.random.default_rng(seed)
    corpus = []
    for index in range(CORPUS_SIZE):
        dimensionality = int(rng.integers(2, 6))
        rows = int(rng.integers(0, 41))
        matrix = rng.normal(size=(rows, dimensionality))
        matrix[rng.random(matrix.shape) < 0.2] = 0.0
        rhs = rng.normal(loc=0.4, scale=0.6, size=rows)
        box = [(-1.0, 2.0)] * dimensionality
        if index % 2 == 0 or rng.random() < 0.3:
            space = np.vstack([-np.eye(dimensionality), np.ones((1, dimensionality))])
            matrix = np.vstack([matrix, space])
            rhs = np.concatenate([rhs, np.zeros(dimensionality), [1.0]])
        if index % 2 == 0:
            norms = np.linalg.norm(matrix, axis=1)
            norms[norms == 0.0] = 1.0
            objective = np.zeros(dimensionality + 1)
            objective[-1] = -1.0
            corpus.append((objective, np.hstack([matrix, norms[:, None]]), rhs, box + [(0.0, 1.0)]))
        elif matrix.shape[0] == 0:
            corpus.append((rng.normal(size=dimensionality), None, None, box))
        else:
            corpus.append((rng.normal(size=dimensionality), matrix, rhs, box))
    return corpus


#: The ``options`` the kernel passes: none (feasibility LPs) and the bound LPs'.
OPTIONS = {"default": None, "no-presolve": {"presolve": False}}


def _answer(outcome) -> tuple:
    """The bits of a result the kernel reads (status, ``x``, ``fun``) and its message."""
    x = None if outcome.x is None else outcome.x.tobytes()
    fun = None if outcome.fun is None else float(outcome.fun).hex()
    return outcome.status, x, fun, outcome.message


def _solve_all(solve, lps, options=None) -> list[tuple]:
    return [
        _answer(solve(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs", options=options))
        for c, a_ub, b_ub, bounds in lps
    ]


@pytest.fixture(scope="module")
def lp_corpus() -> list[tuple]:
    return _lp_corpus()


@pytest.fixture(scope="module")
def stock_answers(lp_corpus) -> dict[str, list[tuple]]:
    """Stock ``linprog``'s answers to the corpus under each of :data:`OPTIONS`."""
    return {name: _solve_all(stock_linprog, lp_corpus, options) for name, options in OPTIONS.items()}


def _interleaved(lps) -> dict[str, list[tuple]]:
    """Each LP solved under every :data:`OPTIONS` entry in turn, call by call."""
    answers: dict[str, list[tuple]] = {name: [] for name in OPTIONS}
    for lp in lps:
        for name, options in OPTIONS.items():
            answers[name] += _solve_all(linprog_module.linprog, [lp], options)
    return answers


def _slots() -> list[tuple]:
    """This thread's ``(pid, instance)`` per presolve setting."""
    return [getattr(linprog_module._THREAD, slot) for slot in linprog_module._SLOT.values()]


def _solve_in_forked_child(lps) -> tuple:
    inherited = _slots()
    answers = _interleaved(lps)
    own = _slots()
    return (
        answers,
        {pid for pid, _ in inherited},
        {pid for pid, _ in own},
        os.getpid(),
        all(mine is not theirs for (_, mine), (_, theirs) in zip(own, inherited)),
    )


@requires_highs_binding
class TestReusedHighsBackend:
    def test_corpus_is_mostly_infeasible_with_many_optima(self, stock_answers):
        for answers in stock_answers.values():
            statuses = [status for status, *_ in answers]
            assert statuses.count(2) > len(statuses) // 2
            assert statuses.count(0) > len(statuses) // 10
            assert set(statuses) == {0, 2}

    def test_presolve_moves_stock_answers(self, stock_answers):
        """The two settings are different LP paths, so identity under each is
        a claim of its own: some answers differ in their bits or message."""
        assert stock_answers["default"] != stock_answers["no-presolve"]

    def test_identical_to_stock_in_order(self, lp_corpus, stock_answers):
        for name, options in OPTIONS.items():
            assert _solve_all(linprog_module.linprog, lp_corpus, options) == stock_answers[name], name

    def test_identical_to_stock_shuffled(self, lp_corpus, stock_answers):
        """No answer depends on which LPs the instance solved before."""
        order = list(range(len(lp_corpus)))
        random.Random(7).shuffle(order)
        for name, options in OPTIONS.items():
            answers = _solve_all(linprog_module.linprog, [lp_corpus[i] for i in order], options)
            assert answers == [stock_answers[name][i] for i in order], name

    def test_identical_to_stock_interleaved_on_one_thread(self, lp_corpus, stock_answers):
        """Calls with and without presolve alternate on one thread; each
        answers as stock does under its own options."""
        assert _interleaved(lp_corpus) == stock_answers
        instances = [linprog_module._thread_highs(presolve) for presolve in (True, False)]
        assert instances[0] is not instances[1]

    def test_identical_to_stock_from_four_threads(self, lp_corpus, stock_answers):
        """Four threads solve at once, each on its own instances, with and
        without presolve call by call."""
        workers = 4
        barrier = threading.Barrier(workers, timeout=60)
        answers: list = [None] * workers
        instances: list = [None] * workers

        def work(slot: int) -> None:
            try:
                barrier.wait()
                instances[slot] = [linprog_module._thread_highs(presolve) for presolve in (True, False)]
                answers[slot] = _interleaved(lp_corpus[slot::workers])
            except BaseException as error:  # surfaced by the assertion below
                answers[slot] = error

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for slot in range(workers):
            assert answers[slot] == {name: stock[slot::workers] for name, stock in stock_answers.items()}
        assert len({id(instance) for pair in instances for instance in pair}) == 2 * workers

    def test_identical_to_stock_in_forked_child(self, lp_corpus, stock_answers):
        """A forked child drops both instances it inherited and builds its own."""
        half = len(lp_corpus) // 2
        assert _interleaved(lp_corpus[:1]) == {name: stock[:1] for name, stock in stock_answers.items()}
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            answers, inherited_pids, own_pids, child_pid, rebuilt = pool.submit(
                _solve_in_forked_child, lp_corpus[half:]
            ).result(timeout=300)
        assert inherited_pids == {os.getpid()}
        assert own_pids == {child_pid} != {os.getpid()}
        assert rebuilt
        assert answers == {name: stock[half:] for name, stock in stock_answers.items()}


@pytest.mark.parametrize("argument", ["c", "A_ub", "b_ub"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_like_stock(argument, value):
    problem = {
        "c": np.array([1.0, -1.0]),
        "A_ub": np.array([[1.0, 1.0], [-1.0, 0.0]]),
        "b_ub": np.array([1.0, 0.0]),
        "bounds": [(-1.0, 2.0)] * 2,
    }
    problem[argument] = problem[argument].copy()
    problem[argument].flat[0] = value
    with pytest.raises(ValueError) as stock:
        stock_linprog(**problem, method="highs")
    with pytest.raises(ValueError) as ours:
        linprog_module.linprog(**problem, method="highs")
    assert str(ours.value) == str(stock.value)


@pytest.mark.parametrize(
    "options",
    [{"tol": 1e-9}, {"presolve": False, "disp": False}, {"presolve": "off"}, {"presolve": 0}],
    ids=["other-key", "presolve-and-other-key", "presolve-string", "presolve-int"],
)
@pytest.mark.parametrize("backend", ["reused", "stock"])
def test_options_other_than_a_presolve_flag_raise(options, backend):
    """Stock ``linprog`` would hand such options to HiGHS or drop them with a
    warning; here they raise before any solve."""
    solve = linprog_module._highs_linprog if backend == "reused" else linprog_module._stock_linprog
    if backend == "reused" and not linprog_module._HAVE_HIGHS:
        pytest.skip("scipy lacks the HiGHS binding")
    with pytest.raises(ValueError, match="presolve"):
        solve([1.0, -1.0], bounds=[(-1.0, 2.0)] * 2, method="highs", options=options)


@pytest.mark.parametrize(
    "a_ub,b_ub",
    [(np.ones((2, 2)), np.ones(3)), (np.ones((2, 3)), np.ones(2)), (np.ones(2), np.ones(1))],
    ids=["rows", "columns", "one-dimensional"],
)
def test_mismatched_shapes_raise_like_stock(a_ub, b_ub):
    problem = {"c": [1.0, -1.0], "A_ub": a_ub, "b_ub": b_ub, "bounds": [(-1.0, 2.0)] * 2}
    with pytest.raises(ValueError):
        stock_linprog(**problem, method="highs")
    with pytest.raises(ValueError):
        linprog_module.linprog(**problem, method="highs")


@pytest.mark.parametrize("method", ["cta", "pcta", "lpcta", "op-cta", "olp-cta"])
def test_every_solve_goes_through_the_module_linprog(monkeypatch, method):
    """Solver calls equal the reported LP calls (the paper's Figs. 16–17 counts).

    Tracing times the solver by wrapping this same name, so a solve that
    bypassed it would go untimed as well as uncounted.
    """
    solve = linprog_module.linprog
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(linprog_module, "linprog", counting)
    dataset = independent_dataset(150, 3, seed=7)
    focal = dataset.values[dataset.values.sum(axis=1).argmax()]  # a skyline record
    result = kspr(dataset, focal, 2, method=method)
    assert result.stats.lp.total_calls > 0
    assert len(calls) == result.stats.lp.total_calls

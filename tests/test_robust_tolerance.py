"""Tests for the unified numerical-tolerance policy (``repro.robust``).

Covers four contracts:

* the :class:`~repro.robust.Tolerance` helpers themselves (scale-aware side
  classification, feasibility margins, derived policies);
* the **consistency invariant**: a witness point returned by the feasibility
  LP satisfies the side test *strictly* for every constraint that produced
  it, and region witnesses re-validate against the transformed-space bounds —
  checked across 20 seeded ``n/d/k`` configurations;
* canonical input validation (clear ``InvalidQueryError`` messages, the
  ``d >= 7`` warning, the defined behaviour of degenerate-but-legal inputs);
* the machine-checked enforcement (the ``TOL001`` linter rule) that **no
  tolerance literal is hard-coded anywhere in ``repro`` outside
  ``repro.robust``**.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

import repro
from repro import DEFAULT_TOLERANCE, Dataset, Tolerance, kspr, resolve_tolerance
from repro.core.cta import cta
from repro.data import independent_dataset
from repro.engine import Engine
from repro.engine.cache import options_key
from repro.exceptions import InvalidQueryError
from repro.geometry.halfspace import Halfspace, build_hyperplanes
from repro.geometry.linprog import cell_feasible
from repro.geometry.transform import is_valid_transformed_point
from repro.robust import (
    HIGH_DIMENSION_WARN,
    DegenerateInputWarning,
    diagnose_degeneracies,
    validate_query_inputs,
)


class TestTolerancePolicy:
    def test_margin_scales_with_coefficient_norm(self):
        tol = Tolerance(absolute=1e-12, relative=1e-9)
        assert tol.margin(0.0) == pytest.approx(1e-12)
        assert tol.margin(1.0) == pytest.approx(1e-12 + 1e-9)
        assert tol.margin(100.0) == pytest.approx(1e-12 + 1e-7)
        assert tol.margin(-2.0) == tol.margin(2.0)

    def test_classify_side_bands(self):
        tol = Tolerance(absolute=1e-6, relative=0.0, feasibility=1e-6)
        assert tol.classify_side(1e-3) == "+"
        assert tol.classify_side(-1e-3) == "-"
        assert tol.classify_side(5e-7) == "0"
        assert tol.classify_side(-5e-7) == "0"
        assert tol.is_strictly_positive(1e-3)
        assert not tol.is_strictly_positive(5e-7)
        assert tol.is_strictly_negative(-1e-3)
        assert tol.is_boundary(0.0)

    def test_feasible_margin_tightens_for_small_norms(self):
        tol = DEFAULT_TOLERANCE
        unit = tol.feasible_margin(np.array([1.0, 1.0]))
        tiny = tol.feasible_margin(np.array([1.0, 1e-10]))
        assert tiny > unit
        # the tightened requirement still certifies the invariant margin:
        assert tiny >= tol.absolute / 1e-10

    def test_scaled_policies(self):
        loose = DEFAULT_TOLERANCE.loosened(10)
        tight = DEFAULT_TOLERANCE.tightened(10)
        assert loose.absolute == pytest.approx(DEFAULT_TOLERANCE.absolute * 10)
        assert tight.relative == pytest.approx(DEFAULT_TOLERANCE.relative / 10)
        with pytest.raises(ValueError):
            DEFAULT_TOLERANCE.scaled(0.0)
        with pytest.raises(ValueError):
            DEFAULT_TOLERANCE.scaled(-1.0)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            Tolerance(absolute=-1.0)
        with pytest.raises(ValueError):
            Tolerance(relative=float("nan"))
        with pytest.raises(ValueError):
            Tolerance(relative=1e-3, feasibility=1e-9)

    def test_resolve_tolerance(self):
        assert resolve_tolerance(None) is DEFAULT_TOLERANCE
        policy = Tolerance()
        assert resolve_tolerance(policy) is policy
        legacy = resolve_tolerance(1e-6)
        assert legacy.absolute == pytest.approx(1e-6)
        assert legacy.relative == 0.0
        assert legacy.margin(1e9) == pytest.approx(1e-6)  # flat, scale-free
        with pytest.raises(TypeError):
            resolve_tolerance("loose")
        with pytest.raises(ValueError):
            resolve_tolerance(float("inf"))

    def test_negligible_coefficients(self):
        tol = DEFAULT_TOLERANCE
        assert tol.is_negligible_coefficients(np.zeros(3))
        assert tol.is_negligible_coefficients(np.full(3, tol.degenerate / 2))
        assert not tol.is_negligible_coefficients(np.array([0.0, 1e-3]))


#: 20 seeded (n, d, k) configurations for the consistency sweep.
CONSISTENCY_CONFIGS = [
    (n, d, k, 9100 + 17 * index)
    for index, (n, d, k) in enumerate(
        [
            (10, 2, 1), (14, 2, 2), (18, 2, 3), (22, 2, 4), (26, 2, 2),
            (10, 3, 1), (12, 3, 2), (14, 3, 3), (16, 3, 2), (18, 3, 4),
            (10, 4, 1), (12, 4, 2), (14, 4, 3), (12, 4, 4), (16, 4, 2),
            (10, 5, 1), (12, 5, 2), (12, 5, 3), (14, 5, 2), (12, 3, 5),
        ]
    )
]


@pytest.mark.parametrize("n,d,k,seed", CONSISTENCY_CONFIGS, ids=lambda v: str(v))
def test_lp_witness_passes_every_side_test_strictly(n, d, k, seed):
    """solve_feasibility witnesses satisfy side_of strictly for their constraints."""
    dataset = independent_dataset(n, d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    focal = dataset.values[int(rng.integers(n))] * (1.0 + 0.05 * (rng.random(d) - 0.5))
    hyperplanes = build_hyperplanes(dataset.values, focal, list(range(n)))
    hyperplanes = [h for h in hyperplanes if not h.is_degenerate]
    dimensionality = d - 1

    from repro.geometry.transform import random_weight_vectors

    checked_feasible = 0
    for round_index in range(10):
        chosen = rng.choice(len(hyperplanes), size=min(k + 2, len(hyperplanes)), replace=False)
        if round_index % 2 == 0:
            # Signs taken from a random interior point: the cell is certainly
            # non-empty, so feasible systems are exercised in every config.
            anchor = random_weight_vectors(d, 1, rng)[0][:-1]
            halfspaces = [
                Halfspace(
                    hyperplanes[int(i)],
                    "+" if hyperplanes[int(i)].evaluate(anchor) > 0 else "-",
                )
                for i in chosen
            ]
        else:
            halfspaces = [
                Halfspace(hyperplanes[int(i)], "+" if rng.random() < 0.5 else "-")
                for i in chosen
            ]
        outcome = cell_feasible(halfspaces, dimensionality)
        if not outcome.feasible:
            continue
        checked_feasible += 1
        for halfspace in halfspaces:
            assert halfspace.contains(outcome.witness), (
                f"witness fails side test for record {halfspace.record_id} "
                f"(sign {halfspace.sign}, value "
                f"{halfspace.hyperplane.evaluate(outcome.witness):.3e})"
            )
        assert halfspaces[0].hyperplane.side_of(outcome.witness) in ("+", "-")
        # boundary re-validation (the old transform.py bug): the witness must
        # also count as inside the open preference simplex.
        assert is_valid_transformed_point(outcome.witness)
    assert checked_feasible > 0, "no feasible cell sampled; configuration is useless"


@pytest.mark.parametrize("n,d,k,seed", CONSISTENCY_CONFIGS[:10], ids=lambda v: str(v))
def test_region_witnesses_revalidate(n, d, k, seed):
    """Witnesses of reported kSPR regions pass bounding side tests and simplex checks."""
    dataset = independent_dataset(n, d, seed=seed)
    rng = np.random.default_rng(seed + 2)
    focal = dataset.values[int(rng.integers(n))] * (1.0 + 0.05 * (rng.random(d) - 0.5))
    result = cta(dataset, focal, k, finalize_geometry=False)
    for region in result.regions:
        if region.witness is None:
            continue
        assert is_valid_transformed_point(region.witness)
        for halfspace in region.halfspaces:
            assert halfspace.contains(region.witness)
        assert region.contains_transformed(region.witness)


class TestValidation:
    def setup_method(self):
        self.dataset = independent_dataset(20, 3, seed=5)

    def test_k_validation(self):
        with pytest.raises(InvalidQueryError, match="positive integer"):
            validate_query_inputs(self.dataset, np.full(3, 0.5), 0)
        with pytest.raises(InvalidQueryError, match="positive integer"):
            validate_query_inputs(self.dataset, np.full(3, 0.5), -3)
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            validate_query_inputs(self.dataset, np.full(3, 0.5), 2.5)
        with pytest.raises(InvalidQueryError, match="must be an integer"):
            validate_query_inputs(self.dataset, np.full(3, 0.5), True)
        with pytest.raises(InvalidQueryError, match="cardinality"):
            validate_query_inputs(self.dataset, np.full(3, 0.5), 21)

    def test_focal_validation(self):
        with pytest.raises(InvalidQueryError, match="attributes"):
            validate_query_inputs(self.dataset, np.full(4, 0.5), 2)
        with pytest.raises(InvalidQueryError, match="1-D"):
            validate_query_inputs(self.dataset, np.full((2, 3), 0.5), 2)
        with pytest.raises(InvalidQueryError, match="finite"):
            validate_query_inputs(self.dataset, np.array([0.5, np.nan, 0.5]), 2)
        with pytest.raises(InvalidQueryError, match="finite"):
            kspr(self.dataset, np.array([0.5, np.inf, 0.5]), 2)

    def test_d1_rejected_with_clear_message(self):
        line = Dataset(np.linspace(0.0, 1.0, 10).reshape(-1, 1))
        with pytest.raises(InvalidQueryError, match="at least two data attributes"):
            kspr(line, np.array([0.5]), 2)

    def test_high_dimensionality_warns_but_runs(self):
        rng = np.random.default_rng(3)
        wide = Dataset(rng.random((9, HIGH_DIMENSION_WARN)))
        with pytest.warns(DegenerateInputWarning):
            result = kspr(wide, rng.random(HIGH_DIMENSION_WARN), 2, finalize_geometry=False)
        assert result is not None

    def test_k_equal_to_cardinality_and_skyband_size_is_defined(self):
        small = independent_dataset(6, 2, seed=11)
        result = kspr(small, small.values[0] * 1.01, 6, finalize_geometry=False)
        # k = n: the focal record always ranks within the top-n+1, so the
        # whole preference space must be covered.
        samples = 50
        rng = np.random.default_rng(4)
        from repro.geometry.transform import random_weight_vectors

        vectors = random_weight_vectors(2, samples, rng)
        assert all(result.contains_weights(v) for v in vectors)

    def test_diagnose_degeneracies(self):
        values = np.array([[1.0, 2.0], [1.0, 2.0], [2.0, 1.0], [0.5, 0.5]])
        dataset = Dataset(values)
        diag = diagnose_degeneracies(dataset, np.array([1.0, 2.0]), k=4)
        assert diag.duplicate_records == 1
        assert diag.focal_duplicates == 2
        assert diag.tied_focal_scores == 1  # [2, 1] ties the focal sum
        assert not diag.negative_coordinates
        assert diag.k_equals_cardinality
        assert diag.is_degenerate
        clean = diagnose_degeneracies(
            Dataset(np.array([[1.0, 2.0], [3.0, 4.0]])), np.array([0.2, 0.7]), k=1
        )
        assert not clean.is_degenerate


class TestOptionsKey:
    def test_large_arrays_do_not_collide(self):
        # repr() elides long arrays with '...', so these used to collide.
        a = np.zeros(5000)
        b = np.zeros(5000)
        b[2500] = 1e-9
        assert repr(a) == repr(b)  # the old key source really is ambiguous
        assert options_key({"weights": a}) != options_key({"weights": b})

    def test_dtype_and_shape_participate(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        c = np.zeros((2, 2), dtype=np.float64)
        keys = {options_key({"x": v}) for v in (a, b, c)}
        assert len(keys) == 3

    def test_equal_arrays_share_a_key(self):
        a = np.arange(100, dtype=float)
        assert options_key({"x": a}) == options_key({"x": a.copy()})

    def test_numeric_scalars_normalised_across_types(self):
        assert options_key({"x": np.float64(2.5)}) == options_key({"x": 2.5})
        assert options_key({"x": np.int64(3)}) == options_key({"x": 3})
        # ... but int and float of equal value stay distinct from *different*
        # values, and bools never alias ints.
        assert options_key({"x": 1}) != options_key({"x": True})
        assert options_key({"x": 2.5}) != options_key({"x": 2.0})

    def test_tolerance_values_are_canonical(self):
        assert options_key({"tolerance": Tolerance()}) == options_key(
            {"tolerance": Tolerance()}
        )
        assert options_key({"tolerance": Tolerance()}) != options_key(
            {"tolerance": Tolerance().loosened(10)}
        )

    def test_containers_recurse(self):
        a = {"nested": [np.zeros(2000), {"k": 1}]}
        b = {"nested": [np.ones(2000), {"k": 1}]}
        assert options_key(a) != options_key(b)
        assert options_key(a) == options_key({"nested": [np.zeros(2000), {"k": 1}]})


class TestEngineTolerancePropagation:
    def test_engine_matches_kspr_under_same_policy(self):
        dataset = independent_dataset(40, 3, seed=21)
        focal = dataset.values[0] * 0.99
        policy = Tolerance().loosened(10)
        engine = Engine(dataset, k_max=8, prune_skyband=False, tolerance=policy)
        from_engine = engine.query(focal, 3)
        naive = kspr(dataset, focal, 3, tolerance=policy)
        assert abs(from_engine.total_volume() - naive.total_volume()) < 1e-9

    def test_tolerances_never_alias_in_the_cache(self):
        dataset = independent_dataset(30, 3, seed=22)
        focal = dataset.values[1] * 0.98
        engine = Engine(dataset, k_max=8)
        default_answer = engine.query(focal, 2)
        loose_answer = engine.query(focal, 2, tolerance=Tolerance().loosened(100))
        assert engine.query(focal, 2) is default_answer  # hit, same policy
        assert loose_answer is not default_answer
        assert engine.metrics()["engine.queries.cold"] == 2

    def test_sharded_executor_accepts_tolerance(self):
        dataset = independent_dataset(60, 3, seed=23)
        from repro.parallel import ShardedExecutor

        policy = Tolerance().loosened(10)
        executor = ShardedExecutor(dataset, workers=1, tolerance=policy)
        report = executor.run([(dataset.values[0] * 0.99, 2)])
        assert report.outcomes[0].ok
        naive = kspr(dataset, dataset.values[0] * 0.99, 2, tolerance=policy)
        assert abs(report.results[0].total_volume() - naive.total_volume()) < 1e-9


# --------------------------------------------------------------------------- #
# literal enforcement
# --------------------------------------------------------------------------- #
def _package_root() -> pathlib.Path:
    return pathlib.Path(repro.__file__).resolve().parent


def test_no_hard_coded_tolerance_literals_outside_robust():
    """Every scientific-notation epsilon must live in ``repro.robust``.

    Thin wrapper over the ``TOL001`` rule of the invariant linter
    (``tools.analyze``), which superseded the tokenize sweep this test
    used to carry: negative-exponent numeric literals — the signature of
    an ad-hoc epsilon — are banned everywhere in ``repro`` outside
    ``repro.robust``.  Docstrings and comments stay free to *mention*
    tolerances (the rule inspects ``NUMBER`` tokens only), and any
    justified exception must carry an inline
    ``# analyze: ignore[TOL001] -- reason`` annotation.
    """
    repo_root = pathlib.Path(__file__).resolve().parents[1]
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from tools.analyze import Analyzer

    report = Analyzer().select(["TOL001"]).run([_package_root()])
    rendered = "\n".join(diagnostic.render() for diagnostic in report.diagnostics)
    assert report.clean, (
        "hard-coded tolerance literals found outside repro.robust:\n" + rendered
    )

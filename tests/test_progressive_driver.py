"""The progressive driver's array work equals its per-record definitions.

P-CTA and LP-CTA (and their original-space variants) ask two dominance
questions per batch, both on :func:`repro.index.dominance.order_masks`:

* which processed records dominate each record about to be inserted — the
  set ``Dr`` handed to :meth:`CellTree.insert` — checked here against the
  records the query really inserted before it, by
  :func:`repro.records.dominates`, over the tier-1 differential grid and the
  degenerate fuzz corpus;
* whether some unprocessed record escapes every pivot of a cell (Lemma 5) —
  checked against the per-record R-tree walk it replaced, answer and node
  accesses alike.

Hyperplanes are built in batches only; ``hyperplane_for`` on an id nobody
primed must return what the single-record builders return, byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import test_differential_kspr as grid
import test_robustness_fuzz as fuzz
from repro import kspr
from repro.core.base import ORIGINAL_SPACE, TRANSFORMED_SPACE, prepare_context
from repro.core.celltree import CellTree
from repro.core.progressive import exists_unprocessed_not_dominated
from repro.geometry.halfspace import Hyperplane, build_hyperplane
from repro.index.rtree import AggregateRTree, RTreeNode
from repro.records import Dataset, dominates

#: Every method that runs the progressive driver.
PROGRESSIVE_METHODS = ("pcta", "lpcta", "op_cta", "olp_cta")


# --------------------------------------------------------------------------- #
# (a) dominator sets
# --------------------------------------------------------------------------- #
def _insertions(monkeypatch) -> list[tuple[int, set[int] | None]]:
    """Record every ``CellTree.insert`` as ``(record id, dominator_ids)``."""
    calls: list[tuple[int, set[int] | None]] = []
    insert = CellTree.insert

    def recording(tree, hyperplane, dominator_ids=None):
        calls.append((hyperplane.record_id, None if dominator_ids is None else set(dominator_ids)))
        return insert(tree, hyperplane, dominator_ids)

    monkeypatch.setattr(CellTree, "insert", recording)
    return calls


def _check_dominator_sets(calls, dataset: Dataset) -> int:
    """Each set equals the earlier insertions dominating the record; returns the non-empty count."""
    values = dict(zip(dataset.ids.tolist(), dataset.values))
    inserted: list[int] = []
    non_empty = 0
    for record_id, dominator_ids in calls:
        expected = {earlier for earlier in inserted if dominates(values[earlier], values[record_id])}
        assert dominator_ids == expected, record_id
        non_empty += bool(expected)
        inserted.append(record_id)
    return non_empty


@pytest.mark.parametrize("n,d,k,distribution,seed", grid._cases(), ids=lambda value: str(value))
def test_dominator_sets_on_the_grid(monkeypatch, n, d, k, distribution, seed):
    dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
    calls = _insertions(monkeypatch)
    for method in PROGRESSIVE_METHODS:
        calls.clear()
        kspr(dataset, focal, k, method=method)
        _check_dominator_sets(calls, dataset)


def test_dominator_sets_on_the_fuzz_corpus(monkeypatch):
    calls = _insertions(monkeypatch)
    non_empty = 0
    for kind, n, d, k, policy_name, seed in fuzz._cases():
        if policy_name != "default":
            continue
        dataset, focal, _ = fuzz._build_case(kind, n, d, seed)
        for method in PROGRESSIVE_METHODS:
            calls.clear()
            kspr(dataset, focal, k, method=method)
            non_empty += _check_dominator_sets(calls, dataset)
    # The shortcut's sets are not all trivially empty.
    assert non_empty > 0


# --------------------------------------------------------------------------- #
# (b) the Lemma-5 leaf test
# --------------------------------------------------------------------------- #
def _per_record_exists_unprocessed_not_dominated(
    tree: AggregateRTree,
    pivot_values: np.ndarray,
    processed_ids: set[int],
) -> bool:
    """The per-record walk the driver ran before its leaf test became one mask reduction."""
    dataset = tree.dataset
    if len(processed_ids) >= dataset.cardinality:
        return False
    has_pivots = pivot_values.size > 0

    def subtree_dominated(corner: np.ndarray) -> bool:
        if not has_pivots:
            return False
        geq = np.all(pivot_values >= corner, axis=1)
        gt = np.any(pivot_values > corner, axis=1)
        return bool(np.any(geq & gt))

    stack: list[RTreeNode] = [tree.root]
    while stack:
        node = tree.visit(stack.pop())
        if subtree_dominated(node.mbr.high):
            continue
        if node.is_leaf:
            for position in node.record_positions:
                record_id = int(dataset.ids[int(position)])
                if record_id in processed_ids:
                    continue
                values = dataset.values[int(position)]
                if not subtree_dominated(values):
                    return True
            continue
        stack.extend(node.children)
    return False


def _assert_matches_per_record(tree: AggregateRTree, pivots: np.ndarray, processed: np.ndarray) -> bool:
    """Both tests give one answer with one node-access count; returns the answer."""
    processed_ids = set(tree.dataset.ids[processed].tolist())
    start = tree.io.node_reads
    expected = _per_record_exists_unprocessed_not_dominated(tree, pivots, processed_ids)
    expected_reads = tree.io.node_reads - start
    start = tree.io.node_reads
    answer = exists_unprocessed_not_dominated(tree, pivots, processed)
    assert answer == expected
    assert tree.io.node_reads - start == expected_reads
    return answer


@st.composite
def _lemma5_cases(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=40))
    value = st.integers(min_value=0, max_value=4)
    rows = np.asarray(draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float)
    # Ids are not row numbers, so a test that mixed the two would fail.
    dataset = Dataset(rows, ids=[7 + 3 * row for row in range(n)])
    fanout = draw(st.integers(min_value=2, max_value=8))
    pivots = np.asarray(
        draw(st.lists(st.lists(value, min_size=d, max_size=d), max_size=4)), dtype=float
    ).reshape(-1, d)
    processed = draw(st.sampled_from(["none", "some", "all"]))
    if processed == "some":
        processed = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    else:
        processed = np.full(n, processed == "all")
    return AggregateRTree(dataset, fanout=fanout), pivots, processed


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_lemma5_cases())
def test_lemma5_leaf_test_matches_per_record_walk(case):
    tree, pivots, processed = case
    _assert_matches_per_record(tree, pivots, processed)


class TestLemma5MixedLeaves:
    """One leaf holding a processed and an unprocessed record, one of them dominated."""

    PIVOTS = np.array([[0.5, 0.5]])

    def test_processed_undominated_beside_unprocessed_dominated(self):
        # 20 escapes the pivot but is processed; 10 is unprocessed but dominated.
        tree = AggregateRTree(Dataset([[0.1, 0.2], [0.9, 0.1]], ids=[10, 20]))
        assert not _assert_matches_per_record(tree, self.PIVOTS, np.array([False, True]))

    def test_processed_dominated_beside_unprocessed_undominated(self):
        tree = AggregateRTree(Dataset([[0.1, 0.2], [0.9, 0.1]], ids=[10, 20]))
        assert _assert_matches_per_record(tree, self.PIVOTS, np.array([True, False]))


# --------------------------------------------------------------------------- #
# (c) single hyperplanes come from the batch builders
# --------------------------------------------------------------------------- #
def _hyperplane_bytes(hyperplane: Hyperplane) -> tuple:
    return (
        hyperplane.coefficients.dtype,
        hyperplane.coefficients.tobytes(),
        float(hyperplane.offset).hex(),
        float(hyperplane.norm).hex(),
        hyperplane.record_id,
    )


def _check_unprimed_hyperplanes(dataset: Dataset, focal: np.ndarray, k: int) -> None:
    for space in (TRANSFORMED_SPACE, ORIGINAL_SPACE):
        context = prepare_context(dataset, focal, k, algorithm="test", space=space)
        competitors = context.competitors
        # Reverse order, one id at a time: no lookup leans on an earlier one.
        for row in reversed(range(competitors.cardinality)):
            record_id = int(competitors.ids[row])
            values = competitors.values[row]
            if space == TRANSFORMED_SPACE:
                expected = build_hyperplane(values, context.focal, record_id=record_id)
            else:
                expected = Hyperplane(values - context.focal, 0.0, record_id=record_id)
            assert _hyperplane_bytes(context.hyperplane_for(record_id)) == _hyperplane_bytes(expected)


@pytest.mark.parametrize("n,d,k,distribution,seed", grid._cases(), ids=lambda value: str(value))
def test_unprimed_hyperplane_is_the_single_record_build(n, d, k, distribution, seed):
    dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
    _check_unprimed_hyperplanes(dataset, focal, k)


_awkward = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
    st.sampled_from([0.0, -0.0, 1e-300, 3.0e-12, 1.0 / 3.0, 2.0 / 3.0]),
)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.tuples(
        st.lists(st.lists(_awkward, min_size=d, max_size=d), min_size=1, max_size=12),
        st.lists(_awkward, min_size=d, max_size=d),
    )
))
def test_unprimed_hyperplane_bytes_on_awkward_values(case):
    rows, focal = case
    _check_unprimed_hyperplanes(Dataset(np.asarray(rows, dtype=float)), np.asarray(focal), 1)

"""Unit tests for the CellTree structure and hyperplane insertion.

The vertex-certificate tests at the end replay the tier-1 differential grid
(``tests/test_differential_kspr.py``, plus two shapes at d = 5 and 6) and
the degenerate fuzz corpus (``tests/test_robustness_fuzz.py``), each also
rescaled by 1e3 and 1e-3, through all five methods.  ``REPRO_DIFF_SEEDS=<n>``
widens them exactly as it widens those two harnesses::

    REPRO_DIFF_SEEDS=6 PYTHONPATH=src python -m pytest tests/test_celltree.py -q -k certificate
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy.spatial import QhullError

import repro.core.celltree as celltree_module
import repro.geometry.polytope as polytope_module
import test_differential_kspr as grid
import test_robustness_fuzz as fuzz
from repro import Dataset, cta, lpcta, pcta
from repro.core.original_space import olp_cta, op_cta
from repro.data import independent_dataset
from repro.geometry.halfspace import Hyperplane, build_hyperplane
from repro.geometry.linprog import ConstraintStack, LPCounters, solve_feasibility
from repro.core.celltree import CellTree, CellTreeNode
from repro.obs import MetricsRegistry, use_registry
from repro.obs.names import LP_VERTEX_CERTIFICATES, LP_VERTEX_FALLBACKS
from repro.parallel.compare import assert_results_identical
from repro.robust import LP_PRIMAL_FEASIBILITY_TOL, resolve_tolerance


def _axis_hyperplane(axis: int, dimensionality: int, threshold: float, record_id: int = -1):
    coefficients = np.zeros(dimensionality)
    coefficients[axis] = 1.0
    return Hyperplane(coefficients, threshold, record_id=record_id)


class TestCellTreeBasics:
    def test_initial_state(self):
        tree = CellTree(2, k=3)
        assert tree.root.is_leaf
        assert tree.root.rank() == 1
        assert tree.node_count() == 1
        assert not tree.is_exhausted

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CellTree(0, k=1)
        with pytest.raises(ValueError):
            CellTree(2, k=0)

    def test_single_insert_splits_root(self):
        tree = CellTree(2, k=5)
        tree.insert(_axis_hyperplane(0, 2, 0.4, record_id=0))
        leaves = list(tree.iter_active_leaves())
        assert len(leaves) == 2
        assert tree.node_count() == 3
        ranks = sorted(leaf.rank() for leaf in leaves)
        assert ranks == [1, 2]

    def test_hyperplane_outside_simplex_covers_root(self):
        tree = CellTree(2, k=5)
        # w_0 = 2 never intersects the simplex: the root is fully on the
        # negative side, so the halfspace goes to the cover set.
        tree.insert(_axis_hyperplane(0, 2, 2.0, record_id=0))
        assert tree.root.is_leaf
        assert len(tree.root.cover) == 1
        assert not tree.root.cover[0].is_positive

    def test_degenerate_hyperplane_covers_root(self):
        tree = CellTree(1, k=2)
        degenerate = build_hyperplane(np.array([2.0, 2.0]), np.array([1.0, 1.0]), record_id=3)
        tree.insert(degenerate)
        assert tree.root.is_leaf
        assert tree.root.rank() == 2
        assert tree.stats.degenerate_hyperplanes == 1

    def test_rank_pruning_eliminates_nodes(self):
        tree = CellTree(2, k=1)
        # Three nested positive halfspaces around the centroid quickly push
        # some cells past rank 1.
        for index, threshold in enumerate((0.2, 0.25, 0.3)):
            tree.insert(_axis_hyperplane(0, 2, threshold, record_id=index))
        for leaf in tree.iter_active_leaves():
            assert leaf.rank() <= 1

    def test_all_cells_eliminated_exhausts_tree(self):
        tree = CellTree(2, k=1)
        # Every point of the simplex is above w_0 > -1 (positive side), so two
        # such covering positive halfspaces exceed k = 1 everywhere.
        tree.insert(_axis_hyperplane(0, 2, -1.0, record_id=0))
        tree.insert(_axis_hyperplane(1, 2, -1.0, record_id=1))
        assert tree.is_exhausted

    def test_witness_shortcut_counted(self):
        tree = CellTree(2, k=10)
        for index, threshold in enumerate((0.3, 0.5, 0.7)):
            tree.insert(_axis_hyperplane(0, 2, threshold, record_id=index))
        assert tree.stats.witness_shortcuts > 0

    def test_counters_shared_with_tree(self):
        counters = LPCounters()
        tree = CellTree(2, k=5, counters=counters)
        tree.insert(_axis_hyperplane(0, 2, 0.4))
        assert counters.total_calls > 0


class TestPathAndCover:
    def test_path_halfspaces_follow_root_path(self):
        tree = CellTree(2, k=5)
        tree.insert(_axis_hyperplane(0, 2, 0.4, record_id=0))
        tree.insert(_axis_hyperplane(1, 2, 0.3, record_id=1))
        for leaf in tree.iter_active_leaves():
            path = leaf.path_halfspaces()
            assert 1 <= len(path) <= 2
            assert all(halfspace.record_id in (0, 1) for halfspace in path)
            # The witness (when cached) must satisfy every path halfspace.
            if leaf.witness is not None:
                for halfspace in path:
                    assert halfspace.contains(leaf.witness)

    def test_cover_sets_recorded_for_non_cutting_hyperplanes(self):
        tree = CellTree(2, k=10)
        tree.insert(_axis_hyperplane(0, 2, 0.5, record_id=0))
        # A hyperplane far outside the simplex covers both existing leaves.
        tree.insert(_axis_hyperplane(1, 2, 5.0, record_id=1))
        covered = [
            node
            for node in (tree.root, tree.root.left, tree.root.right)
            if node is not None and node.cover
        ]
        assert covered, "the non-cutting hyperplane must land in some cover set"

    def test_negative_record_ids(self):
        tree = CellTree(2, k=10)
        tree.insert(_axis_hyperplane(0, 2, 0.5, record_id=7))
        left = tree.root.left
        assert left is not None and not left.edge.is_positive
        assert left.negative_record_ids() == {7}

    def test_view_exposes_rank_and_pivots(self):
        tree = CellTree(2, k=10)
        tree.insert(_axis_hyperplane(0, 2, 0.5, record_id=7))
        view = tree.view(tree.root.left)
        assert view.rank == 1
        assert view.pivot_ids == {7}
        assert view.non_pivot_ids == set()
        positive_view = tree.view(tree.root.right)
        assert positive_view.rank == 2
        assert positive_view.non_pivot_ids == {7}


class TestDominanceShortcut:
    def test_shortcut_adds_negative_halfspace_without_lp(self):
        tree = CellTree(2, k=10)
        # First record's negative halfspace labels the left child.
        tree.insert(_axis_hyperplane(0, 2, 0.5, record_id=1))
        counters_before = tree.counters.total_calls
        # Second record is dominated by record 1 => its negative halfspace
        # covers the left child without any LP call on that node.
        tree.insert(_axis_hyperplane(0, 2, 0.8, record_id=2), dominator_ids={1})
        assert tree.stats.dominance_shortcuts >= 1
        left = tree.root.left
        assert any(h.record_id == 2 and not h.is_positive for h in left.cover)


class TestNodeHelpers:
    def test_add_witness_caps_cache(self):
        node = CellTreeNode(None, None)
        for index in range(node.MAX_WITNESSES + 5):
            node.add_witness(np.array([float(index)]))
        assert len(node.witnesses) == node.MAX_WITNESSES
        assert node.witness is not None

    def test_memory_estimate_positive(self):
        tree = CellTree(2, k=5)
        tree.insert(_axis_hyperplane(0, 2, 0.4))
        assert tree.memory_bytes() > 0

    def test_memory_estimate_counts_vertices_and_every_witness(self):
        tree = CellTree(2, k=5)
        tree.insert(_axis_hyperplane(0, 2, 0.4))
        root = tree.root
        # The root's positive side needed an LP, so its triangle was enumerated.
        assert root.vertices is not None and root.vertices.shape == (3, 2)
        with_vertices = tree.memory_bytes()
        vertices, root.vertices = root.vertices, None
        assert with_vertices - tree.memory_bytes() == vertices.nbytes
        before = tree.memory_bytes()
        extra = np.array([0.1, 0.2])
        root.add_witness(extra)
        assert len(root.witnesses) > 2
        assert tree.memory_bytes() - before == extra.nbytes


# --------------------------------------------------------------------------- #
# vertex certificates: empty probe sides settled without an LP
# --------------------------------------------------------------------------- #
METHODS = {"cta": cta, "pcta": pcta, "lpcta": lpcta, "op_cta": op_cta, "olp_cta": olp_cta}


def _run_all(dataset, focal, k, tolerance=None) -> dict:
    """Every method on one case, each under its own registry: ``{name: (result, registry)}``.

    Exact geometry is off: finalisation reads no certificate, and the
    fallback run makes its Qhull calls fail too.
    """
    runs = {}
    for name, method in METHODS.items():
        options = {"finalize_geometry": False} if name in ("cta", "pcta", "lpcta") else {}
        registry = MetricsRegistry()
        with use_registry(registry):
            runs[name] = (method(dataset, focal, k, tolerance=tolerance, **options), registry)
    return runs


#: Grid shapes above the differential grid's ``d <= 4``: ``d = 5`` and
#: ``d = 6`` reach cells of dimension
#: :data:`~repro.core.celltree.VERTEX_CERTIFICATE_MAX_DIMENSION` in the
#: original and in the transformed space.
HIGH_DIMENSION_SHAPES = [(14, 5, 2, "independent"), (14, 6, 2, "independent")]


def _high_dimension_cases() -> list[tuple]:
    """Two seeds per high-dimension shape, plus ``REPRO_DIFF_SEEDS`` more."""
    seeds = 2 + int(os.environ.get("REPRO_DIFF_SEEDS", "0"))
    return [
        shape + (60000 + round_index,)
        for shape in HIGH_DIMENSION_SHAPES
        for round_index in range(seeds)
    ]


def _oracle_cases() -> list[tuple]:
    """The grid (with the high-dimension shapes) and the fuzz corpus (policies
    included), each at scales 1, 1e3 and 1e-3."""
    grid_cases = grid._cases() + _high_dimension_cases()
    sources = [("grid", case) for case in grid_cases] + [("fuzz", case) for case in fuzz._cases()]
    return [(source, scale, case) for scale in (1.0, 1e3, 1e-3) for source, case in sources]


def _build(source: str, scale: float, case: tuple):
    """``(dataset, focal, k, tolerance)`` for one oracle case, rescaled by ``scale``."""
    if source == "grid":
        n, d, k, distribution, seed = case
        dataset, focal, _ = grid._build_case(n, d, k, distribution, seed)
        tolerance = None
    else:
        kind, n, d, k, policy_name, seed = case
        dataset, focal, _ = fuzz._build_case(kind, n, d, seed)
        tolerance = resolve_tolerance(fuzz.POLICIES[policy_name])
    return Dataset(dataset.values * scale), focal * scale, k, tolerance


def _check_certificates_with_lp(monkeypatch) -> tuple[list, list]:
    """Make every certified probe also solve its LP; returns (certified, disagreements)."""
    certified: list = []
    disagreements: list = []
    certified_empty = CellTree._certified_empty

    def checked(tree, node, halfspace):
        verdict = certified_empty(tree, node, halfspace)
        if verdict:
            outcome = solve_feasibility(
                *node.constraints.probe(halfspace), tree.dimensionality, tolerance=tree.tolerance
            )
            certified.append(halfspace)
            if outcome.feasible:
                disagreements.append((halfspace.record_id, halfspace.sign, outcome.margin))
        return verdict

    monkeypatch.setattr(CellTree, "_certified_empty", checked)
    return certified, disagreements


def _qhull_fails(*args, **kwargs):
    raise QhullError("vertex enumeration forced to fail")


def _certificates(registry: MetricsRegistry) -> int:
    return registry.counter(LP_VERTEX_CERTIFICATES).value


def _assert_fallback_identical(dataset, certified: dict, fallback: dict) -> None:
    """Runs whose Qhull calls failed answer exactly as the certificate path did."""
    for name, (result, registry) in fallback.items():
        expected, expected_registry = certified[name]
        assert_results_identical(result, expected)
        for region, other in zip(result.regions, expected.regions):
            assert (region.witness is None) == (other.witness is None), name
            if region.witness is not None:
                assert region.witness.tobytes() == other.witness.tobytes(), name
        assert result.stats.celltree_nodes == expected.stats.celltree_nodes, name
        assert result.stats.lp.optimize_calls == expected.stats.lp.optimize_calls, name
        # Every certificate is exactly one feasibility LP not solved.
        certificates = _certificates(registry)
        expected_certificates = _certificates(expected_registry)
        assert (
            result.stats.lp.feasibility_calls + certificates
            == expected.stats.lp.feasibility_calls + expected_certificates
        ), name
        if dataset.dimensionality > 2 or name in ("op_cta", "olp_cta"):
            # d' = 1 cells are intervals, enumerated without Qhull.
            assert certificates == 0, name
            if expected_certificates:
                assert registry.counter(LP_VERTEX_FALLBACKS).value > 0, name


class TestVertexCertificate:
    def test_primal_feasibility_tolerance_is_highs_default(self):
        core = pytest.importorskip("scipy.optimize._highspy._core")
        assert LP_PRIMAL_FEASIBILITY_TOL == core.HighsOptions().primal_feasibility_tolerance

    def test_empty_side_is_settled_without_an_lp(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            tree = CellTree(2, k=10)
            tree.insert(_axis_hyperplane(0, 2, 0.5, record_id=1))
            calls = tree.counters.feasibility_calls
            # w_0 < 0.5 on the whole left child, so w_0 > 0.9 misses it: the
            # child's vertices settle Case II.  The root and the right child
            # both reach w_0 = 1 and still need their LPs.
            tree.insert(_axis_hyperplane(0, 2, 0.9, record_id=2))
        assert _certificates(registry) == 1
        assert registry.counter(LP_VERTEX_FALLBACKS).value == 0
        assert tree.counters.feasibility_calls == calls + 2
        left = tree.root.left
        assert [(h.record_id, h.sign) for h in left.cover] == [(2, "-")]

    def test_node_without_witness_keeps_the_lp(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            tree = CellTree(2, k=10, root_witnesses=[])
            tree.insert(_axis_hyperplane(0, 2, 2.0, record_id=1))
        assert tree.root.vertices.shape == (0, 2)
        assert _certificates(registry) == 0
        assert tree.counters.feasibility_calls == 2
        assert registry.counter(LP_VERTEX_FALLBACKS).value == 1

    def test_no_vertices_above_the_dimension_cap(self):
        above = celltree_module.VERTEX_CERTIFICATE_MAX_DIMENSION + 1
        # The same inserts one dimension lower are settled by a certificate.
        for dimensionality, expected in ((above, 0), (above - 1, 1)):
            registry = MetricsRegistry()
            with use_registry(registry):
                tree = CellTree(dimensionality, k=10)
                tree.insert(_axis_hyperplane(0, dimensionality, 0.1, record_id=1))
                tree.insert(_axis_hyperplane(0, dimensionality, 0.05, record_id=2))
            assert _certificates(registry) == expected, dimensionality
            if dimensionality == above:
                assert tree.root.vertices is None and tree.root.left.vertices is None

    def test_apex_is_skipped_only_for_cones_cut_by_one_row(self):
        # Original space, d = 2: the cone w_0 > w_1 cut by the simplex.  The
        # ray w_0 = 2 w_1 lies inside it, but w_1 = 3 w_0 stays outside.
        registry = MetricsRegistry()
        with use_registry(registry):
            tree = CellTree(2, k=10)
            tree.insert(Hyperplane(np.array([1.0, -1.0]), 0.0, record_id=1))
            calls = tree.counters.feasibility_calls
            tree.insert(Hyperplane(np.array([3.0, -1.0]), 0.0, record_id=2))
        assert _certificates(registry) == 1
        assert tree.counters.feasibility_calls == calls + 2
        # Only a cone cut by one row loses its apex; a second cut keeps all.
        cone = ConstraintStack.for_space(2).push(Hyperplane(np.array([1.0, -1.0]), 0.0).positive())
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
        assert celltree_module._without_apex(cone, vertices).tolist() == [[1.0, 0.0], [0.5, 0.5]]
        cut_twice = cone.push(Hyperplane(np.array([1.0, 0.0]), 0.75).negative())
        assert celltree_module._without_apex(cut_twice, vertices) is vertices

    def test_apex_free_vertices_are_computed_once_per_node(self, monkeypatch):
        """OP-CTA probes every node with hyperplanes through the origin; the
        apex-free vertex set is built with the vertices, not per probe."""
        calls: dict[int, int] = {}
        stacks: list = []  # keeps every stack alive, so ids stay unique
        without_apex = celltree_module._without_apex

        def counting(constraints, vertices):
            stacks.append(constraints)
            calls[id(constraints)] = calls.get(id(constraints), 0) + 1
            return without_apex(constraints, vertices)

        monkeypatch.setattr(celltree_module, "_without_apex", counting)
        dataset = independent_dataset(150, 3, seed=7)
        focal = dataset.values[dataset.values.sum(axis=1).argmax()]  # a skyline record
        registry = MetricsRegistry()
        with use_registry(registry):
            result = op_cta(dataset, focal, 2)
        assert _certificates(registry) > 0
        assert 0 < len(calls) <= result.stats.celltree_nodes
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("source,scale,case", _oracle_cases(), ids=lambda v: str(v))
    def test_every_certificate_agrees_with_the_lp(self, monkeypatch, source, scale, case):
        """Every certified probe re-solved by HiGHS is infeasible.

        At scale 1 the case then runs again with Qhull failing, and the LP
        fallback must answer exactly as the certificate path did.
        """
        dataset, focal, k, tolerance = _build(source, scale, case)
        certified, disagreements = _check_certificates_with_lp(monkeypatch)
        runs = _run_all(dataset, focal, k, tolerance)
        assert disagreements == [], f"{len(disagreements)} of {len(certified)} certificates wrong"
        if scale == 1.0:
            monkeypatch.setattr(polytope_module, "HalfspaceIntersection", _qhull_fails)
            _assert_fallback_identical(dataset, runs, _run_all(dataset, focal, k, tolerance))
            assert disagreements == []

    def test_near_miss_needs_the_primal_feasibility_band(self, monkeypatch):
        """A vertex barely past the side margin is no certificate: HiGHS still finds room."""
        dataset, focal, k, tolerance = _build("fuzz", 1.0, ("collinear", 14, 2, 3, "default", 7701))
        certified, disagreements = _check_certificates_with_lp(monkeypatch)
        _run_all(dataset, focal, k, tolerance)
        assert certified and disagreements == []
        monkeypatch.setattr(celltree_module, "LP_PRIMAL_FEASIBILITY_TOL", 0.0)
        _run_all(dataset, focal, k, tolerance)
        assert disagreements, "the side margin alone should certify a side the LP calls feasible"

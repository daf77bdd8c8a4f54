"""The CellTree: incremental, implicit maintenance of the hyperplane arrangement.

The CellTree (Section 4) is a binary tree whose leaves correspond to the cells
of the arrangement induced by the hyperplanes inserted so far.  Nodes never
store exact geometry; instead

* the edge from a node to each child is labelled with one side (halfspace) of
  the hyperplane that split the node, and
* every node keeps a *cover set*: halfspaces that were found to cover the node
  entirely at insertion time (cases I/II of the insertion algorithm).

The rank of a node is ``1 +`` the number of positive halfspaces among its edge
labels and the cover sets on its root path (Lemma 1).  A node whose rank
exceeds ``k`` is eliminated together with its subtree.

Optimisations implemented here, matching the paper:

* **Lemma 2** — only the edge labels on the root path participate in LP
  feasibility tests (cover-set halfspaces are inconsequential).
* **Witness caching (Section 4.3.2)** — the optimiser of the first feasible LP
  run on a node is stored; during later insertions an ``O(d)`` point-side test
  often avoids one of the two feasibility LPs.
* **Dominance shortcut (Section 5)** — when a record about to be inserted is
  dominated by a record contributing a negative halfspace on the node's path,
  its negative halfspace covers the node and no LP is needed.

One optimisation departs from the paper, which runs an LP for every probe the
shortcuts leave open:

* **Vertex certificate** — the first time a probe of a node needs an LP, the
  vertices of the node's closed cell (its constraint rows) are enumerated
  once with Qhull (:func:`~repro.geometry.polytope.polytope_vertices`, seeded
  by the cached witness).  If every vertex lies beyond the band
  ``tolerance.margin(norm) + LP_PRIMAL_FEASIBILITY_TOL`` on the far side of
  the hyperplane, the closed cell lies there too (it is the convex hull of
  its vertices), so the probed open side misses the node and the LP would
  answer "infeasible"; the probe is settled without it.  The side margin
  alone is not enough: HiGHS may accept a point that violates a row by up to
  its primal feasibility tolerance, and near-degenerate cells exist where it
  then reports an interior margin the vertices do not show.  In the original
  space every hyperplane passes through the origin, which is a vertex of
  every cell, so the strict rule could never fire there; for a hyperplane
  through the origin, a cell that is a cone cut by one row is tested on its
  other vertices only, which all lie on that row.  Only "empty" answers are
  ever replaced: they carry no witness, so every witness cache, split, cover
  set and result is exactly what the LP would have produced, and only the
  LP counters fall.  A node whose enumeration fails (a Qhull error, no
  witness to seed Qhull, an empty or unbounded interval) keeps the LP for all
  its probes, and so does every tree above
  :data:`VERTEX_CERTIFICATE_MAX_DIMENSION`, where enumerating and testing
  the vertices cost more than the LPs they save.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import GeometryError
from ..geometry.halfspace import Halfspace, Hyperplane
from ..geometry.linprog import ConstraintStack, LPCounters, solve_feasibility
from ..geometry.polytope import polytope_vertices
from ..obs.metrics import active_registry
from ..obs.names import LP_VERTEX_CERTIFICATES, LP_VERTEX_FALLBACKS
from ..robust import LP_PRIMAL_FEASIBILITY_TOL, Tolerance, resolve_tolerance
from .cell import CellView

__all__ = ["CellTreeNode", "CellTree", "InsertionStats"]

#: Largest cell dimensionality ``d'`` whose trees enumerate vertices for the
#: certificate.  Qhull's time, and the time to test a probe against a cell's
#: vertices, grow steeply with ``d'`` while an LP's cost barely moves.  Timed
#: inside the tree (IND, n = 200, k = 2, on a 2-core x86 host), enumerating
#: and testing cost about as much as the LPs the certificates replaced at
#: ``d' = 5`` in the transformed space and half as much in the original
#: space, but about three times as much at ``d' = 6`` for every method.  No
#: benchmark workload runs above ``d' = 3``, so the cap is not checked end
#: to end.
VERTEX_CERTIFICATE_MAX_DIMENSION = 5


@dataclass
class InsertionStats:
    """Counters describing the work done by hyperplane insertions."""

    hyperplanes_inserted: int = 0
    nodes_created: int = 1  # the root
    leaves_split: int = 0
    nodes_eliminated: int = 0
    cover_set_additions: int = 0
    witness_shortcuts: int = 0
    dominance_shortcuts: int = 0
    degenerate_hyperplanes: int = 0


class CellTreeNode:
    """One node of the CellTree (an implicit region of the preference space)."""

    __slots__ = (
        "parent",
        "edge",
        "left",
        "right",
        "cover",
        "positive_cover",
        "eliminated",
        "reported",
        "witness",
        "witnesses",
        "depth",
        "bounds_checked",
        "constraints",
        "vertices",
        "apex_free",
    )

    def __init__(self, parent: "CellTreeNode | None", edge: Halfspace | None) -> None:
        self.parent = parent
        #: Halfspace labelling the edge from ``parent`` to this node.
        self.edge = edge
        self.left: CellTreeNode | None = None
        self.right: CellTreeNode | None = None
        #: Halfspaces found to cover this node after its creation (cases I/II).
        self.cover: list[Halfspace] = []
        #: Number of positive halfspaces in :attr:`cover`.
        self.positive_cover = 0
        self.eliminated = False
        self.reported = False
        #: Cached interior witness point (Section 4.3.2).
        self.witness: np.ndarray | None = None
        #: Additional cached interior points (generalised witness cache): any
        #: point known to lie inside the node can settle later side tests in
        #: O(d) and is inherited by the child whose edge halfspace contains it.
        self.witnesses: list[np.ndarray] = []
        self.depth = 0 if parent is None else parent.depth + 1
        #: Whether LP-CTA has already computed look-ahead bounds for this leaf.
        self.bounds_checked = False
        #: Pre-assembled constraint rows of the root path (space bounds plus
        #: edge labels), shared with siblings up to the parent rows.  Freed
        #: when the node is eliminated or reported.
        self.constraints: ConstraintStack | None = None
        #: Vertices of the closed cell bounded by :attr:`constraints`,
        #: enumerated the first time a probe of this node needs an LP (empty
        #: when they cannot be).  Freed together with the constraint rows.
        self.vertices: np.ndarray | None = None
        #: :attr:`vertices` without the apex of a cone cut by one row (see
        #: :func:`_without_apex`; the vertices themselves for any other
        #: cell), what a probe by a hyperplane through the origin tests.
        #: Computed and freed with the vertices.
        self.apex_free: np.ndarray | None = None

    #: Maximum number of cached witness points kept per node.
    MAX_WITNESSES = 12

    def add_witness(self, point: np.ndarray | None) -> None:
        """Cache an interior point of this node (bounded-size cache)."""
        if point is None:
            return
        if self.witness is None:
            self.witness = point
        if len(self.witnesses) < self.MAX_WITNESSES:
            self.witnesses.append(point)

    # ------------------------------------------------------------------ #
    # structural helpers
    # ------------------------------------------------------------------ #
    @property
    def is_leaf(self) -> bool:
        """True when the node has not been split."""
        return self.left is None and self.right is None

    @property
    def is_active(self) -> bool:
        """True when the node still participates in processing."""
        return not self.eliminated and not self.reported

    @property
    def local_positive(self) -> int:
        """Positive halfspaces contributed by this node (edge label + cover set)."""
        edge_positive = 1 if self.edge is not None and self.edge.is_positive else 0
        return edge_positive + self.positive_cover

    def path_halfspaces(self) -> list[Halfspace]:
        """Edge labels on the path from the root to this node (set ``Psi_B``)."""
        labels: list[Halfspace] = []
        node: CellTreeNode | None = self
        while node is not None:
            if node.edge is not None:
                labels.append(node.edge)
            node = node.parent
        labels.reverse()
        return labels

    def cover_halfspaces(self) -> list[Halfspace]:
        """Cover-set halfspaces of this node and all its ancestors."""
        halfspaces: list[Halfspace] = []
        node: CellTreeNode | None = self
        while node is not None:
            halfspaces.extend(node.cover)
            node = node.parent
        return halfspaces

    def rank(self) -> int:
        """Rank of the node w.r.t. the hyperplanes inserted so far (Lemma 1)."""
        total = 0
        node: CellTreeNode | None = self
        while node is not None:
            total += node.local_positive
            node = node.parent
        return total + 1

    def negative_record_ids(self) -> set[int]:
        """Records contributing negative halfspaces to this node's full set."""
        ids: set[int] = set()
        node: CellTreeNode | None = self
        while node is not None:
            if node.edge is not None and not node.edge.is_positive:
                ids.add(node.edge.record_id)
            for halfspace in node.cover:
                if not halfspace.is_positive:
                    ids.add(halfspace.record_id)
            node = node.parent
        return ids


class CellTree:
    """Incrementally maintained arrangement of record-induced hyperplanes."""

    def __init__(
        self,
        dimensionality: int,
        k: int,
        counters: LPCounters | None = None,
        root_constraints: ConstraintStack | None = None,
        root_witnesses: Sequence[np.ndarray] | None = None,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        """Create an empty tree over the whole preference space.

        ``root_constraints`` / ``root_witnesses`` restrict the root to a
        sub-region of the space: the parallel execution layer
        (:mod:`repro.parallel`) uses them to re-root a worker's tree at one
        leaf of a partially expanded tree, so the worker continues exactly
        the computation the single-process run would have performed there.

        ``tolerance`` is the shared numerical policy used for every LP
        feasibility probe and witness side test of this tree (default:
        :data:`repro.robust.DEFAULT_TOLERANCE`).
        """
        if dimensionality < 1:
            raise ValueError("transformed preference space needs dimensionality >= 1")
        if k < 1:
            raise ValueError("k must be at least 1")
        self.dimensionality = dimensionality
        self.k = k
        self.tolerance = resolve_tolerance(tolerance)
        self.counters = counters if counters is not None else LPCounters()
        self.stats = InsertionStats()
        self.root = CellTreeNode(parent=None, edge=None)
        self.root.constraints = (
            root_constraints
            if root_constraints is not None
            else ConstraintStack.for_space(dimensionality)
        )
        if root_witnesses is None:
            # The root's witness: centroid of the simplex, always interior.
            self.root.add_witness(np.full(dimensionality, 1.0 / (dimensionality + 1.0)))
        else:
            for witness in root_witnesses:
                self.root.add_witness(np.asarray(witness, dtype=float))

    # ------------------------------------------------------------------ #
    # insertion (Algorithm 1 / Algorithm 2 routine)
    # ------------------------------------------------------------------ #
    def insert(self, hyperplane: Hyperplane, dominator_ids: set[int] | None = None) -> None:
        """Insert one record-induced hyperplane into the tree.

        ``dominator_ids`` is the set of already-processed records that dominate
        the record inducing ``hyperplane`` (the set ``Dr`` of Algorithm 2).
        When provided, the dominance shortcut of Section 5 is applied.
        """
        self.stats.hyperplanes_inserted += 1
        if self.tolerance.is_negligible_coefficients(hyperplane.coefficients):
            # The score difference is constant over the whole space: the
            # hyperplane covers the root with a single sign.
            self.stats.degenerate_hyperplanes += 1
            sign = "+" if hyperplane.offset < 0 else "-"
            self._add_to_cover(self.root, Halfspace(hyperplane, sign), accumulated=0)
            return
        self._insert(self.root, hyperplane, dominator_ids or set(), accumulated=0)

    def _insert(
        self,
        node: CellTreeNode,
        hyperplane: Hyperplane,
        dominator_ids: set[int],
        accumulated: int,
    ) -> None:
        """Recursive top-down insertion (cases I, II, III)."""
        if not node.is_active:
            return
        accumulated += node.local_positive
        if accumulated + 1 > self.k:
            self._eliminate(node)
            return
        if not node.is_leaf and self._children_inactive(node):
            self._eliminate(node)
            return

        # Dominance shortcut (Section 5): if a processed dominator of the new
        # record contributes a negative halfspace to this node, the new
        # record's negative halfspace covers the node as well (Lemma 4).
        if dominator_ids and (dominator_ids & node.negative_record_ids()):
            self.stats.dominance_shortcuts += 1
            self._add_to_cover(node, hyperplane.negative(), accumulated - node.local_positive)
            return

        positive = hyperplane.positive()
        negative = hyperplane.negative()

        # Witness shortcut (Section 4.3.2, generalised to a small cache of
        # interior points): one vectorised sign evaluation over every cached
        # witness may settle one or both feasibility questions without an LP.
        negative_witness: np.ndarray | None = None
        positive_witness: np.ndarray | None = None
        if node.witnesses:
            side_margin = self.tolerance.margin(hyperplane.norm)
            values = hyperplane.evaluate_many(np.stack(node.witnesses))
            negative_hits = np.nonzero(values < -side_margin)[0]
            positive_hits = np.nonzero(values > side_margin)[0]
            if negative_hits.size:
                negative_witness = node.witnesses[int(negative_hits[0])]
                self.stats.witness_shortcuts += 1
            if positive_hits.size:
                positive_witness = node.witnesses[int(positive_hits[0])]
                self.stats.witness_shortcuts += 1

        # Case I: node entirely inside the positive halfspace?
        negative_rows: ConstraintStack | None = None
        if negative_witness is None:
            if self._certified_empty(node, negative):
                self._add_to_cover(node, positive, accumulated - node.local_positive)
                return
            negative_rows = node.constraints.push(negative)
            outcome = solve_feasibility(
                negative_rows.matrix,
                negative_rows.rhs,
                self.dimensionality,
                self.counters,
                tolerance=self.tolerance,
                norms=negative_rows.norms,
            )
            if outcome.feasible:
                negative_witness = outcome.witness
                node.add_witness(outcome.witness)
            else:
                self._add_to_cover(node, positive, accumulated - node.local_positive)
                return

        # Case II: node entirely inside the negative halfspace?
        positive_rows: ConstraintStack | None = None
        if positive_witness is None:
            if self._certified_empty(node, positive):
                self._add_to_cover(node, negative, accumulated - node.local_positive)
                return
            positive_rows = node.constraints.push(positive)
            outcome = solve_feasibility(
                positive_rows.matrix,
                positive_rows.rhs,
                self.dimensionality,
                self.counters,
                tolerance=self.tolerance,
                norms=positive_rows.norms,
            )
            if outcome.feasible:
                positive_witness = outcome.witness
                node.add_witness(outcome.witness)
            else:
                self._add_to_cover(node, negative, accumulated - node.local_positive)
                return

        # Case III: the hyperplane cuts through the node.
        if node.is_leaf:
            # A side probed by an LP already holds the child's rows.
            self._split(
                node,
                negative,
                positive,
                negative_witness,
                positive_witness,
                negative_rows or node.constraints.push(negative),
                positive_rows or node.constraints.push(positive),
            )
            return
        self._insert(node.left, hyperplane, dominator_ids, accumulated)
        self._insert(node.right, hyperplane, dominator_ids, accumulated)
        if self._children_inactive(node):
            self._eliminate(node)

    def _certified_empty(self, node: CellTreeNode, halfspace: Halfspace) -> bool:
        """Whether the node's vertices prove that open ``halfspace`` misses the node.

        True only when the feasibility LP of this probe would answer
        "infeasible" (module docstring); counted in the active registry's
        ``query.lp.vertex_certificates``.  Always False above
        :data:`VERTEX_CERTIFICATE_MAX_DIMENSION`.
        """
        if self.dimensionality > VERTEX_CERTIFICATE_MAX_DIMENSION:
            return False
        if node.vertices is None:
            node.vertices = self._enumerate_vertices(node)
            node.apex_free = _without_apex(node.constraints, node.vertices)
        hyperplane = halfspace.hyperplane
        vertices = node.apex_free if hyperplane.offset == 0.0 else node.vertices
        if not len(vertices):
            return False
        values = hyperplane.evaluate_many(vertices)
        if halfspace.is_positive:
            values = -values
        band = self.tolerance.margin(hyperplane.norm) + LP_PRIMAL_FEASIBILITY_TOL
        if not np.all(values > band):
            return False
        registry = active_registry()
        if registry is not None:
            registry.counter(LP_VERTEX_CERTIFICATES).inc()
        return True

    def _enumerate_vertices(self, node: CellTreeNode) -> np.ndarray:
        """Vertices of the node's closed cell; empty when they cannot be found."""
        try:
            return polytope_vertices(
                node.constraints.matrix, node.constraints.rhs, node.witness, self.tolerance
            )
        except GeometryError:
            registry = active_registry()
            if registry is not None:
                registry.counter(LP_VERTEX_FALLBACKS).inc()
            return np.empty((0, self.dimensionality))

    # ------------------------------------------------------------------ #
    # node-level operations
    # ------------------------------------------------------------------ #
    def _children_inactive(self, node: CellTreeNode) -> bool:
        left_done = node.left is None or not node.left.is_active
        right_done = node.right is None or not node.right.is_active
        return not node.is_leaf and left_done and right_done

    def _add_to_cover(self, node: CellTreeNode, halfspace: Halfspace, accumulated: int) -> None:
        """Add ``halfspace`` to the node's cover set and re-check its rank."""
        node.cover.append(halfspace)
        self.stats.cover_set_additions += 1
        if halfspace.is_positive:
            node.positive_cover += 1
            if accumulated + node.local_positive + 1 > self.k:
                self._eliminate(node)

    def _split(
        self,
        leaf: CellTreeNode,
        negative: Halfspace,
        positive: Halfspace,
        negative_witness: np.ndarray | None,
        positive_witness: np.ndarray | None,
        negative_rows: ConstraintStack,
        positive_rows: ConstraintStack,
    ) -> None:
        """Split a leaf into two children labelled with the two halfspaces.

        ``negative_rows`` / ``positive_rows`` are the leaf's constraint stack
        pushed with each halfspace: the children's stacks.
        """
        left = CellTreeNode(parent=leaf, edge=negative)
        right = CellTreeNode(parent=leaf, edge=positive)
        left.constraints = negative_rows
        right.constraints = positive_rows
        left.add_witness(negative_witness)
        right.add_witness(positive_witness)
        if leaf.witnesses:
            # One vectorised sign evaluation distributes every cached witness
            # to the child whose (open) halfspace contains it.
            side_margin = self.tolerance.margin(negative.hyperplane.norm)
            values = negative.hyperplane.evaluate_many(np.stack(leaf.witnesses))
            for witness, value in zip(leaf.witnesses, values):
                if value < -side_margin:
                    left.add_witness(witness)
                elif value > side_margin:
                    right.add_witness(witness)
        leaf.left = left
        leaf.right = right
        self.stats.nodes_created += 2
        self.stats.leaves_split += 1

    def _eliminate(self, node: CellTreeNode) -> None:
        if node.eliminated:
            return
        node.eliminated = True
        node.constraints = node.vertices = node.apex_free = None  # no further probes reach this node
        self.stats.nodes_eliminated += 1

    def eliminate(self, node: CellTreeNode) -> None:
        """Eliminate a node (and, implicitly, its subtree) from processing."""
        self._eliminate(node)

    def report(self, node: CellTreeNode) -> None:
        """Mark a leaf as reported (removed from further processing)."""
        node.reported = True
        node.constraints = node.vertices = node.apex_free = None  # no further probes reach this node

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    @property
    def is_exhausted(self) -> bool:
        """True when no active leaf remains anywhere in the tree."""
        return next(self.iter_active_leaves(), None) is None

    def node_count(self) -> int:
        """Total number of nodes ever created."""
        return self.stats.nodes_created

    def iter_active_leaves(self) -> Iterator[CellTreeNode]:
        """Yield every leaf that is neither eliminated nor reported."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_active:
                continue
            if node.is_leaf:
                yield node
                continue
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)

    def view(self, node: CellTreeNode) -> CellView:
        """Build a :class:`CellView` snapshot for ``node``."""
        return CellView(
            node=node,
            bounding_halfspaces=tuple(node.path_halfspaces()),
            covering_halfspaces=tuple(node.cover_halfspaces()),
            rank=node.rank(),
            witness=node.witness,
        )

    def memory_bytes(self) -> int:
        """Rough size of the tree in bytes (space-consumption experiments)."""
        per_node = 120  # object overhead + slots
        per_halfspace_ref = 16
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += per_node + per_halfspace_ref * (1 + len(node.cover))
            total += sum(witness.nbytes for witness in node.witnesses)
            if node.constraints is not None:
                total += node.constraints.memory_bytes()
            if node.vertices is not None:
                total += node.vertices.nbytes
            if node.apex_free is not None and node.apex_free is not node.vertices:
                total += node.apex_free.nbytes
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total


def _without_apex(constraints: ConstraintStack, vertices: np.ndarray) -> np.ndarray:
    """``vertices`` without the origin when the cell is a cone cut by one row.

    When every constraint row but one passes through the origin and that one
    row, ``a . w <= b``, has ``b > 0`` (every original-space cell: the cut is
    the simplex's ``sum w <= 1``), the closed cell is a cone with its apex at
    the origin, cut by that row, and every other vertex lies on ``a . w = b``.
    A hyperplane through the origin is zero at the apex and is positive (or
    negative) on the whole cell but the apex exactly when it is on those other
    vertices, so the certificate tests only them.  Any other cell keeps all
    its vertices.
    """
    cut = np.flatnonzero(constraints.rhs)
    if cut.size != 1 or constraints.rhs[cut[0]] <= 0.0:
        return vertices
    row = int(cut[0])
    return vertices[vertices @ constraints.matrix[row] > constraints.rhs[row] / 2.0]

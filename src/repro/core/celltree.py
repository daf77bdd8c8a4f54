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

The tree keeps only that structure.  Every geometric question about a node
goes to its :class:`Cell`: the closed cell bounded by the preference space
and the edge labels on the node's root path (Lemma 2), kept as one
constraint system with the node's cached interior witnesses and, once a
probe needs them, its vertices.  A cell settles the insertion's probes
(:meth:`Cell.probe`, Cases I and II), splits into its children's cells
(:meth:`Cell.split`, Case III) and hands LP-CTA's bound evaluators its rows
(:meth:`Cell.edges_first`).  Halfspace tuples are built only for a cell
that leaves the tree: a reported or frontier cell, a shard's prefix.

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

import copy
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..exceptions import GeometryError
from ..geometry.halfspace import Halfspace, Hyperplane
from ..geometry.linprog import ConstraintStack, LPCounters, solve_feasibility
from ..geometry.polytope import polytope_vertices
from ..obs.metrics import active_registry
from ..obs.names import LP_VERTEX_CERTIFICATES, LP_VERTEX_FALLBACKS
from ..robust import LP_PRIMAL_FEASIBILITY_TOL, Tolerance, resolve_tolerance

__all__ = ["Cell", "CellTreeNode", "CellTree", "InsertionStats"]

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

#: What a probe that found the side non-empty returns: a point strictly
#: inside the side, and the side's rows when its LP built them (else None).
Side = tuple[np.ndarray, "ConstraintStack | None"]


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


class Cell:
    """The closed cell of one CellTree node, and every point known in it.

    * :attr:`constraints` — the rows ``A . w <= b`` of the closed cell, each
      with its norm: the preference-space boundary first, then the edge
      labels of the root path in root-to-node order;
    * :attr:`witnesses` — cached interior points, one per array row, oldest
      first (duplicates kept, at most :attr:`MAX_WITNESSES`); any of them can
      settle a later side test in ``O(d)``;
    * :attr:`vertices` / :attr:`apex_free` — the closed cell's vertices,
      enumerated the first time a probe needs an LP.

    No array of a cell is written in place: a new witness replaces the
    witness array, so a copy of a cell shares every array safely.
    """

    __slots__ = ("constraints", "witnesses", "vertices", "apex_free")

    #: Maximum number of cached witness points kept per cell.
    MAX_WITNESSES = 12

    def __init__(self, constraints: ConstraintStack, witnesses: np.ndarray) -> None:
        self.constraints = constraints
        #: ``(count, d')`` array of cached interior points.
        self.witnesses = witnesses
        #: Vertices of the closed cell, enumerated the first time a probe of
        #: the cell needs an LP (empty when they cannot be).
        self.vertices: np.ndarray | None = None
        #: :attr:`vertices` without the apex of a cone cut by one row (see
        #: :func:`_without_apex`; the vertices themselves for any other
        #: cell), what a probe by a hyperplane through the origin tests.
        #: Computed with the vertices.
        self.apex_free: np.ndarray | None = None

    @classmethod
    def space(cls, dimensionality: int) -> "Cell":
        """The whole preference space, witnessed by the simplex's centroid."""
        centroid = np.full((1, dimensionality), 1.0 / (dimensionality + 1.0))
        return cls(ConstraintStack.for_space(dimensionality), centroid)

    @property
    def witness(self) -> np.ndarray | None:
        """A copy of the first cached witness (None when there is none).

        A copy, so a cell that leaves the tree holds none of its arrays.
        """
        return self.witnesses[0].copy() if len(self.witnesses) else None

    def add_witness(self, point: np.ndarray) -> None:
        """Cache one more interior point (bounded-size cache)."""
        if len(self.witnesses) < self.MAX_WITNESSES:
            self.witnesses = np.concatenate((self.witnesses, point[None, :]))

    def witnessed_sides(
        self, hyperplane: Hyperplane, tolerance: Tolerance
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The first cached witness strictly on each side of ``hyperplane`` (negative, positive).

        One vectorised sign evaluation over every cached witness (the witness
        shortcut of Section 4.3.2); None for a side no witness is inside.
        """
        side_margin = tolerance.margin(hyperplane.norm)
        values = hyperplane.evaluate_many(self.witnesses)
        negative = (values < -side_margin).nonzero()[0]
        positive = (values > side_margin).nonzero()[0]
        return (
            self.witnesses[negative[0]] if negative.size else None,
            self.witnesses[positive[0]] if positive.size else None,
        )

    def probe(
        self,
        halfspace: Halfspace,
        witness: np.ndarray | None,
        counters: LPCounters,
        tolerance: Tolerance,
    ) -> Side | None:
        """Does open ``halfspace`` meet the cell?  Cases I and II of the insertion.

        ``witness`` is a cached witness inside ``halfspace`` when
        :meth:`witnessed_sides` found one, which settles the probe.  Else the
        vertex certificate may prove the side empty, and else the
        feasibility LP over the cell's rows plus ``halfspace`` decides; its
        witness is cached here.  None when the side misses the cell.
        """
        if witness is not None:
            return witness, None
        if self._certified_empty(halfspace, tolerance):
            return None
        rows = self.constraints.push(halfspace)
        outcome = solve_feasibility(
            rows.matrix,
            rows.rhs,
            rows.matrix.shape[1],
            counters,
            tolerance=tolerance,
            norms=rows.norms,
        )
        if not outcome.feasible:
            return None
        self.add_witness(outcome.witness)
        return outcome.witness, rows

    def split(
        self, negative: Halfspace, positive: Halfspace, sides: list[Side], tolerance: Tolerance
    ) -> tuple["Cell", "Cell"]:
        """The two children's cells when the hyperplane cuts this cell (Case III).

        ``sides`` are the probes' answers for ``negative`` and ``positive``.
        Each child's rows are this cell's plus its halfspace.  Its witnesses
        are its side's point, then every witness of this cell strictly inside
        its halfspace, in order, up to :attr:`MAX_WITNESSES`.
        """
        hyperplane = negative.hyperplane
        side_margin = tolerance.margin(hyperplane.norm)
        values = hyperplane.evaluate_many(self.witnesses)
        masks = (values < -side_margin, values > side_margin)
        children = []
        for halfspace, (witness, rows), inside in zip((negative, positive), sides, masks):
            inherited = self.witnesses[inside][: self.MAX_WITNESSES - 1]
            children.append(
                Cell(
                    rows if rows is not None else self.constraints.push(halfspace),
                    np.concatenate((witness[None, :], inherited)),
                )
            )
        return children[0], children[1]

    def edges_first(self) -> ConstraintStack:
        """The cell's rows with the edge labels first, then the preference-space boundary.

        The order every per-LP assembly of the cell's halfspaces uses, so a
        bound LP over these rows answers bit for bit as over that assembly.
        Two slices rotate the boundary's ``d' + 1`` rows behind the edges.
        """
        space = self.constraints.matrix.shape[1] + 1
        return ConstraintStack(
            *(
                np.concatenate((rows[space:], rows[:space]))
                for rows in (self.constraints.matrix, self.constraints.rhs, self.constraints.norms)
            )
        )

    def memory_bytes(self) -> int:
        """Size of the cell's rows, witnesses and vertices in bytes."""
        total = self.constraints.memory_bytes() + self.witnesses.nbytes
        if self.vertices is not None:
            total += self.vertices.nbytes
        if self.apex_free is not None and self.apex_free is not self.vertices:
            total += self.apex_free.nbytes
        return total

    def _certified_empty(self, halfspace: Halfspace, tolerance: Tolerance) -> bool:
        """Whether the cell's vertices prove that open ``halfspace`` misses the cell.

        True only when the feasibility LP of this probe would answer
        "infeasible" (module docstring); counted in the active registry's
        ``query.lp.vertex_certificates``.  Always False above
        :data:`VERTEX_CERTIFICATE_MAX_DIMENSION`.
        """
        if self.constraints.matrix.shape[1] > VERTEX_CERTIFICATE_MAX_DIMENSION:
            return False
        if self.vertices is None:
            self.vertices = self._enumerate_vertices(tolerance)
            self.apex_free = _without_apex(self, self.vertices)
        hyperplane = halfspace.hyperplane
        vertices = self.apex_free if hyperplane.offset == 0.0 else self.vertices
        if not len(vertices):
            return False
        values = hyperplane.evaluate_many(vertices)
        if halfspace.is_positive:
            values = -values
        band = tolerance.margin(hyperplane.norm) + LP_PRIMAL_FEASIBILITY_TOL
        if not np.all(values > band):
            return False
        registry = active_registry()
        if registry is not None:
            registry.counter(LP_VERTEX_CERTIFICATES).inc()
        return True

    def _enumerate_vertices(self, tolerance: Tolerance) -> np.ndarray:
        """Vertices of the closed cell; empty when they cannot be found."""
        matrix = self.constraints.matrix
        try:
            return polytope_vertices(
                matrix,
                self.constraints.rhs,
                self.witnesses[0] if len(self.witnesses) else None,
                tolerance,
            )
        except GeometryError:
            registry = active_registry()
            if registry is not None:
                registry.counter(LP_VERTEX_FALLBACKS).inc()
            return np.empty((0, matrix.shape[1]))


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
        "depth",
        "bounds_checked",
        "cell",
    )

    def __init__(
        self, parent: "CellTreeNode | None", edge: Halfspace | None, cell: Cell | None
    ) -> None:
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
        self.depth = 0 if parent is None else parent.depth + 1
        #: Whether LP-CTA has already computed look-ahead bounds for this leaf.
        self.bounds_checked = False
        #: The node's closed cell; freed when the node is eliminated or
        #: reported, since no further probe reaches it.
        self.cell = cell

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

    def record_ids(self, positive: bool) -> set[int]:
        """Records whose positive (or negative) halfspace covers this node.

        Edge labels and cover sets of the node and its ancestors; the
        negative ones are P-CTA's pivots, the positive ones its non-pivots.
        """
        ids: set[int] = set()
        node: CellTreeNode | None = self
        while node is not None:
            if node.edge is not None and node.edge.is_positive == positive:
                ids.add(node.edge.record_id)
            for halfspace in node.cover:
                if halfspace.is_positive == positive:
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
        root: Cell | None = None,
        tolerance: Tolerance | float | None = None,
    ) -> None:
        """Create an empty tree over the whole preference space.

        ``root`` re-roots the tree at a copy of that cell instead: the
        parallel execution layer (:mod:`repro.parallel`) grows a worker's
        tree from one leaf's cell of a partially expanded tree.

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
        cell = Cell.space(dimensionality) if root is None else copy.copy(root)
        self.root = CellTreeNode(parent=None, edge=None, cell=cell)

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
        if dominator_ids and (dominator_ids & node.record_ids(positive=False)):
            self.stats.dominance_shortcuts += 1
            self._add_to_cover(node, hyperplane.negative(), accumulated - node.local_positive)
            return

        negative = hyperplane.negative()
        positive = hyperplane.positive()
        cell = node.cell
        witnesses = cell.witnessed_sides(hyperplane, self.tolerance)
        self.stats.witness_shortcuts += sum(witness is not None for witness in witnesses)

        # Case I (II): the node lies entirely inside the positive (negative)
        # halfspace when the other side misses it.
        sides: list[Side] = []
        for halfspace, witness, cover in zip((negative, positive), witnesses, (positive, negative)):
            side = cell.probe(halfspace, witness, self.counters, self.tolerance)
            if side is None:
                self._add_to_cover(node, cover, accumulated - node.local_positive)
                return
            sides.append(side)

        # Case III: the hyperplane cuts through the node.
        if node.is_leaf:
            left, right = cell.split(negative, positive, sides, self.tolerance)
            node.left = CellTreeNode(parent=node, edge=negative, cell=left)
            node.right = CellTreeNode(parent=node, edge=positive, cell=right)
            self.stats.nodes_created += 2
            self.stats.leaves_split += 1
            return
        self._insert(node.left, hyperplane, dominator_ids, accumulated)
        self._insert(node.right, hyperplane, dominator_ids, accumulated)
        if self._children_inactive(node):
            self._eliminate(node)

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

    def _eliminate(self, node: CellTreeNode) -> None:
        if node.eliminated:
            return
        node.eliminated = True
        node.cell = None  # no further probes reach this node
        self.stats.nodes_eliminated += 1

    def eliminate(self, node: CellTreeNode) -> None:
        """Eliminate a node (and, implicitly, its subtree) from processing."""
        self._eliminate(node)

    def report(self, node: CellTreeNode) -> None:
        """Mark a leaf as reported (removed from further processing)."""
        node.reported = True
        node.cell = None  # no further probes reach this node

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

    def memory_bytes(self) -> int:
        """Rough size of the tree in bytes (space-consumption experiments)."""
        per_node = 120  # object overhead + slots
        per_halfspace_ref = 16
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += per_node + per_halfspace_ref * (1 + len(node.cover))
            if node.cell is not None:
                total += node.cell.memory_bytes()
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total


def _without_apex(cell: Cell, vertices: np.ndarray) -> np.ndarray:
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
    rhs = cell.constraints.rhs
    cut = np.flatnonzero(rhs)
    if cut.size != 1 or rhs[cut[0]] <= 0.0:
        return vertices
    row = int(cut[0])
    return vertices[vertices @ cell.constraints.matrix[row] > rhs[row] / 2.0]

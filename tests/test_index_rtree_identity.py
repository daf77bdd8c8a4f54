"""The vectorised R-tree maintenance builds the same tree as a per-child scan.

``ReferenceRTree`` keeps the earlier maintenance code as an oracle: it picks
the least-enlargement child by scanning the children one by one with a
validated :class:`MBR` and two ``np.prod`` calls each, and it finds the leaf
of a deleted record by testing each child's containment in turn.  Both trees
are driven by the same insert/delete scripts over small-integer points with
duplicates, so enlargement and volume ties are common.  After every op the
two trees must agree node for node (level, count, the bytes of both corners,
leaf position order), and a BBS skyline over them must return the same ids
in the same order.  (Integer-valued points carry no ``-0.0``; with signed
zeros in the data, a corner's zero could differ in sign only, which no
comparison sees.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.index.mbr import MBR
from repro.index.rtree import AggregateRTree, RTreeNode
from repro.index.skyline import skyline
from repro.live import UpdateOp
from repro.records import Dataset

FANOUTS = (2, 3, 4, 32)


def _union(a: MBR, b: MBR) -> MBR:
    """The earlier ``MBR.union``: a validated rectangle."""
    return MBR(np.minimum(a.low, b.low), np.maximum(a.high, b.high))


class ReferenceRTree(AggregateRTree):
    """Per-child incremental maintenance: the oracle for the vectorised path."""

    def insert_position(self, position: int) -> None:
        position = int(position)
        values = self.dataset.values[position]
        point = MBR(values.copy(), values.copy())
        if self.root.count == 0:
            self.root = RTreeNode(
                mbr=point, count=1, level=0, record_positions=np.array([position], dtype=int)
            )
            return
        sibling = self._reference_insert(self.root, position, point)
        if sibling is not None:
            old_root = self.root
            self.root = RTreeNode(
                mbr=_union(old_root.mbr, sibling.mbr),
                count=old_root.count + sibling.count,
                level=old_root.level + 1,
                children=[old_root, sibling],
            )

    def _reference_insert(self, node: RTreeNode, position: int, point: MBR) -> RTreeNode | None:
        node.mbr = _union(node.mbr, point)
        node.count += 1
        if node.is_leaf:
            node.record_positions = np.append(node.record_positions, position)
            if node.record_positions.shape[0] > self.fanout:
                return self._reference_split_leaf(node)
            return None
        sibling = self._reference_insert(self._reference_choose(node, point), position, point)
        if sibling is not None:
            node.children.append(sibling)
            if len(node.children) > self.fanout:
                return self._reference_split_internal(node)
        return None

    @staticmethod
    def _volume(mbr: MBR) -> float:
        return float(np.prod(mbr.high - mbr.low))

    def _reference_choose(self, node: RTreeNode, point: MBR) -> RTreeNode:
        best, best_key = None, None
        for child in node.children:
            volume = self._volume(child.mbr)
            key = (self._volume(_union(child.mbr, point)) - volume, volume)
            if best_key is None or key < best_key:
                best, best_key = child, key
        return best

    def _reference_split_leaf(self, node: RTreeNode) -> RTreeNode:
        positions = node.record_positions
        values = self.dataset.values[positions]
        axis = int(np.argmax(node.mbr.high - node.mbr.low))
        order = np.argsort(values[:, axis], kind="stable")
        half = positions.shape[0] // 2
        keep, move = positions[order[:half]], positions[order[half:]]
        node.record_positions = keep
        node.count = int(keep.shape[0])
        node.mbr = MBR.of(self.dataset.values[keep])
        return RTreeNode(
            mbr=MBR.of(self.dataset.values[move]),
            count=int(move.shape[0]),
            level=node.level,
            record_positions=move,
        )

    def _reference_split_internal(self, node: RTreeNode) -> RTreeNode:
        axis = int(np.argmax(node.mbr.high - node.mbr.low))
        children = sorted(
            node.children, key=lambda child: float(child.mbr.low[axis] + child.mbr.high[axis])
        )
        half = len(children) // 2
        keep, move = children[:half], children[half:]

        def union_of(group: list[RTreeNode]) -> MBR:
            mbr = group[0].mbr
            for member in group[1:]:
                mbr = _union(mbr, member.mbr)
            return mbr

        node.children = keep
        node.count = sum(child.count for child in keep)
        node.mbr = union_of(keep)
        return RTreeNode(
            mbr=union_of(move), count=sum(child.count for child in move), level=node.level, children=move
        )

    def delete_position(self, position: int) -> None:
        position = int(position)
        values = self.dataset.values[position]
        if not self._reference_delete(self.root, position, values):
            raise KeyError(position)
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        if self.root.count == 0:
            zero = np.zeros(self.dataset.dimensionality)
            self.root = RTreeNode(
                mbr=MBR(zero, zero.copy()), count=0, level=0, record_positions=np.array([], dtype=int)
            )

    def _reference_delete(self, node: RTreeNode, position: int, values: np.ndarray) -> bool:
        if not node.mbr.contains_point(values):
            return False
        if node.is_leaf:
            mask = node.record_positions != position
            if bool(np.all(mask)):
                return False
            node.record_positions = node.record_positions[mask]
            node.count = int(node.record_positions.shape[0])
            if node.count:
                node.mbr = MBR.of(self.dataset.values[node.record_positions])
            return True
        for index, child in enumerate(node.children):
            if self._reference_delete(child, position, values):
                node.count -= 1
                if child.count == 0:
                    del node.children[index]
                if node.children:
                    mbr = node.children[0].mbr
                    for member in node.children[1:]:
                        mbr = _union(mbr, member.mbr)
                    node.mbr = mbr
                return True
        return False


def tree_shape(tree: AggregateRTree) -> list[tuple]:
    """Every node in depth-first order: level, count, corner bytes, positions."""
    return [
        (
            node.level,
            node.count,
            node.mbr.low.tobytes(),
            node.mbr.high.tobytes(),
            None if node.record_positions is None else node.record_positions.tolist(),
            len(node.children),
        )
        for node in tree.iter_nodes()
    ]


def run_script(
    initial: np.ndarray, inserts: np.ndarray, script: list[tuple[bool, int]], fanout: int
) -> None:
    """Apply one insert/delete script to both trees, comparing them after every op."""
    rows = np.vstack([initial, inserts])
    tree = AggregateRTree(Dataset(initial), fanout=fanout)
    reference = ReferenceRTree(Dataset(initial), fanout=fanout)
    full = Dataset(rows)
    tree.rebind_dataset(full)
    reference.rebind_dataset(full)
    live = list(range(initial.shape[0]))
    next_insert = initial.shape[0]
    assert tree_shape(tree) == tree_shape(reference)
    for insert, pick in script:
        can_insert = next_insert < rows.shape[0]
        if not (live or can_insert):
            break
        if (insert and can_insert) or not live:
            tree.insert_position(next_insert)
            reference.insert_position(next_insert)
            live.append(next_insert)
            next_insert += 1
        else:
            position = live.pop(pick % len(live))
            tree.delete_position(position)
            reference.delete_position(position)
        assert tree_shape(tree) == tree_shape(reference)
        assert skyline(tree) == skyline(reference)


def _random_case(seed: int, d: int) -> tuple[np.ndarray, np.ndarray, list[tuple[bool, int]]]:
    rng = np.random.default_rng(seed)
    initial = rng.integers(0, 4, size=(int(rng.integers(1, 40)), d)).astype(float)
    inserts = rng.integers(0, 4, size=(120, d)).astype(float)
    script = [(bool(rng.random() < 0.6), int(rng.integers(1_000))) for _ in range(160)]
    return initial, inserts, script


class TestSeededScripts:
    @pytest.mark.parametrize("fanout", FANOUTS)
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_trees_match_after_every_op(self, fanout, d):
        for seed in range(3):
            run_script(*_random_case(1000 * fanout + 10 * d + seed, d), fanout=fanout)

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_insert_only_growth_from_one_record(self, fanout):
        rng = np.random.default_rng(fanout)
        inserts = rng.integers(0, 3, size=(200, 3)).astype(float)
        run_script(inserts[:1], inserts[1:], [(True, 0)] * 199, fanout=fanout)

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_delete_down_to_empty_and_back(self, fanout):
        rng = np.random.default_rng(50 + fanout)
        initial = rng.integers(0, 3, size=(60, 2)).astype(float)
        inserts = rng.integers(0, 3, size=(40, 2)).astype(float)
        script = [(False, 7)] * 60 + [(True, 0)] * 40
        run_script(initial, inserts, script, fanout=fanout)


@st.composite
def _scripts(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    value = st.integers(min_value=0, max_value=3)
    n = draw(st.integers(min_value=1, max_value=30))
    initial = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=n, max_size=n))
    inserts = draw(st.lists(st.lists(value, min_size=d, max_size=d), min_size=0, max_size=40))
    script = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 999)), min_size=1, max_size=60))
    return (
        np.asarray(initial, dtype=float),
        np.asarray(inserts, dtype=float).reshape(-1, d),
        script,
    )


class TestPropertyScripts:
    @pytest.mark.parametrize("fanout", FANOUTS)
    @settings(max_examples=60, deadline=None)
    @given(case=_scripts())
    def test_trees_match_after_every_op(self, fanout, case):
        run_script(*case, fanout=fanout)


class TestEngineSharedTree:
    """The engine's shared tree under ``apply_updates`` matches the reference."""

    @pytest.mark.parametrize("fanout", FANOUTS)
    def test_shared_tree_and_skyline_match(self, fanout):
        rng = np.random.default_rng(7 + fanout)
        initial = rng.integers(0, 4, size=(40, 3)).astype(float)
        engine = Engine(Dataset(initial), fanout=fanout)
        reference = ReferenceRTree(Dataset(initial), fanout=fanout)
        for _ in range(30):
            batch = []
            live = sorted(int(i) for i in engine.dataset.ids)
            for _ in range(int(rng.integers(1, 6))):
                if rng.random() < 0.6 or len(live) < 3:
                    batch.append(UpdateOp.insert(rng.integers(0, 4, size=3).astype(float)))
                else:
                    batch.append(UpdateOp.delete(live.pop(int(rng.integers(len(live))))))
            applied = engine.apply_updates(batch)
            reference.rebind_dataset(engine._backing_view())
            for delta, inserted in applied.pairs:
                if inserted:
                    reference.insert_position(delta.position)
                else:
                    reference.delete_position(delta.position)
            assert tree_shape(engine._shared_tree) == tree_shape(reference)
            assert engine.skyline() == skyline(reference)

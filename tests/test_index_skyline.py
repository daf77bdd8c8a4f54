"""Unit and property tests for skyline / k-skyband computation and dominance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import anticorrelated_dataset, correlated_dataset, independent_dataset
from repro.index.dominance import dominated_counts, dominates
from repro.index.rtree import AggregateRTree
from repro.index.skyline import (
    k_skyband,
    k_skyband_reference,
    skyband_counts,
    skyline,
    skyline_reference,
)
from repro.records import Dataset


class TestDominanceHelpers:
    def test_dominated_counts_matches_bruteforce(self):
        dataset = independent_dataset(40, 3, seed=4)
        counts = dominated_counts(dataset)
        for index, record in enumerate(dataset):
            expected = sum(
                1 for other in dataset if dominates(other.values, record.values)
            )
            assert counts[index] == expected


class TestSkyline:
    def test_matches_reference_on_ind(self):
        dataset = independent_dataset(120, 3, seed=5)
        tree = AggregateRTree(dataset, fanout=8)
        assert sorted(skyline(tree)) == sorted(skyline_reference(dataset))

    def test_matches_reference_on_anti(self):
        dataset = anticorrelated_dataset(100, 3, seed=6)
        tree = AggregateRTree(dataset, fanout=8)
        assert sorted(skyline(tree)) == sorted(skyline_reference(dataset))

    def test_correlated_skyline_smaller_than_anticorrelated(self):
        correlated = correlated_dataset(300, 3, seed=7)
        anti = anticorrelated_dataset(300, 3, seed=7)
        assert len(skyline(AggregateRTree(correlated))) < len(skyline(AggregateRTree(anti)))

    def test_exclusion_recomputes_skyline(self):
        dataset = Dataset([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
        tree = AggregateRTree(dataset)
        assert sorted(skyline(tree)) == [2]
        # Excluding the dominating record exposes everything it was hiding.
        assert sorted(skyline(tree, exclude_ids=[2])) == [0, 1, 3]

    def test_skyline_records_are_not_dominated(self):
        dataset = independent_dataset(200, 4, seed=9)
        tree = AggregateRTree(dataset)
        counts = dict(zip(dataset.ids.tolist(), dominated_counts(dataset).tolist()))
        for record_id in skyline(tree):
            assert counts[record_id] == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=10_000))
    def test_skyline_property_random(self, cardinality, seed):
        dataset = independent_dataset(cardinality, 2, seed=seed)
        tree = AggregateRTree(dataset, fanout=4)
        assert sorted(skyline(tree)) == sorted(skyline_reference(dataset))


class TestKSkyband:
    def test_matches_reference(self):
        dataset = independent_dataset(150, 3, seed=11)
        tree = AggregateRTree(dataset, fanout=8)
        for k in (1, 2, 4):
            assert sorted(k_skyband(tree, k)) == sorted(k_skyband_reference(dataset, k))

    def test_skyband_counts_values(self):
        dataset = independent_dataset(80, 3, seed=12)
        tree = AggregateRTree(dataset, fanout=8)
        counts = skyband_counts(tree, 3)
        reference = dict(zip(dataset.ids.tolist(), dominated_counts(dataset).tolist()))
        for record_id, count in counts.items():
            assert count == reference[record_id]
            assert count < 3

    def test_one_skyband_is_skyline(self):
        dataset = independent_dataset(100, 3, seed=13)
        tree = AggregateRTree(dataset, fanout=8)
        assert sorted(k_skyband(tree, 1)) == sorted(skyline(tree))

    def test_skyband_grows_with_k(self):
        dataset = independent_dataset(200, 3, seed=14)
        tree = AggregateRTree(dataset)
        sizes = [len(k_skyband(tree, k)) for k in (1, 3, 6)]
        assert sizes == sorted(sizes)

"""The k-skyband baseline of Appendix B.

Lemma 6 implies that records dominated by ``k`` or more others can never
change whether a cell's rank is at most ``k``; feeding only the k-skyband of
the dataset to the basic CTA therefore still answers the kSPR query exactly.
The paper uses this as a yardstick for P-CTA: the k-skyband is an order of
magnitude larger than the set of records P-CTA actually processes, making the
skyband approach 4–9x slower (Figure 20).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..core.base import build_result, prepare_context, report_leaves
from ..core.result import KSPRResult
from ..index.skyline import k_skyband
from ..records import Dataset

__all__ = ["kskyband_cta"]


def kskyband_cta(
    dataset: Dataset,
    focal: np.ndarray | Sequence[float],
    k: int,
    finalize_geometry: bool = True,
) -> KSPRResult:
    """Answer a kSPR query by running CTA over the k-skyband of the competitors."""
    context = prepare_context(dataset, focal, k, algorithm="k-skyband+CTA")
    if context.effective_k < 1:
        return build_result(context, [], None, finalize_geometry)

    skyband_start = time.perf_counter()
    skyband_ids = k_skyband(context.tree, context.effective_k)
    context.stats.add_phase("skyband", time.perf_counter() - skyband_start)

    tree = context.new_celltree()
    insertion_start = time.perf_counter()
    for record_id in skyband_ids:
        context.stats.processed_records += 1
        tree.insert(context.hyperplane_for(record_id))
        if tree.is_exhausted:
            break
    context.stats.add_phase("insertion", time.perf_counter() - insertion_start)

    return build_result(context, report_leaves(tree, context.effective_k), tree, finalize_geometry)

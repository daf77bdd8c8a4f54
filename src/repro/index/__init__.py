"""Data-space index substrate: aggregate R-tree, skyline, dominance utilities.

The kSPR algorithms assume the dataset is indexed by a spatial access method
(the paper uses an aggregate R-tree built with an R*-tree insertion policy).
This subpackage provides:

* :mod:`repro.index.mbr` — minimum bounding rectangles.
* :mod:`repro.index.rtree` — an STR bulk-loaded aggregate R-tree with
  per-subtree record counts and node-access (simulated I/O) counters.
* :mod:`repro.index.skyline` — branch-and-bound skyline (BBS-style), skyline
  recomputation with excluded records, and the k-skyband.
* :mod:`repro.index.dominance` — dominance tests, the column-wise
  dominance kernel every dominance scan runs on, and the dominance graph
  maintained by P-CTA.
"""

from .dominance import DominanceGraph, dominates, dominating_mask
from .mbr import MBR
from .rtree import AggregateRTree, IOCounter, RTreeNode
from .skyline import k_skyband, skyline

__all__ = [
    "MBR",
    "AggregateRTree",
    "RTreeNode",
    "IOCounter",
    "skyline",
    "k_skyband",
    "DominanceGraph",
    "dominates",
    "dominating_mask",
]

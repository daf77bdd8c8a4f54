"""The paper's primary contribution: the kSPR algorithms.

* :func:`~repro.core.cta.cta` — the basic Cell Tree Approach (Section 4).
* :func:`~repro.core.pcta.pcta` — the Progressive CTA (Section 5).
* :func:`~repro.core.lpcta.lpcta` — the Look-ahead Progressive CTA (Section 6),
  the paper's best algorithm and the library default.
* :func:`~repro.core.original_space.op_cta` / ``olp_cta`` — Appendix C
  variants operating in the original, non-reduced preference space.
* :func:`~repro.core.query.kspr` — the high-level dispatch entry point.
* :func:`~repro.core.verify.verify_result` — Monte-Carlo correctness oracle.
"""

from .bounds import BoundsMode, RankBounds, TransformedBoundEvaluator
from .celltree import Cell, CellTree, CellTreeNode
from .cta import cta
from .lpcta import lpcta
from .original_space import o_cta, olp_cta, op_cta
from .pcta import pcta
from .query import available_methods, kspr
from .result import FrontierCell, KSPRResult, PartialKSPRResult, PreferenceRegion, QueryStats
from .verify import VerificationReport, rank_under_weights, verify_result

__all__ = [
    "BoundsMode",
    "RankBounds",
    "TransformedBoundEvaluator",
    "Cell",
    "CellTree",
    "CellTreeNode",
    "cta",
    "pcta",
    "lpcta",
    "o_cta",
    "op_cta",
    "olp_cta",
    "kspr",
    "available_methods",
    "KSPRResult",
    "PartialKSPRResult",
    "FrontierCell",
    "PreferenceRegion",
    "QueryStats",
    "VerificationReport",
    "rank_under_weights",
    "verify_result",
]

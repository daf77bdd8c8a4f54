"""One function per table / figure of the paper's evaluation.

Every function returns a :class:`FigureResult` whose rows are
:class:`~repro.experiments.metrics.MeasuredRun` records; the benchmark suite
under ``benchmarks/`` and the CLI (``python -m repro.experiments``) render
them with :mod:`repro.experiments.report`.

All experiments are *scaled down* relative to the paper (one LP through
:data:`repro.geometry.linprog.linprog` costs about 230 µs for a
feasibility probe and about 130 µs for an LP-CTA bound, which skips
HiGHS's presolve, on the cold-exact benchmark's LPs on a 2-core host, and
the CellTree, bounds and index around it are Python): the ``quick`` flag
selects an even smaller grid so the whole suite stays in the range of
minutes.
EXPERIMENTS.md records, for every figure, the trend the paper reports and
the trend measured here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis import market_impact
from ..core import lpcta
from ..core.celltree import CellTree
from ..data import howard_case_study, synthetic_dataset
from ..data.realistic import REAL_DATASETS
from ..exceptions import GeometryError
from ..geometry.halfspace import build_hyperplane
from ..geometry.linprog import LPCounters, cell_feasible
from ..geometry.polytope import intersect_halfspaces
from ..index.rtree import AggregateRTree
from .harness import ExperimentConfig, run_method, select_focal, sweep
from .metrics import MeasuredRun

__all__ = ["FigureResult", "FIGURES", "run_figure"]


@dataclass
class FigureResult:
    """Rows regenerating one table or figure of the paper."""

    figure: str
    title: str
    columns: list[str]
    rows: list[MeasuredRun] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Table 1 and the case study
# --------------------------------------------------------------------------- #
def table1_datasets(quick: bool = True) -> FigureResult:
    """Table 1: the real datasets (reproduced here as surrogates)."""
    cardinalities = {"HOTEL": 1500, "HOUSE": 1000, "NBA": 600} if quick else {
        "HOTEL": 4000,
        "HOUSE": 3000,
        "NBA": 2000,
    }
    rows = []
    for name, info in REAL_DATASETS.items():
        config = ExperimentConfig(
            distribution=name, cardinality=cardinalities[name], dimensionality=info["dimensionality"]
        )
        dataset = config.dataset()
        rows.append(
            MeasuredRun(
                method=name,
                config={"d": dataset.dimensionality, "n": dataset.cardinality},
                metrics={"paper_cardinality": float(info["paper_cardinality"])},
            )
        )
    return FigureResult(
        figure="table1",
        title="Table 1: real dataset information (surrogate cardinalities)",
        columns=["method", "d", "n", "paper_cardinality"],
        rows=rows,
    )


def figure09_case_study(quick: bool = True) -> FigureResult:
    """Figure 9: kSPR regions of the focal centre in two NBA seasons (k = 3)."""
    player_count = 200 if quick else 400
    rows = []
    for season in howard_case_study(player_count=player_count):
        start = time.perf_counter()
        result = lpcta(season.dataset, season.focal, k=3)
        elapsed = time.perf_counter() - start
        summary = market_impact(result, season.dataset.dimensionality, samples=4000, rng=7)
        preference = (
            summary.mean_preference
            if summary.mean_preference is not None
            else np.full(3, float("nan"))
        )
        rows.append(
            MeasuredRun(
                method="LP-CTA",
                config={"season": season.label, "k": 3},
                metrics={
                    "result_regions": float(len(result)),
                    "impact_probability": summary.uniform_probability,
                    "mean_w_points": float(preference[0]),
                    "mean_w_rebounds": float(preference[1]),
                    "mean_w_assists": float(preference[2]),
                    "response_seconds": elapsed,
                },
            )
        )
    return FigureResult(
        figure="fig09",
        title="Figure 9: NBA case study — where the focal centre is top-3",
        columns=[
            "season",
            "result_regions",
            "impact_probability",
            "mean_w_points",
            "mean_w_rebounds",
            "mean_w_assists",
            "response_seconds",
        ],
        rows=rows,
    )


# --------------------------------------------------------------------------- #
# Main performance comparisons (Figures 10-15)
# --------------------------------------------------------------------------- #
def figure10a_rtopk(quick: bool = True) -> FigureResult:
    """Figure 10(a): LP-CTA vs the monochromatic reverse top-k sweep (d = 2)."""
    k_values = [5, 10, 20] if quick else [10, 30, 50, 70, 90]
    cardinality = 20000 if quick else 100000
    configs = [
        ExperimentConfig(cardinality=cardinality, dimensionality=2, k=k, focal_policy="skyline-top")
        for k in k_values
    ]
    rows = sweep(configs, methods=["LP-CTA", "RTOPK"])
    return FigureResult(
        figure="fig10a",
        title="Figure 10(a): comparison with RTOPK (IND, d=2)",
        columns=["method", "k", "response_seconds", "processed_records", "result_regions"],
        rows=rows,
    )


def figure10b_methods(quick: bool = True) -> FigureResult:
    """Figure 10(b): CTA vs P-CTA vs LP-CTA vs iMaxRank, varying k."""
    k_values = [2, 4, 6] if quick else [2, 4, 6, 8, 10]
    cardinality = 150 if quick else 400
    configs = [
        ExperimentConfig(
            cardinality=cardinality, dimensionality=3, k=k, focal_policy="skyline-top"
        )
        for k in k_values
    ]
    rows = sweep(configs, methods=["iMaxRank", "CTA", "P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig10b",
        title="Figure 10(b): comparison with iMaxRank and between kSPR methods (IND)",
        columns=["method", "k", "response_seconds", "lp_calls", "result_regions"],
        rows=rows,
    )


def figure11_counters(quick: bool = True) -> FigureResult:
    """Figure 11: processed records and CellTree nodes as k varies."""
    k_values = [2, 4, 6] if quick else [2, 4, 6, 8, 10]
    cardinality = 400 if quick else 1000
    configs = [
        ExperimentConfig(
            cardinality=cardinality, dimensionality=3, k=k, focal_policy="skyline-top"
        )
        for k in k_values
    ]
    rows = sweep(configs, methods=["CTA", "P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig11",
        title="Figure 11: effect of k on processed records and CellTree size (IND)",
        columns=["method", "k", "processed_records", "celltree_nodes"],
        rows=rows,
    )


def figure12_cardinality(quick: bool = True) -> FigureResult:
    """Figure 12: effect of the dataset cardinality on time and space."""
    cardinalities = [500, 1000, 2000] if quick else [500, 1000, 2000, 5000, 10000]
    configs = [
        ExperimentConfig(cardinality=n, dimensionality=3, k=5, focal_policy="skyline-top")
        for n in cardinalities
    ]
    rows = sweep(configs, methods=["P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig12",
        title="Figure 12: effect of n (IND) — response time and space",
        columns=["method", "n", "response_seconds", "space_mb", "processed_records"],
        rows=rows,
    )


def figure13_dimensionality(quick: bool = True) -> FigureResult:
    """Figure 13: effect of the dimensionality on time and result size."""
    dims = [2, 3, 4] if quick else [2, 3, 4, 5]
    cardinality = 400 if quick else 800
    configs = [
        ExperimentConfig(cardinality=cardinality, dimensionality=d, k=5, focal_policy="skyline-top")
        for d in dims
    ]
    rows = sweep(configs, methods=["P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig13",
        title="Figure 13: effect of d (IND) — response time and result size",
        columns=["method", "d", "response_seconds", "result_regions"],
        rows=rows,
    )


def figure14_distribution(quick: bool = True) -> FigureResult:
    """Figure 14: effect of the data distribution (IND / COR / ANTI)."""
    k_values = [3, 5] if quick else [3, 5, 7, 9]
    cardinality = 600 if quick else 1500
    configs = [
        ExperimentConfig(
            distribution=distribution,
            cardinality=cardinality,
            dimensionality=3,
            k=k,
            focal_policy="skyline-top",
        )
        for distribution in ("ANTI", "IND", "COR")
        for k in k_values
    ]
    rows = sweep(configs, methods=["LP-CTA"])
    return FigureResult(
        figure="fig14",
        title="Figure 14: effect of the data distribution on LP-CTA",
        columns=["method", "distribution", "k", "response_seconds", "result_regions"],
        rows=rows,
    )


def figure15_real_datasets(quick: bool = True) -> FigureResult:
    """Figure 15: the real-dataset surrogates, varying k.

    The surrogates keep the paper's dimensionalities (4 / 6 / 8 attributes).
    Because skylines explode with dimensionality, the NBA (8-d) and HOUSE
    (6-d) cardinalities and k values are scaled down hard — see EXPERIMENTS.md.
    """
    k_values = {"HOTEL": [2, 3], "HOUSE": [2, 3], "NBA": [1]} if quick else {
        "HOTEL": [2, 3, 5],
        "HOUSE": [2, 3, 5],
        "NBA": [1, 2],
    }
    cardinalities = {"HOTEL": 500, "HOUSE": 300, "NBA": 40} if quick else {
        "HOTEL": 1500,
        "HOUSE": 800,
        "NBA": 80,
    }
    configs = [
        ExperimentConfig(
            distribution=name,
            cardinality=cardinalities[name],
            dimensionality=REAL_DATASETS[name]["dimensionality"],
            k=k,
            focal_policy="skyline-top",
        )
        for name in ("HOTEL", "HOUSE", "NBA")
        for k in k_values[name]
    ]
    rows = sweep(configs, methods=["P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig15",
        title="Figure 15: real dataset surrogates — response time and result size",
        columns=["method", "distribution", "k", "response_seconds", "result_regions"],
        rows=rows,
    )


# --------------------------------------------------------------------------- #
# Optimisation ablations (Figures 16-18)
# --------------------------------------------------------------------------- #
def _arrangement_leaves(
    cardinality: int, dimensionality: int, hyperplane_count: int, seed: int, sample: int = 50
):
    """Insert ``hyperplane_count`` hyperplanes with pruning disabled; sample leaves."""
    dataset = synthetic_dataset("IND", cardinality, dimensionality, seed)
    tree_index = AggregateRTree(dataset)
    focal = select_focal(dataset, "skyline-top", seed=seed, tree=tree_index)
    partition = dataset.partition_by_focal(focal)
    competitors = partition.competitors
    counters = LPCounters()
    celltree = CellTree(dimensionality - 1, k=hyperplane_count + 1, counters=counters)
    inserted = 0
    for record in competitors:
        if inserted >= hyperplane_count:
            break
        celltree.insert(build_hyperplane(record.values, focal, record.record_id))
        inserted += 1
    leaves = list(celltree.iter_active_leaves())
    rng = np.random.default_rng(seed)
    if len(leaves) > sample:
        chosen = rng.choice(len(leaves), size=sample, replace=False)
        leaves = [leaves[int(index)] for index in chosen]
    return celltree, leaves


def figure16_feasibility(quick: bool = True) -> FigureResult:
    """Figure 16: LP feasibility test vs exact halfspace intersection."""
    settings = (
        [("d", 3, 40), ("d", 4, 40), ("m", 3, 25), ("m", 3, 60)]
        if quick
        else [("d", 3, 60), ("d", 4, 60), ("d", 5, 60), ("m", 3, 30), ("m", 3, 80), ("m", 3, 150)]
    )
    rows = []
    for axis, dimensionality, hyperplane_count in settings:
        celltree, leaves = _arrangement_leaves(800, dimensionality, hyperplane_count, seed=11)
        transformed_dim = dimensionality - 1

        start = time.perf_counter()
        for leaf in leaves:
            cell_feasible(leaf.path_halfspaces(), transformed_dim)
        lp_seconds = time.perf_counter() - start

        start = time.perf_counter()
        for leaf in leaves:
            try:
                intersect_halfspaces(
                    leaf.path_halfspaces(), transformed_dim, interior_point=leaf.cell.witness
                )
            except GeometryError:
                continue
        qhull_seconds = time.perf_counter() - start

        config = {"axis": axis, "d": dimensionality, "m": hyperplane_count, "leaves": len(leaves)}
        rows.append(
            MeasuredRun("lp_solve", config, {"response_seconds": lp_seconds})
        )
        rows.append(
            MeasuredRun("qhull", config, {"response_seconds": qhull_seconds})
        )
    return FigureResult(
        figure="fig16",
        title="Figure 16: LP-based feasibility test vs halfspace intersection",
        columns=["method", "axis", "d", "m", "leaves", "response_seconds"],
        rows=rows,
    )


def figure17_lemma2(quick: bool = True) -> FigureResult:
    """Figure 17: eliminating inconsequential halfspaces (Lemma 2)."""
    hyperplane_counts = [25, 50, 100] if quick else [50, 100, 200, 400]
    rows = []
    for hyperplane_count in hyperplane_counts:
        celltree, leaves = _arrangement_leaves(1200, 4, hyperplane_count, seed=13)
        transformed_dim = 3

        # Without Lemma 2: every defining halfspace (path labels + cover sets)
        # participates in the LP.
        start = time.perf_counter()
        full_constraints = 0
        for leaf in leaves:
            halfspaces = leaf.path_halfspaces() + leaf.cover_halfspaces()
            full_constraints += len(halfspaces)
            cell_feasible(halfspaces, transformed_dim)
        full_seconds = time.perf_counter() - start

        # With Lemma 2: only the (potentially bounding) path labels.
        start = time.perf_counter()
        lemma_constraints = 0
        for leaf in leaves:
            halfspaces = leaf.path_halfspaces()
            lemma_constraints += len(halfspaces)
            cell_feasible(halfspaces, transformed_dim)
        lemma_seconds = time.perf_counter() - start

        config = {"m": hyperplane_count, "leaves": len(leaves)}
        rows.append(
            MeasuredRun(
                "lp_solve",
                config,
                {
                    "response_seconds": full_seconds,
                    "avg_constraints": full_constraints / max(len(leaves), 1),
                },
            )
        )
        rows.append(
            MeasuredRun(
                "lp_solve+lemma_2",
                config,
                {
                    "response_seconds": lemma_seconds,
                    "avg_constraints": lemma_constraints / max(len(leaves), 1),
                },
            )
        )
    return FigureResult(
        figure="fig17",
        title="Figure 17: effectiveness of Lemma 2 (inconsequential halfspaces)",
        columns=["method", "m", "leaves", "avg_constraints", "response_seconds"],
        rows=rows,
    )


def figure18_bounds(quick: bool = True) -> FigureResult:
    """Figure 18: record vs group vs fast bounds inside LP-CTA."""
    k_values = [2, 4] if quick else [2, 4, 6]
    dims = [3] if quick else [3, 4]
    cardinality = 150 if quick else 400
    rows = []
    for dimensionality in dims:
        for k in k_values:
            config = ExperimentConfig(
                cardinality=cardinality,
                dimensionality=dimensionality,
                k=k,
                focal_policy="skyline-top",
            )
            dataset = config.dataset()
            tree_index = AggregateRTree(dataset)
            focal = select_focal(dataset, "skyline-top", seed=config.seed, tree=tree_index)
            for mode in ("record", "group", "fast"):
                label = dict(config.label())
                run = run_method(
                    "LP-CTA",
                    dataset,
                    focal,
                    k,
                    config_label=label,
                    bounds_mode=mode,
                )
                run.method = f"{mode}_bounds"
                rows.append(run)
    return FigureResult(
        figure="fig18",
        title="Figure 18: effectiveness of the group and fast bounds in LP-CTA",
        columns=["method", "d", "k", "response_seconds", "lp_calls", "result_regions"],
        rows=rows,
    )


# --------------------------------------------------------------------------- #
# Appendices (Figures 19-24)
# --------------------------------------------------------------------------- #
def figure19_disk(quick: bool = True) -> FigureResult:
    """Figure 19 (Appendix A): the disk-based scenario — CPU plus simulated I/O."""
    k_values = [3, 5] if quick else [3, 5, 7, 9]
    cardinality = 600 if quick else 1500
    configs = [
        ExperimentConfig(cardinality=cardinality, dimensionality=3, k=k, focal_policy="skyline-top")
        for k in k_values
    ]
    rows = sweep(configs, methods=["P-CTA", "LP-CTA"])
    return FigureResult(
        figure="fig19",
        title="Figure 19: disk-based scenario (0.2 ms per page access)",
        columns=[
            "method",
            "k",
            "cpu_seconds",
            "io_seconds",
            "total_seconds_with_io",
            "index_node_accesses",
        ],
        rows=rows,
    )


def figure20_kskyband(quick: bool = True) -> FigureResult:
    """Figure 20 (Appendix B): P-CTA vs the k-skyband approach."""
    k_values = [3, 5] if quick else [3, 5, 7, 9]
    cardinality = 600 if quick else 1500
    configs = [
        ExperimentConfig(cardinality=cardinality, dimensionality=3, k=k, focal_policy="skyline-top")
        for k in k_values
    ]
    rows = sweep(configs, methods=["P-CTA", "k-skyband"])
    return FigureResult(
        figure="fig20",
        title="Figure 20: P-CTA vs the k-skyband approach (IND)",
        columns=["method", "k", "processed_records", "response_seconds"],
        rows=rows,
    )


def figure22_original_space(quick: bool = True) -> FigureResult:
    """Figure 22 (Appendix C): transformed vs original preference space."""
    k_values = [3, 5] if quick else [3, 5, 7]
    cardinality = 300 if quick else 800
    configs = [
        ExperimentConfig(cardinality=cardinality, dimensionality=3, k=k, focal_policy="skyline-top")
        for k in k_values
    ]
    rows = sweep(configs, methods=["P-CTA", "OP-CTA", "LP-CTA", "OLP-CTA"])
    return FigureResult(
        figure="fig22",
        title="Figure 22: processing in the transformed vs the original space",
        columns=["method", "k", "response_seconds", "lp_calls", "celltree_nodes"],
        rows=rows,
    )


def figure23_index_build(quick: bool = True) -> FigureResult:
    """Figure 23 (Appendix D): index construction cost."""
    cardinalities = [1000, 5000, 20000] if quick else [1000, 5000, 20000, 50000, 100000]
    dims = [3, 5, 7] if quick else [2, 3, 4, 5, 6, 7]
    rows = []
    for cardinality in cardinalities:
        dataset = synthetic_dataset("IND", cardinality, 4, seed=3)
        for aggregate, label in ((False, "R-tree"), (True, "aR-tree")):
            tree = AggregateRTree(dataset, aggregate=aggregate)
            rows.append(
                MeasuredRun(
                    label,
                    {"axis": "n", "n": cardinality, "d": 4},
                    {"build_seconds": tree.build_seconds, "nodes": float(tree.node_count())},
                )
            )
    for dimensionality in dims:
        dataset = synthetic_dataset("IND", 5000, dimensionality, seed=3)
        for aggregate, label in ((False, "R-tree"), (True, "aR-tree")):
            tree = AggregateRTree(dataset, aggregate=aggregate)
            rows.append(
                MeasuredRun(
                    label,
                    {"axis": "d", "n": 5000, "d": dimensionality},
                    {"build_seconds": tree.build_seconds, "nodes": float(tree.node_count())},
                )
            )
    return FigureResult(
        figure="fig23",
        title="Figure 23: index construction time (R-tree vs aggregate R-tree)",
        columns=["method", "axis", "n", "d", "build_seconds", "nodes"],
        rows=rows,
    )


def figure24_amortized(quick: bool = True) -> FigureResult:
    """Figure 24 (Appendix D): response time with the index build amortised."""
    cardinalities = [500, 1000, 2000] if quick else [500, 1000, 2000, 5000, 10000]
    amortize_over = 1000.0  # the paper amortises over its 1000-query workloads
    configs = [
        ExperimentConfig(cardinality=n, dimensionality=3, k=5, focal_policy="skyline-top")
        for n in cardinalities
    ]
    rows = sweep(configs, methods=["P-CTA", "LP-CTA"])
    for run in rows:
        amortized = run.metrics["response_seconds"] + run.metrics["index_build_seconds"] / amortize_over
        run.metrics["amortized_seconds"] = amortized
    return FigureResult(
        figure="fig24",
        title="Figure 24: amortised response time (index build / 1000 queries)",
        columns=["method", "n", "response_seconds", "index_build_seconds", "amortized_seconds"],
        rows=rows,
    )


#: Registry used by the CLI and the benchmark suite.
FIGURES: dict[str, Callable[[bool], FigureResult]] = {
    "table1": table1_datasets,
    "fig09": figure09_case_study,
    "fig10a": figure10a_rtopk,
    "fig10b": figure10b_methods,
    "fig11": figure11_counters,
    "fig12": figure12_cardinality,
    "fig13": figure13_dimensionality,
    "fig14": figure14_distribution,
    "fig15": figure15_real_datasets,
    "fig16": figure16_feasibility,
    "fig17": figure17_lemma2,
    "fig18": figure18_bounds,
    "fig19": figure19_disk,
    "fig20": figure20_kskyband,
    "fig22": figure22_original_space,
    "fig23": figure23_index_build,
    "fig24": figure24_amortized,
}


def run_figure(figure: str, quick: bool = True) -> FigureResult:
    """Run the named figure/table experiment and return its rows."""
    if figure not in FIGURES:
        raise KeyError(f"unknown figure {figure!r}; available: {', '.join(sorted(FIGURES))}")
    return FIGURES[figure](quick)

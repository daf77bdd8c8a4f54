"""Anytime quality benchmark: time-to-first-region and bracket-width-vs-time.

Two measurements over the ISSUE-mandated serving workload shape:

* **time-to-first-region** — one LP-CTA query on a 10k-record, 4-attribute
  dataset is answered through :meth:`repro.engine.Engine.query_stream`; the
  wall-clock time at which the *first certified region* is yielded is
  compared with the time the full answer takes.  The acceptance bar is that
  the first region arrives **strictly before** full completion — that gap is
  exactly the latency a deadline-bounded caller wins by consuming the
  stream.
* **bracket-width-vs-time curve** — on a smaller instance (frontier-volume
  evaluation per snapshot is itself LP work) every snapshot's
  ``[impact_lower, impact_upper]`` bracket is sampled together with its
  elapsed time.  The curve must be monotone: widths never grow, and the
  final bracket collapses onto the exact impact probability.

A resume check rides along: the same query truncated after its first work
unit and re-issued against the engine must match the uninterrupted answer
structurally.

Run directly (``PYTHONPATH=src python benchmarks/bench_anytime_quality.py``),
with ``--tiny`` for a seconds-long smoke configuration (used by CI), or
through pytest (``python -m pytest benchmarks/bench_anytime_quality.py``).
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from repro import Engine
from repro.data import anticorrelated_dataset, independent_dataset
from repro.parallel.compare import assert_results_identical

RESULTS_DIR = Path(__file__).parent / "results"

#: The ISSUE-mandated workload shape for the latency measurement.
CARDINALITY = 10_000
DIMENSIONALITY = 4
K = 3
SEED = 177

#: Curve configuration: anticorrelated data with a larger ``k`` keeps the
#: progressive loop running for several batches (several snapshots), while
#: staying small enough that per-snapshot frontier volumes (one
#: exact-geometry evaluation per undecided cell) stay cheap.
CURVE_CARDINALITY = 800
CURVE_DIMENSIONALITY = 3
CURVE_K = 8

BRACKET_TOLERANCE = 1e-6


def _focal(dataset):
    """A competitive focal: a lightly discounted copy of a strong record."""
    best_row = int(dataset.values.sum(axis=1).argmax())
    return dataset.values[best_row] * 0.98


def measure_time_to_first_region(cardinality: int, dimensionality: int, k: int) -> dict:
    """Stream one query and time the first certified region vs completion."""
    dataset = independent_dataset(cardinality, dimensionality, seed=SEED)
    engine = Engine(dataset, k_max=max(8, k))
    focal = _focal(dataset)

    start = time.perf_counter()
    first_region_seconds = None
    first_region_count = 0
    snapshots = 0
    for snapshot in engine.query_stream(focal, k, finalize_geometry=False):
        snapshots += 1
        if first_region_seconds is None and snapshot.regions:
            first_region_seconds = time.perf_counter() - start
            first_region_count = len(snapshot.regions)
        final = snapshot
    total_seconds = time.perf_counter() - start
    assert final.done, "the drained stream must terminate"
    assert first_region_seconds is not None, "the query certified no region at all"

    # Resume check: truncate after one work unit, re-issue, compare.
    resumable = Engine(dataset, k_max=max(8, k))
    list(resumable.query_stream(focal, k, finalize_geometry=False, max_batches=1))
    resumed = list(resumable.query_stream(focal, k, finalize_geometry=False))[-1]
    assert resumable.metrics()["engine.stream.resumes"] == 1
    assert_results_identical(resumed.to_result(), final.to_result())

    return {
        "cardinality": cardinality,
        "dimensionality": dimensionality,
        "k": k,
        "snapshots": snapshots,
        "regions_total": len(final.regions),
        "first_region_count": first_region_count,
        "first_region_seconds": first_region_seconds,
        "total_seconds": total_seconds,
        "first_region_fraction": first_region_seconds / total_seconds,
        "resume_identical": True,  # the assertion above would have raised
    }


def measure_bracket_curve(cardinality: int, dimensionality: int, k: int) -> dict:
    """Sample the ``[lower, upper]`` bracket per snapshot against elapsed time."""
    dataset = anticorrelated_dataset(cardinality, dimensionality, seed=SEED + 1)
    engine = Engine(dataset, k_max=max(8, k))
    focal = _focal(dataset)

    curve = []
    start = time.perf_counter()
    for snapshot in engine.query_stream(focal, k, finalize_geometry=False):
        lower, upper = snapshot.impact_bracket()
        curve.append(
            {
                "elapsed_seconds": time.perf_counter() - start,
                "regions": len(snapshot.regions),
                "lower": lower,
                "upper": upper,
                "width": upper - lower,
            }
        )
        final = snapshot
    exact = final.to_result().impact_probability()

    widths = [point["width"] for point in curve]
    for earlier, later in zip(widths, widths[1:]):
        assert later <= earlier + BRACKET_TOLERANCE, "bracket width grew over time"
    for point in curve:
        assert point["lower"] <= exact + BRACKET_TOLERANCE
        assert exact <= point["upper"] + BRACKET_TOLERANCE
    assert widths[-1] <= BRACKET_TOLERANCE, "final bracket must collapse"

    return {
        "cardinality": cardinality,
        "dimensionality": dimensionality,
        "k": k,
        "exact_impact": exact,
        "curve": curve,
    }


def run_benchmark(
    *,
    cardinality: int = CARDINALITY,
    dimensionality: int = DIMENSIONALITY,
    curve_cardinality: int = CURVE_CARDINALITY,
    curve_dimensionality: int = CURVE_DIMENSIONALITY,
    k: int = K,
    curve_k: int = CURVE_K,
) -> dict:
    """Run both measurements once and return the JSON payload."""
    return {
        "benchmark": "anytime_quality",
        "time_to_first_region": measure_time_to_first_region(
            cardinality, dimensionality, k
        ),
        "bracket_curve": measure_bracket_curve(
            curve_cardinality, curve_dimensionality, curve_k
        ),
    }


def emit(payload: dict) -> Path:
    """Archive the timings JSON next to the other benchmark artefacts."""
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / "anytime_quality.json"
    target.write_text(json.dumps(payload, indent=2) + "\n")
    return target


def _tiny_kwargs() -> dict:
    """A seconds-long smoke configuration (correctness, not latency numbers)."""
    return {
        "cardinality": 500,
        "dimensionality": 3,
        "curve_cardinality": 400,
        "curve_dimensionality": 3,
        "curve_k": 5,
    }


def test_anytime_first_region_before_completion_tiny() -> None:
    """Smoke: streaming certifies a region strictly before full completion."""
    payload = run_benchmark(**_tiny_kwargs())
    latency = payload["time_to_first_region"]
    assert latency["first_region_seconds"] < latency["total_seconds"]
    assert latency["resume_identical"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="seconds-long smoke run")
    arguments = parser.parse_args(argv)

    payload = run_benchmark(**(_tiny_kwargs() if arguments.tiny else {}))
    target = emit(payload)
    latency = payload["time_to_first_region"]
    curve = payload["bracket_curve"]["curve"]
    print(json.dumps(payload["time_to_first_region"], indent=2))
    print(
        f"\nfirst certified region after {latency['first_region_seconds']:.3f}s "
        f"({latency['first_region_count']} regions), full answer after "
        f"{latency['total_seconds']:.3f}s -> first-region latency is "
        f"{100 * latency['first_region_fraction']:.1f}% of completion; "
        f"bracket curve: {len(curve)} samples, width "
        f"{curve[0]['width']:.4f} -> {curve[-1]['width']:.6f}; "
        f"JSON written to {target}"
    )
    assert latency["first_region_seconds"] < latency["total_seconds"], (
        "acceptance bar: the first certified region must arrive strictly "
        "before full completion"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

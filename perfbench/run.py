"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 24 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that wraps each layer's public functions and reports per-layer
metrics, writes a chrome://tracing file and the attribution table under
``.perfbench_out/``.  Exit status: 0 when every correctness and hygiene
check passed, 1 when one failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-exact", "serve-zipf", "live-churn")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes for the self-test")
    return parser.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path; fail when it is absent."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"error: the program is missing ({package.relative_to(ROOT)} not found)", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        print(f"error: imported repro from {repro.__file__}, not the checkout", file=sys.stderr)
        raise SystemExit(2)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    _import_program()
    import common
    import layers
    from common import Outcome, Resources
    from tracing import Recorder

    common.install_exit_handlers()
    started = time.perf_counter()
    outcome = Outcome()
    recorder = Recorder() if args.trace else None
    resources = Resources()
    error = None
    workload = importlib.import_module(args.workload.replace("-", "_"))
    try:
        workload.run(args.seed, args.seconds, bool(args.trace), args.tiny, outcome, recorder, resources)
    except common.Interrupted as interrupt:
        error = f"interrupted: {interrupt}"
    except Exception:  # a failed run still cleans up and reports what is left
        error = traceback.format_exc()
    finally:
        if recorder is not None:
            recorder.restore()
        resources.close()
    # The check sees what the workload's own cleanup left; only then does
    # the safety net kill the rest, so nothing outlives the run either way.
    hygiene = common.hygiene_report(resources)
    common.kill_children()
    clean = not any(hygiene.values())
    outcome.check("hygiene.clean", clean, json.dumps(hygiene))

    if error is not None:
        print(error, file=sys.stderr)
        return 1
    setups = outcome.extra["setup_samples"]
    outcome.metrics["setup_s"] = common.Metric(statistics.median(setups), "s", len(setups))
    outcome.metrics["peak_rss_mb"] = common.Metric(
        outcome.extra.get("server_peak_rss_mb", common.peak_rss_mb()), "MB", 1)
    common.calibrate(outcome)

    out = common.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = layers.per_layer(workload, outcome, recorder, out) if args.trace else {
        name: outcome.metrics[name] for name in layers.END_TO_END}
    for name, metric in {**(outcome.details if not args.trace else {}), **metrics}.items():
        print(f"{name:34s} {metric.value:14.6g} {metric.unit:10s} samples={metric.samples}")
    for name, count in sorted(outcome.checks.items()):
        print(f"check {name}: {count} run")
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    passed = not outcome.failures
    common.write_json(out.with_suffix(".json"), {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started, "checks": outcome.checks, "failures": outcome.failures,
        "hygiene": hygiene, "metrics": {name: vars(metric) for name, metric in metrics.items()},
        "details": {name: vars(metric) for name, metric in outcome.details.items()},
        "extra": layers.jsonable(outcome.extra),
    })
    failed = outcome.failed + (0 if clean else 1)
    print(json.dumps({
        "correct": passed,
        "attempted": max(outcome.attempted, 1),
        "failed": failed if passed else max(failed, 1),
        "metrics": {name: {"value": metric.value, "unit": metric.unit} for name, metric in metrics.items()},
    }))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

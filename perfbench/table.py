"""Render the attribution table of a traced run from its results file.

Results in, table out: the table is generated from the ``*.layers.json``
file a traced run writes, never typed by hand::

    python3 perfbench/table.py .perfbench_out/cold-exact-seed1-trace1.layers.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def render(results_path: Path | str) -> str:
    """Markdown: per op kind, self time, calls and share of op wall time by layer."""
    results = json.loads(Path(results_path).read_text())
    lines = [f"# Attribution: {results['workload']}", ""]
    for kind, layers in sorted(results["attribution"].items()):
        wall = layers["wall"]
        lines += [
            f"## op `{kind}`: {wall['calls']} ops, {wall['self_s'] * 1e3:.1f} ms wall",
            "",
            "| layer | self ms | spans | share of wall |",
            "|---|---:|---:|---:|",
        ]
        body = [(name, row) for name, row in layers.items() if name != "wall"]
        body.sort(key=lambda item: (item[0] == "unattributed", -item[1]["self_s"]))
        for name, row in body:
            lines.append(f"| {name} | {row['self_s'] * 1e3:.2f} | {row['calls']} | {row['share']:.3f} |")
        lines.append("")
    lines += ["## Per-layer metrics", "", "| metric | value |", "|---|---:|"]
    lines += [f"| {name} | {value:.6g} |" for name, value in sorted(results["layers"].items())]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    for path in sys.argv[1:]:
        print(render(path))

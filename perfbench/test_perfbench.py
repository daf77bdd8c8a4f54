"""Self-test of the benchmark: tiny, seconds-long runs of every workload.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q

For each workload, untraced and traced, it asserts that the printed metric
names and units match ``BENCHMARK.json``, that every correctness check ran
and passed, and that the hygiene check passed.  It also checks that a run
interrupted by SIGTERM leaves no process behind, and that the benchmark
refuses to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECKS = {
    "cold-exact": {"exact.methods_agree", "cta_w2.identical_to_serial", "cta_w2.children_reaped",
                   "stream.bracket_contains_exact", "sample.ci_misses_within_allowance", "hygiene.clean"},
    "serve-zipf": {"serve.exact_equals_engine", "serve.fixed_rate_nothing_failed",
                   "serve.honesty_within_allowance", "hygiene.clean"},
    "live-churn": {"live.standing_equals_cold", "snapshot.restored_hit_identical",
                   "live.damaged_share_in_band", "hygiene.clean"},
}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_catalogue_matches_benchmark_json():
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == layers.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _owners) in layers.PER_LAYER.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(CHECKS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(CHECKS))
def test_tiny_run(workload: str, trace: int):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    ran = {line.split()[1].rstrip(":") for line in lines if line.startswith("check ")}
    assert CHECKS[workload] <= ran
    if trace:
        for name, (_unit, _better, owners) in layers.PER_LAYER.items():
            if workload in owners and name not in layers.MAY_BE_ZERO:
                assert result["metrics"][name]["value"] != 0, name
        out = ROOT / ".perfbench_out" / f"{workload}-seed3-trace1"
        assert out.with_suffix(".trace.json").is_file()
        assert "| unattributed |" in out.with_name(out.name + ".table.md").read_text()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _servers_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        try:
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        if "serve_server.py" in cmdline and f'"parent": {pid}' in cmdline:
            found.append(int(entry))
    return found


def test_sigterm_leaves_no_process():
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve-zipf", "--seed", "4",
         "--seconds", "20", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not _servers_of(process.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _servers_of(process.pid), "the server never started"
        process.send_signal(signal.SIGTERM)
        _out, err = process.communicate(timeout=60)
        assert process.returncode != 0
        assert "interrupted" in err
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    time.sleep(0.5)
    assert not _servers_of(process.pid)


def test_refuses_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("cold-exact", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""

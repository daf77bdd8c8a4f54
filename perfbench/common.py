"""Shared plumbing of the benchmark: statistics, results, process hygiene.

Everything here is import-safe: importing starts no process and opens no
file.  The workload modules call into it; ``run.py`` owns the entry point.
"""

from __future__ import annotations

import ctypes
import gc
import json
import multiprocessing
import os
import resource
import shutil
import signal
import socket
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

#: Checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: Where runs write results, chrome traces and attribution tables.
OUT_DIR = ROOT / ".perfbench_out"
#: Parent of every temporary directory a run creates (removed before exit).
TMP_DIR = ROOT / ".perfbench_tmp"

_PR_SET_PDEATHSIG = 1


def die_with_parent(sig: int = signal.SIGKILL) -> None:
    """Ask the kernel to send ``sig`` to this process when its parent exits."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_PDEATHSIG, int(sig), 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


class Interrupted(Exception):
    """Raised in the main thread by SIGTERM/SIGINT so ``finally`` blocks run."""


def install_exit_handlers() -> None:
    """Turn SIGTERM/SIGINT into :class:`Interrupted` and bind child lifetimes.

    Forked children (the program's process pools fork) get a parent-death
    signal, so a benchmark killed outright cannot orphan them.
    """

    def raise_interrupted(signum, _frame):
        raise Interrupted(f"signal {signum}")

    signal.signal(signal.SIGTERM, raise_interrupted)
    signal.signal(signal.SIGINT, raise_interrupted)
    os.register_at_fork(after_in_child=die_with_parent)


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile, ``q`` in [0, 1]."""
    return float(np.percentile(list(values), q * 100.0))


@dataclass
class Metric:
    """One reported number with its unit and the sample count behind it."""

    value: float
    unit: str
    samples: int
    better: str = "lower"


#: Seconds of one :func:`reference_work` on the shared two-core host the
#: benchmark was tuned on, when it is not slowed down.  The anchor of :class:`HostSpeed`'s factor.
REFERENCE_S = 0.007
_REFERENCE_LP = (
    np.array([-1.0, -2.0, -0.5]),
    np.vstack([np.eye(3), -np.eye(3), np.random.default_rng(0).random((10, 3))]),
    np.concatenate([np.ones(3), np.zeros(3), np.full(10, 1.2)]),
)


def reference_work() -> float:
    """Seconds taken by a fixed computation of the program's kind, none of its code.

    Interpreter bytecode, small NumPy arrays and two small HiGHS LPs: the mix
    a kSPR query spends its time in.  It calls nothing in ``repro``, so a
    change to the program leaves it alone, and the garbage collector is off
    while it runs, so the program's heap does not reach into it either.
    """
    from scipy.optimize import linprog

    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        table: dict[int, int] = {}
        for i in range(30_000):
            total += (i * i) % 7
            table[i % 97] = total
        matrix = np.arange(36.0).reshape(6, 6)
        for _ in range(300):
            matrix = (matrix @ matrix.T) * 1e-3 + np.eye(6)
        cost, a_ub, b_ub = _REFERENCE_LP
        for _ in range(2):
            linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(None, None), method="highs")
        return time.perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """How fast the host ran through one run, from :func:`reference_work` samples.

    The shared two-core host slows everything by up to 1.5x, for seconds
    and for minutes at a time, CPU time as much as wall time, so a whole
    run can land in a slow spell that no statistic inside it can see.  The
    workloads take a sample right before each timed op, while nothing of
    the program runs, and ``run.py`` reports every timed end-to-end metric
    multiplied by :attr:`factor`: the time the op would take on the host
    running the reference in ``REFERENCE_S``.  The factor uses the mean
    sample, not the median: an op averages the host's speed over its whole
    duration, and in a run that spent part of its time slow the median
    sample jumped to the slow level and over-corrected.  The raw figures
    are printed beside them.

    serve-zipf takes no samples and reports raw times: its server is a
    second process on the same two cores, still busy between requests, so
    a sample in the load generator timed the server's load as much as the
    host's speed (its spreads grew from about 0.06 to 0.14).
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        if not self.samples:
            reference_work()  # imports and the first LP's set-up, unrecorded
        self.samples.append(reference_work())

    @property
    def factor(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Workload-specific end-to-end figures, printed but not in the result line's JSON.
    details: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    def check(self, name: str, ok: bool, message: str = "") -> bool:
        """Count one correctness check; record a failure message if it fails."""
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {message}" if message else name)
        return ok

    def op(self, ok: bool) -> None:
        """Count one attempted op and whether it failed a check."""
        self.attempted += 1
        self.failed += 0 if ok else 1


def calibrate(outcome: Outcome) -> None:
    """Scale the timed metrics by the run's :class:`HostSpeed` factor.

    A time is multiplied by the factor and a rate divided by it; the raw
    figure stays in ``details`` as ``raw.<name>``, beside the host's speed.
    A workload that took no samples is reported raw.
    """
    if not outcome.host.samples:
        return
    factor = outcome.host.factor
    for name, metric in list(outcome.metrics.items()):
        power = {"s": 1, "ms": 1, "1/s": -1}.get(metric.unit, 0)
        if power:
            outcome.details[f"raw.{name}"] = metric
            outcome.metrics[name] = replace(metric, value=metric.value * factor**power)
    samples = outcome.host.samples
    outcome.details["host.reference_ms"] = Metric(statistics.fmean(samples) * 1e3, "ms", len(samples))
    outcome.details["host.factor"] = Metric(factor, "ratio", len(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds the process ``pid`` has used, all its threads."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed_setups(setup: Callable[[], Any], repeats: int,
                 host: HostSpeed | None = None) -> tuple[Any, list[float]]:
    """Run ``setup`` ``repeats`` times; return the last state and every duration.

    With ``host``, its speed is sampled before each set-up.
    """
    durations = []
    state = None
    for _ in range(repeats):
        state = None  # release the previous set-up before building the next
        if host is not None:
            host.sample()
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return state, durations


# --------------------------------------------------------------------------- #
# process hygiene
# --------------------------------------------------------------------------- #
def child_pids() -> list[int]:
    """Live (non-zombie) child processes of this process."""
    parent = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        # The command name is parenthesised and may contain spaces.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == parent and fields[0] != "Z":
            found.append(int(entry))
    return found


def reap_children(timeout: float = 10.0) -> list[int]:
    """Join exited children and wait up to ``timeout`` for the rest to exit.

    The program's sharded CTA shuts its process pool down without waiting,
    so its workers outlive the query by a few milliseconds.  Returns the
    children still alive when the timeout expires.
    """
    deadline = time.monotonic() + timeout
    while True:
        multiprocessing.active_children()  # joins finished multiprocessing children
        alive = child_pids()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.002)


def kill_children() -> None:
    """SIGKILL every remaining child and reap it."""
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
    for process in multiprocessing.active_children():
        process.join(timeout=5)
    reap_children(timeout=5)


def own_listening_sockets() -> int:
    """Listening sockets held open by this process."""
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except OSError:
            continue
        inodes.update(line.split()[9] for line in lines if line.split()[3] == "0A")
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in inodes:
            count += 1
    return count


def port_is_closed(port: int) -> bool:
    """True when nothing accepts connections on the loopback ``port``."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.settimeout(0.5)
        return probe.connect_ex(("127.0.0.1", port)) != 0


class Resources:
    """What a run must give back: temporary directories (inside the checkout,
    removed by :meth:`close`) and the loopback ports its servers listened on."""

    def __init__(self) -> None:
        self.paths: list[Path] = []
        self.ports: list[int] = []

    def make_dir(self, label: str) -> Path:
        path = TMP_DIR / f"{os.getpid()}-{label}-{len(self.paths)}"
        path.mkdir(parents=True)
        self.paths.append(path)
        return path

    def close(self) -> None:
        for path in self.paths:
            shutil.rmtree(path, ignore_errors=True)
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()

    def leftover(self) -> list[str]:
        return [str(path) for path in self.paths if path.exists()]


def hygiene_report(resources: Resources) -> dict[str, Any]:
    """Children, listening sockets, ports and temp dirs this run left behind."""
    return {
        "children": reap_children(timeout=5.0),
        "listening_sockets": own_listening_sockets(),
        "open_ports": sorted(port for port in resources.ports if not port_is_closed(port)),
        "temp_dirs": resources.leftover(),
    }


# --------------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------------- #
def write_json(path: Path, payload: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True, default=float))

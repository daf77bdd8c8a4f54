"""The server under test for serve-zipf, run in its own process.

Started by ``serve_zipf.py`` with one JSON argument; prints ``{"port": p}``
once it listens, then obeys one command per stdin line:

* ``mark`` — snapshot the engine's cache counters (start of a timed phase);
* ``trace on`` / ``trace off`` — install / remove the serve-layer wrappers;
* ``stop`` (or end of input, which is what a dead parent looks like) —
  stop serving and print one JSON line with peak RSS, counter deltas since
  the last ``mark`` and the traced spans' aggregates, then exit.

It also asks the kernel to kill it when its parent dies, so no run leaves a
server behind.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from common import die_with_parent, peak_rss_mb  # noqa: E402
from tracing import Recorder, SpanRecord, build_forest, by_name, install_layer_wrappers, write_chrome_trace  # noqa: E402


async def serve(config: dict, parent: int) -> dict:
    from repro import Engine
    from repro.data import independent_dataset
    from repro.obs import NULL_TRACER, Tracer
    from repro.serve import KSPRService, ServeConfig, ServeServer

    engine = Engine(independent_dataset(config["n"], config["d"], seed=config["seed"]), k_max=8)
    service = KSPRService(engine, ServeConfig(
        refine_method="pcta", worker_threads=2, max_concurrent=4096, tenant_burst=1e9, tenant_rate=1e9))
    recorder = Recorder()
    tracer = Tracer()
    loop = asyncio.get_running_loop()
    stopped = asyncio.Event()
    marks: dict[str, float] = {}

    def command(line: str) -> None:
        if line == "mark":
            marks.update(engine.metrics())
        elif line == "trace on":
            install_layer_wrappers(recorder, serve=True)
            service.tracer = tracer  # the program's own serve.* spans
        elif line == "trace off":
            recorder.restore()
            service.tracer = NULL_TRACER
        else:
            stopped.set()

    def read_commands() -> None:
        for raw in sys.stdin:
            loop.call_soon_threadsafe(command, raw.strip())
        loop.call_soon_threadsafe(stopped.set)

    async with ServeServer(service) as server:
        print(json.dumps({"port": server.port}), flush=True)
        threading.Thread(target=read_commands, daemon=True).start()
        if os.getppid() != parent:  # the parent died before the death signal was armed
            stopped.set()
        await stopped.wait()
        recorder.restore()
        service.tracer = NULL_TRACER
        await service.quiesce()
    await service.close()
    final = engine.metrics()
    # The service's own spans overlap across concurrent requests and may end
    # on another thread than they began, so they stay roots, on a pseudo-thread.
    spans = build_forest(recorder.spans) + [
        SpanRecord(span.name, span.start, span.end, 0, self_time=span.end - span.start)
        for span in tracer.spans if span.end is not None]
    if spans and config.get("trace_file"):
        write_chrome_trace(spans, Path(config["trace_file"]), pid=1)
    return {
        "peak_rss_mb": peak_rss_mb(),
        "cache_hits": final["engine.result_cache.hits"] - marks.get("engine.result_cache.hits", 0.0),
        "cache_misses": final["engine.result_cache.misses"] - marks.get("engine.result_cache.misses", 0.0),
        "spans": by_name(spans),
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    die_with_parent(signal.SIGKILL)
    if config["cpu"] is not None:
        os.sched_setaffinity(0, {config["cpu"]})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    summary = asyncio.run(serve(config, config["parent"]))
    print(json.dumps(summary), flush=True)


if __name__ == "__main__":
    main()

"""Tests of the invariant linter (``tools.analyze``).

Structure:

- A fixture corpus: for every shipped rule, at least one snippet that
  must fire and one that must pass, written to scope-appropriate paths
  under ``tmp_path`` (the scope predicates match resolved path *parts*,
  so a ``tmp/src/repro/serve/x.py`` file is in scope for serve rules).
- Suppression semantics: honoured with a reason, ``ANA000`` without one,
  ``ANA001`` for unknown rule ids.
- The JSON report schema round-trips losslessly.
- The repository itself lints clean — the CI contract.
- Catalogue consistency: legacy aliases and the engine's registry only
  ever resolve to catalogued names.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analyze import (  # noqa: E402
    Analyzer,
    Diagnostic,
    MetricCatalogue,
    MetricNameRule,
    Report,
)
from tools.analyze.cli import main  # noqa: E402


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def write(tmp_path: Path, relative: str, source: str) -> Path:
    """Write a fixture module at a scope-relevant relative path."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def run_rule(rule_id: str, path: Path) -> Report:
    """Run exactly one shipped rule over *path*."""
    return Analyzer().select([rule_id]).run([path])


def fired(report: Report, rule_id: str) -> list[Diagnostic]:
    return [d for d in report.diagnostics if d.rule == rule_id]


# --------------------------------------------------------------------------- #
# TOL001 — tolerance literals
# --------------------------------------------------------------------------- #
class TestTol001:
    def test_fires_on_negative_exponent_literal(self, tmp_path):
        bad = write(tmp_path, "src/repro/geometry/bad.py", "EPS = 1e-9\n")
        report = run_rule("TOL001", bad)
        (finding,) = fired(report, "TOL001")
        assert finding.line == 1
        assert "1e-9" in finding.message

    def test_passes_plain_floats_and_docstring_mentions(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/geometry/good.py",
            '"""Tolerances like 1e-9 may be *mentioned* here."""\n'
            "HALF = 0.5\n"
            "BIG = 1e9\n",
        )
        assert run_rule("TOL001", good).clean

    def test_out_of_scope_in_robust_and_tests(self, tmp_path):
        robust = write(tmp_path, "src/repro/robust/tolerance.py", "EPS = 1e-9\n")
        tests = write(tmp_path, "tests/test_geometry.py", "EPS = 1e-9\n")
        assert run_rule("TOL001", robust).clean
        assert run_rule("TOL001", tests).clean


# --------------------------------------------------------------------------- #
# DET001 — unseeded randomness
# --------------------------------------------------------------------------- #
class TestDet001:
    def test_fires_on_global_numpy_rng_draw(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/data/bad.py",
            "import numpy as np\nx = np.random.rand(3)\n",
        )
        (finding,) = fired(run_rule("DET001", bad), "DET001")
        assert "global" in finding.message

    def test_fires_on_unseeded_default_rng(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/approx/bad.py",
            "import numpy as np\nrng = np.random.default_rng()\n",
        )
        assert fired(run_rule("DET001", bad), "DET001")

    def test_fires_on_stdlib_global_rng(self, tmp_path):
        bad = write(tmp_path, "lib/bad.py", "import random\nx = random.random()\n")
        assert fired(run_rule("DET001", bad), "DET001")

    def test_passes_seeded_generators(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/approx/good.py",
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng(42)\n"
            "alt = random.Random(7)\n"
            "child = np.random.default_rng(np.random.SeedSequence(11))\n",
        )
        assert run_rule("DET001", good).clean

    def test_pytest_fixtures_are_exempt(self, tmp_path):
        good = write(
            tmp_path,
            "tests/helpers.py",
            "import pytest\n"
            "import numpy as np\n"
            "@pytest.fixture\n"
            "def rng():\n"
            "    return np.random.default_rng()\n",
        )
        assert run_rule("DET001", good).clean


# --------------------------------------------------------------------------- #
# ASYNC001 — blocking calls in the serving tier
# --------------------------------------------------------------------------- #
class TestAsync001:
    def test_fires_on_time_sleep_in_async_def(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/serve/bad.py",
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)\n",
        )
        (finding,) = fired(run_rule("ASYNC001", bad), "ASYNC001")
        assert finding.line == 3

    def test_fires_on_direct_engine_query(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/serve/bad_engine.py",
            "async def answer(self, request):\n"
            "    return self.engine.query(request.focal, request.k)\n",
        )
        assert fired(run_rule("ASYNC001", bad), "ASYNC001")

    def test_cache_only_peek_passes_only_with_the_literal_true(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/serve/peek.py",
            "async def answer(self, request):\n"
            "    return self.engine.query(request.focal, request.k, cached_only=True)\n",
        )
        assert run_rule("ASYNC001", good).clean
        bad = write(
            tmp_path,
            "src/repro/serve/not_a_peek.py",
            "async def answer(self, request, flag):\n"
            "    self.engine.query(request.focal, request.k, cached_only=False)\n"
            "    self.engine.query(request.focal, request.k, cached_only=flag)\n"
            "    self.engine.query_stream(request.focal, request.k, cached_only=1)\n",
        )
        assert [finding.line for finding in fired(run_rule("ASYNC001", bad), "ASYNC001")] == [
            2, 3, 4,
        ]

    def test_passes_pool_routed_and_sync_code(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/serve/good.py",
            "import time\n"
            "async def handler(self, request):\n"
            "    return await self._run_blocking(self.engine.query, request.focal)\n"
            "def warm_up():\n"
            "    time.sleep(0.1)\n",
        )
        assert run_rule("ASYNC001", good).clean

    def test_nested_sync_callbacks_are_exempt(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/serve/callback.py",
            "import time\n"
            "async def handler(self):\n"
            "    def on_pool_thread():\n"
            "        time.sleep(0.1)\n"
            "    return await self._run_blocking(on_pool_thread)\n",
        )
        assert run_rule("ASYNC001", good).clean

    def test_out_of_scope_outside_serve(self, tmp_path):
        elsewhere = write(
            tmp_path,
            "src/repro/engine/sync.py",
            "import time\n"
            "async def helper():\n"
            "    time.sleep(0.1)\n",
        )
        assert run_rule("ASYNC001", elsewhere).clean


# --------------------------------------------------------------------------- #
# OBS001 — canonical metric names
# --------------------------------------------------------------------------- #
class TestObs001:
    def test_fires_on_uncatalogued_literal(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/engine/bad.py",
            "def record(registry):\n"
            "    registry.counter('made.up.metric').inc()\n",
        )
        (finding,) = fired(run_rule("OBS001", bad), "OBS001")
        assert "made.up.metric" in finding.message

    def test_fires_on_undeclared_dynamic_family(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/engine/bad_dynamic.py",
            "def record(registry, kind):\n"
            "    registry.counter(f'surprise.{kind}.total').inc()\n",
        )
        assert fired(run_rule("OBS001", bad), "OBS001")

    def test_passes_catalogued_names_and_declared_families(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/engine/good.py",
            "from repro.obs.names import SERVE_REJECTED_PREFIX\n"
            "def record(registry, reason):\n"
            "    registry.counter('engine.queries').inc()\n"
            "    registry.counter(f'serve.rejected.{reason}.total').inc()\n"
            "    registry.counter(f'{SERVE_REJECTED_PREFIX}{reason}.total').inc()\n",
        )
        assert run_rule("OBS001", good).clean

    def test_constant_references_are_trusted(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/serve/good_ref.py",
            "from repro.obs.names import SERVE_ACTIVE\n"
            "def record(registry):\n"
            "    registry.gauge(SERVE_ACTIVE).set(1)\n",
        )
        assert run_rule("OBS001", good).clean

    def test_injected_catalogue(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/engine/injected.py",
            "def record(registry):\n"
            "    registry.counter('engine.queries').inc()\n",
        )
        tiny = MetricNameRule(MetricCatalogue(names=["only.this.one"]))
        report = Analyzer([tiny]).run([bad])
        assert fired(report, "OBS001")


# --------------------------------------------------------------------------- #
# OBS002 — span.set determinism
# --------------------------------------------------------------------------- #
class TestObs002:
    def test_fires_on_wall_clock_in_span_set(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/engine/bad_span.py",
            "import time\n"
            "def trace(span):\n"
            "    span.set(elapsed=time.perf_counter())\n",
        )
        (finding,) = fired(run_rule("OBS002", bad), "OBS002")
        assert "span.note" in finding.message

    def test_fires_on_dict_order_in_span_set(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/engine/bad_span_items.py",
            "def trace(span, extras):\n"
            "    span.set(extras=list(extras.items()))\n",
        )
        assert fired(run_rule("OBS002", bad), "OBS002")

    def test_passes_deterministic_set_and_volatile_note(self, tmp_path):
        good = write(
            tmp_path,
            "src/repro/engine/good_span.py",
            "import time\n"
            "def trace(span, stats):\n"
            "    span.set(k=5, method='cta', batches=int(stats.batches))\n"
            "    span.note(seconds=time.perf_counter())\n",
        )
        assert run_rule("OBS002", good).clean


# --------------------------------------------------------------------------- #
# EXC001 — silent exception swallowing
# --------------------------------------------------------------------------- #
class TestExc001:
    def test_fires_on_except_pass(self, tmp_path):
        bad = write(
            tmp_path,
            "src/repro/serve/bad_exc.py",
            "def close(writer):\n"
            "    try:\n"
            "        writer.close()\n"
            "    except ConnectionError:\n"
            "        pass\n",
        )
        (finding,) = fired(run_rule("EXC001", bad), "EXC001")
        assert "ConnectionError" in finding.message

    def test_fires_on_broad_handler_that_ignores_the_error(self, tmp_path):
        bad = write(
            tmp_path,
            "lib/bad_broad.py",
            "def compute():\n"
            "    try:\n"
            "        return risky()\n"
            "    except Exception:\n"
            "        result = None\n"
            "    return result\n",
        )
        assert fired(run_rule("EXC001", bad), "EXC001")

    def test_passes_logged_raised_and_narrow_handlers(self, tmp_path):
        good = write(
            tmp_path,
            "lib/good_exc.py",
            "import logging\n"
            "logger = logging.getLogger(__name__)\n"
            "def compute(iterator):\n"
            "    try:\n"
            "        return next(iterator)\n"
            "    except StopIteration:\n"
            "        return None\n"
            "    except ConnectionError as error:\n"
            "        logger.debug('reset: %s', error)\n"
            "    except Exception:\n"
            "        raise\n",
        )
        assert run_rule("EXC001", good).clean


# --------------------------------------------------------------------------- #
# suppressions
# --------------------------------------------------------------------------- #
class TestSuppressions:
    BAD_LINE = "EPS = 1e-9"

    def test_trailing_suppression_with_reason_is_honoured(self, tmp_path):
        path = write(
            tmp_path,
            "src/repro/geometry/sup.py",
            f"{self.BAD_LINE}  # analyze: ignore[TOL001] -- doc example\n",
        )
        report = run_rule("TOL001", path)
        assert report.clean
        assert report.suppressed == 1

    def test_comment_above_suppression_is_honoured(self, tmp_path):
        path = write(
            tmp_path,
            "src/repro/geometry/sup_above.py",
            "# analyze: ignore[TOL001] -- doc example\n" f"{self.BAD_LINE}\n",
        )
        report = run_rule("TOL001", path)
        assert report.clean
        assert report.suppressed == 1

    def test_reasonless_suppression_reports_ana000_and_does_not_silence(self, tmp_path):
        path = write(
            tmp_path,
            "src/repro/geometry/sup_bad.py",
            f"{self.BAD_LINE}  # analyze: ignore[TOL001]\n",
        )
        report = run_rule("TOL001", path)
        assert fired(report, "ANA000")
        assert fired(report, "TOL001")
        assert report.suppressed == 0

    def test_unknown_rule_id_reports_ana001(self, tmp_path):
        path = write(
            tmp_path,
            "src/repro/geometry/sup_unknown.py",
            "X = 1  # analyze: ignore[NOPE999] -- misspelled\n",
        )
        report = Analyzer().run([path])
        assert fired(report, "ANA001")

    def test_suppression_only_covers_its_rule(self, tmp_path):
        path = write(
            tmp_path,
            "src/repro/geometry/sup_other.py",
            f"{self.BAD_LINE}  # analyze: ignore[EXC001] -- wrong rule\n",
        )
        report = Analyzer().run([path])
        assert fired(report, "TOL001")


# --------------------------------------------------------------------------- #
# engine-level behaviour
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_syntax_error_becomes_ana100(self, tmp_path):
        path = write(tmp_path, "src/repro/broken.py", "def f(:\n")
        report = Analyzer().run([path])
        assert fired(report, "ANA100")

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            Analyzer().run(["no/such/path"])

    def test_select_unknown_rule_raises(self):
        with pytest.raises(ValueError):
            Analyzer().select(["NOPE999"])

    def test_report_json_round_trip(self, tmp_path):
        write(tmp_path, "src/repro/geometry/a.py", "EPS = 1e-9\n")
        write(
            tmp_path,
            "src/repro/serve/b.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        )
        report = Analyzer().run([tmp_path])
        assert not report.clean
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["version"] == 1
        hydrated = Report.from_dict(payload)
        assert hydrated.diagnostics == report.diagnostics
        assert hydrated.files_scanned == report.files_scanned
        assert hydrated.rules == report.rules

    def test_diagnostics_are_sorted_and_stable(self, tmp_path):
        write(tmp_path, "src/repro/geometry/zz.py", "A = 1e-9\nB = 2e-9\n")
        write(tmp_path, "src/repro/geometry/aa.py", "C = 3e-9\n")
        report = Analyzer().run([tmp_path])
        keys = [(d.path, d.line, d.column, d.rule) for d in report.diagnostics]
        assert keys == sorted(keys)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write(tmp_path, "src/repro/clean.py", "X = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().err

    def test_exit_one_on_findings_text(self, tmp_path, capsys):
        write(tmp_path, "src/repro/geometry/bad.py", "EPS = 1e-9\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr()
        assert "TOL001" in out.out
        assert "finding" in out.err

    def test_json_output_parses(self, tmp_path, capsys):
        write(tmp_path, "src/repro/geometry/bad.py", "EPS = 1e-9\n")
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 1
        assert payload["diagnostics"][0]["rule"] == "TOL001"

    def test_select_restricts_rules(self, tmp_path):
        write(tmp_path, "src/repro/geometry/bad.py", "EPS = 1e-9\n")
        assert main([str(tmp_path), "--select", "EXC001"]) == 0
        assert main([str(tmp_path), "--select", "TOL001"]) == 1

    def test_usage_errors_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--select", "NOPE999", str(tmp_path)])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["no/such/path"])
        assert excinfo.value.code == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("TOL001", "DET001", "ASYNC001", "OBS001", "OBS002", "EXC001"):
            assert rule_id in out


# --------------------------------------------------------------------------- #
# the repository upholds its own invariants
# --------------------------------------------------------------------------- #
class TestRepositoryIsClean:
    def test_full_repo_lints_clean(self):
        report = Analyzer().run([REPO_ROOT / "src", REPO_ROOT / "tests"])
        rendered = "\n".join(d.render() for d in report.diagnostics)
        assert report.clean, f"new invariant violations:\n{rendered}"


# --------------------------------------------------------------------------- #
# catalogue consistency (runtime, not static)
# --------------------------------------------------------------------------- #
class TestCatalogueConsistency:
    def test_legacy_aliases_resolve_into_the_catalogue(self):
        from repro.obs.metrics import LEGACY_ALIASES
        from repro.obs.names import ALL_METRIC_NAMES

        stray = {
            target for target in LEGACY_ALIASES.values()
            if target not in ALL_METRIC_NAMES
        }
        assert not stray, f"alias targets missing from the catalogue: {sorted(stray)}"

    def test_engine_registry_names_are_catalogued(self):
        import numpy as np

        from repro.data import independent_dataset
        from repro.engine import Engine
        from repro.obs.names import ENGINE_METRIC_NAMES

        dataset = independent_dataset(40, 3, seed=5)
        engine = Engine(dataset)
        focal = np.asarray(dataset.values[0]) * 0.97
        engine.query(focal, 2)
        registered = {
            instrument.name for instrument in engine.metrics_registry().instruments()
        }
        # Equality, not a subset: a dropped engine counter fails here too.
        assert registered == set(ENGINE_METRIC_NAMES), (
            f"stray: {sorted(registered - set(ENGINE_METRIC_NAMES))}, "
            f"missing: {sorted(set(ENGINE_METRIC_NAMES) - registered)}"
        )
        assert len(ENGINE_METRIC_NAMES) == 29

    def test_query_stats_registry_names_are_catalogued(self):
        import numpy as np

        from repro import kspr
        from repro.data import independent_dataset
        from repro.obs.metrics import MetricsRegistry, stats_to_registry
        from repro.obs.names import ALL_METRIC_NAMES, DYNAMIC_METRIC_PREFIXES

        dataset = independent_dataset(40, 3, seed=5)
        focal = np.asarray(dataset.values[0]) * 0.97
        result = kspr(dataset, focal, 2)
        registry = stats_to_registry(
            result.stats, regions=len(result), registry=MetricsRegistry()
        )
        stray = {
            instrument.name for instrument in registry.instruments()
            if instrument.name not in ALL_METRIC_NAMES
            and not any(
                instrument.name.startswith(p) for p in DYNAMIC_METRIC_PREFIXES
            )
        }
        assert not stray, f"stats names missing from the catalogue: {sorted(stray)}"

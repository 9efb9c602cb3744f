"""Shared fixtures for the benchmark suite.

Every benchmark module regenerates one of the paper's figures/claims.
Two reporting channels exist:

* the ``report`` fixture collects regenerated rows and a terminal-
  summary hook prints them after the timing tables, so that
  ``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
  report recorded in EXPERIMENTS.md (pytest captures ordinary stdout,
  so printing from inside tests would be invisible on success);
* the ``record_scaling`` fixture collects *machine-readable* rows —
  wall time, speedup, worker count — and the session hook appends
  them (merged with the pytest-benchmark timings) as one run to
  ``BENCH_scaling.json`` at the repo root.  Each run records the git
  commit, host, CPU budget and Python version beside its rows, and
  the file keeps the last ``_KEEP_RUNS`` runs, so the perf trajectory
  is tracked across commits instead of living only in log output.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path

import pytest

from repro.engine import cpu_budget, shard_workers

_REPORT_BLOCKS: dict[str, str] = {}
_SCALING_ROWS: list[dict] = []

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaling.json"
_KEEP_RUNS = 20


@pytest.fixture(scope="session")
def report():
    """Register a titled reproduction block for the terminal summary."""

    def _report(title: str, body: str) -> None:
        _REPORT_BLOCKS.setdefault(title, body)

    return _report


@pytest.fixture(scope="session")
def record_scaling():
    """Register one machine-readable perf row for BENCH_scaling.json.

    ``seconds`` is the measured wall time of the benchmarked operation;
    ``speedup`` (when given) is relative to the benchmark's own serial /
    baseline measurement, which is what the acceptance gates assert on.
    Extra keyword fields pass through to the JSON row unchanged.
    """

    def _record(name: str, *, seconds: float, speedup: float | None = None,
                workers: int | None = None, **extra) -> None:
        row: dict = {
            "benchmark": name,
            "seconds": round(float(seconds), 6),
            "workers": workers if workers is not None else shard_workers(),
        }
        if speedup is not None:
            row["speedup"] = round(float(speedup), 2)
        row.update(extra)
        _SCALING_ROWS.append(row)

    return _record


def _benchmark_timing_rows(session) -> list[dict]:
    """Harvest pytest-benchmark's own timing table, defensively.

    The plugin's internals are not a stable API, so missing attributes
    simply yield no rows rather than failing the run.
    """
    rows = []
    try:
        benchmarks = session.config._benchmarksession.benchmarks
    except AttributeError:
        return rows
    for bench in benchmarks:
        try:
            stats = bench.stats
            rows.append({
                "benchmark": bench.fullname,
                "seconds": round(float(stats.min), 6),
                "mean_seconds": round(float(stats.mean), 6),
                "rounds": int(stats.rounds),
                "workers": shard_workers(),
            })
        except (AttributeError, TypeError):
            continue
    return rows


def _git_sha() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_JSON_PATH.parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def pytest_sessionfinish(session, exitstatus):
    rows = _SCALING_ROWS + _benchmark_timing_rows(session)
    if not rows:
        return
    runs = (json.loads(_JSON_PATH.read_text())["runs"]
            if _JSON_PATH.exists() else [])
    runs.append({
        "git_sha": _git_sha(),
        "host": platform.platform(),
        "cpus": cpu_budget(),
        "python": platform.python_version(),
        "rows": rows,
    })
    payload = {"schema": 2, "runs": runs[-_KEEP_RUNS:]}
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _SCALING_ROWS:
        terminalreporter.section("BENCH_scaling.json")
        terminalreporter.write_line(f"{len(_SCALING_ROWS)} scaling rows + "
                                    f"benchmark timings -> {_JSON_PATH}")
    if not _REPORT_BLOCKS:
        return
    terminalreporter.section("regenerated paper artifacts")
    for title, body in _REPORT_BLOCKS.items():
        terminalreporter.write_line(f"===== {title} =====")
        for line in body.splitlines():
            terminalreporter.write_line(line)
        terminalreporter.write_line("")

"""Tests of the benchmark itself: op accounting, tracer hygiene, metric names.

Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (BENCH, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import spectrunc as sp  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectrunc import cayley, groupalg, harness, qmetric, truncation  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _row(**overrides):
    base = dict(lam=2, ball_size=5, folner_eps=0.2, eps_full=0.200564823203,
                eps_trunc=0.209814392157, gh_bound=0.419628784314)
    base.update(overrides)
    return sp.ConvergenceRow(**base)


def _evaluate_row(row):
    verify = lambda r: workloads.check_row(sp.FreeAbelian(1), 1e-11, r)  # noqa: E731
    return workloads.evaluate([workloads.Op("z:1 row", verify, value=row)])


def test_good_row_passes_every_check():
    tally = _evaluate_row(_row())
    assert (tally.attempted, tally.failed, tally.violations) == (1, 0, [])
    assert tally.checks == 5


def test_corrupted_gh_bound_counts_as_failed():
    tally = _evaluate_row(_row(gh_bound=0.43))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.violations == ["z:1 row: gh_bound == 2*max(eps_full, eps_trunc)"]


def test_epsilon_below_the_basis_floor_counts_as_failed():
    tally = _evaluate_row(_row(eps_full=0.19, gh_bound=0.419628784314))
    assert tally.failed == 1
    assert tally.violations == ["z:1 row: eps_full >= basis floor"]


def test_raising_op_counts_as_failed():
    ops = []
    workloads.attempt(ops, "capped", lambda: sp.ball(sp.Heisenberg(), 9, cap=10), None)
    tally = workloads.evaluate(ops)
    assert (tally.attempted, tally.failed, tally.checks) == (1, 1, 0)
    assert tally.errors[0].startswith("capped: ResourceCapError")


def _module_state():
    return {(mod.__name__, name): obj
            for mod in (sp, *tracing.LAYERS) for name, obj in vars(mod).items()}


def test_tracer_wraps_every_import_site_and_restores_originals():
    before = _module_state()
    originals = {
        (harness, "epsilon_full"): qmetric.epsilon_full,
        (qmetric, "spectral_norm"): groupalg.spectral_norm,
        (truncation, "symbol_positions"): groupalg.symbol_positions,
        (sp, "ball"): cayley.ball,
    }
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            for (mod, name), fn in originals.items():
                assert getattr(mod, name) is not fn
                assert getattr(mod, name).__wrapped__ is fn
            raise RuntimeError("restore on the way out of an error too")
    assert _module_state() == before


def test_tracer_counts_cache_hits_and_self_time():
    group = sp.FreeAbelian(3)
    cayley._BALL_CACHE.pop((group, 2), None)
    tracer = tracing.Tracer()
    with tracer:
        sp.ball(group, 2)
        sp.ball(group, 2)
        sp.word_length(group, (1, 1, 0))
    m = tracer.metrics()
    assert m["cayley.ball.calls"] == 2
    assert m["cayley.ball.cache_hits"] == 1
    assert m["cayley.ball.elements"] == 25
    assert m["cayley.word_length.calls"] == 1
    assert 0 <= m["cayley.ball.self_s"]


def test_metric_names_match_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    per_layer = {m["name"] for m in spec["per_layer"]}
    extras = {"trace.overhead_s", "failed_share", "distance_mean", "solver_cap_share"}
    assert per_layer == set(tracing.metric_names()) | extras
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-line", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

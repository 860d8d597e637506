"""Sweep configuration, reproducibility, and report export tests."""

import io
import json

import pytest

from spectrunc import (
    CSV_HEADER,
    ConvergenceReport,
    ConvergenceRow,
    ExperimentConfig,
    FreeAbelian,
    Heisenberg,
    ResourceCapError,
    choose_s,
    element_cap,
    export_report,
    fejer_kernel,
    gh_bound,
    group_from_key,
    growth_report,
    load_report,
    run_convergence,
)
from spectrunc import cayley, harness

from oracles import two_loop_growth_fit


def _small_config(**overrides):
    base = dict(group="z:1", lambda_range=(1, 2), trials=2, seed=3)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_config_validates_group_and_range():
    with pytest.raises(ValueError):
        ExperimentConfig(group="nope", lambda_range=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(group="z:1", lambda_range=())
    with pytest.raises(ValueError):
        ExperimentConfig(group="z:1", lambda_range=(0, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(group="z:1", lambda_range=(2, 2))
    with pytest.raises(ValueError):
        ExperimentConfig(group="z:1", lambda_range=(4, 2))


def test_config_validates_knobs():
    with pytest.raises(ValueError):
        _small_config(s=0)
    with pytest.raises(ValueError):
        _small_config(s="three")
    with pytest.raises(ValueError):
        _small_config(trials=-1)
    assert _small_config(trials=0).trials == 0
    with pytest.raises(ValueError):
        _small_config(format="yaml")


@pytest.mark.parametrize(
    "key, message",
    [("trials", "starts must be nonnegative, got -1"), ("seed", "seed must be nonnegative, got -1")],
)
def test_config_checks_trials_and_seed_by_the_search_rule(key, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(group="z:1", lambda_range=(2,), **{key: -1})


@pytest.mark.parametrize(
    "key, value, kind",
    [("s", True, "int"), ("seed", 1.5, "int"), ("lambda_range", 2.7, "int"), ("trials", 2.5, "int")],
)
def test_config_applies_the_config_type_rule(key, value, kind):
    overrides = {"lambda_range": (value,)} if key == "lambda_range" else {key: value}
    with pytest.raises(ValueError) as err:
        _small_config(**overrides)
    assert str(err.value) == f"config key {key!r} must be of type {kind}, got {value!r}"


def test_config_reads_whole_floats_as_integers():
    cfg = _small_config(lambda_range=(1.0, 2), s=2.0, seed=3.0, trials=2.0, ball_cap=50.0)
    assert cfg == _small_config(lambda_range=(1, 2), s=2, seed=3, trials=2, ball_cap=50)
    assert all(type(v) is int for v in (*cfg.lambda_range, cfg.s, cfg.seed, cfg.trials))


@pytest.mark.parametrize("radii, lams", [("16", (16,)), ("2, 4 8", (2, 4, 8))])
def test_config_splits_a_string_of_radii(radii, lams):
    assert ExperimentConfig(group="z:1", lambda_range=radii).lambda_range == lams


def test_config_rejects_radii_that_are_neither_a_string_nor_an_iterable():
    with pytest.raises(ValueError) as err:
        ExperimentConfig(group="z:1", lambda_range=16)
    assert str(err.value) == "config key 'lambda_range' must be of type str, got 16"


def test_config_from_mapping_reads_a_missing_range_as_empty():
    with pytest.raises(ValueError, match="^lambda_range must be nonempty$"):
        ExperimentConfig.from_mapping({"group": "z:1"})


def test_config_from_mapping():
    cfg = ExperimentConfig.from_mapping(
        {"group": "z:2", "lambda_range": "2, 4 8", "seed": 5}
    )
    assert cfg.lambda_range == (2, 4, 8)
    assert cfg.seed == 5
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_mapping({"group": "z:1", "lambda_range": (1,), "spam": 1})


# ---------------------------------------------------------------------------
# derivative-order heuristic


def test_choose_s_tracks_growth_degree():
    assert choose_s(FreeAbelian(1)) == 2
    assert choose_s(FreeAbelian(2)) == 2
    assert choose_s(Heisenberg()) == 3


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_rows_are_deterministic():
    cfg = _small_config()
    a = run_convergence(cfg)
    b = run_convergence(cfg)
    assert a.rows == b.rows
    assert a.metadata["s"] == 2


def test_sweep_rows_do_not_depend_on_range_composition():
    full = run_convergence(_small_config(lambda_range=(1, 2)))
    solo = run_convergence(_small_config(lambda_range=(2,)))
    assert full.rows[1] == solo.rows[0]


def test_sweep_row_contents():
    report = run_convergence(_small_config(lambda_range=(2,)))
    (row,) = report.rows
    assert row.lam == 2
    assert row.ball_size == 5
    assert row.folner_eps == float(fejer_kernel(FreeAbelian(1), 2).folner_epsilon)
    assert row.gh_bound == gh_bound(row.eps_full, row.eps_trunc)
    assert not row.skipped


def test_sweep_marks_capped_rows_skipped():
    report = run_convergence(_small_config(lambda_range=(1, 9), ball_cap=10))
    first, second = report.rows
    assert not first.skipped
    assert second.skipped
    assert "10" in second.reason
    assert second.eps_full is None


@pytest.mark.parametrize("group", ["z:1", "z:2", "z:3", "heisenberg"])
def test_auto_s_comes_from_the_reported_fit(group, monkeypatch):
    fits = []

    def counted(*args, **kwargs):
        fits.append(args)
        return growth_report(*args, **kwargs)

    monkeypatch.setattr(harness, "growth_report", counted)
    report = run_convergence(ExperimentConfig(group=group, lambda_range=(1,), trials=1))
    assert len(fits) == 1
    degree = report.metadata["fitted_degree"]
    assert (max(1, round(degree)) + 1) // 2 + 1 == report.metadata["s"]
    assert report.metadata["s"] == choose_s(group_from_key(group))


def _fit_or_error(fit, group, cap, monkeypatch):
    """A growth fit, or its error's type and message, from empty ball caches.

    Also returns how many radii the group's enumeration reached, or None
    when a cap below 1 was refused before any enumeration started.
    """
    monkeypatch.setattr(cayley, "_BALL_CACHE", {})
    monkeypatch.setattr(cayley, "_ENUMERATIONS", {})
    try:
        with element_cap(cap):
            outcome = fit(group)
    except (ResourceCapError, ValueError) as exc:
        outcome = (type(exc), str(exc))
    enumeration = cayley._ENUMERATIONS.get(group)
    return outcome, None if enumeration is None else len(enumeration.sizes)


@pytest.mark.parametrize("key", ["z:1", "z:2", "z:3", "z:4", "heisenberg", "z:10"])
def test_one_pass_growth_fit_equals_the_two_loop_fit(key, monkeypatch):
    # z:10 is the group whose first ball over 4,000 elements has radius below 4
    group = group_from_key(key)
    caps = (None, 0, 1, 3, 5, 7, 10, 20, 50, 100, 200, 500, 1000, 2000, 4000, 5000, 20000)
    failed = []
    for cap in caps:
        want = _fit_or_error(two_loop_growth_fit, group, cap, monkeypatch)
        got = _fit_or_error(harness._growth_fit, group, cap, monkeypatch)
        assert got == want, cap
        failed.append(type(got[0]) is tuple)
    assert any(failed) and not all(failed)


def test_sweep_with_a_given_s_reports_no_fit_when_the_cap_stops_it():
    report = run_convergence(_small_config(lambda_range=(1,), s=2, ball_cap=4))
    assert report.metadata["fitted_beta"] is None
    assert report.metadata["fitted_degree"] is None
    assert report.rows[0].skipped


def test_sweep_metadata_has_growth_fits():
    report = run_convergence(_small_config())
    assert abs(report.metadata["fitted_degree"] - 1.0) < 0.5
    assert report.metadata["fitted_beta"] is not None
    assert report.metadata["group"] == "z:1"


# ---------------------------------------------------------------------------
# export and reload


def test_csv_export_format(tmp_path):
    report = run_convergence(_small_config())
    out = tmp_path / "sweep.csv"
    export_report(report, out, format="csv")
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[1] == "3"
    assert first[2] == format(report.rows[0].folner_eps, ".12g")


def test_csv_export_omits_skipped_rows(tmp_path):
    report = run_convergence(_small_config(lambda_range=(1, 9), ball_cap=10))
    out = tmp_path / "sweep.csv"
    export_report(report, out, format="csv")
    lines = out.read_text().splitlines()
    assert len(lines) == 2


def test_json_roundtrip_is_exact(tmp_path):
    report = run_convergence(_small_config())
    out = tmp_path / "sweep.json"
    export_report(report, out, format="json")
    back = load_report(out)
    assert back.rows == report.rows
    assert back.metadata == report.metadata
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["lam"] == 1


def test_gnuplot_script_emitted(tmp_path):
    report = run_convergence(_small_config())
    out = tmp_path / "sweep.csv"
    export_report(report, out, format="csv", gnuplot=True)
    script = (tmp_path / "sweep.gp").read_text()
    assert "sweep.csv" in script
    assert "logscale" in script


def test_gnuplot_needs_a_csv_file_path(tmp_path):
    report = ConvergenceReport(rows=(ConvergenceRow(lam=1, skipped=True),), metadata={})
    stream = io.StringIO()
    with pytest.raises(ValueError, match="gnuplot"):
        export_report(report, stream, gnuplot=True)
    with pytest.raises(ValueError, match="gnuplot"):
        export_report(report, tmp_path / "sweep.json", format="json", gnuplot=True)
    assert stream.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


def test_export_rejects_unknown_format(tmp_path):
    report = ConvergenceReport(rows=(ConvergenceRow(lam=1),), metadata={})
    with pytest.raises(ValueError):
        export_report(report, tmp_path / "x.dat", format="tsv")

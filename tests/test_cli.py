"""Command line interface tests: exit codes, formats, and file round trips."""

import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from spectrunc import (
    CSV_HEADER,
    FreeAbelian,
    compress,
    delta,
    fejer_kernel,
    format_algebra_element,
    parse_algebra_element,
    parse_toeplitz,
    reconstruct,
)
from spectrunc.cli import run

Z1 = FreeAbelian(1)
Z2 = FreeAbelian(2)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_ball_prints_size(capsys):
    code, out, err = _run(capsys, "ball", "--group", "z:2", "--radius", "2")
    assert code == 0
    assert out == "13\n"
    assert err == ""


def test_cap_exceeded_exits_3(capsys):
    code, out, err = _run(capsys, "ball", "--group", "z:2", "--radius", "50", "--cap", "5")
    assert code == 3
    assert out == ""
    assert "resource cap" in err


def test_bad_group_exits_2(capsys):
    code, out, err = _run(capsys, "ball", "--group", "su:2", "--radius", "1")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_missing_required_flag_exits_2(capsys):
    code, out, _ = _run(capsys, "ball", "--group", "z:1")
    assert code == 2
    assert out == ""


def test_unknown_subcommand_exits_2(capsys):
    code, out, _ = _run(capsys, "frobnicate")
    assert code == 2
    assert out == ""


def test_missing_input_file_exits_2(capsys, tmp_path):
    code, _, err = _run(
        capsys, "commutator", "--group", "z:1", "--input", str(tmp_path / "nope.txt")
    )
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# kernel and growth output


def test_fejer_at_prints_exact_rational(capsys):
    code, out, _ = _run(capsys, "fejer", "--group", "z:1", "--lambda", "2", "--at", "1")
    assert code == 0
    assert out == "4/5\n"


def test_fejer_at_float(capsys):
    code, out, _ = _run(
        capsys, "fejer", "--group", "z:1", "--lambda", "2", "--at", "1", "--float"
    )
    assert code == 0
    assert float(out) == pytest.approx(0.8, abs=1e-12)


def test_fejer_dump_parses_back_to_kernel(capsys):
    code, out, _ = _run(capsys, "fejer", "--group", "z:1", "--lambda", "2")
    assert code == 0
    f = parse_algebra_element(out, Z1)
    kern = fejer_kernel(Z1, 2)
    assert f.coeffs() == kern.values
    assert f[(1,)] == Fraction(4, 5)


def test_growth_output_shape(capsys):
    code, out, _ = _run(capsys, "growth", "--group", "z:1", "--lambda-max", "4")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "lambda,size,ratio"
    assert lines[1] == "0,1,"
    assert lines[2] == "1,3,2/3"
    assert lines[-2].startswith("fitted_beta,")
    assert lines[-1].startswith("fitted_degree,")


# ---------------------------------------------------------------------------
# element pipelines


def test_truncate_reconstruct_commutator_pipeline(capsys, tmp_path):
    f = delta(Z1, (1,)) + delta(Z1, (-2,), 0.5 - 0.25j)
    src = tmp_path / "f.txt"
    src.write_text(format_algebra_element(f))

    sym = tmp_path / "sym.txt"
    code, _, _ = _run(
        capsys, "truncate", "--group", "z:1", "--lambda", "2",
        "--input", str(src), "--output", str(sym),
    )
    assert code == 0
    T = parse_toeplitz(sym.read_text(), Z1)
    assert T == compress(f, 2)

    rec = tmp_path / "rec.txt"
    code, _, _ = _run(
        capsys, "reconstruct", "--group", "z:1",
        "--input", str(sym), "--output", str(rec),
    )
    assert code == 0
    got = parse_algebra_element(rec.read_text(), Z1)
    diff = got - reconstruct(T)
    assert all(abs(complex(v)) < 1e-12 for _, v in diff.items())
    assert abs(got[(1,)] - 0.8) < 1e-12

    code, out, _ = _run(capsys, "commutator", "--group", "z:1", "--input", str(sym))
    assert code == 0
    assert float(out) > 0


def test_lipnorm_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    src = tmp_path / "f.txt"
    src.write_text("1 0 1\n")
    code, out, _ = _run(
        capsys, "lipnorm", "--group", "z:1", "--s", "1", "--input", str(src)
    )
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)

    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1\n"))
    code, out, _ = _run(capsys, "lipnorm", "--group", "z:1", "--s", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# solver commands


def test_distance_command(capsys, tmp_path):
    phi = tmp_path / "phi.txt"
    psi = tmp_path / "psi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    psi.write_text("1 0 0\n")
    code, out, err = _run(
        capsys, "distance", "--group", "z:1", "--lambda", "1", "--s", "1",
        "--phi", str(phi), "--psi", str(psi),
    )
    assert code == 0
    assert float(out) == pytest.approx(2 ** -0.5, abs=1e-8)
    assert err == ""


def test_epsilon_command_output(capsys):
    code, out, _ = _run(
        capsys, "epsilon", "--group", "z:1", "--lambda", "2", "--s", "2",
        "--trials", "3",
    )
    assert code == 0
    lines = out.splitlines()
    vals = {}
    for line in lines:
        key, val = line.split()
        vals[key] = float(val)
    assert set(vals) == {"eps_full", "eps_trunc", "gh_bound"}
    assert vals["eps_full"] >= 0.2 - 1e-12
    assert vals["eps_trunc"] >= 0.2 - 1e-12
    assert vals["gh_bound"] == pytest.approx(
        2 * max(vals["eps_full"], vals["eps_trunc"]), rel=1e-10
    )


# ---------------------------------------------------------------------------
# sweeps


def test_converge_stdout_csv(capsys):
    code, out, _ = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "1,2", "--trials", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"


def test_converge_requires_lambdas(capsys):
    code, out, err = _run(capsys, "converge", "--group", "z:1")
    assert code == 2
    assert out == ""
    assert "lambda range" in err


def test_converge_json_config_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "group": "z:1",
        "lambda_range": "1,2",
        "trials": 2,
        "format": "json",
    }))
    code, out, _ = _run(capsys, "converge", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert [r["lam"] for r in payload["rows"]] == [1, 2]
    assert payload["metadata"]["s"] == 2

    # a flag overrides the config value for the same key
    code, out, _ = _run(capsys, "converge", "--config", str(cfg), "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER


def test_converge_keyvalue_config_with_output(capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    out_csv = tmp_path / "rows.csv"
    cfg.write_text("group = z:1\nlambda_range = 1 2\ntrials = 2\nseed = 9\n")
    code, out, _ = _run(
        capsys, "converge", "--config", str(cfg),
        "--output", str(out_csv), "--gnuplot",
    )
    assert code == 0
    assert out == ""
    lines = out_csv.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert (tmp_path / "rows.gp").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_converge_stdout_matches_output_file(capsys, tmp_path, fmt):
    argv = ["converge", "--group", "z:1", "--lambdas", "1,2", "--trials", "1", "--format", fmt]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    dest = tmp_path / f"rows.{fmt}"
    code, _, _ = _run(capsys, *argv, "--output", str(dest))
    assert code == 0
    assert out == dest.read_text()


def test_converge_skips_a_row_whose_pencil_ball_is_over_the_cap(capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("ball_cap = 6\ns = 2\ntrials = 1\n")
    code, out, _ = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "1", "--config", str(cfg),
        "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["skipped"]
    assert "radius 3" in row["reason"] and "cap of 6" in row["reason"]


def test_converge_auto_s_under_a_tight_cap_exits_3(capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("ball_cap = 6\n")
    code, out, err = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "1", "--config", str(cfg),
    )
    assert code == 3
    assert out == ""
    assert "resource cap" in err and "cap of 6" in err


def test_converge_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("group = z:1\nlambda_range = 1\nfrobs = 3\n")
    code, _, err = _run(capsys, "converge", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


# ---------------------------------------------------------------------------
# installed entry point


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spectrunc.cli", "ball", "--group", "z:1", "--radius", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"

"""Command line interface tests: exit codes, formats, and file round trips."""

import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from spectrunc import (
    CSV_HEADER,
    ExperimentConfig,
    FreeAbelian,
    SolverParams,
    compress,
    delta,
    epsilon_full,
    epsilon_truncated,
    fejer_kernel,
    format_algebra_element,
    gh_bound,
    lip_distance,
    parse_algebra_element,
    parse_toeplitz,
    random_density_state,
    random_selfadjoint,
    random_vector_state,
    reconstruct,
    run_convergence,
    vector_state,
)
from spectrunc import cli, qmetric
from spectrunc.cli import run
from spectrunc.harness import _fmt12

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


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_exits_2(capsys, cap):
    code, out, err = _run(capsys, "ball", "--group", "z:1", "--radius", "1", "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: cap must be at least 1, got {cap}\n"


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


def test_truncate_exact_reads_integer_coefficients(capsys, tmp_path):
    src = tmp_path / "f.txt"
    src.write_text("3 0 0\n")
    code, out, err = _run(
        capsys, "truncate", "--group", "z:1", "--lambda", "1", "--input", str(src), "--exact"
    )
    assert code == 0, err
    assert out == "lambda 1\n3 0 0\n"


def test_truncate_cap_bounds_the_double_ball(capsys, monkeypatch):
    args = ("truncate", "--group", "heisenberg", "--lambda", "5", "--cap")
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1 0 0\n"))
    code, out, err = _run(capsys, *args, "1000")  # the radius-10 ball has 4,309 elements
    assert (code, out) == (3, "")
    assert "cap of 1000" in err
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1 0 0\n"))
    code, out, err = _run(capsys, *args, "4309")
    assert code == 0, err
    assert out == "lambda 5\n1.0 0.0 1 0 0\n"


@pytest.mark.parametrize("text", ["1/0 0 1\n", "# c\nnan 0 1\n", "1 x 1\n"])
def test_truncate_bad_coefficient_exits_2(capsys, monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = _run(capsys, "truncate", "--group", "z:1", "--lambda", "2")
    assert code == 2
    assert out == ""
    assert "bad coefficient" in err


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
    code, out, err = _run(capsys, "lipnorm", "--group", "z:1", "--s", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)
    assert err == ""


def test_lipnorm_warns_when_the_radius_scan_stops_unconverged(capsys, monkeypatch):
    # the shift's compressions have norms 0 and 1 at radii 0 and 1, so a scan
    # capped at radius 1 ends before two radii agree
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1\n"))
    code, out, err = _run(capsys, "lipnorm", "--group", "z:1", "--s", "1", "--r-max", "1")
    assert code == 0
    assert float(out) == pytest.approx(1.0, abs=1e-12)
    assert err == "warning: the radius scan stopped at r_max = 1 before converging\n"


@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
def test_lipnorm_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, monkeypatch, tol):
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1\n"))
    code, out, err = _run(capsys, "lipnorm", "--group", "z:1", "--s", "1", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be finite and positive" in err


# Runs the CLI on the remaining arguments and reports its own peak RSS (KiB) on stderr.
_CLI_WITH_PEAK_RSS = (
    "import resource, sys\n"
    "from spectrunc.cli import run\n"
    "code = run(sys.argv[1:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def test_heisenberg_lipnorm_scan_fits_in_one_gib(tmp_path):
    # the default scan reaches radius 10 (4,309 elements), whose dense
    # compression and radius-20 index map once took about 500 MB resident
    src = tmp_path / "f.txt"
    src.write_text("0.7 0.2 1 0 0\n-0.3 0.5 0 1 0\n0.4 0 1 1 0\n0.2 -0.1 0 0 1\n")

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITH_PEAK_RSS, "lipnorm", "--group", "heisenberg",
         "--s", "1", "--input", str(src)],
        capture_output=True, text=True, preexec_fn=limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "2.27513477298\n"
    assert int(proc.stderr.splitlines()[-1]) < 256 * 1024


def test_heisenberg_kernel_at_radius_12_fits_in_one_gib():
    # the kernel counts along the central fibers; read as a bincount of the
    # 8,871² index map, it took about 18 s and 963 MB resident
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", _CLI_WITH_PEAK_RSS, "fejer", "--group", "heisenberg",
         "--lambda", "12", "--at", "1,0,0"],
        capture_output=True, text=True, preexec_fn=limit_address_space,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "7408/8871\n"
    assert int(proc.stderr.splitlines()[-1]) < 256 * 1024


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


@pytest.mark.parametrize("s", ["0", "-1"])
def test_solver_commands_reject_a_derivative_order_below_one(capsys, tmp_path, s):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    psi = tmp_path / "psi.txt"
    psi.write_text("1 0 0\n")
    for argv in (
        ["epsilon", "--group", "z:1", "--lambda", "2", "--s", s],
        ["distance", "--group", "z:1", "--lambda", "1", "--s", s,
         "--phi", str(phi), "--psi", str(psi)],
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "derivative order" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("ball", "--radius", "1"),
        ("growth", "--lambda-max", "2"),
        ("fejer", "--lambda", "1"),
        ("lipnorm", "--s", "1", "--input", "f.txt"),
        ("truncate", "--lambda", "1", "--input", "f.txt"),
        ("reconstruct", "--input", "sym.txt"),
        ("commutator", "--input", "sym.txt"),
        ("distance", "--lambda", "1", "--s", "1", "--phi", "f.txt", "--psi", "f.txt"),
        ("epsilon", "--lambda", "1", "--s", "1"),
        pytest.param(
            ("epsilon", "--group", "heisenberg", "--lambda", "2", "--s", "3", "--cap", "100"),
            id="epsilon-heisenberg",
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_every_group_command_takes_a_cap(capsys, tmp_path, monkeypatch, argv):
    # by default a cap of one element, which stops each command at the first ball past e
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.txt").write_text("1 0 1\n")
    (tmp_path / "sym.txt").write_text("lambda 1\n1 0 1\n")
    if "--cap" not in argv:
        argv += ("--group", "z:1", "--cap", "1")
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("resource cap: ball of radius ")
    assert err.endswith(f" cap of {argv[argv.index('--cap') + 1]} elements\n")


def test_lipnorm_of_an_element_past_r_max_warns_and_exits_0(capsys, monkeypatch):
    # (0, 0, 400) has word length 80: the scan reaches r_max = 10 without seeing it, so the
    # estimate is its starting lower bound ||80 delta||_2, here exact
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 0 0 400\n"))
    code, out, err = _run(capsys, "lipnorm", "--group", "heisenberg", "--s", "1")
    assert (code, out) == (0, "80\n")
    assert err == "warning: the radius scan stopped at r_max = 10 before converging\n"


@pytest.mark.parametrize("group,coords", [("heisenberg", f"{10**20} 0 0"), ("z:1", f"{10**20}")])
def test_lipnorm_of_a_coordinate_past_int64_warns_and_exits_0(capsys, monkeypatch, group, coords):
    # ||D f||_2 = 10**20 is the certified lower end; the coordinate lies in no ball
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"1 0 {coords}\n"))
    code, out, err = _run(capsys, "lipnorm", "--group", group, "--s", "1", "--input", "-")
    assert (code, out) == (0, "1e+20\n")
    assert err == "warning: the radius scan stopped at r_max = 10 before converging\n"


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


def test_epsilon_at_sixteenth_order_exits_0(capsys, recwarn):
    # the double ball reaches length 16 and 16^16 = 2^64, which int64 weights wrapped to 0
    code, out, err = _run(capsys, "epsilon", "--group", "z:1", "--lambda", "8", "--s", "16")
    assert (code, err, recwarn.list) == (0, "", [])
    assert float(out.splitlines()[1].split()[1]) >= 1 / 17


def test_only_the_ascent_builds_the_pencils(capsys, monkeypatch):
    built = []
    pencils = qmetric._epsilon_pencils
    monkeypatch.setattr(qmetric, "_epsilon_pencils", lambda *a: built.append(a) or pencils(*a))
    epsilon_truncated(Z1, 2, 2)
    run_convergence(ExperimentConfig(group="z:1", lambda_range=(1, 2)))
    assert built == []
    assert _run(capsys, "converge", "--group", "z:1", "--lambdas", "1,2", "--trials", "1")[0] == 0
    assert [lam for _, lam, _ in built] == [1, 2]


def test_tuning_defaults_are_the_library_defaults(capsys, tmp_path):
    code, out, _ = _run(capsys, "epsilon", "--group", "z:1", "--lambda", "2", "--s", "2")
    assert code == 0
    ef, et = epsilon_full(Z1, 2, 2), epsilon_truncated(Z1, 2, 2)
    assert out == f"eps_full {_fmt12(ef)}\neps_trunc {_fmt12(et)}\ngh_bound {_fmt12(gh_bound(ef, et))}\n"

    phi, psi = tmp_path / "phi.txt", tmp_path / "psi.txt"
    phi.write_text("1 0 0\n0.5 0 1\n-0.25 0 -1\n")
    psi.write_text("1 0 0\n")
    code, out, _ = _run(
        capsys, "distance", "--group", "z:1", "--lambda", "1", "--s", "1",
        "--phi", str(phi), "--psi", str(psi),
    )
    assert code == 0
    a = vector_state(Z1, {(0,): 1, (1,): 0.5, (-1,): -0.25}, lam=1)
    b = vector_state(Z1, {(0,): 1}, lam=1)
    assert out == _fmt12(lip_distance(a, b, 1, 1).value) + "\n"


@pytest.mark.parametrize("flag", ["--starts", "--seed"])
def test_distance_has_no_random_start_flags(capsys, tmp_path, flag):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    code, out, err = _run(
        capsys, "distance", "--group", "z:1", "--lambda", "1", "--s", "1",
        "--phi", str(phi), "--psi", str(phi), flag, "3",
    )
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag} 3" in err


@pytest.mark.parametrize("key", ["starts", "seed"])
def test_distance_config_rejects_the_random_start_keys(capsys, tmp_path, key):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"{key} = 3\n")
    code, out, err = _run(
        capsys, "distance", "--group", "z:1", "--lambda", "1", "--s", "1",
        "--phi", str(phi), "--psi", str(phi), "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert f"unknown config keys: ['{key}']" in err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("epsilon", "--trials", "-1", "starts must be nonnegative, got -1"),
        ("epsilon", "--seed", "-1", "seed must be nonnegative, got -1"),
        ("distance", "--max-iters", "0", "max_iters must be at least 1, got 0"),
        ("distance", "--max-iters", "-3", "max_iters must be at least 1, got -3"),
        ("distance", "--tol", "nan", "tol must be finite and positive, got nan"),
        ("distance", "--tol", "-1", "tol must be finite and positive, got -1.0"),
        ("distance", "--tol", "inf", "tol must be finite and positive, got inf"),
    ],
)
def test_a_tuning_value_out_of_range_exits_2(capsys, tmp_path, command, flag, value, message):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    argv = [command, "--group", "z:1", "--lambda", "1", "--s", "1", flag, value]
    if command == "distance":
        argv += ["--phi", str(phi), "--psi", str(phi)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_converge_rejects_a_negative_seed_before_any_row(capsys):
    code, out, err = _run(capsys, "converge", "--group", "z:1", "--lambdas", "2,4", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: seed must be nonnegative, got -1\n")


def test_converge_and_epsilon_reject_negative_trials_with_one_message(capsys):
    for argv in (["converge", "--lambdas", "2"], ["epsilon", "--lambda", "2", "--s", "2"]):
        code, out, err = _run(capsys, *argv, "--group", "z:1", "--trials", "-1")
        assert (code, out, err) == (2, "", "error: starts must be nonnegative, got -1\n")


RADIUS_CALLS = {
    "compress": lambda lam: compress(delta(Z1, (1,)), lam),
    "random_selfadjoint": lambda lam: random_selfadjoint(Z1, lam, np.random.default_rng(0)),
    "random_vector_state": lambda lam: random_vector_state(Z1, lam, np.random.default_rng(0)),
    "random_density_state": lambda lam: random_density_state(Z1, lam, np.random.default_rng(0)),
    "fejer_kernel": lambda lam: fejer_kernel(Z1, lam),
    "vector_state": lambda lam: vector_state(Z1, {(0,): 1.0}, lam),
}


@pytest.mark.parametrize("lam", [0, -1])
@pytest.mark.parametrize("name", [*RADIUS_CALLS, "truncate-cli"])
def test_a_bad_truncation_radius_has_one_message(capsys, monkeypatch, name, lam):
    message = f"truncation radius must be at least 1, got {lam}"
    if name in RADIUS_CALLS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            RADIUS_CALLS[name](lam)
        return
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1\n"))
    code, out, err = _run(capsys, "truncate", "--group", "z:1", "--lambda", str(lam))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("lam", [1.5, 2.0])
@pytest.mark.parametrize("name", RADIUS_CALLS)
def test_a_non_integer_truncation_radius_is_named_as_given(name, lam):
    # the radius is checked before it is doubled for the double ball
    with pytest.raises(ValueError, match=f"^truncation radius must be an integer, got {lam}$"):
        RADIUS_CALLS[name](lam)


@pytest.mark.parametrize(
    "group, lam, s, search",
    [("z:2", "2", "2", ["--trials", "6"]),
     ("heisenberg", "1", "3", ["--trials", "1", "--seed", "3"])],
)
def test_epsilon_prints_the_converge_row(capsys, group, lam, s, search):
    # the ascent draws from the seed derived from (seed, lambda, stage) in both commands
    code, out, _ = _run(capsys, "epsilon", "--group", group, "--lambda", lam, "--s", s, *search)
    assert code == 0
    code, sweep, _ = _run(capsys, "converge", "--group", group, "--lambdas", lam, "--s", s, *search)
    assert code == 0
    _, _, _, ef, et, gh = sweep.splitlines()[1].split(",")
    assert out == f"eps_full {ef}\neps_trunc {et}\ngh_bound {gh}\n"


def test_distance_warns_with_the_bracket_at_the_iteration_cap(capsys, tmp_path):
    phi, psi = tmp_path / "phi.txt", tmp_path / "psi.txt"
    phi.write_text("1 0 0\n0.5 0 1\n-0.25 0 -1\n")
    psi.write_text("1 0 0\n")
    code, out, err = _run(
        capsys, "distance", "--group", "z:1", "--lambda", "1", "--s", "1",
        "--phi", str(phi), "--psi", str(psi), "--max-iters", "1",
    )
    assert code == 0
    a = vector_state(Z1, {(0,): 1, (1,): 0.5, (-1,): -0.25}, lam=1)
    b = vector_state(Z1, {(0,): 1}, lam=1)
    res = lip_distance(a, b, 1, 1, SolverParams(max_iters=1))
    assert res.status == "iteration-cap" and res.value < res.upper
    assert out == _fmt12(res.value) + "\n"
    bracket = f"[{_fmt12(res.value)}, {_fmt12(res.upper)}]"
    assert err == f"warning: solver hit the iteration cap; distance in {bracket}\n"


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "ball", exhausted)
    code, out, err = _run(capsys, "ball", "--group", "z:2", "--radius", "2")
    assert code == 3
    assert out == ""
    assert err == "resource cap: out of memory\n"


@pytest.mark.parametrize("command", ["distance", "epsilon"])
def test_tuning_config_rejects_unknown_keys(capsys, tmp_path, command):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    cfg = tmp_path / "cfg.txt"
    known = "max_iters = 50" if command == "distance" else "seed = 1"
    cfg.write_text(f"{known}\ntolerance = 1e-3\n")
    argv = [command, "--group", "z:1", "--lambda", "1", "--s", "1", "--config", str(cfg)]
    if command == "distance":
        argv += ["--phi", str(phi), "--psi", str(phi)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unknown config keys: ['tolerance']" in err


@pytest.mark.parametrize(
    "command, key, value, kind",
    [
        ("converge", "group", 5, "str"),
        ("converge", "trials", 2.5, "int"),
        ("converge", "trials", True, "int"),
        ("converge", "lambda_range", 3, "str"),
        ("converge", "output", 7, "str"),
        ("converge", "seed", 1.5, "int"),
        ("converge", "s", True, "int"),
        ("distance", "max_iters", 2.7, "int"),
        ("epsilon", "trials", True, "int"),
    ],
)
def test_a_mistyped_config_value_exits_2(capsys, tmp_path, command, key, value, kind):
    phi = tmp_path / "phi.txt"
    phi.write_text("1 0 0\n1 0 1\n")
    cfg = tmp_path / "cfg.json"
    base = {"group": "z:1", "lambda_range": "1", "trials": 1} if command == "converge" else {}
    cfg.write_text(json.dumps({**base, key: value}))
    argv = [command, "--config", str(cfg)]
    if command != "converge":
        argv += ["--group", "z:1", "--lambda", "1", "--s", "1"]
    if command == "distance":
        argv += ["--phi", str(phi), "--psi", str(phi)]
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r} must be of type {kind}, got {value!r}\n"


def test_integral_json_numbers_are_integer_config_values(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "z:1", "lambda_range": [1, 2.0], "s": 1.0, "trials": 2}))
    code, out, _ = _run(capsys, "converge", "--config", str(cfg), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["metadata"]["s"] == 1 and type(report["metadata"]["s"]) is int
    assert [row["lam"] for row in report["rows"]] == [1, 2]


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


def test_converge_gnuplot_without_a_csv_file_exits_2(capsys, tmp_path):
    sweep = ("converge", "--group", "z:1", "--lambdas", "1", "--trials", "1", "--gnuplot")
    for where in ((), ("--format", "json", "--output", str(tmp_path / "sweep.json"))):
        code, out, err = _run(capsys, *sweep, *where)
        assert code == 2
        assert out == ""
        assert "gnuplot" in err
    assert list(tmp_path.iterdir()) == []


def test_converge_gnuplot_exits_2_before_the_sweep(capsys, monkeypatch):
    def refuse(config):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_convergence", refuse)
    sweep = ("converge", "--group", "z:1", "--lambdas", "1", "--gnuplot")
    for where in ((), ("--output", "-"), ("--format", "json", "--output", "sweep.json")):
        code, out, err = _run(capsys, *sweep, *where)
        assert code == 2
        assert out == ""
        assert "gnuplot" in err


def test_converge_output_dash_writes_stdout(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["converge", "--group", "z:1", "--lambdas", "1,2", "--trials", "1"]
    code, want, _ = _run(capsys, *argv)
    assert code == 0
    code, out, _ = _run(capsys, *argv, "--output", "-")
    assert code == 0
    assert out == want
    assert list(tmp_path.iterdir()) == []


def test_converge_line_row_reports_the_basis_floor_as_eps_full(capsys):
    # eps_full is the basis floor; an ascent scored by unconverged opnorm scans
    # reported 0.2005648232 here, above what its own witness attains.  eps_trunc
    # is the sign witness, above the 0.208744969398 of the former 6-start ascent
    code, out, _ = _run(capsys, "converge", "--group", "z:1", "--lambdas", "2", "--seed", "0")
    assert code == 0
    header, line = out.splitlines()
    assert header == CSV_HEADER
    lam, size, folner, ef, et, gh = line.split(",")
    assert (lam, size, folner, ef) == ("2", "5", "0.2", "0.2")
    assert float(et) == pytest.approx(0.212194037203, rel=1e-9)
    assert float(gh) == pytest.approx(0.424388074405, rel=1e-9)


def _eps_trunc_column(capsys, *argv):
    code, out, _ = _run(capsys, "converge", *argv)
    assert code == 0
    return [float(line.split(",")[4]) for line in out.splitlines()[1:]]


def test_default_sweep_rows_reach_the_former_ascent_rows_for_every_seed(capsys):
    # the rows of the former 6-start ascent at seed 0; the default sweep draws nothing
    former = [0.208744969398, 1 / 9, 1 / 17, 1 / 33]
    sweep = ("--group", "z:1", "--lambdas", "2,4,8,16")
    rows = _eps_trunc_column(capsys, *sweep)
    assert all(new >= old * (1 - 1e-11) for new, old in zip(rows, former))
    assert rows[0] > former[0]
    for seed in ("1", "7"):
        assert _eps_trunc_column(capsys, *sweep, "--seed", seed) == rows


def test_trials_add_the_ascent_on_top_of_the_witness(capsys):
    # the witness alone reaches 0.446583 here, the former 6-start ascent 0.458584
    witness = _eps_trunc_column(capsys, "--group", "z:2", "--lambdas", "2")
    searched = _eps_trunc_column(capsys, "--group", "z:2", "--lambdas", "2", "--trials", "6")
    assert witness[0] == pytest.approx(0.446583, abs=1e-6)
    assert searched[0] >= 0.45858374255 * (1 - 1e-11)


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
    cfg.write_text("ball_cap = 4\ns = 2\ntrials = 1\n")
    code, out, _ = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "1", "--config", str(cfg),
        "--format", "json",
    )
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert row["skipped"]
    assert "radius 2" in row["reason"] and "cap of 4" in row["reason"]


def test_converge_auto_s_under_a_tight_cap_exits_3(capsys, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("ball_cap = 6\n")
    code, out, err = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "1", "--config", str(cfg),
    )
    assert code == 3
    assert out == ""
    assert "resource cap" in err and "cap of 6" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_converge_config_cap_below_one_exits_2(capsys, tmp_path, cap):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"ball_cap = {cap}\n")
    code, out, err = _run(
        capsys, "converge", "--group", "z:1", "--lambdas", "2", "--s", "1", "--config", str(cfg),
    )
    assert code == 2
    assert out == ""
    assert err == f"error: ball_cap must be at least 1, got {cap}\n"


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

"""Command-line interface.

Subcommands mirror the library surface: ball, growth, fejer, lipnorm,
truncate, reconstruct, commutator, distance, epsilon, converge.  Exit code 0
on success, 2 on usage errors, 3 when a resource cap is hit.  Failure paths
write only to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cayley import ResourceCapError, ball, group_from_key, growth_report
from .groupalg import (
    fejer_kernel,
    format_algebra_element,
    lipnorm,
    parse_algebra_element,
)
from .truncation import (
    compress,
    dirac_commutator,
    format_toeplitz,
    parse_toeplitz,
    reconstruct,
)
from .groupalg import spectral_norm
from .harness import ExperimentConfig, _fmt12, export_report, run_convergence
from .qmetric import SearchParams, SolverParams, epsilon_full, epsilon_truncated, gh_bound
from .qmetric import lip_distance, vector_state


def _parse_coords(text: str) -> tuple:
    toks = text.replace(",", " ").split()
    try:
        return tuple(int(t) for t in toks)
    except ValueError:
        raise ValueError(f"bad element coordinates {text!r}") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_config(path: str) -> dict:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("config JSON must be an object")
        return data
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


_CONFIG_INT_KEYS = {"seed", "trials", "starts", "max_iters", "ball_cap", "workers", "s"}
_CONFIG_FLOAT_KEYS = {"tol", "step0", "step_decay"}


def _coerce_config(data: dict) -> dict:
    out = {}
    for key, value in data.items():
        if isinstance(value, str):
            if key in _CONFIG_INT_KEYS and value != "auto":
                value = int(value)
            elif key in _CONFIG_FLOAT_KEYS:
                value = float(value)
        out[key] = value
    return out


def _merged_config(args, keys) -> dict:
    data = {}
    if getattr(args, "config", None):
        data.update(_coerce_config(_read_config(args.config)))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    return data


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ball(args) -> int:
    group = group_from_key(args.group)
    b = ball(group, args.radius, cap=args.cap)
    print(len(b))
    return 0


def _cmd_growth(args) -> int:
    group = group_from_key(args.group)
    rep = growth_report(group, args.lambda_max, fit_min=args.fit_min, cap=args.cap)
    print("lambda,size,ratio")
    for lam, size in enumerate(rep.ball_sizes):
        ratio = str(rep.boundary_ratios[lam - 1]) if 1 <= lam <= len(rep.boundary_ratios) else ""
        print(f"{lam},{size},{ratio}")
    print(f"fitted_beta,{_fmt12(rep.fitted_beta)}")
    print(f"fitted_degree,{_fmt12(rep.fitted_degree)}")
    return 0


def _cmd_fejer(args) -> int:
    group = group_from_key(args.group)
    kern = fejer_kernel(group, args.lam, cap=args.cap)
    if args.at is not None:
        x = _parse_coords(args.at)
        group.validate(x)
        value = kern(x)
        print(_fmt12(float(value)) if args.float else str(value))
        return 0
    for z in sorted(kern.values):
        value = kern.values[z]
        coords = " ".join(str(c) for c in z)
        lead = _fmt12(float(value)) if args.float else str(value)
        print(f"{lead} 0 {coords}")
    return 0


def _cmd_lipnorm(args) -> int:
    group = group_from_key(args.group)
    f = parse_algebra_element(_read_text(args.input), group)
    value = lipnorm(f, args.s, tol=args.tol, r_max=args.r_max)
    print(_fmt12(value))
    return 0


def _cmd_truncate(args) -> int:
    group = group_from_key(args.group)
    f = parse_algebra_element(_read_text(args.input), group)
    T = compress(f, args.lam)
    _write_text(args.output, format_toeplitz(T, exact=args.exact))
    return 0


def _cmd_reconstruct(args) -> int:
    group = group_from_key(args.group)
    T = parse_toeplitz(_read_text(args.input), group)
    f = reconstruct(T)
    _write_text(args.output, format_algebra_element(f, exact=args.exact))
    return 0


def _cmd_commutator(args) -> int:
    group = group_from_key(args.group)
    T = parse_toeplitz(_read_text(args.input), group)
    print(_fmt12(spectral_norm(dirac_commutator(T))))
    return 0


def _cmd_distance(args) -> int:
    group = group_from_key(args.group)
    keys = ("starts", "max_iters", "tol", "seed")
    merged = _merged_config(args, keys)
    params = SolverParams(
        starts=int(merged.get("starts", 32)),
        max_iters=int(merged.get("max_iters", 400)),
        tol=float(merged.get("tol", 1e-9)),
        seed=int(merged.get("seed", 0)),
        step0=float(merged.get("step0", 0.3)),
        step_decay=float(merged.get("step_decay", 0.05)),
    )
    phi = vector_state(group, parse_algebra_element(_read_text(args.phi), group).coeffs(), lam=args.lam)
    psi = vector_state(group, parse_algebra_element(_read_text(args.psi), group).coeffs(), lam=args.lam)
    result = lip_distance(phi, psi, args.s, args.lam, params)
    print(_fmt12(result.value))
    if result.status != "converged":
        print(f"warning: solver hit the iteration cap", file=sys.stderr)
    return 0


def _cmd_epsilon(args) -> int:
    group = group_from_key(args.group)
    keys = ("trials", "tol", "seed")
    merged = _merged_config(args, keys)
    params = SearchParams(
        starts=int(merged.get("trials", 6)),
        seed=int(merged.get("seed", 0)),
        opnorm_tol=float(merged.get("tol", 1e-8)),
    )
    ef = epsilon_full(group, args.lam, args.s, params)
    et = epsilon_truncated(group, args.lam, args.s, params)
    print(f"eps_full {_fmt12(ef)}")
    print(f"eps_trunc {_fmt12(et)}")
    print(f"gh_bound {_fmt12(gh_bound(ef, et))}")
    return 0


def _cmd_converge(args) -> int:
    keys = ("group", "s", "seed", "trials", "tol", "output", "format", "ball_cap", "workers")
    merged = _merged_config(args, keys)
    if args.lambdas is not None:
        merged["lambda_range"] = args.lambdas
    if "lambda_range" not in merged:
        raise ValueError("a lambda range is required (--lambdas or config lambda_range)")
    config = ExperimentConfig.from_mapping(merged)
    report = run_convergence(config)
    export_report(report, config.output or sys.stdout, format=config.format, gnuplot=args.gnuplot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrunc",
        description="Ball truncations of group algebras: kernels, seminorms, distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group(p):
        p.add_argument("--group", required=True, help="group key: 'z:<d>' or 'heisenberg'")

    p = sub.add_parser("ball", help="print the size of a word-metric ball")
    add_group(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=None, help="element cap (default 200000)")
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("growth", help="ball sizes, boundary ratios, and fitted exponents")
    add_group(p)
    p.add_argument("--lambda-max", dest="lambda_max", type=int, required=True)
    p.add_argument("--fit-min", dest="fit_min", type=int, default=2)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("fejer", help="exact ball-overlap kernel values")
    add_group(p)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--at", default=None, help="element coordinates, e.g. '1' or '1,0'")
    p.add_argument("--float", action="store_true", help="print floats instead of rationals")
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_fejer)

    p = sub.add_parser("lipnorm", help="Lipschitz seminorm estimate of an algebra element")
    add_group(p)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--input", default="-", help="coefficient file ('-' for stdin)")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--r-max", dest="r_max", type=int, default=10)
    p.set_defaults(func=_cmd_lipnorm)

    p = sub.add_parser("truncate", help="compress an algebra element to a symbol file")
    add_group(p)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--input", default="-")
    p.add_argument("--output", default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("reconstruct", help="weight a symbol file back into the algebra")
    add_group(p)
    p.add_argument("--input", default="-")
    p.add_argument("--output", default=None)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("commutator", help="norm of the length-multiplier commutator")
    add_group(p)
    p.add_argument("--input", default="-")
    p.set_defaults(func=_cmd_commutator)

    p = sub.add_parser("distance", help="state distance on a truncation")
    add_group(p)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--phi", required=True, help="first state vector file")
    p.add_argument("--psi", required=True, help="second state vector file")
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("epsilon", help="empirical approximation constants at one radius")
    add_group(p)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=_cmd_epsilon)

    p = sub.add_parser("converge", help="full convergence sweep over a radius range")
    p.add_argument("--group", default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--lambdas", default=None, help="comma-separated radii, e.g. '2,4,8,16'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--gnuplot", action="store_true")
    p.set_defaults(func=_cmd_converge)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if getattr(args, "s", None) is not None and isinstance(args.s, str) and args.s != "auto":
            args.s = int(args.s)
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

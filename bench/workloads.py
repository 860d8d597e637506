"""The benchmark's four workloads and the invariant checks on their outputs.

A workload function takes one derived seed and returns a list of
:class:`Op` records, one per operation: a sweep row, a distance solve, or a
kernel, opnorm, growth or defect call.  It only computes; each op carries a
``verify`` callable that the worker runs after the timer stops, so the
checks neither count toward ``wall_s`` nor show up in the per-layer trace.

``verify(value)`` returns ``(checks, line)``: a list of ``(name, passed)``
pairs and one line of output text for the informational digest.

No check compares an epsilon against a golden value; the sweep checks are
identities and exact floors that every correct version satisfies.
"""

from __future__ import annotations

import csv
import io
import math
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import numpy as np

import spectrunc as sp
from spectrunc import cli


def fmt12(v) -> str:
    return format(float(v), ".12g")


@dataclass
class Op:
    name: str
    verify: Callable
    value: object = None
    error: Optional[str] = None


def attempt(ops: list, name: str, fn: Callable, verify: Callable) -> None:
    """Run one operation, recording its value or the exception it raised."""
    try:
        ops.append(Op(name, verify, value=fn()))
    except Exception as exc:  # every failure mode counts against failed_share
        ops.append(Op(name, verify, error=f"{type(exc).__name__}: {exc}"))


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    violations: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    lines: list = field(default_factory=list)


def evaluate(ops: list) -> Tally:
    """Run every op's checks; an op fails if it raised or broke a check."""
    tally = Tally()
    for op in ops:
        tally.attempted += 1
        if op.error is not None:
            tally.failed += 1
            tally.errors.append(f"{op.name}: {op.error}")
            tally.lines.append(f"{op.name}: error")
            continue
        try:
            checks, line = op.verify(op.value)
        except Exception as exc:
            checks, line = [(f"verify raised {type(exc).__name__}: {exc}", False)], "unverified"
        tally.checks += len(checks)
        broken = [name for name, ok in checks if not ok]
        if broken:
            tally.failed += 1
            tally.violations.extend(f"{op.name}: {name}" for name in broken)
        tally.lines.append(f"{op.name}: {line}")
    return tally


# ---------------------------------------------------------------------------
# checks


def _close(a, b, rel) -> bool:
    return a == b if rel == 0 else math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def basis_floor(group, lam: int, s: int) -> float:
    """Exact basis-direction floor max (1-K(z))/len(z)^s over the double ball."""
    kern = sp.fejer_kernel(group, lam)
    double = sp.ball(group, 2 * lam)
    ident = group.identity()
    return max(
        float(1 - k) / double.length_of(z) ** s for z, k in kern.values.items() if z != ident
    )


def check_row(group, rel: float, row) -> tuple[list, str]:
    """Invariants of one sweep row, at the derivative order a sweep picks.

    ``rel`` is the relative tolerance of the comparisons: 0 for rows taken
    in-process, and 1e-11 for rows read back at 12 significant digits.
    """
    floor = basis_floor(group, row.lam, sp.choose_s(group))
    slack = 1 - rel
    checks = [
        ("gh_bound == 2*max(eps_full, eps_trunc)",
         _close(row.gh_bound, 2 * max(row.eps_full, row.eps_trunc), rel)),
        ("eps_full >= basis floor", row.eps_full >= floor * slack),
        ("eps_trunc >= basis floor", row.eps_trunc >= floor * slack),
    ]
    if isinstance(group, sp.FreeAbelian) and group.dim == 1:
        checks += [
            ("ball_size == 2*lam+1", row.ball_size == 2 * row.lam + 1),
            ("folner_eps == 1/(2*lam+1)", _close(row.folner_eps, 1 / (2 * row.lam + 1), rel)),
        ]
    line = ",".join(
        [str(row.lam), str(row.ball_size)]
        + [fmt12(v) for v in (row.folner_eps, row.eps_full, row.eps_trunc, row.gh_bound)]
    )
    return checks, line


def check_distance(s: int, solve) -> tuple[list, str]:
    result = solve.result
    w = result.witness
    seminorm = sp.truncated_lipnorm(w, s)
    reached = (sp.state_eval(solve.phi, w) - sp.state_eval(solve.psi, w)).real
    checks = [
        ("witness seminorm <= 1+1e-9", seminorm <= 1 + 1e-9),
        ("witness reaches the value within 1e-9", abs(reached - result.value) <= 1e-9),
    ]
    return checks, f"{fmt12(result.value)} {result.status}"


def check_kernel(group, kern) -> tuple[list, str]:
    lam = kern.radius
    size = len(sp.ball(group, lam))
    double = sp.ball(group, 2 * lam)
    eps = kern.folner_epsilon
    checks = [
        ("sum_x K(x) == |B|", sum(kern.values.values()) == size),
        ("1-K(x) <= len(x)*eps",
         all(1 - k <= double.length_of(x) * eps for x, k in kern.values.items())),
    ]
    if isinstance(group, sp.FreeAbelian) and group.dim == 2:
        checks.append(("eps == (2l+1)/(2l^2+2l+1)",
                       eps == Fraction(2 * lam + 1, 2 * lam * lam + 2 * lam + 1)))
    return checks, f"{len(kern.values)} {eps}"


def check_opnorm(f, result) -> tuple[list, str]:
    l2, l1 = sp.l2_norm(f), sp.l1_norm(f)
    est = result.estimate
    checks = [("||f||_2 <= opnorm <= ||f||_1", l2 * (1 - 1e-9) <= est <= l1 * (1 + 1e-9))]
    return checks, f"{fmt12(est)} {result.converged} {result.last_radius}"


def check_shift_defect(lam: int, result) -> tuple[list, str]:
    ok = abs(result.defect_norm - 1 / (2 * lam + 1)) <= 1e-12
    return [("Z shift defect == 1/(2*lam+1)", ok)], fmt12(result.defect_norm)


def check_defect(T, result) -> tuple[list, str]:
    kern = sp.fejer_kernel(T.group, T.radius)
    l1 = sum(abs(complex(v)) * float(1 - kern(z)) for z, v in T.items())
    checks = [
        ("0 <= defect <= l1 of the residual symbol", 0 <= result.defect_norm <= l1 + 1e-12),
        ("ratio == defect/lipnorm", result.ratio == result.defect_norm / result.lipnorm),
    ]
    return checks, f"{fmt12(result.defect_norm)} {fmt12(result.lipnorm)}"


def check_growth(report) -> tuple[list, str]:
    sizes = report.ball_sizes
    ok = all(a < b for a, b in zip(sizes, sizes[1:]))
    return [("ball sizes increase", ok)], f"{sizes[-1]} {fmt12(report.fitted_degree)}"


# ---------------------------------------------------------------------------
# workloads


def _rows_from_csv(text: str) -> dict:
    rows = {}
    for rec in csv.DictReader(io.StringIO(text)):
        rows[int(rec["lambda"])] = sp.ConvergenceRow(
            lam=int(rec["lambda"]),
            ball_size=int(rec["ball_size"]),
            folner_eps=float(rec["folner_eps"]),
            eps_full=float(rec["eps_full"]),
            eps_trunc=float(rec["eps_trunc"]),
            gh_bound=float(rec["gh_bound"]),
        )
    return rows


SWEEP_LINE_LAMBDAS = (2, 4, 8, 16)


def sweep_line(seed: int) -> list:
    """The reference sweep ``spectrunc converge --group z:1 --lambdas 2,4,8,16``.

    Defaults throughout (s auto, 6 trials); only ``--seed`` is set.  The CSV
    printed on stdout is read back, one op per row.
    """
    argv = ["converge", "--group", "z:1", "--lambdas", ",".join(map(str, SWEEP_LINE_LAMBDAS)),
            "--seed", str(seed)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    rows = _rows_from_csv(out.getvalue()) if code == 0 else {}
    ops: list = []
    for lam in SWEEP_LINE_LAMBDAS:
        attempt(ops, f"z:1 row lambda={lam}", partial(rows.__getitem__, lam),
                partial(check_row, sp.FreeAbelian(1), 1e-11))
    return ops


# Every ascent start runs exactly this many iterations: the ascent stops a
# start after 31 steps without improvement, so a budget of 30 never ends on
# the stall rule, and the run time does not depend on where the seed starts.
SWEEP_HEIS_SEARCH = dict(starts=1, max_iters=30)
SWEEP_HEIS_LAMBDAS = (1, 2)


def _heis_row(group, lam: int, s: int, seed: int):
    """One sweep row computed with the same calls the harness makes."""
    size = len(sp.ball(group, lam))
    kern = sp.fejer_kernel(group, lam)
    full, trunc = (sp.SearchParams(seed=seed + 2 * lam + k, **SWEEP_HEIS_SEARCH) for k in (0, 1))
    ef = sp.epsilon_full(group, lam, s, full)
    et = sp.epsilon_truncated(group, lam, s, trunc)
    return sp.ConvergenceRow(lam=lam, ball_size=size, folner_eps=float(kern.folner_epsilon),
                             eps_full=ef, eps_trunc=et, gh_bound=sp.gh_bound(ef, et))


def sweep_heis(seed: int) -> list:
    """Heisenberg rows at lambda 1 and 2, exported as CSV by ``export_report``.

    At lambda 2 the full-algebra search works on dense 268 x 135 x 135
    complex pencils, the memory-bound layer.
    """
    group = sp.Heisenberg()
    s = sp.choose_s(group)
    ops: list = []
    for lam in SWEEP_HEIS_LAMBDAS:
        attempt(ops, f"heisenberg row lambda={lam}", partial(_heis_row, group, lam, s, seed),
                partial(check_row, group, 0))
    rows = tuple(op.value for op in ops if op.error is None)
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=".") as tmp:
        sp.export_report(sp.ConvergenceReport(rows=rows, metadata={"s": s}), f"{tmp}/sweep.csv")
    return ops


# (group key, lambda, s): one vector pair and one density pair each per
# iteration, so every iteration does the same mix of work.
DISTANCE_CASES = (("z:2", 2, 1), ("heisenberg", 1, 2), ("z:1", 4, 2))


@dataclass
class Solve:
    phi: object
    psi: object
    result: object


def _solve(group, lam: int, s: int, make, rng) -> Solve:
    phi, psi = make(group, lam, rng), make(group, lam, rng)
    return Solve(phi, psi, sp.lip_distance(phi, psi, s, lam))


def distance_mix(seed: int) -> list:
    """``lip_distance`` with default solver settings on seeded state pairs."""
    rng = np.random.default_rng(seed)
    ops: list = []
    for key, lam, s in DISTANCE_CASES:
        group = sp.group_from_key(key)
        for kind, make in (("vector", sp.random_vector_state),
                           ("density", sp.random_density_state)):
            attempt(ops, f"{key} lambda={lam} s={s} {kind} pair",
                    partial(_solve, group, lam, s, make, rng), partial(check_distance, s))
    return ops


def kernel_heis(seed: int) -> list:
    """Exact geometry: growth, overlap kernels, opnorm scans and round-trip defects."""
    rng = np.random.default_rng(seed)
    heis, z1, z2 = sp.Heisenberg(), sp.FreeAbelian(1), sp.FreeAbelian(2)
    ops: list = []
    attempt(ops, "growth heisenberg 16", partial(sp.growth_report, heis, 16), check_growth)
    for group, lam in ((heis, 4), (heis, 5), (z2, 12)):
        attempt(ops, f"kernel {group.name} lambda={lam}", partial(sp.fejer_kernel, group, lam),
                partial(check_kernel, group))
    for k in range(3):
        f = sp.random_element(heis, 2, rng)
        attempt(ops, f"opnorm heisenberg element {k}", partial(sp.opnorm, f, r_max=6),
                partial(check_opnorm, f))
    for lam in range(1, 9):
        T = sp.compress(sp.delta(z1, (1,)), lam)
        attempt(ops, f"defect z:1 shift lambda={lam}", partial(sp.truncation_defect, T),
                partial(check_shift_defect, lam))
    for lam in (2, 3):
        T = sp.random_selfadjoint(heis, lam, rng)
        attempt(ops, f"defect heisenberg lambda={lam}", partial(sp.truncation_defect, T),
                partial(check_defect, T))
    return ops


WORKLOADS = {
    "sweep-line": sweep_line,
    "sweep-heis": sweep_heis,
    "distance-mix": distance_mix,
    "kernel-heis": kernel_heis,
}

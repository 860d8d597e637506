"""Experiment harness: configuration, convergence sweeps, and report export.

A sweep evaluates, for each truncation radius in a range, the ball size, the
worst single-generator boundary ratio, the two empirical approximation
constants, and the resulting distance bound.  Per-radius randomness is drawn
from seeds derived by hashing (seed, radius, stage), so any subset of radii
reproduces the same rows in any order.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, TextIO, Union

from .cayley import DEFAULT_BALL_CAP, ResourceCapError, ball, group_from_key, growth_report
from .groupalg import fejer_kernel
from .qmetric import SearchParams, epsilon_full, epsilon_truncated, gh_bound

__all__ = [
    "ExperimentConfig",
    "ConvergenceRow",
    "ConvergenceReport",
    "choose_s",
    "run_convergence",
    "export_report",
    "load_report",
    "CSV_HEADER",
]

CSV_HEADER = "lambda,ball_size,folner_eps,eps_full,eps_trunc,gh_bound"


def _fmt12(v: float) -> str:
    return format(float(v), ".12g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated description of one convergence sweep."""

    group: str
    lambda_range: tuple
    s: Union[int, str] = "auto"
    seed: int = 0
    trials: int = 6
    tol: float = 1e-8
    output: Optional[str] = None
    format: str = "csv"
    ball_cap: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        group_from_key(self.group)
        lams = tuple(int(x) for x in self.lambda_range)
        if not lams:
            raise ValueError("lambda_range must be nonempty")
        if any(l < 1 for l in lams):
            raise ValueError("lambda_range entries must be at least 1")
        if list(lams) != sorted(set(lams)):
            raise ValueError("lambda_range must be strictly increasing")
        object.__setattr__(self, "lambda_range", lams)
        if self.s != "auto":
            if not isinstance(self.s, int) or self.s < 1:
                raise ValueError(f"s must be 'auto' or a positive integer, got {self.s!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "lambda_range" in data and isinstance(data["lambda_range"], str):
            data = dict(data)
            data["lambda_range"] = tuple(
                int(tok) for tok in data["lambda_range"].replace(",", " ").split()
            )
        return cls(**data)


@dataclass(frozen=True)
class ConvergenceRow:
    lam: int
    ball_size: Optional[int] = None
    folner_eps: Optional[float] = None
    eps_full: Optional[float] = None
    eps_trunc: Optional[float] = None
    gh_bound: Optional[float] = None
    skipped: bool = False
    reason: Optional[str] = None


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    metadata: dict


def _derived_seed(seed: int, lam: int, stage: str) -> int:
    digest = hashlib.blake2b(f"{seed}:{lam}:{stage}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def choose_s(group, cap: Optional[int] = None) -> int:
    """Derivative order heuristic from the fitted growth degree.

    Balls are enumerated until they pass a few thousand elements, the growth
    degree is fitted on the larger half of that range and rounded, and the
    returned order is one more than half the degree, rounded up.  Raises
    ResourceCapError when the cap leaves fewer than two radii to fit.
    """
    lam_max = 2
    try:
        while lam_max < 32 and len(ball(group, lam_max + 1, cap=cap)) <= 4000:
            lam_max += 1
        lam_max = max(lam_max, 4)
    except ResourceCapError:
        pass
    while True:
        try:
            report = growth_report(group, lam_max, fit_min=max(2, lam_max // 2), cap=cap)
            break
        except ResourceCapError:
            if lam_max <= 2:
                raise
            lam_max -= 1
    if math.isnan(report.fitted_degree):
        raise ResourceCapError(
            f"growth fit in {group.name} needs balls of radius {lam_max + 1} and more, "
            f"over the cap of {DEFAULT_BALL_CAP if cap is None else cap} elements"
        )
    degree = max(1, round(report.fitted_degree))
    return degree // 2 + (degree % 2) + 1 if degree % 2 else degree // 2 + 1


def _compute_row(config: ExperimentConfig, group, s: int, lam: int) -> ConvergenceRow:
    try:
        size = len(ball(group, lam, cap=config.ball_cap))
        kern = fejer_kernel(group, lam, cap=config.ball_cap)
        base = dict(
            starts=config.trials,
            opnorm_tol=config.tol,
        )
        ef = epsilon_full(
            group, lam, s,
            SearchParams(seed=_derived_seed(config.seed, lam, "eps-full"), **base),
            cap=config.ball_cap,
        )
        et = epsilon_truncated(
            group, lam, s,
            SearchParams(seed=_derived_seed(config.seed, lam, "eps-trunc"), **base),
            cap=config.ball_cap,
        )
        return ConvergenceRow(
            lam=lam,
            ball_size=size,
            folner_eps=float(kern.folner_epsilon),
            eps_full=ef,
            eps_trunc=et,
            gh_bound=gh_bound(ef, et),
        )
    except ResourceCapError as exc:
        return ConvergenceRow(lam=lam, skipped=True, reason=str(exc))


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Run one sweep and return an ordered report with growth metadata."""
    group = group_from_key(config.group)
    s = choose_s(group, cap=config.ball_cap) if config.s == "auto" else int(config.s)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(
                pool.map(lambda lam: _compute_row(config, group, s, lam), config.lambda_range)
            )
    else:
        rows = [_compute_row(config, group, s, lam) for lam in config.lambda_range]

    metadata = {
        "group": config.group,
        "s": s,
        "seed": config.seed,
        "trials": config.trials,
        "tol": config.tol,
    }
    try:
        lam_fit = max(max(config.lambda_range) + 1, 4)
        rep = growth_report(group, lam_fit, fit_min=max(2, lam_fit // 4), cap=config.ball_cap)
        metadata["fitted_beta"] = rep.fitted_beta
        metadata["fitted_degree"] = rep.fitted_degree
    except ResourceCapError:
        metadata["fitted_beta"] = None
        metadata["fitted_degree"] = None
    return ConvergenceReport(rows=tuple(rows), metadata=metadata)


def _gnuplot_script(csv_path: str) -> str:
    name = Path(csv_path).name
    return "\n".join(
        [
            "set datafile separator ','",
            "set logscale xy",
            "set xlabel 'truncation radius'",
            "set ylabel 'epsilon'",
            "set key left bottom",
            f"plot '{name}' using 1:4 with linespoints title 'eps_full', \\",
            f"     '{name}' using 1:5 with linespoints title 'eps_trunc', \\",
            f"     '{name}' using 1:6 with linespoints title 'gh_bound'",
            "",
        ]
    )


def export_report(
    report: ConvergenceReport,
    path: Union[str, Path, TextIO],
    format: str = "csv",
    gnuplot: bool = False,
) -> None:
    """Write a report as CSV (12 significant digits) or a JSON mirror.

    ``path`` is a file path or an open text stream.  With ``gnuplot=True``
    and a path, a plot script named after the CSV is written next to it.
    """
    if format == "csv":
        lines = [CSV_HEADER]
        for row in report.rows:
            if row.skipped:
                continue
            lines.append(
                ",".join(
                    [
                        str(row.lam),
                        str(row.ball_size),
                        _fmt12(row.folner_eps),
                        _fmt12(row.eps_full),
                        _fmt12(row.eps_trunc),
                        _fmt12(row.gh_bound),
                    ]
                )
            )
    elif format == "json":
        payload = {
            "metadata": report.metadata,
            "rows": [asdict(row) for row in report.rows],
        }
        lines = [json.dumps(payload, indent=2)]
    else:
        raise ValueError(f"unknown export format {format!r}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
        return
    path = Path(path)
    path.write_text(text)
    if gnuplot and format == "csv":
        path.with_suffix(".gp").write_text(_gnuplot_script(str(path)))


def load_report(path: Union[str, Path]) -> ConvergenceReport:
    """Parse a JSON report back into a :class:`ConvergenceReport`."""
    payload = json.loads(Path(path).read_text())
    rows = tuple(ConvergenceRow(**row) for row in payload["rows"])
    return ConvergenceReport(rows=rows, metadata=payload["metadata"])

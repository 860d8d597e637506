"""Experiment harness: configuration, convergence sweeps, and report export.

A sweep evaluates, for each truncation radius in a range, the ball size, the
worst single-generator boundary ratio, the two approximation constants, and
the resulting distance bound; the ``epsilon`` command prints the same row.
The truncated constant's optional ascent draws its randomness from a seed
derived by hashing (seed, radius), so any subset of radii reproduces
the same rows in any order.  One growth fit per sweep picks the derivative
order under ``s = auto`` and is the one the report's metadata carries.  One
type rule, ``qmetric._typed``, checks every config value, whether a sweep's
configuration, a command's tuning key or a solver or search budget.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, TextIO, Union

from .cayley import _ELEMENT_CAP, ResourceCapError, ball, element_cap, group_from_key, growth_report
from .groupalg import _check_order, _check_radius
from .qmetric import SearchParams, _typed, epsilon_full, epsilon_truncated, gh_bound

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


# The type of each config key's value; a key = value file gives every value as a string.
_CONFIG_TYPES = {"seed": int, "trials": int, "max_iters": int, "ball_cap": int, "s": int,
                 "tol": float, "group": str, "output": str, "format": str}


@dataclass(frozen=True)
class ExperimentConfig:
    """One convergence sweep, each field typed by ``_typed``; radii are an iterable or a string."""

    group: str
    lambda_range: tuple
    s: Union[int, str] = "auto"
    seed: int = 0
    trials: int = 0
    output: Optional[str] = None
    format: str = "csv"
    ball_cap: Optional[int] = None

    def __post_init__(self):
        unset = {"s": "auto", "output": None, "ball_cap": None}
        for key in ("group", "s", "seed", "trials", "output", "format", "ball_cap"):
            value = getattr(self, key)
            if key not in unset or value != unset[key]:
                object.__setattr__(self, key, _typed(key, value, _CONFIG_TYPES[key]))
        group_from_key(self.group)
        lams = self.lambda_range
        if isinstance(lams, str) or not hasattr(lams, "__iter__"):  # split on , and whitespace
            lams = _typed("lambda_range", lams, str).replace(",", " ").split()
        lams = tuple(_typed("lambda_range", x, int) for x in lams)
        if not lams:
            raise ValueError("lambda_range must be nonempty")
        if any(l < 1 for l in lams):
            raise ValueError("lambda_range entries must be at least 1")
        if list(lams) != sorted(set(lams)):
            raise ValueError("lambda_range must be strictly increasing")
        object.__setattr__(self, "lambda_range", lams)
        if self.s != "auto" and self.s < 1:
            raise ValueError(f"s must be 'auto' or a positive integer, got {self.s!r}")
        SearchParams(starts=self.trials, seed=self.seed)  # the one rule for trials and seed
        if self.ball_cap is not None and self.ball_cap < 1:
            raise ValueError(f"ball_cap must be at least 1, got {self.ball_cap}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.format!r}")

    @classmethod
    def from_mapping(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{"lambda_range": (), **data})


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


def _derived_seed(seed: int, lam: int) -> int:
    digest = hashlib.blake2b(f"{seed}:{lam}:eps-trunc".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _growth_fit(group):
    """The growth report that picks the derivative order, and that a sweep reports.

    The range grows one radius at a time, to radius 4 and then while its balls
    stay within 4,000 elements, and stops at the first ball over the cap; the
    growth degree is fitted on its larger half.  Raises ResourceCapError
    when the cap leaves fewer than two radii to fit.
    """
    lam_max, size = 2, 0
    try:
        while lam_max < 32 and (lam_max < 4 or size <= 4000):
            size = len(ball(group, lam_max + 1))
            if lam_max < 4 or size <= 4000:
                lam_max += 1
    except ResourceCapError:
        pass
    report = growth_report(group, lam_max, fit_min=max(2, lam_max // 2))
    if math.isnan(report.fitted_degree):
        raise ResourceCapError(
            f"growth fit in {group.name} needs balls of radius {lam_max + 1} and more, "
            f"over the cap of {_ELEMENT_CAP.get()} elements"
        )
    return report


def _order(degree: float) -> int:
    """One more than half the rounded growth degree, rounded up."""
    return (max(1, round(degree)) + 1) // 2 + 1


def choose_s(group) -> int:
    """Derivative order heuristic: ``_order`` of the growth degree of ``_growth_fit``.

    Raises ResourceCapError when the cap leaves fewer than two radii to fit.
    """
    return _order(_growth_fit(group).fitted_degree)


def _row(group, lam: int, s: int, search: SearchParams):
    """The row at radius lam, for a sweep and the ``epsilon`` command alike.

    The ascent of ``search``, if it has starts, draws from the seed derived from
    (search.seed, lam).  Raises ResourceCapError when the cap stops the row.
    """
    _check_order(s)
    _check_radius(lam)
    size = len(ball(group, lam))
    ef = epsilon_full(group, lam, s)
    search = replace(search, seed=_derived_seed(search.seed, lam))
    et = epsilon_truncated(group, lam, s, search)
    return ConvergenceRow(
        lam=lam,
        ball_size=size,
        folner_eps=ef,
        eps_full=ef,
        eps_trunc=et,
        gh_bound=gh_bound(ef, et),
    )


def _compute_row(group, lam: int, s: int, search: SearchParams):
    """``_row``, or a skipped row with the reason when the cap stops it."""
    try:
        return _row(group, lam, s, search)
    except ResourceCapError as exc:
        return ConvergenceRow(lam=lam, skipped=True, reason=str(exc))


def run_convergence(config: ExperimentConfig) -> ConvergenceReport:
    """Run one sweep and return an ordered report with growth metadata.

    The metadata's growth fit is the one that picks s under ``s = auto``.
    The fit and every row run under ``ball_cap`` as the element cap in force.
    When the cap stops that fit, an auto sweep raises ResourceCapError and a
    sweep with a given s reports the fit as None.
    """
    search = SearchParams(starts=config.trials, seed=config.seed)
    group = group_from_key(config.group)
    with element_cap(config.ball_cap):
        try:
            fit = _growth_fit(group)
        except ResourceCapError:
            if config.s == "auto":
                raise
            fit = None
        s = _order(fit.fitted_degree) if config.s == "auto" else int(config.s)
        rows = [_compute_row(group, lam, s, search) for lam in config.lambda_range]
    metadata = {
        "group": config.group,
        "s": s,
        "seed": config.seed,
        "trials": config.trials,
        "fitted_beta": None if fit is None else fit.fitted_beta,
        "fitted_degree": None if fit is None else fit.fitted_degree,
    }
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


def _check_gnuplot_target(path: Union[str, Path, TextIO], format: str) -> None:
    """Raise ValueError unless a gnuplot script can go next to this report."""
    if format != "csv" or hasattr(path, "write"):
        raise ValueError("a gnuplot script needs a CSV report written to a file path")


def export_report(
    report: ConvergenceReport,
    path: Union[str, Path, TextIO],
    format: str = "csv",
    gnuplot: bool = False,
) -> None:
    """Write a report as CSV (12 significant digits) or a JSON mirror.

    ``path`` is a file path or an open text stream.  ``gnuplot=True`` writes
    a plot script named after the CSV next to it, so it needs a CSV path.
    """
    if gnuplot:
        _check_gnuplot_target(path, format)
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
    if gnuplot:
        path.with_suffix(".gp").write_text(_gnuplot_script(str(path)))


def load_report(path: Union[str, Path]) -> ConvergenceReport:
    """Parse a JSON report back into a :class:`ConvergenceReport`."""
    payload = json.loads(Path(path).read_text())
    rows = tuple(ConvergenceRow(**row) for row in payload["rows"])
    return ConvergenceReport(rows=rows, metadata=payload["metadata"])

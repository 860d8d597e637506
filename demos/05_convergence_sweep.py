"""A full convergence sweep.

For each truncation radius the sweep records the ball size, the boundary
ratio of the averaging kernel, the two approximation constants (the exact
basis floor on the full algebra, a sign witness on the truncated side), and the
resulting distance bound, which decays as the radius grows.  Reports export
as CSV or JSON, optionally with a gnuplot script; here they go to a
temporary directory that is removed after the CSV's first lines are shown.
"""

import tempfile
from pathlib import Path

from spectrunc import ExperimentConfig, export_report, run_convergence

config = ExperimentConfig(
    group="z:1",
    lambda_range=(2, 4, 8, 16),
    s=2,
    seed=0,
)
report = run_convergence(config)

print(f"group {report.metadata['group']}, derivative order s={report.metadata['s']}")
print(f"fitted growth degree {report.metadata['fitted_degree']:.3f}")
print()
print(f"{'L':>3} {'ball':>5} {'folner':>9} {'eps_full':>10} {'eps_trunc':>10} {'bound':>9}")
for row in report.rows:
    print(
        f"{row.lam:>3} {row.ball_size:>5} {row.folner_eps:>9.5f} "
        f"{row.eps_full:>10.6f} {row.eps_trunc:>10.6f} {row.gh_bound:>9.6f}"
    )

with tempfile.TemporaryDirectory(prefix="sweep-") as out_dir:
    csv_path = Path(out_dir) / "sweep.csv"
    export_report(report, csv_path, format="csv", gnuplot=True)
    export_report(report, Path(out_dir) / "sweep.json", format="json")
    print()
    print("exported CSV, gnuplot script and JSON; the CSV begins:")
    for line in csv_path.read_text().splitlines()[:3]:
        print(f"  {line}")

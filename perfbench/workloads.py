"""Workload plans, their input files, and the checks on a sweep's reports.

Every workload is a ``pressqubo sweep`` of a fixed plan over bundled
instances written as files into the run directory; the workload seed
only sets the plan's solver seeds.  Why each one exists:

* ``ladder-anneal``: the paper's main pipeline over the whole size
  ladder (22..60 variables), annealing plus bit-flip post-processing.
  Post-processing and the exact oracle dominate; it never runs the
  statevector simulator.
* ``ramp-22q``: ramped-QAOA statevector simulation at 22 qubits.  The
  mixer layer dominates; it bypasses annealing and post-processing.
* ``grid-w2``: the paper's penalty-grid comparison, many small cells
  of annealing and random sampling on a two-process pool.  Annealing,
  scoring and compilation dominate; it bypasses post-processing and
  the simulator.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REPORT_FILES = ("runs.csv", "metrics.csv", "report.json")
KEY_COLUMNS = ("instance_id", "variant", "solver", "solver_params", "seed")
# runs.csv columns that do not depend on float summation order.
EXACT_COLUMNS = ("n_samples", "n_valid", "best_valid_cost", "percent_valid",
                 "percent_near_opt", "best_cost_ratio", "error")

# Seed whose exact-valued columns are recorded under reference/.
REFERENCE_SEED = 0

_LADDER = ["press-03x2", "press-09x2", "press-13x2", "press-16x2", "press-18x2",
           "press-19x2"]
_THREE_VARIANTS = [{"kind": "raw", "lm": [100000], "lt": [1000000000]},
                   {"kind": "scaled", "ls": [1]},
                   {"kind": "rounded"}]


@dataclass(frozen=True)
class Workload:
    instances: tuple[str, ...]
    variants: tuple[dict, ...]
    solvers: tuple[dict, ...]
    solver_seeds: int
    postprocess: bool
    workers: int

    def plan(self, seed: int) -> dict:
        """The sweep plan; instance paths are relative to the plan file.

        Workload seed ``s`` sets solver seeds ``s*k .. s*k+k-1`` for
        ``k = solver_seeds``, so seed 0 gives the reference plan.
        """
        first = seed * self.solver_seeds
        return {
            "instances": [f"{name}.json" for name in self.instances],
            "variants": list(self.variants),
            "solvers": list(self.solvers),
            "seeds": list(range(first, first + self.solver_seeds)),
            "postprocess": self.postprocess,
        }


WORKLOADS: dict[str, Workload] = {
    "ladder-anneal": Workload(
        instances=tuple(_LADDER),
        variants=tuple(_THREE_VARIANTS),
        solvers=({"name": "sa"},),
        solver_seeds=1, postprocess=True, workers=1),
    "ramp-22q": Workload(
        instances=("press-03x2",),
        variants=tuple(_THREE_VARIANTS),
        solvers=({"name": "lrqaoa", "params": {"p": [1, 2], "shots": 1000}},),
        solver_seeds=1, postprocess=False, workers=1),
    "grid-w2": Workload(
        instances=("press-small", "press-03x2", "press-09x2", "press-13x2"),
        variants=({"kind": "raw"}, {"kind": "scaled"}, {"kind": "rounded"}),
        solvers=({"name": "sa", "params": {"restarts": 200}},
                 {"name": "random", "params": {"shots": 1000}}),
        solver_seeds=2, postprocess=False, workers=2),
}


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each report file; raises OSError when one is missing."""
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in REPORT_FILES}


def read_runs(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def exact_rows(rows: list[dict]) -> list[tuple[str, ...]]:
    return [tuple(r[c] for c in KEY_COLUMNS + EXACT_COLUMNS) for r in rows]


def load_reference(path: Path) -> list[tuple[str, ...]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != KEY_COLUMNS + EXACT_COLUMNS:
            raise ValueError(f"{path} does not have the reference columns")
        return [tuple(row) for row in reader]


def _expected_samples(row: dict) -> int:
    params = dict(item.split("=", 1) for item in row["solver_params"].split(";"))
    return int(params["restarts"] if row["solver"] == "sa" else params["shots"])


def invariant_problems(rows: list[dict], optima: dict[str, Fraction]) -> list[str]:
    """Seed-independent checks: sample counts and no cost below the optimum."""
    problems = []
    for r in rows:
        if r["error"]:
            continue
        label = f"{r['instance_id']} {r['variant']} {r['solver']} seed {r['seed']}"
        if int(r["n_samples"]) != _expected_samples(r):
            problems.append(f"{label}: n_samples {r['n_samples']} != {_expected_samples(r)}")
        if r["best_valid_cost"] and Fraction(r["best_valid_cost"]) < optima[r["instance_id"]]:
            problems.append(f"{label}: best_valid_cost {r['best_valid_cost']} is below the "
                            f"exact optimum {optima[r['instance_id']]}")
    return problems

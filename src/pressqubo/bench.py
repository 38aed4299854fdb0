"""Experiment grid execution and scoring.

A sweep plan names instances, construction variants, solvers, and
seeds; every combination is one cell, and a plan that yields the same
cell twice is rejected before any cell runs.  The sweep runs the
cells in groups, one job per instance: the job compiles each variant's
QUBO once, samples all seeds of each (solver, parameters) pair in one
registry call, and post-processes and scores each cell's samples, so
the per-``Qubo`` caches (dense mirror, ramp cost tables) are shared by
all cells of a variant.  Annealing takes every variant's map in that
call and anneals the maps and seeds in stacked step loops; the ramp
simulation runs once per map for all seeds.  Each cell's samples are
scored against the exhaustive reference optimum with three metrics:

* share of samples decoding to a constraint-satisfying assignment,
* among the valid ones, the share within 1% of the optimal cost,
* optimal cost divided by the best valid cost found (1.0 is best).

The last two are undefined (None / empty CSV cell) when a cell has no
valid sample at all; folding them to 0 would conflate "found nothing
valid" with "found only poor solutions".

``score_samples`` scores all entries of a sample set in one exact
integer pass over the instance's common-denominator integer arrays
(int64, or Python ints for data past int64's safe range); the
three metrics are methods of the ``ScoredSamples`` it returns, so a
caller scores a set once and reads every metric from that result.
``score_samples_reference`` keeps the per-entry decode, validate and
price loop in Fractions; it is what the fast pass is tested against,
and it scores whenever the fast pass cannot (no variable map or one
naming other ids, rows of another width than the map's).

Reports are deterministic: records are ordered by their grid key and
wall-clock timings are kept off the exported files, so re-running an
identical plan reproduces the report byte for byte.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import lrqaoa, model, qubo, solvers
from .errors import PressQuboError, WorkerDied
from .model import Instance, Solution
from .qubo import Qubo, VariantSpec, variant_label, variant_sort_key
from .solvers import SampleSet


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

NEAR_OPT_TOLERANCE = Fraction(1, 100)
# The three metrics of a scored cell, as named in records and reports.
METRICS = ("percent_valid", "percent_near_opt", "best_cost_ratio")


@dataclass(frozen=True)
class ScoredSamples:
    """A sample set after one decode-validate-price pass over its entries.

    ``valid`` holds (multiplicity, cost) of every entry decoding to a
    feasible assignment; every metric is computed from it.
    """

    total: int
    valid: tuple[tuple[int, Fraction], ...]

    @property
    def n_valid(self) -> int:
        return sum(m for m, _ in self.valid)

    def best_valid_cost(self) -> Fraction | None:
        return min((c for _, c in self.valid), default=None)

    def percent_valid(self) -> float:
        """Multiplicity-weighted share of samples decoding to feasible
        assignments; ValueError for an empty set."""
        if not self.total:
            raise ValueError("empty sample set")
        return self.n_valid / self.total

    def percent_near_opt(self, opt_cost: Fraction) -> float | None:
        """Share of *valid* samples within ``NEAR_OPT_TOLERANCE`` (1%) of
        the optimal cost; None when there is no valid sample (the share
        conditions on validity)."""
        if not self.valid:
            return None
        bound = (1 + NEAR_OPT_TOLERANCE) * Fraction(opt_cost)
        return sum(m for m, c in self.valid if c <= bound) / self.n_valid

    def best_cost_ratio(self, opt_cost: Fraction) -> Fraction | None:
        """Optimal cost over the lowest valid cost, in (0, 1]; None when
        there is no valid sample."""
        best = self.best_valid_cost()
        if best is None:
            return None
        # 0 <= opt <= best, so a best of 0 means an optimum of 0: ratio 1.
        return Fraction(1) if best == opt_cost else Fraction(opt_cost) / best


def score_samples(samples: SampleSet, inst: Instance, q: Qubo) -> ScoredSamples:
    """Validate and price every entry in one exact integer pass.

    The decision bits of all entries, taken from the set's state matrix
    by :meth:`~pressqubo.qubo.VariableMap.choices` in the instance's id
    order, form an (entries, toolkits, machines) 0/1 array, so no
    bitstring is built.  An entry is valid when every toolkit selects
    exactly one machine and no machine's load exceeds its capacity; its
    cost is an integer over the instance's common cost denominator, and
    the sums are int64 or Python ints as :func:`model._scaled_int_arrays`
    holds the data, so they are exact at any magnitude.  Whenever the
    variable map is missing or names other ids than the instance, or
    the rows are not ``q.n`` bits wide, :func:`score_samples_reference`
    scores instead, so those cases keep the reference's results and
    errors.
    """
    vm = q.varmap
    states, counts = samples.states(), samples.counts()
    if (vm is None or states.shape[1] != q.n
            or set(vm.toolkits) != set(inst.toolkits) or set(vm.machines) != set(inst.machines)):
        return score_samples_reference(samples, inst, q)
    C, W, H, cost_denominator = model._scaled_int_arrays(inst)
    X = vm.choices(states, inst.toolkits, inst.machines)  # (entries, toolkits, machines)
    ok = (X.sum(axis=2) == 1).all(axis=1)
    ok &= (np.einsum("etm,tm->em", X, W) <= H).all(axis=1)
    costs = np.einsum("etm,tm->e", X, C)
    valid = tuple(
        (int(counts[e]), Fraction(int(costs[e]), cost_denominator)) for e in np.flatnonzero(ok)
    )
    return ScoredSamples(total=samples.total, valid=valid)


def score_samples_reference(samples: SampleSet, inst: Instance, q: Qubo) -> ScoredSamples:
    """Decode each entry once, and validate and price the decodable ones."""
    valid = []
    for e in samples.entries:
        assignment = qubo.decode(q, e.bits).as_assignment()
        if assignment is not None and model.validate_assignment(inst, assignment).feasible:
            valid.append((e.multiplicity, model.solution_cost(inst, assignment)))
    return ScoredSamples(total=samples.total, valid=tuple(valid))


def pearson_r(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient, clamped to [-1, 1] against rounding;
    ValueError where it is undefined (short series, NaN, overflow, no variance)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("need two equal-length series of length >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN or an overflow raises below
        dx, dy = x - x.mean(), y - y.mean()
        vx, vy, cov = float(dx @ dx), float(dy @ dy), float(dx @ dy)
    if not (math.isfinite(vx * vy) and math.isfinite(cov)):
        raise ValueError("correlation undefined for non-finite values or moments")
    if vx == 0.0 or vy == 0.0:
        raise ValueError("correlation undefined for a zero-variance series")
    return min(1.0, max(-1.0, cov / (vx * vy) ** 0.5))


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
    """One grid cell: solver output summary plus its metric scores."""

    instance_id: str
    variant: VariantSpec
    solver: str
    solver_params: Mapping[str, object]
    seed: int
    n_samples: int = 0
    n_valid: int = 0
    best_energy: float | None = None
    best_valid_cost: Fraction | None = None
    percent_valid: float | None = None
    percent_near_opt: float | None = None
    best_cost_ratio: float | None = None
    error: str | None = None

    def params_label(self) -> str:
        return ";".join(f"{k}={self.solver_params[k]}" for k in sorted(self.solver_params))

    def grid_key(self):
        return (
            self.instance_id,
            variant_sort_key(self.variant),
            self.solver,
            self.params_label(),
            self.seed,
        )


# ---------------------------------------------------------------------------
# Solver registry
# ---------------------------------------------------------------------------

# The parameters reach the runners checked by ``expand_solver_params``
# (the sweep's and the CLI's alike), so they are used as given.
def _run_sa(maps: Sequence[Qubo], params: Mapping, seeds: Sequence[int]) -> list[list[SampleSet]]:
    return solvers.simulated_anneal(maps, solvers.SaConfig(**params), seeds)


def _run_random(maps: Sequence[Qubo], params: Mapping,
                seeds: Sequence[int]) -> list[list[SampleSet]]:
    return [solvers.random_sample(q, params["shots"], seeds) for q in maps]


def _run_lrqaoa(maps: Sequence[Qubo], params: Mapping,
                seeds: Sequence[int]) -> list[list[SampleSet]]:
    sched = lrqaoa.lr_schedule(params["p"], params["delta_gamma"], params["delta_beta"])
    return [lrqaoa.run_lrqaoa(q, sched, params["shots"], seeds) for q in maps]


def _run_brute(maps: Sequence[Qubo], params: Mapping,
               seeds: Sequence[int]) -> list[list[SampleSet]]:
    solvers.check_seeds(seeds)
    results = []
    for q in maps:
        bits, _ = solvers.brute_force_qubo(q)  # the same minimum for every seed
        state = qubo.bits_to_vector(bits)[None, :]
        results.append([solvers.sampleset_from_states(qubo.as_dense(q), state, [1],
                                                      {"solver": "brute", "params": {},
                                                       "seed": seed})
                        for seed in seeds])
    return results


@dataclass(frozen=True)
class Solver:
    """A sampler's default parameters and its ``run(maps, params, seeds)``,
    which returns, for each map in order, one :class:`SampleSet` per
    seed, in order.

    ``optional`` maps the parameters it also accepts without a default
    to their type.  A parameter's type (its default's, or the one
    ``optional`` gives) is ``int`` for a count, which must be >= 1, or
    ``float`` for a slope or temperature, which must be finite and > 0.
    ``stacks_maps`` marks a sampler that runs several maps faster in one
    call than apart (annealing stacks them in one step loop); the sweep
    hands any other sampler one map per call, so only one map's sample
    sets and ramp tables (cached on the map) are alive at a time.
    """

    defaults: dict[str, object]
    run: Callable[[Sequence[Qubo], Mapping, Sequence[int]], list[list[SampleSet]]]
    optional: Mapping[str, type] = field(default_factory=dict)
    stacks_maps: bool = False

    def __post_init__(self):
        for key in self.keys():
            if self.kind(key) not in (int, float):
                raise TypeError(f"solver parameter {key!r} must be an int or a float")

    def keys(self) -> set[str]:
        return set(self.defaults) | set(self.optional)

    def kind(self, key: str) -> type:
        return type(self.defaults[key]) if key in self.defaults else self.optional[key]


# The run functions look each sampler up on its module when called, so a
# wrapper patched onto the module attribute (as a tracer does) is used.
SOLVERS: dict[str, Solver] = {
    "sa": Solver({"steps": 1280, "restarts": 500}, _run_sa,
                 optional={"t_start": float, "t_end": float}, stacks_maps=True),
    "random": Solver({"shots": 1000}, _run_random),
    "lrqaoa": Solver({"p": 1, "delta_gamma": 0.9, "delta_beta": 0.6, "shots": 1000},
                     _run_lrqaoa),
    "brute": Solver({}, _run_brute),
}


# ---------------------------------------------------------------------------
# Plan expansion
# ---------------------------------------------------------------------------

def _require(value, kind: type, what: str):
    """``value`` when it is a ``kind`` (dict or list); ValueError otherwise."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def expand_variants(entry: Mapping) -> list[VariantSpec]:
    """One plan entry to concrete variant specs: the product of the
    entry's parameter lists, where a parameter it leaves out takes its
    default grid from :data:`~pressqubo.qubo.VARIANT_KINDS`.  A key the
    kind does not take and an empty list are ValueErrors."""
    kind = _require(entry, dict, "a variant entry").get("kind")
    defaults = {label: grid for label, _, grid in qubo.variant_parameters(kind)}
    foreign = sorted(entry.keys() - {"kind", *defaults})
    if foreign:
        raise ValueError(f"{kind} variant does not take {', '.join(map(repr, foreign))}")
    grids = {label: _require(entry.get(label, list(default)), list, label)
             for label, default in defaults.items()}
    empty = [label for label, values in grids.items() if not values]
    if empty:
        raise ValueError(f"variant entry {entry!r} lists no value for {empty[0]!r}")
    return qubo.variant_grid(kind, grids)


def _check_solver_param(name: str, key: str, value) -> None:
    if SOLVERS[name].kind(key) is int:
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= 1
        kind = "an integer >= 1"
    else:
        try:
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  and math.isfinite(value) and value > 0)
        except OverflowError:  # an int too large for a float
            ok = False
        kind = "a finite positive number"
    if not ok:
        raise ValueError(f"solver {name!r} parameter {key!r} must be {kind}, got {value!r}")


def expand_solver_params(entry: Mapping) -> list[tuple[str, dict]]:
    """Expand list-valued solver parameters into the full grid.

    Raises ValueError for a parameter the solver does not accept, for
    an empty list, and for any value (or list element) of the wrong
    type or range: counts must be integers >= 1, slopes and temperatures
    finite positive numbers, and neither may be a boolean.
    """
    name = _require(entry, dict, "a solver entry").get("name")
    if not isinstance(name, str) or name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}")
    given = _require(entry.get("params", {}), dict, f"params of solver {name!r}")
    unknown = set(given) - SOLVERS[name].keys()
    if unknown:
        raise ValueError(f"solver {name!r} does not take {sorted(unknown)}; "
                         f"it takes {sorted(SOLVERS[name].keys())}")
    params = {**SOLVERS[name].defaults, **given}
    grids = {k: v if isinstance(v, list) else [v] for k, v in sorted(params.items())}
    for key, values in grids.items():
        if not values:
            raise ValueError(f"solver entry {entry!r} lists no value for {key!r}")
        for value in values:
            _check_solver_param(name, key, value)
    return [(name, dict(zip(grids, combo))) for combo in itertools.product(*grids.values())]


@dataclass(frozen=True)
class SweepCell:
    instance_path: str
    variant: VariantSpec
    solver: str
    solver_params: Mapping[str, object]
    seed: int
    postprocess: bool


def expand_plan(plan: Mapping) -> list[SweepCell]:
    for key in ("instances", "variants", "solvers", "seeds"):
        if key not in plan:
            raise ValueError(f"plan is missing the {key!r} list")
        _require(plan[key], list, f"plan {key!r}")
    postprocess = plan.get("postprocess", True)
    if not isinstance(postprocess, bool):
        raise ValueError(f"plan 'postprocess' must be true or false, got {postprocess!r}")
    for seed in plan["seeds"]:
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ValueError(f"plan seeds must be non-negative integers, got {seed!r}")
    cells = []
    for path in plan["instances"]:
        if not isinstance(path, (str, os.PathLike)):
            raise ValueError(f"plan instances must be file paths, got {path!r}")
        for variant_entry in plan["variants"]:
            for variant in expand_variants(variant_entry):
                for solver_entry in plan["solvers"]:
                    for solver, params in expand_solver_params(solver_entry):
                        for seed in plan["seeds"]:
                            cells.append(
                                SweepCell(str(path), variant, solver, params,
                                          seed, postprocess)
                            )
    return cells


def load_plan(path) -> dict:
    plan = model.load_json(path)
    if not isinstance(plan, dict):
        raise ValueError("plan must be a JSON object")
    return plan


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------

def _record_base(cell: SweepCell, inst: Instance) -> dict:
    return dict(
        instance_id=inst.id,
        variant=cell.variant,
        solver=cell.solver,
        solver_params=dict(cell.solver_params),
        seed=cell.seed,
    )


def run_cell(cell: SweepCell, inst: Instance, reference: Solution,
             q: Qubo | None = None, samples: SampleSet | None = None) -> RunRecord:
    """Execute one grid cell; failures land in the record, never raise.

    ``q`` is the cell's compiled QUBO and ``samples`` its solver output;
    the cell builds the one and runs its solver for the other when they
    are not given.
    """
    base = _record_base(cell, inst)
    try:
        if q is None:
            q = qubo.build_qubo(inst, cell.variant)
        if samples is None:
            [[samples]] = SOLVERS[cell.solver].run([q], cell.solver_params, [cell.seed])
        if cell.postprocess:
            samples = solvers.postprocess_sampleset(q, samples)
        scored = score_samples(samples, inst, q)
        ratio = scored.best_cost_ratio(reference.cost)
        return RunRecord(
            **base,
            n_samples=scored.total,
            n_valid=scored.n_valid,
            best_energy=samples.best.energy,
            best_valid_cost=scored.best_valid_cost(),
            percent_valid=scored.percent_valid(),
            percent_near_opt=scored.percent_near_opt(reference.cost),
            best_cost_ratio=None if ratio is None else float(ratio),
        )
    except Exception as exc:  # cell failures must not abort the sweep
        return RunRecord(**base, error=f"{type(exc).__name__}: {exc}")


def _run_group(job: tuple[list[SweepCell], Instance, Solution]) -> list[RunRecord]:
    """Run every cell of one job, the cells of one instance (or part of
    them), compiling each variant's QUBO once.

    The cells of one (solver, parameters) and one variant form a run.
    For a sampler that stacks maps, the runs of one (solver, parameters,
    seed list) form a batch; for any other, each run is a batch.  One
    registry call samples every seed on every map of a batch (annealing
    stacks the maps in one step loop), and each cell then
    post-processes and scores its own set.  A map is dropped, with the
    caches on it, after its variant's last batch; cells come variant by
    variant, so the stacked batches come early and a sampler that does
    not stack holds about one map's ramp tables at a time.  When a
    build, a dense mirror or a batch fails, each cell concerned builds
    or samples again itself and so records the error it would get run
    alone.
    """
    cells, inst, reference = job
    maps: dict[VariantSpec, Qubo] = {}
    for variant in dict.fromkeys(c.variant for c in cells):
        try:
            q = qubo.build_qubo(inst, variant)
            qubo.as_dense(q)  # every sampler reads it; a refused mirror fails here
            maps[variant] = q
        except Exception:  # run_cell records the failure per cell
            pass
    records = [run_cell(c, inst, reference) for c in cells if c.variant not in maps]
    runs: dict[tuple, list[SweepCell]] = {}
    for c in cells:
        if c.variant in maps:
            params = tuple(sorted(c.solver_params.items()))
            runs.setdefault((c.solver, params, c.variant), []).append(c)
    batches: dict[tuple, list[list[SweepCell]]] = {}
    for (solver, params, variant), run in runs.items():
        key = (solver, params, tuple(c.seed for c in run))
        batches.setdefault(key if SOLVERS[solver].stacks_maps else (*key, variant), []).append(run)
    last = {run[0].variant: b for b, batch in enumerate(batches.values()) for run in batch}
    for b, ((solver, _, seeds, *_), batch) in enumerate(batches.items()):
        try:
            sets = SOLVERS[solver].run([maps[run[0].variant] for run in batch],
                                       batch[0][0].solver_params, list(seeds))
        except Exception:  # run_cell records the failure per cell
            sets = [[None] * len(seeds)] * len(batch)
        for run, per_seed in zip(batch, sets):
            records += [run_cell(c, inst, reference, maps[c.variant], samples)
                        for c, samples in zip(run, per_seed)]
            if last[run[0].variant] == b:  # its caches go with it
                del maps[run[0].variant]
    return records


def _split_jobs(groups: list[list[SweepCell]], workers: int) -> list[list[SweepCell]]:
    """Halve the largest group until there are ``workers`` jobs or every
    job is one cell, so a sweep of few instances still fills the pool.

    Each part compiles its own QUBOs and samples its own seeds and
    variants; the split keeps plan order.
    """
    jobs = list(groups)
    while jobs and len(jobs) < workers:
        i = max(range(len(jobs)), key=lambda k: len(jobs[k]))
        if len(jobs[i]) < 2:
            break
        half = len(jobs[i]) // 2
        jobs[i:i + 1] = [jobs[i][:half], jobs[i][half:]]
    return jobs


def sweep(plan: Mapping, workers: int = 1, base_dir=None) -> list[RunRecord]:
    """Run every cell of the plan; records come back sorted by grid key.

    Relative instance paths resolve against ``base_dir`` (callers
    typically pass the plan file's directory).  Instances are loaded
    (and sanitized) once; the exhaustive reference solution per
    instance is shared across cells.  The cells are grouped by
    instance, and each group is one job that compiles each variant's
    QUBO once and anneals the variants' maps together (see
    :func:`_run_group`); with ``workers > 1`` the jobs run in that many
    processes, in plan order.  When there are fewer groups than
    workers, the largest groups are split so every worker gets a job;
    when there are still fewer jobs than workers, the pool has one
    process per job, and one job runs in this process.  Only a sweep
    with a pool imports ``concurrent.futures``, and it raises
    :class:`~pressqubo.errors.WorkerDied` when a pool process dies.
    A plan that yields two cells of one grid key (a repeated seed,
    entry or instance id, or two spellings of one penalty value or
    solver parameter value) raises ValueError before any cell runs.
    Cells fail individually without aborting the sweep; when an
    instance has no reference solution (it is infeasible or too large
    to enumerate), each of its cells gets an error record.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = expand_plan(plan)
    root = Path(base_dir) if base_dir is not None else Path(".")
    instances: dict[str, Instance] = {}
    references: dict[str, Solution] = {}
    failures: dict[str, str] = {}
    for cell in cells:
        if cell.instance_path not in instances:
            instances[cell.instance_path] = model.sanitize_instance(
                model.load_instance(root / cell.instance_path))
    seen = set()
    for c in cells:
        key = RunRecord(**_record_base(c, instances[c.instance_path])).grid_key()
        # Compare parameter values, not their labels: 1 and 1.0 are one slope.
        kind = SOLVERS[c.solver].kind
        values = tuple((k, float(v) if kind(k) is float else v)
                       for k, v in sorted(c.solver_params.items()))
        cell = (*key[:3], values, key[4])
        if cell in seen:
            raise ValueError(f"plan repeats the cell: instance {key[0]!r}, variant "
                             f"{variant_label(c.variant)}, solver {c.solver!r}, "
                             f"params {key[3]!r}, seed {c.seed}")
        seen.add(cell)
    for path, inst in instances.items():
        try:
            references[path] = model.exact_solve(inst)
        except PressQuboError as exc:  # Infeasible or TooLarge: fail its cells only
            failures[path] = f"{type(exc).__name__}: {exc}"
    records = [RunRecord(**_record_base(c, instances[c.instance_path]),
                         error=failures[c.instance_path])
               for c in cells if c.instance_path in failures]
    groups: dict[str, list[SweepCell]] = {}
    for c in cells:
        if c.instance_path in references:
            groups.setdefault(c.instance_path, []).append(c)
    jobs = [(part, instances[part[0].instance_path], references[part[0].instance_path])
            for part in _split_jobs(list(groups.values()), workers)]
    # A fork pool starts all its processes at the first submit: start no
    # more than there are jobs.
    workers = min(workers, len(jobs))
    if workers > 1:
        # Imported here: a one-process sweep never loads the pool's modules.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for group_records in pool.map(_run_group, jobs):
                    records += group_records
        except BrokenProcessPool as exc:
            raise WorkerDied("a sweep worker process died (for example, killed for "
                             "memory)") from exc
    else:
        for job in jobs:
            records += _run_group(job)
    return sorted(records, key=lambda r: r.grid_key())


# ---------------------------------------------------------------------------
# Aggregation, penalty selection, correlation
# ---------------------------------------------------------------------------

def _by_config(records: Sequence[RunRecord]) -> dict[tuple, list[RunRecord]]:
    """Records grouped by their grid key without the seed, each group in
    input order."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault(r.grid_key()[:-1], []).append(r)
    return groups


def _mean_defined(values) -> float | None:
    """Mean of the values that are not None; None when there are none."""
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def aggregate_metrics(records: Sequence[RunRecord]) -> list[dict]:
    """Mean metrics per (instance, variant, solver-config) across seeds.

    Undefined per-seed values are skipped; a group with no defined
    values stays undefined.
    """
    groups = _by_config(records)
    rows = []
    for key in sorted(groups):
        rs = groups[key]
        rows.append(
            {
                "instance_id": rs[0].instance_id,
                "variant": variant_label(rs[0].variant),
                "solver": rs[0].solver,
                "solver_params": rs[0].params_label(),
                "n_records": len(rs),
                **{m: _mean_defined([getattr(r, m) for r in rs]) for m in METRICS},
            }
        )
    return rows


def select_best_penalty(records: Sequence[RunRecord]) -> dict[tuple, VariantSpec]:
    """Best variant per (instance, solver, solver parameters, variant kind).

    Ranking: highest valid share, then highest best-cost ratio (0 when
    undefined), then the lexicographically smallest penalty parameters,
    over the per-configuration means of the scored records.  Groups
    without scored records are skipped.
    """
    scored = [r for r in records if r.error is None and r.percent_valid is not None]
    options: dict[tuple, list] = {}
    for (instance_id, vkey, solver, params), rs in _by_config(scored).items():
        rank = (-_mean_defined([r.percent_valid for r in rs]),
                -(_mean_defined([r.best_cost_ratio for r in rs]) or 0.0), vkey)
        options.setdefault((instance_id, solver, params, vkey[0]), []).append(
            (rank, rs[0].variant))
    # Ranks differ in their variant keys, so variants are never compared.
    return {group: min(ranked)[1] for group, ranked in options.items()}


def series_correlations(records: Sequence[RunRecord]) -> list[dict]:
    """Correlate two solvers' metric series across instances.

    For every variant kind and metric, one solver's per-instance mean
    (averaged over seeds and penalty settings) is correlated with
    another's.  Rows are emitted per solver pair (alphabetical order)
    with at least two instances of paired data and nonzero variance.
    """
    # (kind, metric) -> solver -> instance -> defined values, in record order
    series: dict[tuple, dict[str, dict[str, list[float]]]] = {}
    for r in records:
        if r.error is not None:
            continue
        for metric in METRICS:
            value = getattr(r, metric)
            if value is not None:
                per_solver = series.setdefault((r.variant.kind, metric), {})
                per_solver.setdefault(r.solver, {}).setdefault(r.instance_id, []).append(
                    float(value))
    rows = []
    for kind, metric in sorted(series, key=lambda km: (km[0], METRICS.index(km[1]))):
        per_solver = series[kind, metric]
        for a, b in itertools.combinations(sorted(per_solver), 2):
            shared = sorted(set(per_solver[a]) & set(per_solver[b]))
            xs = [np.mean(per_solver[a][i]) for i in shared]
            ys = [np.mean(per_solver[b][i]) for i in shared]
            try:
                r_value = pearson_r(xs, ys)
            except ValueError:  # fewer than two shared instances, or no variance
                continue
            rows.append(
                {
                    "variant_kind": kind,
                    "metric": metric,
                    "solver_a": a,
                    "solver_b": b,
                    "instances": shared,
                    "r": r_value,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

RUNS_COLUMNS = tuple(f.name for f in fields(RunRecord))

METRICS_COLUMNS = ("instance_id", "variant", "solver", "solver_params", "n_records", *METRICS)


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_row(r: RunRecord) -> dict:
    return {**{c: getattr(r, c) for c in RUNS_COLUMNS},
            "variant": variant_label(r.variant), "solver_params": r.params_label()}


def _write_csv(path: Path, columns: Sequence[str], rows: Sequence[Mapping]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell_text(row.get(c)) for c in columns])


def export_report(records: Sequence[RunRecord], out_dir, plan: Mapping | None = None) -> dict:
    """Write ``runs.csv``, ``metrics.csv`` and ``report.json``.

    Identical records produce byte-identical files.  Returns the paths
    written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(records, key=lambda r: r.grid_key())
    run_rows = [_record_row(r) for r in ordered]
    metric_rows = aggregate_metrics(ordered)
    best = select_best_penalty(ordered)
    best_rows = [
        {"group": list(group[:-1]), "variant_kind": group[-1],
         "variant": variant_label(variant)}
        for group, variant in sorted(best.items())
    ]
    correlations = series_correlations(ordered)

    _write_csv(out / "runs.csv", RUNS_COLUMNS, run_rows)
    _write_csv(out / "metrics.csv", METRICS_COLUMNS, metric_rows)
    report = {
        "plan": plan,
        "runs": [
            {k: (str(v) if isinstance(v, Fraction) else v) for k, v in row.items()}
            for row in run_rows
        ],
        "metrics": metric_rows,
        "best_penalties": best_rows,
        "correlations": correlations,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return {
        "runs": out / "runs.csv",
        "metrics": out / "metrics.csv",
        "report": out / "report.json",
    }

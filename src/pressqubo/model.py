"""Problem data for capacity-constrained toolkit-to-machine assignment.

Every toolkit must be placed on exactly one press machine, each placement
carries a cost and a machine-dependent workload (hours per period), and
each machine offers a limited number of hours per period.  The objective
is the total cost of the chosen placements.

This module holds the instance data and its JSON form, the integer
sanitization step (capacities floored, workloads ceiled), feasibility
checking, a seeded synthetic instance generator, and the exhaustive
oracle every quality metric is scored against: a split-half (meet in
the middle) search over the instance's common-denominator integers,
int64 while they are small enough and Python ints past that.

All numeric data is kept as exact :class:`fractions.Fraction` values;
floats only appear at the raw-input boundary, and the oracle searches
over exact integers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import GenerationFailed, Infeasible, check_size

_ENUM_CHUNK = 1 << 16


def as_fraction(value) -> Fraction:
    """An exact rational from a Fraction, int, float (by its repr) or string.

    Raises ValueError for anything else, including a boolean and a string
    with a zero denominator such as ``"1/0"``.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise ValueError(f"cannot interpret {value!r} as an exact rational")


def _json_number(x: Fraction):
    """Render a Fraction as a JSON number (int when integral)."""
    if x.denominator == 1:
        return x.numerator
    return float(x)


@dataclass(frozen=True)
class Instance:
    """One assignment problem: toolkits, machines, and their data.

    ``cost[(t, m)]`` is the cost of running toolkit ``t`` on machine ``m``
    (currency units), ``workload[(t, m)]`` the hours per period that
    placement consumes, and ``capacity[m]`` the hours machine ``m``
    offers per period.  Values are exact rationals; a *sanitized*
    instance has integral workloads and capacities.

    Instances are immutable after construction and safe to share across
    concurrent workers.
    """

    id: str
    toolkits: tuple[str, ...]
    machines: tuple[str, ...]
    cost: Mapping[tuple[str, str], Fraction]
    workload: Mapping[tuple[str, str], Fraction]
    capacity: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "toolkits", tuple(self.toolkits))
        object.__setattr__(self, "machines", tuple(self.machines))
        if not self.toolkits or not self.machines:
            raise ValueError("instance needs at least one toolkit and one machine")
        if len(set(self.toolkits)) != len(self.toolkits):
            raise ValueError("duplicate toolkit ids")
        if len(set(self.machines)) != len(self.machines):
            raise ValueError("duplicate machine ids")
        cost = {k: as_fraction(v) for k, v in dict(self.cost).items()}
        workload = {k: as_fraction(v) for k, v in dict(self.workload).items()}
        capacity = {k: as_fraction(v) for k, v in dict(self.capacity).items()}
        keys = {(t, m) for t in self.toolkits for m in self.machines}
        for name, mapping in (("cost", cost), ("workload", workload)):
            if set(mapping) != keys:
                raise ValueError(f"{name} must cover exactly toolkits x machines")
        if set(capacity) != set(self.machines):
            raise ValueError("capacity must cover exactly the machines")
        for name, values in (("cost", cost.values()), ("workload", workload.values()),
                             ("capacity", capacity.values())):
            if any(v < 0 for v in values):
                raise ValueError(f"negative {name} value")
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "capacity", capacity)

    @property
    def n_toolkits(self) -> int:
        return len(self.toolkits)

    @property
    def n_machines(self) -> int:
        return len(self.machines)

    def is_sanitized(self) -> bool:
        return all(v.denominator == 1 for v in self.workload.values()) and all(
            v.denominator == 1 for v in self.capacity.values()
        )


@dataclass(frozen=True)
class Assignment:
    """A (possibly partial) choice of one machine per toolkit."""

    choice: Mapping[str, str]

    def __post_init__(self):
        object.__setattr__(self, "choice", dict(self.choice))

    def is_total(self, inst: Instance) -> bool:
        return set(self.choice) == set(inst.toolkits)


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint check result: empty violation maps mean feasible."""

    feasible: bool
    capacity_violations: Mapping[str, Fraction]
    assignment_violations: Mapping[str, int]


@dataclass(frozen=True)
class Solution:
    assignment: Assignment
    cost: Fraction
    optimal: bool = False


def sanitize_instance(raw: Instance) -> Instance:
    """Round capacities down and workloads up to integers.

    Costs are left untouched.  Idempotent: a sanitized instance maps to
    itself.
    """
    capacity = {m: Fraction(math.floor(raw.capacity[m])) for m in raw.machines}
    workload = {k: Fraction(math.ceil(v)) for k, v in raw.workload.items()}
    return Instance(
        id=raw.id,
        toolkits=raw.toolkits,
        machines=raw.machines,
        cost=raw.cost,
        workload=workload,
        capacity=capacity,
    )


def _check_ids(inst: Instance, toolkits: Iterable[str], machines: Iterable[str]):
    unknown_t = set(toolkits) - set(inst.toolkits)
    unknown_m = set(machines) - set(inst.machines)
    if unknown_t or unknown_m:
        raise ValueError(f"unknown ids: toolkits={sorted(unknown_t)} machines={sorted(unknown_m)}")


def validate_candidate(
    inst: Instance, candidate: Mapping[str, Iterable[str]]
) -> FeasibilityReport:
    """Check a toolkit -> set-of-machines candidate against all constraints.

    Machine loads count every selected (toolkit, machine) pair, matching
    the underlying binary formulation; the exactly-once constraint is
    violated for any toolkit whose machine set has size != 1 (missing
    toolkits count as size 0).
    """
    sets = {t: set(ms) for t, ms in candidate.items()}
    _check_ids(inst, sets.keys(), (m for ms in sets.values() for m in ms))
    assignment_violations = {
        t: len(sets.get(t, ())) for t in inst.toolkits if len(sets.get(t, ())) != 1
    }
    load: dict[str, Fraction] = {m: Fraction(0) for m in inst.machines}
    for t, ms in sets.items():
        for m in ms:
            load[m] += inst.workload[t, m]
    capacity_violations = {
        m: load[m] - inst.capacity[m] for m in inst.machines if load[m] > inst.capacity[m]
    }
    feasible = not capacity_violations and not assignment_violations
    return FeasibilityReport(feasible, capacity_violations, assignment_violations)


def validate_assignment(inst: Instance, a: Assignment) -> FeasibilityReport:
    """Check capacity and exactly-once constraints for an assignment."""
    return validate_candidate(inst, {t: {m} for t, m in a.choice.items()})


def solution_cost(inst: Instance, a: Assignment) -> Fraction:
    """Total cost of a total assignment; raises on partial input."""
    if not a.is_total(inst):
        missing = sorted(set(inst.toolkits) - set(a.choice))
        raise ValueError(f"assignment is not total, missing {missing}")
    _check_ids(inst, a.choice.keys(), a.choice.values())
    return sum((inst.cost[t, m] for t, m in a.choice.items()), Fraction(0))


def _scaled_int_arrays(inst: Instance):
    """Common-denominator integer views ``(C, W, H, cost_denominator)``.

    ``C`` is the (toolkits x machines) cost matrix times
    ``cost_denominator``; ``W`` and ``H`` are the workloads and the
    capacities over one shared denominator of their own, so loads and
    capacities compare exactly.

    The arrays are int64 when every scaled value is at most 2^40 and the
    sums of ``C`` and ``W`` are at most 2^60, so no 0/1 selection of their
    entries overflows; otherwise they are object arrays of Python ints.
    Either way every sum and comparison over them is exact.
    """
    def scale(values: list[Fraction]):
        denom = math.lcm(*(v.denominator for v in values))
        return [int(v * denom) for v in values], denom

    T, M = inst.n_toolkits, inst.n_machines
    c_flat, cost_denominator = scale(
        [inst.cost[t, m] for t in inst.toolkits for m in inst.machines])
    wh_flat, _ = scale(
        [inst.workload[t, m] for t in inst.toolkits for m in inst.machines]
        + [inst.capacity[m] for m in inst.machines]
    )
    fits = (max(c_flat + wh_flat) <= (1 << 40) and sum(c_flat) <= (1 << 60)
            and sum(wh_flat[: T * M]) <= (1 << 60))
    dtype = np.int64 if fits else object
    C = np.array(c_flat, dtype=dtype).reshape(T, M)
    W = np.array(wh_flat[: T * M], dtype=dtype).reshape(T, M)
    H = np.array(wh_flat[T * M :], dtype=dtype)
    return C, W, H, cost_denominator


def _assignment_from_index(inst: Instance, k: int) -> Assignment:
    M, T = inst.n_machines, inst.n_toolkits
    choice = {}
    for t in range(T):
        digit = (k // M ** (T - 1 - t)) % M
        choice[inst.toolkits[t]] = inst.machines[digit]
    return Assignment(choice)


def exact_solve(inst: Instance) -> Solution:
    """Exhaustively find the minimum-cost feasible assignment.

    Ties go to the lexicographically smallest machine-index vector in
    toolkit order, i.e. the smallest base-M index ``k`` (toolkit 0 most
    significant), so the result is fully deterministic.

    Split-half search: the costs and per-machine loads of the first
    ``T // 2`` toolkits and of the rest are enumerated once each; row
    chunks of the first half are combined with the whole second half as
    outer sums of at most ``_ENUM_CHUNK`` (2^16) entries or one row,
    infeasible entries masked, and each chunk's sums are freed before
    the next are formed.  ``k`` grows in row-major order within a chunk and
    from chunk to chunk, so ``np.argmin`` keeps the tie-break as long
    as a later chunk wins only when strictly cheaper.  The sums run on
    the instance's common-denominator integers from
    :func:`_scaled_int_arrays`, int64 or Python ints, so the result is
    exact at any magnitude.
    """
    T, M = inst.n_toolkits, inst.n_machines
    check_size(f"the search over {M}^{T} assignments", M**T)
    best = _exact_solve_int(_scaled_int_arrays(inst), T, M)
    if best is None:
        raise Infeasible(f"instance {inst.id!r} has no feasible assignment")
    assignment = _assignment_from_index(inst, best)
    return Solution(assignment=assignment, cost=solution_cost(inst, assignment), optimal=True)


def _half_enumeration(C: np.ndarray, W: np.ndarray, M: int):
    # Cost (S,) and per-machine load (S, M) of all S = M^t machine-index
    # vectors over the t rows of C and W, first row most significant.
    t = len(C)
    digits = np.arange(M**t, dtype=np.int64)[:, None] // M ** np.arange(t - 1, -1, -1) % M
    rows = np.arange(t)
    load = (W[rows, digits][:, :, None] * (digits[:, :, None] == np.arange(M))).sum(axis=1)
    return C[rows, digits].sum(axis=1), load


def _exact_solve_int(arrays, T: int, M: int):
    C, W, H, _ = arrays
    cost_hi, load_hi = _half_enumeration(C[: T // 2], W[: T // 2], M)
    cost_lo, load_lo = _half_enumeration(C[T // 2 :], W[T // 2 :], M)
    n_lo = len(cost_lo)
    rows = max(1, _ENUM_CHUNK // n_lo)
    masked = int(C.sum()) + 1  # above every cost: the costs are >= 0
    best_cost, best_k = masked, None
    for start in range(0, len(cost_hi), rows):
        cost = np.add.outer(cost_hi[start : start + rows], cost_lo)
        for m in range(M):
            cost[np.less.outer(H[m] - load_hi[start : start + rows, m], load_lo[:, m])] = masked
        i = int(np.argmin(cost))  # row-major: k = start * n_lo + i
        if cost.flat[i] < best_cost:
            best_cost, best_k = int(cost.flat[i]), start * n_lo + i
        del cost  # freed before the next chunk's sums are formed
    return best_k


def _exact_solve_fraction(inst: Instance, T: int, M: int, total: int):
    # Per-assignment Fraction enumeration: the reference the split-half
    # search is tested against.
    best: tuple[Fraction, int] | None = None
    caps = [inst.capacity[m] for m in inst.machines]
    w = [[inst.workload[t, m] for m in inst.machines] for t in inst.toolkits]
    c = [[inst.cost[t, m] for m in inst.machines] for t in inst.toolkits]
    for k in range(total):
        load = [Fraction(0)] * M
        cost = Fraction(0)
        rest = k
        ok = True
        for t in range(T - 1, -1, -1):
            d = rest % M
            rest //= M
            load[d] += w[t][d]
            cost += c[t][d]
        for m in range(M):
            if load[m] > caps[m]:
                ok = False
                break
        if ok and (best is None or (cost, k) < best):
            best = (cost, k)
    return None if best is None else best[1]


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------

def instance_to_dict(inst: Instance) -> dict:
    return {
        "id": inst.id,
        "toolkits": list(inst.toolkits),
        "machines": list(inst.machines),
        "cost": [[_json_number(inst.cost[t, m]) for m in inst.machines] for t in inst.toolkits],
        "workload": [
            [_json_number(inst.workload[t, m]) for m in inst.machines] for t in inst.toolkits
        ],
        "capacity": [_json_number(inst.capacity[m]) for m in inst.machines],
    }


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise ValueError("instance document must be a JSON object")
    required = {"id", "toolkits", "machines", "cost", "workload", "capacity"}
    missing = required - set(doc)
    if missing:
        raise ValueError(f"instance document missing fields: {sorted(missing)}")
    if not isinstance(doc["toolkits"], list) or not isinstance(doc["machines"], list):
        raise ValueError("toolkits and machines must be lists of ids")
    toolkits = [str(t) for t in doc["toolkits"]]
    machines = [str(m) for m in doc["machines"]]
    T, M = len(toolkits), len(machines)

    def matrix(name: str) -> dict[tuple[str, str], Fraction]:
        rows = doc[name]
        if not isinstance(rows, list) or len(rows) != T or any(
                not isinstance(r, list) or len(r) != M for r in rows):
            raise ValueError(f"{name} must be a {T}x{M} matrix (toolkit rows, machine columns)")
        return {
            (toolkits[i], machines[j]): as_fraction(rows[i][j])
            for i in range(T)
            for j in range(M)
        }

    if not isinstance(doc["capacity"], list) or len(doc["capacity"]) != M:
        raise ValueError(f"capacity must list {M} values")
    capacity = {machines[j]: as_fraction(doc["capacity"][j]) for j in range(M)}
    return Instance(
        id=str(doc["id"]),
        toolkits=tuple(toolkits),
        machines=tuple(machines),
        cost=matrix("cost"),
        workload=matrix("workload"),
        capacity=capacity,
    )


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=2) + "\n")


def load_json(path, **kwargs):
    """The JSON document in ``path``; a syntax error names the file."""
    with open(path) as fh:
        try:
            return json.load(fh, **kwargs)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def load_instance(path) -> Instance:
    """The instance in the JSON file ``path``; a ValueError names the file."""
    # parse_float=Fraction keeps decimal literals exact (no binary float hop)
    doc = load_json(path, parse_float=Fraction)
    try:
        return instance_from_dict(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Seeded synthetic instances
# ---------------------------------------------------------------------------

def generate_instance(
    n_toolkits: int, n_machines: int, capacity_bits: int, seed: int
) -> Instance:
    """Generate a feasible integer instance, deterministically from the seed.

    Capacities are drawn so each machine needs exactly ``capacity_bits``
    binary digits; workloads are drawn so a greedy packing fits; costs
    are positive integers spanning at least two orders of magnitude
    (when there are enough cost cells for a spread to exist).
    """
    if n_toolkits < 1 or n_machines < 1 or capacity_bits < 1:
        raise ValueError("n_toolkits, n_machines and capacity_bits must all be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    rng = np.random.default_rng([n_toolkits, n_machines, capacity_bits, seed])
    T, M = n_toolkits, n_machines
    for _ in range(64):
        capacity = rng.integers(1 << (capacity_bits - 1), 1 << capacity_bits, size=M)
        total_cap = int(capacity.sum())
        # Split about half the total capacity across toolkits, then jitter
        # per machine so workloads are machine-dependent.
        budget = max(T, total_cap // 2)
        base = 1 + rng.multinomial(budget - T, np.full(T, 1.0 / T))
        jitter = rng.integers(0, 1 + np.maximum(base // 5, 1)[:, None], size=(T, M))
        workload = base[:, None] + jitter
        if not _greedy_fits(workload, capacity):
            continue
        cost = rng.integers(1, 100, size=(T, M)) * 10 ** rng.integers(0, 3, size=(T, M))
        if T * M >= 2 and int(cost.max()) < 100 * int(cost.min()):
            continue
        toolkits = tuple(f"t{i}" for i in range(T))
        machines = tuple(f"m{j}" for j in range(M))
        return Instance(
            id=f"synth-t{T}m{M}b{capacity_bits}s{seed}",
            toolkits=toolkits,
            machines=machines,
            cost={
                (toolkits[i], machines[j]): Fraction(int(cost[i, j]))
                for i in range(T)
                for j in range(M)
            },
            workload={
                (toolkits[i], machines[j]): Fraction(int(workload[i, j]))
                for i in range(T)
                for j in range(M)
            },
            capacity={machines[j]: Fraction(int(capacity[j])) for j in range(M)},
        )
    raise GenerationFailed(
        f"no feasible instance for shape ({n_toolkits}, {n_machines}, {capacity_bits}) "
        f"after bounded retries"
    )


def _greedy_fits(workload: np.ndarray, capacity: np.ndarray) -> bool:
    remaining = capacity.astype(np.int64).copy()
    order = np.argsort(-workload.min(axis=1))
    for t in order:
        fits = np.flatnonzero(workload[t] <= remaining)
        if fits.size == 0:
            return False
        m = fits[np.argmax(remaining[fits])]
        remaining[m] -= workload[t, m]
    return True


# ---------------------------------------------------------------------------
# Bundled benchmark instances
# ---------------------------------------------------------------------------

# Frozen (toolkits, machines, capacity_bits, seed) shapes.  The first six
# mirror the benchmark ladder of binary sizes 22..60; ``press-small`` is a
# 14-variable instance kept brute-forceable and statevector-friendly.
# Seeds were frozen after verifying, by exhaustive search, that the raw,
# scaled, and rounded compilations of the two smallest instances all have
# feasible global minimizers matching the exact optimum.
BUNDLED_SHAPES: dict[str, tuple[int, int, int, int]] = {
    "press-03x2": (3, 2, 8, 7),
    "press-09x2": (9, 2, 9, 1),
    "press-13x2": (13, 2, 10, 1),
    "press-16x2": (16, 2, 11, 1),
    "press-18x2": (18, 2, 11, 1),
    "press-19x2": (19, 2, 11, 1),
    "press-small": (3, 2, 4, 5),
}

# The six ladder instances (22..60 binary variables), largest problems last.
BENCH_INSTANCE_NAMES: tuple[str, ...] = tuple(name for name in BUNDLED_SHAPES
                                              if name != "press-small")


def bundled_instance(name: str) -> Instance:
    """Rebuild a bundled instance from its frozen shape and seed."""
    try:
        T, M, bits, seed = BUNDLED_SHAPES[name]
    except KeyError:
        raise KeyError(f"unknown bundled instance {name!r}; see BUNDLED_SHAPES") from None
    return replace(sanitize_instance(generate_instance(T, M, bits, seed)), id=name)

"""Compilation of assignment instances into binary-quadratic form.

Three construction strategies, the rows of :data:`VARIANT_KINDS`, differ
in how constraint penalties are weighted:

* ``raw``: the instance data as-is, with hand-picked weights for the
  machine-capacity and the toolkit-assignment families.
* ``scaled``: every term of the program (objective, each exactly-once
  constraint multiplied by an assignment-scale factor, each capacity
  equality including its slack bits) is rescaled so all terms share the
  largest value range found, after which unit penalty weights are used.
* ``rounded``: costs are first integer-divided by the smallest positive
  cost so the minimum cost becomes 1, then the scaled pipeline runs with
  an assignment scale of 1.  This flattens the coefficient spread.

Every variant reads its parameters with :func:`~pressqubo.model.as_fraction`,
as plans do, and requires them to be positive.  :func:`penalty_weights`
is the variant policy: it alone tells the variants apart and returns
the preprocessed costs and every weight :func:`build_qubo` compiles with.

Capacity inequalities are turned into equalities with slack variables,
each split into binary digits ``[2^0, ..., 2^(r-1), h - 2^r + 1]`` so
the slack can take every value in ``{0..h}`` and nothing more.

Variable layout is fixed: decision bits first in toolkit-major order,
then slack bits machine by machine with digits ascending.  A bitstring
is written with position ``i`` holding variable ``i`` (so its integer
value reads variable 0 as the least-significant bit).  :class:`VariableMap`
derives it from the names and slack weights; :func:`_varmap_from_doc`
enforces it, accepting only the sidecar :func:`save_qubo` would write.
:meth:`VariableMap.choices` is the one reader of the decision bits:
decoding and scoring take them from it.
A compiled :class:`Qubo` and its sidecar record only the coefficients
and that layout, not the variant that built them.

All coefficients are exact rationals; a float64 mirror for the hot
numeric kernels lives alongside, with a rigorous error bound so exact
comparisons can be recovered where they matter.
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import check_size
from .model import Assignment, Instance, as_fraction, load_json


# ---------------------------------------------------------------------------
# Variants
# ---------------------------------------------------------------------------

class _Variant:
    def __post_init__(self):
        # Every parameter reads as a plan's number does and must be > 0.
        for label, name, _ in variant_parameters(self.kind):
            value = as_fraction(getattr(self, name))
            if value <= 0:
                raise ValueError(f"{self.kind} variant parameter {label} "
                                 f"({name.replace('_', ' ')}) must be positive, got {value}")
            object.__setattr__(self, name, value)

    def params(self) -> tuple[tuple[str, Fraction], ...]:
        """(label, value) of each parameter in constructor order, with the
        labels of :data:`VARIANT_KINDS`."""
        return tuple((label, getattr(self, name))
                     for label, name, _ in variant_parameters(self.kind))


@dataclass(frozen=True)
class RawVariant(_Variant):
    """Hand-picked penalty weights on otherwise untouched data."""

    machine_penalty: Fraction
    toolkit_penalty: Fraction

    kind = "raw"


@dataclass(frozen=True)
class ScaledVariant(_Variant):
    """Value-range rescaling with unit penalties."""

    assignment_scale: Fraction = Fraction(1)

    kind = "scaled"


@dataclass(frozen=True)
class RoundedVariant(_Variant):
    """Cost flattening by integer division, then the scaled pipeline."""

    kind = "rounded"


VariantSpec = Union[RawVariant, ScaledVariant, RoundedVariant]

# kind -> (class, default grid of each parameter by its label, in
# constructor order).  Plans and ``pressqubo build`` name the parameters
# by these labels; ``build`` has one flag per label.
VARIANT_KINDS: dict[str, tuple[type, dict[str, tuple[Fraction, ...]]]] = {
    "raw": (RawVariant, {"lm": (Fraction(10**3), Fraction(10**4), Fraction(10**5)),
                         "lt": (Fraction(10**7), Fraction(10**8), Fraction(10**9))}),
    "scaled": (ScaledVariant, {"ls": (Fraction(1, 10), Fraction(1))}),
    "rounded": (RoundedVariant, {}),
}


def variant_parameters(kind: str) -> list[tuple[str, str, tuple[Fraction, ...]]]:
    """(label, field name, default grid) of each parameter of ``kind``, in
    constructor order; ValueError for an unknown kind."""
    if not isinstance(kind, str) or kind not in VARIANT_KINDS:
        raise ValueError(f"unknown variant kind {kind!r}")
    cls, grids = VARIANT_KINDS[kind]
    return [(label, f.name, grid) for f, (label, grid) in zip(fields(cls), grids.items())]


def variant_grid(kind: str, grids: Mapping[str, Sequence]) -> list[VariantSpec]:
    """Every ``kind`` variant over the product of its parameters' grids.

    ``grids`` maps each parameter label to its values, which the variant
    reads with :func:`~pressqubo.model.as_fraction`; the first parameter
    varies slowest.  Other keys are ignored.  Raises ValueError for an
    unknown kind and for a parameter ``grids`` lacks: nothing falls back
    to the default grids.
    """
    labels = [label for label, _, _ in variant_parameters(kind)]
    for label in labels:
        if label not in grids:
            raise ValueError(f"{kind} variant lacks its {label!r} parameter")
    cls = VARIANT_KINDS[kind][0]
    return [cls(*values) for values in itertools.product(*(grids[label] for label in labels))]


def variant_label(variant: VariantSpec) -> str:
    """Stable short label, e.g. ``raw(lm=1000;lt=10000000)``."""
    params = ";".join(f"{k}={v}" for k, v in variant.params())
    return f"{variant.kind}({params})"


def variant_sort_key(variant: VariantSpec):
    return (variant.kind, tuple(v for _, v in variant.params()))


# ---------------------------------------------------------------------------
# Slack encoding
# ---------------------------------------------------------------------------

def slack_bit_count(h: int) -> int:
    """Number of binary digits used for a slack bounded by ``h``."""
    return len(slack_coefficients(h))


def slack_coefficients(h: int) -> tuple[int, ...]:
    """Digit weights ``[1, 2, ..., 2^(r-1), h - 2^r + 1]``.

    Subset sums of the result cover exactly ``{0, ..., h}``.
    """
    h = _as_int(h, "capacity")
    if h < 0:
        raise ValueError("capacity must be non-negative")
    if h == 0:
        return ()
    r = h.bit_length() - 1
    return tuple(1 << j for j in range(r)) + (h - (1 << r) + 1,)


def _as_int(value, label: str) -> int:
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"{label} must be integral, got {value}")
        return value.numerator
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise ValueError(f"{label} must be integral, got {value!r}")


def value_range(coefficients: Sequence[Fraction]) -> Fraction:
    """Width of an affine term's value interval over binary assignments.

    Equal to the sum of positive coefficients minus the sum of negative
    ones; additive constants do not contribute.
    """
    hi = sum((c for c in coefficients if c > 0), Fraction(0))
    lo = sum((c for c in coefficients if c < 0), Fraction(0))
    return hi - lo


# ---------------------------------------------------------------------------
# Variable layout
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariableMap:
    """Fixed index layout: decision bits, then slack bits.

    ``slack_weights`` carries the digit weight of every slack bit of each
    machine, so a bitstring can be decoded without the originating
    instance.  The layout itself is derived on construction, never
    stored: ``n``, ``decision_index[t, m]`` and ``slack_index[m, j]``
    follow from the names and the number of each machine's slack digits.
    """

    toolkits: tuple[str, ...]
    machines: tuple[str, ...]
    slack_weights: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        pairs = [(t, m) for t in self.toolkits for m in self.machines]
        digits = [(m, j) for m in self.machines for j in range(len(self.slack_weights[m]))]
        decision = {key: i for i, key in enumerate(pairs)}
        if not pairs or len(decision) < len(pairs) or not all(
                isinstance(name, str) for name in self.toolkits + self.machines):
            raise ValueError("toolkits and machines need distinct string names")
        object.__setattr__(self, "decision_index", decision)
        object.__setattr__(self, "slack_index",
                           {key: i for i, key in enumerate(digits, len(pairs))})
        object.__setattr__(self, "n", len(pairs) + len(digits))

    @classmethod
    def for_instance(cls, inst: Instance) -> "VariableMap":
        return cls(inst.toolkits, inst.machines,
                   {m: slack_coefficients(inst.capacity[m]) for m in inst.machines})

    def choices(self, states: np.ndarray, toolkits: Sequence[str] | None = None,
                machines: Sequence[str] | None = None) -> np.ndarray:
        """The (rows, toolkits, machines) decision bits of a (rows, n) 0/1
        matrix: entry ``[r, a, b]`` is row ``r``'s bit for the ``a``-th
        toolkit on the ``b``-th machine.  The ids come in the order given,
        by default in the map's own; KeyError for an id the map lacks."""
        toolkits = self.toolkits if toolkits is None else toolkits
        machines = self.machines if machines is None else machines
        return states[:, [[self.decision_index[t, m] for m in machines] for t in toolkits]]


@dataclass(frozen=True)
class Qubo:
    """Upper-triangular coefficient map plus constant offset.

    Diagonal entries hold linear terms (binary variables square to
    themselves); only nonzero coefficients are stored.  Instances are
    immutable and safe for shared read access.
    """

    n: int
    coeffs: Mapping[tuple[int, int], Fraction]
    offset: Fraction
    varmap: VariableMap | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"a QUBO needs at least one variable, got n={self.n}")
        object.__setattr__(self, "offset", Fraction(self.offset))
        clean = {}
        for (i, j), c in dict(self.coeffs).items():
            if not (0 <= i <= j < self.n):
                raise ValueError(f"coefficient key ({i}, {j}) out of range for n={self.n}")
            c = Fraction(c)
            if c != 0:
                clean[(i, j)] = c
        object.__setattr__(self, "coeffs", clean)

    def max_abs_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.coeffs.values()), default=Fraction(0))


@dataclass(frozen=True)
class DecodedSample:
    """Bitstring read back as an assignment candidate plus slack values."""

    candidate: Mapping[str, frozenset[str]]
    slack: Mapping[str, int]

    def as_assignment(self):
        """The candidate as an Assignment, or None if any toolkit does not
        have exactly one machine selected."""
        if any(len(ms) != 1 for ms in self.candidate.values()):
            return None
        return Assignment({t: next(iter(ms)) for t, ms in self.candidate.items()})


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------

class _Accumulator:
    def __init__(self):
        self.coeffs: dict[tuple[int, int], Fraction] = {}
        self.offset = Fraction(0)

    def add(self, i: int, j: int, c: Fraction):
        if c == 0:
            return
        self.coeffs[i, j] = self.coeffs.get((i, j), Fraction(0)) + c

    def add_squared_affine(self, terms: Mapping[int, Fraction], const: Fraction,
                           weight: Fraction):
        """Add ``weight * (sum_i a_i x_i + const)^2`` using x^2 = x."""
        items = sorted(terms.items())
        for pos, (i, a) in enumerate(items):
            self.add(i, i, weight * (a * a + 2 * const * a))
            for j, b in items[pos + 1:]:
                self.add(i, j, weight * 2 * a * b)
        self.offset += weight * const * const


def penalty_weights(inst: Instance, variant: VariantSpec) -> tuple:
    """The weights ``variant`` compiles a sanitized instance with:
    ``(cost, f_obj, f_assign, w_assign, f_cap, w_cap)``.

    ``cost`` is the costs after the variant's preprocessing (rounded
    divides them by the smallest positive cost) and ``f_obj`` their
    factor; ``f_assign`` is the coefficient of each bit of an
    exactly-once term and ``w_assign`` the term's weight; ``f_cap``
    maps each machine with a capacity term to its factor, and ``w_cap``
    is the weight of every capacity term.  A machine with no workload
    and no capacity has a vacuous constraint and no entry.
    """
    if not inst.is_sanitized():
        raise ValueError("instance must be sanitized (integral workloads and capacities)")
    cost = dict(inst.cost)
    if isinstance(variant, RoundedVariant):
        positive = [c for c in cost.values() if c > 0]
        if not positive:
            raise ValueError("rounded variant needs at least one positive cost")
        c_min = min(positive)
        cost = {k: Fraction(int(c // c_min)) if c > 0 else Fraction(0) for k, c in cost.items()}

    v_obj = value_range(list(cost.values()))
    # Workloads are >= 0 and the slack digits sum to h, so the range of
    # a capacity term's affine part is the sum of its coefficients.
    v_cap = {m: sum(inst.workload[t, m] for t in inst.toolkits) + inst.capacity[m]
             for m in inst.machines}
    machines = [m for m in inst.machines if v_cap[m] != 0]
    if isinstance(variant, RawVariant):
        return (cost, Fraction(1), Fraction(1), variant.toolkit_penalty,
                dict.fromkeys(machines, Fraction(1)), variant.machine_penalty)
    scale = variant.assignment_scale if isinstance(variant, ScaledVariant) else Fraction(1)
    v_max = max([v_obj, scale * inst.n_machines, *v_cap.values()])
    f_obj = v_max / v_obj if v_obj else Fraction(1)  # a zero range: every cost is 0
    # ls times v_max over the exactly-once range ls * machines
    return (cost, f_obj, v_max / inst.n_machines, Fraction(1),
            {m: v_max / v_cap[m] for m in machines}, Fraction(1))


def build_qubo(inst: Instance, variant: VariantSpec) -> Qubo:
    """Compile a sanitized instance into binary-quadratic form.

    The objective and both constraint families, added as squared
    penalty terms, are compiled the same way for every variant; the
    variant decides only the data preprocessing and the weights, which
    :func:`penalty_weights` returns.  Identical inputs produce
    coefficient-identical results.
    """
    cost, f_obj, f_assign, w_assign, f_cap, w_cap = penalty_weights(inst, variant)
    varmap = VariableMap.for_instance(inst)
    acc = _Accumulator()
    for (t, m), i in varmap.decision_index.items():
        acc.add(i, i, cost[t, m] * f_obj)
    for t in inst.toolkits:
        terms = {varmap.decision_index[t, m]: f_assign for m in inst.machines}
        acc.add_squared_affine(terms, -f_assign, w_assign)
    for m, f in f_cap.items():
        terms = {varmap.decision_index[t, m]: inst.workload[t, m] * f for t in inst.toolkits}
        for j, digit in enumerate(varmap.slack_weights[m]):
            terms[varmap.slack_index[m, j]] = Fraction(digit) * f
        acc.add_squared_affine(terms, -inst.capacity[m] * f, w_cap)

    return Qubo(n=varmap.n, coeffs=acc.coeffs, offset=acc.offset, varmap=varmap)


# ---------------------------------------------------------------------------
# Evaluation and transforms
# ---------------------------------------------------------------------------

def _check_bits(q: Qubo, bits: str) -> str:
    if len(bits) != q.n or set(bits) - {"0", "1"}:
        raise ValueError(f"need a 0/1 string of length {q.n}, got {bits!r}")
    return bits


def qubo_energy(q: Qubo, bits: str) -> Fraction:
    """Exact energy of one bitstring (coefficient sum plus offset)."""
    _check_bits(q, bits)
    total = q.offset
    for (i, j), c in q.coeffs.items():
        if bits[i] == "1" and bits[j] == "1":
            total += c
    return total


def normalize_qubo(q: Qubo) -> Qubo:
    """Divide all coefficients and the offset by the largest magnitude.

    The result's largest coefficient magnitude is exactly 1; minimizer
    sets are unchanged (positive rescaling).
    """
    scale = q.max_abs_coefficient()
    if scale == 0:
        raise ValueError("cannot normalize an all-zero coefficient map")
    coeffs = {k: c / scale for k, c in q.coeffs.items()}
    return Qubo(n=q.n, coeffs=coeffs, offset=q.offset / scale, varmap=q.varmap)


def decode(q: Qubo, bits: str) -> DecodedSample:
    """Read a bitstring back into machine choices and slack values."""
    _check_bits(q, bits)
    if q.varmap is None:
        raise ValueError("QUBO carries no variable map; cannot decode")
    vm = q.varmap
    x = bits_to_vector(bits)
    candidate = {t: frozenset(m for m, bit in zip(vm.machines, row) if bit)
                 for t, row in zip(vm.toolkits, vm.choices(x[None, :])[0].tolist())}
    slack = {m: sum(w for j, w in enumerate(vm.slack_weights[m]) if x[vm.slack_index[m, j]])
             for m in vm.machines}
    return DecodedSample(candidate=candidate, slack=slack)


def encode_assignment(q: Qubo, choice: Mapping[str, str],
                      slack: Mapping[str, int] | None = None) -> str:
    """Bitstring for an assignment with the given slack values.

    Machines omitted from ``slack`` (or all of them, when it is None)
    get zero slack.  Use :func:`residual_slack` to obtain the values
    that zero the capacity penalty of a feasible assignment.
    """
    if q.varmap is None:
        raise ValueError("QUBO carries no variable map; cannot encode")
    vm = q.varmap
    bits = ["0"] * q.n
    for t, m in choice.items():
        bits[vm.decision_index[t, m]] = "1"
    for m in vm.machines:
        target = slack.get(m, 0) if slack is not None else 0
        if target == 0:
            continue
        digits = _slack_digits(vm.slack_weights[m], target)
        for j, d in enumerate(digits):
            bits[vm.slack_index[m, j]] = "1" if d else "0"
    return "".join(bits)


def residual_slack(inst: Instance, choice: Mapping[str, str]) -> dict[str, int]:
    """Unused capacity per machine under a feasible assignment."""
    load = {m: Fraction(0) for m in inst.machines}
    for t, m in choice.items():
        load[m] += inst.workload[t, m]
    residual = {}
    for m in inst.machines:
        r = inst.capacity[m] - load[m]
        if r < 0 or r.denominator != 1:
            raise ValueError(f"assignment overloads machine {m!r} or data is not integral")
        residual[m] = int(r)
    return residual


def _slack_digits(weights: Sequence[int], target: int) -> list[int]:
    # Greedy from the largest weight; digit weights guarantee every value
    # in {0..sum} is reachable this way.
    remaining = target
    digits = [0] * len(weights)
    for j in sorted(range(len(weights)), key=lambda j: -weights[j]):
        if weights[j] <= remaining:
            digits[j] = 1
            remaining -= weights[j]
    if remaining != 0:
        raise ValueError(f"slack value {target} not representable by weights {list(weights)}")
    return digits


# ---------------------------------------------------------------------------
# Float64 mirror for hot kernels
# ---------------------------------------------------------------------------

_EPS = 2.0**-53


@dataclass(frozen=True)
class DenseQubo:
    """Float64 mirror of a Qubo for vectorized evaluation.

    ``int_exact`` marks coefficient maps whose float arithmetic is
    provably exact (all-integer data with bounded magnitude); otherwise
    ``energy_guard``/``flip_guard`` bound the absolute float error of a
    full energy and of a single-bit energy difference, so callers can
    fall back to exact arithmetic only in the ambiguous band.
    """

    n: int
    linear: np.ndarray        # (n,) diagonal terms
    couplings: np.ndarray     # (n, n) symmetric, zero diagonal
    offset: float
    int_exact: bool
    energy_guard: float
    flip_guard: np.ndarray    # (n,)


def as_dense(q: Qubo) -> DenseQubo:
    """The float64 mirror of ``q``, built on first use and cached on it.

    The cache is an instance attribute outside the dataclass fields, so
    equality, repr and the file format ignore it.  Every caller shares
    the cached arrays, which are therefore read-only.  ValueError when the
    magnitudes of the coefficients and offset sum past float64's range / 4.
    """
    return _cached(q, "_dense", _build_dense)


def flip_delta(q: Qubo, i: int, x) -> Fraction:
    """Exact energy change of flipping bit ``i`` of the 0/1 vector ``x``.

    ``(1 - 2 x_i) * (c_ii + sum_j c_ij x_j)``, summed over the
    coefficients that touch bit ``i`` only.  The per-bit adjacency is
    built on first use and cached on ``q`` like the dense mirror.
    """
    linear, neighbours = _cached(q, "_adjacency", _build_adjacency)[i]
    field = sum((c for j, c in neighbours if x[j]), linear)
    return -field if x[i] else field


def _cached(q: Qubo, name: str, build):
    value = q.__dict__.get(name)
    if value is None:
        value = build(q)
        object.__setattr__(q, name, value)
    return value


def _build_adjacency(q: Qubo) -> list[tuple[Fraction, list[tuple[int, Fraction]]]]:
    linear = [Fraction(0)] * q.n
    neighbours: list[list[tuple[int, Fraction]]] = [[] for _ in range(q.n)]
    for (i, j), c in q.coeffs.items():
        if i == j:
            linear[i] = c
        else:
            neighbours[i].append((j, c))
            neighbours[j].append((i, c))
    return list(zip(linear, neighbours))


def _build_dense(q: Qubo) -> DenseQubo:
    abs_total = sum(abs(c) for c in q.coeffs.values()) + abs(q.offset)
    # The symmetric mirror counts every coupling twice; the other half of
    # the margin absorbs rounding, so no float sum over it overflows.
    if abs_total > sys.float_info.max / 4:
        raise ValueError("coefficient magnitudes and offset sum to more than a quarter of "
                         "float64's largest value, so float energies could overflow")
    n = q.n
    linear = np.zeros(n)
    couplings = np.zeros((n, n))
    for (i, j), c in q.coeffs.items():
        fc = float(c)
        if i == j:
            linear[i] += fc
        else:
            couplings[i, j] += fc
            couplings[j, i] += fc
    int_exact = (
        q.offset.denominator == 1
        and all(c.denominator == 1 for c in q.coeffs.values())
        and abs_total < 2**52
    )
    terms = len(q.coeffs) + 2
    energy_guard = 0.0 if int_exact else 4.0 * terms * _EPS * float(abs_total)
    row_abs = np.abs(couplings).sum(axis=1) + np.abs(linear)
    flip_guard = np.zeros(n) if int_exact else 4.0 * (n + 2) * _EPS * row_abs
    for array in (linear, couplings, flip_guard):
        array.setflags(write=False)
    return DenseQubo(
        n=n,
        linear=linear,
        couplings=couplings,
        offset=float(q.offset),
        int_exact=int_exact,
        energy_guard=energy_guard,
        flip_guard=flip_guard,
    )


def bits_to_vector(bits: str) -> np.ndarray:
    return np.frombuffer(bits.encode(), dtype=np.uint8) - ord("0")


def index_to_bits(k: int, n: int) -> str:
    """Bitstring of index ``k`` (variable 0 is the least-significant bit)."""
    return format(k, f"0{n}b")[::-1]


def index_states(ks, n: int) -> np.ndarray:
    """(len(ks), n) int64 0/1 rows of the states with indices ``ks``, the
    array form of :func:`index_to_bits`."""
    return (np.asarray(ks, dtype=np.int64)[:, None] >> np.arange(n)) & 1


def dense_energies(dense: DenseQubo, states: np.ndarray) -> np.ndarray:
    """Energies of a (rows, n) 0/1 matrix of states.

    For an ``int_exact`` map the quadratic part is one GEMM,
    ``((x @ C) * x).sum(1)``: every partial sum is an integer below
    2**53 in magnitude, so any summation order gives the exact value
    and the same float as :func:`dense_energies_reference`.  Any other
    map takes the reference, whose per-row fold fixes the last bits.
    """
    x = states.astype(np.float64, copy=False)
    if not dense.int_exact:
        return dense_energies_reference(dense, x)
    quad = ((x @ dense.couplings) * x).sum(axis=1) * 0.5
    return dense.offset + x @ dense.linear + quad


def dense_energies_reference(dense: DenseQubo, states: np.ndarray) -> np.ndarray:
    """The energies of :func:`dense_energies` with the quadratic part as
    one three-operand ``einsum``, a sequential (i, j) fold per row."""
    x = states.astype(np.float64, copy=False)
    quad = np.einsum("ri,ij,rj->r", x, dense.couplings, x) * 0.5
    return dense.offset + x @ dense.linear + quad


def spectrum_peak_bytes(n: int) -> int:
    """Bytes :func:`minimum_states` holds at ``n`` variables, at most.

    The 8-byte energies array of :func:`full_spectrum`, the boolean mask
    of the minimum and its int64 index array, which holds every state
    when all energies tie: 17 bytes per state (1.1 GiB at 26 variables).
    """
    return 17 << n


def full_spectrum(q: Qubo) -> np.ndarray:
    """Float64 energies of all 2**n bitstrings, indexed by bitstring value.

    Guarded at 2**26 states.  The linear terms and couplings come from
    the cached float mirror (:func:`as_dense`).  The variables are split
    into two halves whose half-spectra are combined with one
    cross-coupling matrix product, so the cost is a few dense passes
    over the output instead of one pass per coefficient.  For an
    ``int_exact`` map every partial sum, in any order, is an integer
    below 2**52 in magnitude, so every energy is exact whatever the
    BLAS summation order.
    """
    check_size(f"the full spectrum of {q.n} variables", 1 << q.n, spectrum_peak_bytes(q.n))
    dense = as_dense(q)
    n_lo = q.n // 2
    upper = np.triu(dense.couplings, 1)

    def half(lo: int, hi: int):
        # Every state of variables lo..hi-1 and its energy without the rest.
        states = index_states(np.arange(1 << (hi - lo)), hi - lo).astype(np.float64)
        block = np.ascontiguousarray(upper[lo:hi, lo:hi])
        linear = states @ dense.linear[lo:hi]
        return states, linear + np.einsum("ri,ij,rj->r", states, block, states)

    lo_states, e_lo = half(0, n_lo)
    hi_states, e_hi = half(n_lo, q.n)
    cross = np.ascontiguousarray(upper[:n_lo, n_lo:].T)  # couples high to low
    # state index = hi * 2**n_lo + lo (variable 0 is the LSB)
    energies = (hi_states @ cross) @ lo_states.T
    energies += e_hi[:, None]
    energies += e_lo[None, :]
    energies += dense.offset
    return energies.reshape(-1)


def minimum_states(q: Qubo) -> tuple[list[int], Fraction]:
    """Exact argmin set (as bitstring values) and minimum energy.

    The candidates are the states whose float energy lies within twice
    the rigorous error band of the float minimum.  The band is 0 for an
    ``int_exact`` map, whose float energies are exact, so its candidates
    are the minimum set; any other map's are re-evaluated with exact
    rationals, so the result is bit-exact for any input.
    """
    energies = full_spectrum(q)
    dense = as_dense(q)
    emin = float(energies.min())
    ks = np.flatnonzero(energies <= emin + 2 * dense.energy_guard)
    if dense.int_exact:
        return [int(k) for k in ks], Fraction(emin)
    exact = {int(k): qubo_energy(q, index_to_bits(int(k), q.n)) for k in ks}
    best = min(exact.values())
    return sorted(k for k, e in exact.items() if e == best), best


# ---------------------------------------------------------------------------
# Text export (one coefficient per line) plus JSON variable-map sidecar
# ---------------------------------------------------------------------------

def sidecar_path(path) -> Path:
    return Path(str(path) + ".varmap.json")


def save_qubo(q: Qubo, path) -> None:
    """Write ``n offset`` then ``i j coeff`` lines; rationals as ``p/q``.

    A ``<path>.varmap.json`` sidecar stores the variable layout, and
    nothing else, so bitstrings can be decoded later; a map without a
    layout removes any sidecar ``path`` has.  Round-trips exactly.
    """
    lines = [f"{q.n} {q.offset}"]
    for (i, j), c in sorted(q.coeffs.items()):
        lines.append(f"{i} {j} {c}")
    Path(path).write_text("\n".join(lines) + "\n")
    if q.varmap is None:
        sidecar_path(path).unlink(missing_ok=True)
    else:
        sidecar_path(path).write_text(json.dumps(_varmap_doc(q.varmap), indent=2) + "\n")


def load_qubo(path) -> Qubo:
    """The map :func:`save_qubo` wrote to ``path``; a line that does not
    parse is a ValueError naming the file and the line."""
    text = Path(path).read_text().strip().splitlines()
    if not text:
        raise ValueError(f"empty coefficient file {path}")
    n, offset = _coo_fields(path, text[0], "n offset", (int, as_fraction))
    coeffs = {}
    for line in text[1:]:
        i, j, c = _coo_fields(path, line, "i j coefficient", (int, int, as_fraction))
        if (i, j) in coeffs:
            raise ValueError(f"{path}: line {line!r} repeats coefficient ({i}, {j})")
        coeffs[(i, j)] = c
    varmap = None
    sc = sidecar_path(path)
    if sc.exists():
        varmap = _varmap_from_doc(load_json(sc), sc)
        if varmap.n != n:
            raise ValueError(f"sidecar {sc} lays out {varmap.n} variables, "
                             f"the header of {path} {n}")
    return Qubo(n=n, coeffs=coeffs, offset=offset, varmap=varmap)


def _coo_fields(path, line: str, form: str, parsers) -> list:
    """The fields of one coefficient-file line, each read by its parser."""
    parts = line.split()
    try:
        if len(parts) != len(parsers):
            raise ValueError(f"need {len(parsers)} fields, got {len(parts)}")
        return [parse(part) for parse, part in zip(parsers, parts)]
    except ValueError as exc:
        raise ValueError(f"{path}: line {line!r} is not '{form}': {exc}") from None


def _varmap_doc(vm: VariableMap) -> dict:
    return {
        "n": vm.n,
        "toolkits": list(vm.toolkits),
        "machines": list(vm.machines),
        "decision": [{"toolkit": t, "machine": m, "index": idx}
                     for (t, m), idx in vm.decision_index.items()],
        "slack": [{"machine": m, "bit": j, "index": idx, "weight": vm.slack_weights[m][j]}
                  for (m, j), idx in vm.slack_index.items()],
    }


def _varmap_from_doc(doc, path) -> VariableMap:
    """The variable map of the sidecar ``doc`` read from ``path``.

    Only the names and each machine's slack weights (their sum is its
    capacity) are read.  The file is accepted only when it is exactly
    what :func:`save_qubo` writes for them, so any other key, such as
    the ``variant`` that older sidecars carried, is a ValueError.
    """
    try:
        capacity = {}
        for e in doc["slack"]:
            capacity[e["machine"]] = capacity.get(e["machine"], 0) + e["weight"]
        varmap = VariableMap(tuple(doc["toolkits"]), tuple(doc["machines"]),
                             {m: slack_coefficients(capacity.get(m, 0)) for m in doc["machines"]})
        rebuilt = _varmap_doc(varmap)
        same = json.dumps(doc, sort_keys=True) == json.dumps(rebuilt, sort_keys=True)
    except KeyError as exc:
        raise ValueError(f"sidecar {path}: lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"sidecar {path}: {exc}") from None
    if not same:
        raise ValueError(f"sidecar {path}: field {_first_difference(doc, rebuilt)!r} is not "
                         "what build writes for these names and slack weights")
    return varmap


def _first_difference(got, want, where: str = "") -> str:
    """Path of the first field, in sorted-key order, where the JSON values
    ``got`` and ``want`` differ; they must differ type-exactly."""
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{where}.{min(got.keys() ^ want.keys())}".lstrip(".")
        pairs = [(f"{where}.{k}".lstrip("."), got[k], want[k]) for k in sorted(got)]
    elif isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        pairs = [(f"{where}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
    else:
        return where
    return next(_first_difference(g, w, path) for path, g, w in pairs
                if json.dumps(g, sort_keys=True) != json.dumps(w, sort_keys=True))

"""Classical samplers over a binary-quadratic objective.

Three samplers share one result container: single-bit-flip simulated
annealing with a geometric temperature schedule, a uniform-random
baseline, and an exhaustive minimizer for small problems.  A one-pass
single-bit-flip improvement step is available as post-processing for
any sampler's output.

Every seeded sampler takes ``seeds`` and returns one set per seed, in
order.  Determinism: every sampler derives all randomness from its seed
(each annealing restart from ``(seed, restart_index)``), so identical
calls return identical results regardless of scheduling.  Annealing
several seeds in one stacked step loop, and reusing the last restart
draws for an identical next batch, change neither a restart's stream
nor its arithmetic: each seed's set equals the set of a call with that
seed alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .qubo import (
    DenseQubo,
    Qubo,
    _check_bits,
    as_dense,
    bits_to_vector,
    dense_energies,
    flip_delta,
    index_to_bits,
    minimum_states,
)


@dataclass(frozen=True)
class SampleEntry:
    bits: str
    energy: float
    multiplicity: int


@dataclass(frozen=True)
class SampleSet:
    """Multiset of sampled bitstrings with float64 energies.

    Entries are merged per bitstring and sorted by (energy, bits); the
    multiplicities sum to the requested number of shots or restarts.
    Energies are evaluated in float64, which is exact for all-integer
    coefficient maps.
    """

    entries: tuple[SampleEntry, ...]
    meta: dict = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    @property
    def best(self) -> SampleEntry:
        return self.entries[0]

    def iter_bits(self) -> Iterable[tuple[str, int]]:
        for e in self.entries:
            yield e.bits, e.multiplicity

    def states(self) -> np.ndarray:
        """The entries' bits as an (entries x n) uint8 0/1 matrix.

        Raises ValueError when the bitstrings differ in length or hold a
        character other than 0 and 1.
        """
        n = len(self.entries[0].bits) if self.entries else 0
        if any(len(e.bits) != n for e in self.entries):
            raise ValueError(f"sample bitstrings differ in length (first has {n})")
        flat = bits_to_vector("".join(e.bits for e in self.entries))
        if (flat > 1).any():
            raise ValueError("sample bitstrings hold characters other than 0 and 1")
        return flat.reshape(len(self.entries), n)


def sampleset_from_states(dense: DenseQubo, states: np.ndarray, counts: Iterable[int],
                          meta: dict) -> SampleSet:
    """Merge the rows of a (rows, n) 0/1 matrix into a :class:`SampleSet`.

    Row ``r`` was drawn ``counts[r]`` times; duplicate rows merge into
    one entry and entries sort by (energy, bits).  Energies come from
    one :func:`dense_energies` call over ``states`` as given, and an
    entry keeps the energy of its first row.  The float64 sums can round
    a row differently in a batch of another shape, so the caller's
    choice of rows fixes the energies' last bits.
    """
    energies = dense_energies(dense, states)
    chars = np.asarray(states).astype(np.uint8) + ord("0")
    by_bits: dict[str, list] = {}
    for row, energy, count in zip(chars, energies, counts):
        bits = row.tobytes().decode()
        if bits in by_bits:
            by_bits[bits][1] += int(count)
        else:
            by_bits[bits] = [float(energy), int(count)]
    entries = tuple(
        SampleEntry(bits, e, mult)
        for bits, (e, mult) in sorted(by_bits.items(), key=lambda kv: (kv[1][0], kv[0]))
    )
    return SampleSet(entries=entries, meta=meta)


# ---------------------------------------------------------------------------
# Simulated annealing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaConfig:
    """Annealing run shape; temperatures default to the coefficient scale.

    When ``t_start``/``t_end`` are None they resolve to the largest
    coefficient magnitude and a thousandth of it.  A given temperature
    must be finite and > 0.
    """

    steps: int = 1280
    t_start: float | None = None
    t_end: float | None = None
    restarts: int = 500

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise ValueError("steps and restarts must be >= 1")
        for t in (self.t_start, self.t_end):
            if t is not None and not (math.isfinite(t) and t > 0):
                raise ValueError(f"temperatures must be finite and > 0, got {t!r}")
        if self.t_start is not None and self.t_end is not None:
            if not (self.t_start >= self.t_end > 0):
                raise ValueError("need t_start >= t_end > 0")

    def temperatures(self, q: Qubo) -> np.ndarray:
        """The ``steps`` temperatures of the geometric ladder on ``q``."""
        return self._ladder(as_dense(q))

    def _ladder(self, dense: DenseQubo) -> np.ndarray:
        t_start = self.t_start
        t_end = self.t_end
        if t_start is None:
            # The map is upper-triangular, so each mirror entry is the float
            # of one coefficient, and float() is monotone: this is
            # float(q.max_abs_coefficient()).
            scale = float(max(np.abs(dense.linear).max(initial=0.0),
                              np.abs(dense.couplings).max(initial=0.0)))
            t_start = scale if scale > 0 else 1.0
        if t_end is None:
            t_end = 1e-3 * t_start
        if not (t_start >= t_end > 0):
            raise ValueError("need t_start >= t_end > 0")
        if self.steps == 1:
            return np.array([t_start])
        ratio = t_end / t_start
        return t_start * ratio ** (np.arange(self.steps) / (self.steps - 1))


# Restart rows annealed in one step loop; a seed's restarts are never split.
_BATCH_ROWS = 1024

# The last (key, draws) of _restart_draws, or nothing.
_last_draws: list[tuple[tuple, tuple[np.ndarray, ...]]] = []


def _restart_draws(seeds: Sequence[int], restarts: int, n: int,
                   steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every restart's random streams for ``seeds``, stacked seed by seed.

    Row ``k * restarts + r`` holds restart ``r`` of ``seeds[k]``, drawn
    from ``default_rng([seed, r])`` exactly as a lone restart draws it:
    its start state (rows, n) as uint8, then its flip indices and its
    uniforms, stored as (steps, rows) so each step reads contiguous
    columns.  The indices are int64 draws kept in the smallest unsigned
    type that holds ``n - 1``.  The arrays are read-only; the last set
    is kept for an identical next call and dropped before a new set is
    drawn.
    """
    key = (tuple(seeds), restarts, n, steps)
    if _last_draws and _last_draws[0][0] == key:
        return _last_draws[0][1]
    _last_draws.clear()
    rows = len(seeds) * restarts
    starts = np.empty((rows, n), dtype=np.uint8)
    flips = np.empty((steps, rows), dtype=np.min_scalar_type(n - 1))
    uniforms = np.empty((steps, rows))
    row = 0
    for seed in seeds:
        for r in range(restarts):
            rng = np.random.default_rng([seed, r])
            starts[row] = rng.integers(0, 2, size=n)
            flips[:, row] = rng.integers(0, n, size=steps)
            uniforms[:, row] = rng.random(steps)
            row += 1
    draws = (starts, flips, uniforms)
    for array in draws:
        array.setflags(write=False)
    _last_draws.append((key, draws))
    return draws


def simulated_anneal(q: Qubo, cfg: SaConfig, seeds: Sequence[int] = (0,)) -> list[SampleSet]:
    """Independent single-bit-flip annealing chains, one per restart.

    Each step flips one uniformly random bit; the flip is kept when it
    does not increase the energy, and otherwise with probability
    ``exp(-dE / T)`` on a geometric temperature ladder.  One uniform
    draw is consumed per step whether or not it is needed, so each
    restart's stream is reproducible in isolation.  The final state of
    every restart is recorded.

    Returns one set per seed, in order, each equal to
    :func:`simulated_anneal_reference` of that seed, the per-seed kernel
    this is tested against: the restarts of up to
    ``_BATCH_ROWS // cfg.restarts`` seeds (at least one) run in one step
    loop, and no row's arithmetic depends on the rows beside it.
    """
    seeds = list(seeds)
    if any(s < 0 for s in seeds):
        raise ValueError("seeds must be non-negative")
    dense = as_dense(q)
    temps = cfg._ladder(dense)
    per_batch = max(1, _BATCH_ROWS // cfg.restarts)
    results = []
    for start in range(0, len(seeds), per_batch):
        results += _anneal_batch(dense, cfg, temps, seeds[start:start + per_batch])
    return results


def _anneal_batch(dense: DenseQubo, cfg: SaConfig, temps: np.ndarray,
                  seeds: Sequence[int]) -> list[SampleSet]:
    """Anneal the stacked restarts of ``seeds``; one set per seed."""
    R, n, steps = cfg.restarts, dense.n, cfg.steps
    starts, flips, uniforms = _restart_draws(seeds, R, n, steps)
    states = starts.astype(np.float64)
    flat = states.reshape(-1)  # a view: bit i of row r is flat[r * n + i]
    row_start = np.arange(0, flat.size, n)
    for s in range(steps):
        i = flips[s]
        at = row_start + i
        field_i = dense.linear.take(i) + np.einsum(
            "rn,rn->r", dense.couplings.take(i, axis=0), states)
        d_e = (1.0 - 2.0 * flat.take(at)) * field_i
        # dE <= 0 always passes: exp(0) = 1 > any uniform draw in [0, 1)
        at = at[uniforms[s] < np.exp(-np.maximum(d_e, 0.0) / temps[s])]
        flat[at] = 1.0 - flat[at]

    params = {"steps": steps, "restarts": R,
              "t_start": float(temps[0]), "t_end": float(temps[-1])}
    # One sampleset_from_states per seed keeps each seed's energies
    # rounded as a lone call rounds them.
    return [sampleset_from_states(dense, states[k * R:(k + 1) * R], np.ones(R, dtype=np.int64),
                                  {"solver": "sa", "params": dict(params), "seed": seed})
            for k, seed in enumerate(seeds)]


def simulated_anneal_reference(q: Qubo, cfg: SaConfig, seed: int) -> SampleSet:
    """The set :func:`simulated_anneal` returns for ``seed``, one restart
    stream at a time: the reference the stacked kernel is tested against."""
    dense = as_dense(q)
    temps = cfg.temperatures(q)
    R, n, steps = cfg.restarts, q.n, cfg.steps

    states = np.empty((R, n), dtype=np.float64)
    flips = np.empty((R, steps), dtype=np.int64)
    uniforms = np.empty((R, steps))
    for r in range(R):
        rng = np.random.default_rng([seed, r])
        states[r] = rng.integers(0, 2, size=n)
        flips[r] = rng.integers(0, n, size=steps)
        uniforms[r] = rng.random(steps)

    rows = np.arange(R)
    for s in range(steps):
        i = flips[:, s]
        field_i = dense.linear[i] + np.einsum("rn,rn->r", dense.couplings[i], states)
        cur = states[rows, i]
        d_e = (1.0 - 2.0 * cur) * field_i
        # dE <= 0 always passes: exp(0) = 1 > any uniform draw in [0, 1)
        accept = uniforms[:, s] < np.exp(-np.maximum(d_e, 0.0) / temps[s])
        states[rows[accept], i[accept]] = 1.0 - cur[accept]

    meta = {
        "solver": "sa",
        "params": {
            "steps": cfg.steps,
            "restarts": cfg.restarts,
            "t_start": float(temps[0]),
            "t_end": float(temps[-1]),
        },
        "seed": seed,
    }
    return sampleset_from_states(dense, states, np.ones(R, dtype=np.int64), meta)


def random_sample(q: Qubo, shots: int, seeds: Sequence[int]) -> list[SampleSet]:
    """Uniform random bitstrings with evaluated energies, one set per seed."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if any(s < 0 for s in seeds):
        raise ValueError("seeds must be non-negative")
    dense = as_dense(q)
    results = []
    for seed in seeds:
        states = np.random.default_rng([seed]).integers(0, 2, size=(shots, q.n), dtype=np.int8)
        meta = {"solver": "random", "params": {"shots": shots}, "seed": seed}
        results.append(sampleset_from_states(dense, states, np.ones(shots, dtype=np.int64), meta))
    return results


# ---------------------------------------------------------------------------
# Single-bit-flip post-processing
# ---------------------------------------------------------------------------

def bitflip_postprocess(q: Qubo, bits: str) -> str:
    """One left-to-right pass flipping bits that strictly lower energy.

    Each test is evaluated against the current, partially updated
    string.  Float differences inside the rigorous error band are
    decided by the exact :func:`~pressqubo.qubo.flip_delta`, so
    "strictly lower" is exact for any input.  The result never has
    higher energy than the input.
    """
    x = bits_to_vector(_check_bits(q, bits)).astype(np.float64)
    dense = as_dense(q)
    for i in range(q.n):
        d_e = (1.0 - 2.0 * x[i]) * (dense.linear[i] + dense.couplings[i] @ x)
        if abs(d_e) > dense.flip_guard[i]:
            improves = d_e < 0
        else:  # inside the error band the exact difference decides
            improves = flip_delta(q, i, x) < 0
        if improves:
            x[i] = 1.0 - x[i]
    return "".join("1" if v else "0" for v in x)


def postprocess_sampleset(q: Qubo, samples: SampleSet) -> SampleSet:
    """Apply the bit-flip pass to every entry, re-merging duplicates.

    All entries go through one batched pass: sequential over bits,
    vectorized over entries.  Each entry ends where
    :func:`bitflip_postprocess`, the reference kernel, takes it alone.
    """
    dense = as_dense(q)
    states = samples.states()
    if states.shape[1] != q.n:
        raise ValueError(f"need 0/1 strings of length {q.n}")
    x = states.astype(np.float64)
    _bitflip_pass(q, dense, x)
    # The distinct improved rows, in bits order, are the batch evaluated.
    keys, inverse = np.unique(x.astype(np.uint8), axis=0, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse.reshape(-1), [e.multiplicity for e in samples.entries])
    return sampleset_from_states(dense, keys, counts, {**samples.meta, "postprocessed": True})


def _bitflip_pass(q: Qubo, dense: DenseQubo, x: np.ndarray) -> None:
    """The left-to-right pass over every row of ``x`` at once, in place.

    Outside ``flip_guard`` the float difference has the exact sign
    whatever the summation order; inside it the exact difference over
    the coefficients touching bit ``i`` decides.  For int-exact maps the
    guard is 0 and a float difference of 0 is exact, so "does not
    improve" needs no recheck.
    """
    for i in range(q.n):
        d_e = (1.0 - 2.0 * x[:, i]) * (dense.linear[i] + x @ dense.couplings[i])
        guard = dense.flip_guard[i]
        improves = d_e < -guard
        if not dense.int_exact:
            for r in np.flatnonzero(np.abs(d_e) <= guard):
                improves[r] = flip_delta(q, i, x[r]) < 0
        x[improves, i] = 1.0 - x[improves, i]


# ---------------------------------------------------------------------------
# Exhaustive minimizer
# ---------------------------------------------------------------------------

def brute_force_qubo(q: Qubo) -> tuple[str, Fraction]:
    """Exact global minimum over all bitstrings, up to 2**26 states.

    Ties are broken by the lexicographically smallest bitstring.  The
    returned energy is exact.  The size guard is that of
    :func:`~pressqubo.qubo.full_spectrum`, which :func:`minimum_states`
    runs first: above 26 variables it raises ``TooLarge`` before
    anything of size 2**n is allocated.
    """
    ks, energy = minimum_states(q)
    arr = np.asarray(ks, dtype=np.int64)
    # Lexicographic order of bitstrings (variable 0 first) equals numeric
    # order after bit reversal.
    rev = np.zeros_like(arr)
    for b in range(q.n):
        rev |= ((arr >> b) & 1) << (q.n - 1 - b)
    best = int(arr[np.argmin(rev)])
    return index_to_bits(best, q.n), energy


# ---------------------------------------------------------------------------
# CSV export shared by all samplers
# ---------------------------------------------------------------------------

def save_sampleset(samples: SampleSet, path) -> None:
    """Write ``# meta: {...}`` then ``bits,energy,multiplicity`` rows."""
    lines = ["# meta: " + json.dumps(samples.meta, sort_keys=True)]
    lines.append("bits,energy,multiplicity")
    for e in samples.entries:
        lines.append(f"{e.bits},{e.energy!r},{e.multiplicity}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_sampleset(path) -> SampleSet:
    """The set :func:`save_sampleset` wrote to ``path``; ValueError naming the
    first row that is malformed, repeats a bitstring or is not after the
    row before it in (energy, bits) order."""
    lines = Path(path).read_text().strip().splitlines()
    meta: dict = {}
    start = 0
    if lines and lines[0].startswith("# meta: "):
        meta = json.loads(lines[0][len("# meta: "):])
        start = 1
    if not lines[start:] or lines[start] != "bits,energy,multiplicity":
        raise ValueError(f"{path} is not a sample CSV")
    entries: list[SampleEntry] = []
    seen: set[str] = set()
    for line in lines[start + 1:]:
        bits, energy, mult = line.split(",")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"{path}: {bits!r} is not a 0/1 string")
        if entries and len(bits) != len(entries[0].bits):
            raise ValueError(f"{path}: {bits!r} does not have length {len(entries[0].bits)}")
        if int(mult) < 1:
            raise ValueError(f"{path}: multiplicity {mult} of {bits!r} is below 1")
        key = (float(energy), bits)
        if bits in seen or entries and not (entries[-1].energy, entries[-1].bits) < key:
            raise ValueError(f"{path}: row {line!r} repeats a bitstring or is out of "
                             "(energy, bits) order")
        seen.add(bits)
        entries.append(SampleEntry(bits, key[0], int(mult)))
    return SampleSet(entries=tuple(entries), meta=meta)

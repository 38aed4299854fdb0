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
takes one map or a sequence of them; the maps of one size and several
seeds run in one stacked step loop, where every map reads the same
restart draws on its own temperature ladder.  The start states and
flips of a chunk of seeds are drawn once, in the call, and every step
loop of that chunk reads them; a loop draws the uniforms
``_DRAW_STEPS`` steps at a time from each restart's stream, which a
later loop of the chunk restores to its state after the flips.
Stacking, sharing and chunking change neither a restart's stream nor
its arithmetic: each (map, seed) set equals the set of a call with
that map and seed alone.

A sample set is its arrays: the distinct rows as a uint8 matrix, their
energies and their counts.  ``sampleset_from_states`` merges duplicate
rows on their packed bytes in numpy, a set built from entries (as
``load_sampleset`` builds one) reads them into the same arrays, and
post-processing and scoring read the matrix and the counts.  A
bitstring is built only when a caller reads a set's ``entries``
(saving a set to CSV does).
"""

from __future__ import annotations

import errno
import json
import math
import mmap
import re
from dataclasses import dataclass
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


class SampleSet:
    """Multiset of sampled bitstrings with float64 energies.

    The distinct samples sort by (energy, bits), and their counts sum to
    the requested number of shots or restarts.  Energies are evaluated
    in float64, which is exact for all-integer coefficient maps.

    A set holds its samples as arrays: the distinct rows as a read-only
    (k, n) uint8 0/1 matrix, their float64 energies and their int64
    counts.  ``SampleSet(entries, meta)`` reads the entries into them in
    the given order, and raises ValueError when the bitstrings differ in
    length, hold a character other than 0 and 1, or a multiplicity does
    not fit int64 or is below 1; :func:`sampleset_from_states` fills them
    from a sampler's rows.  ``entries``, one :class:`SampleEntry` with a
    bitstring per row, is built on its first read and cached.  Two sets
    are equal when their entries and meta are; a set cannot be changed.
    """

    def __init__(self, entries: Iterable[SampleEntry], meta: dict | None = None):
        entries = tuple(entries)
        n = len(entries[0].bits) if entries else 0
        flat = bits_to_vector("".join(e.bits for e in entries))
        if any(len(e.bits) != n for e in entries) or (flat > 1).any():
            raise ValueError("sample bitstrings are not 0/1 strings of one length")
        try:
            counts = np.array([e.multiplicity for e in entries], dtype=np.int64)
        except OverflowError:
            raise ValueError("a sample multiplicity does not fit int64") from None
        if (counts < 1).any():
            raise ValueError("a sample multiplicity is below 1")
        self._init(flat.reshape(len(entries), n),
                   np.array([e.energy for e in entries], dtype=np.float64), counts,
                   {} if meta is None else meta, entries)

    def _init(self, rows: np.ndarray, energies: np.ndarray, counts: np.ndarray, meta: dict,
              entries: tuple[SampleEntry, ...] | None = None) -> SampleSet:
        for array in (rows, energies, counts):
            array.setflags(write=False)
        for name, value in (("_rows", rows), ("_energies", energies), ("_counts", counts),
                            ("_entries", entries), ("meta", meta)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"a SampleSet cannot be changed (setting {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"a SampleSet cannot be changed (deleting {name!r})")

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self.entries == other.entries and self.meta == other.meta

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"SampleSet(entries={self.entries!r}, meta={self.meta!r})"

    @property
    def entries(self) -> tuple[SampleEntry, ...]:
        if self._entries is None:
            n = self._rows.shape[1]
            chars = (self._rows + ord("0")).tobytes().decode()
            object.__setattr__(self, "_entries", tuple(
                SampleEntry(chars[k * n:(k + 1) * n], energy, count) for k, (energy, count)
                in enumerate(zip(self._energies.tolist(), self._counts.tolist()))))
        return self._entries

    @property
    def total(self) -> int:
        return sum(self._counts.tolist())  # exact where the int64 sum would wrap

    @property
    def best(self) -> SampleEntry:
        return SampleEntry((self._rows[0] + ord("0")).tobytes().decode(),
                           float(self._energies[0]), int(self._counts[0]))

    def states(self) -> np.ndarray:
        """The rows as a read-only (entries x n) uint8 0/1 matrix."""
        return self._rows

    def counts(self) -> np.ndarray:
        """The rows' multiplicities as a read-only int64 array."""
        return self._counts


def check_seeds(seeds: Sequence[int]) -> None:
    """ValueError unless every seed is >= 0, as every seeded sampler needs."""
    if any(s < 0 for s in seeds):
        raise ValueError("seeds must be non-negative")


def sampleset_from_states(dense: DenseQubo, states: np.ndarray,
                          counts: Sequence[int] | np.ndarray, meta: dict) -> SampleSet:
    """Merge the rows of a (rows, n) 0/1 matrix into a :class:`SampleSet`.

    Row ``r`` was drawn ``counts[r]`` times; duplicate rows merge into
    one and the distinct rows sort by (energy, bits).  Energies come
    from one :func:`dense_energies` call over ``states`` as given, and a
    distinct row keeps the energy of its first occurrence.  The linear
    part of that call, the BLAS product ``x @ linear``, can round a row
    of a non-integer map differently in a batch of another shape, so the
    caller's choice of rows fixes the energies' last bits.  Rows merge
    on their packed bytes in numpy, and no bitstring is built;
    :func:`sampleset_from_states_reference` is the per-row merge this is
    tested against.
    """
    energies = dense_energies(dense, states)
    rows = states.astype(np.uint8)
    first, summed = _distinct_rows(rows, np.asarray(counts, dtype=np.int64))
    order = np.argsort(energies[first], kind="stable")  # distinct rows are in bits order
    pick = first[order]
    return SampleSet.__new__(SampleSet)._init(rows[pick], energies[pick], summed[order], meta)


def _distinct_rows(rows: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of each distinct row's first occurrence in a (rows, n)
    uint8 0/1 matrix, in bits order, and the sum of its rows' counts.

    Each row packs into bytes, most significant bit first, so the packed
    rows, compared as raw bytes, sort as the bitstrings do.  ValueError
    when a sum does not fit int64.
    """
    packed = np.packbits(rows, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    summed = np.zeros(len(first), dtype=np.int64)
    np.add.at(summed, inverse, counts)
    # The int64 sums wrap silently, which they can only when the counts'
    # magnitudes sum past int64; then the exact sums decide.
    if max(int(counts.max(initial=0)), -int(counts.min(initial=0))) * len(counts) >= 2**63:
        exact = np.zeros(len(first), dtype=object)
        np.add.at(exact, inverse, counts.astype(object))
        if ((exact < -2**63) | (exact >= 2**63)).any():
            raise ValueError("a sample multiplicity does not fit int64")
    return first, summed


def sampleset_from_states_reference(dense: DenseQubo, states: np.ndarray,
                                    counts: Iterable[int], meta: dict) -> SampleSet:
    """The set of :func:`sampleset_from_states`, merged one row at a time
    through a dict of bitstrings: the reference the fast merge is tested
    against."""
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

    def temperatures(self, q: Qubo | DenseQubo) -> np.ndarray:
        """The ``steps`` temperatures of the geometric ladder on ``q``, a
        map or its dense mirror."""
        dense = q if isinstance(q, DenseQubo) else as_dense(q)
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


# Floats of state (stacked restart rows x variables) in one step loop;
# the loop gathers as many coupling floats per step.  A loop stacks all
# the maps it can before a second seed, as maps share the restart draws.
# A (map, seed) block of ``restarts`` rows is never split, so a block
# over the budget runs whole.  Measured on 2 vCPUs with 1 BLAS thread: at
# 46 variables a step costs 210 ns per row at 200 rows, about 80 ns at
# 1,000-2,400 rows and 94 ns at 24,000 rows (92 and 122 ns at 60
# variables), as state and gather outgrow the cache; a one-process
# ladder-anneal sweep peaked at 46.5 MiB RSS when each map ran alone,
# 47.4 MiB at 2^15 floats, 47.9 MiB at 2^16, 48.4 MiB at 2^17.
_LOOP_FLOATS = 1 << 16
# Steps of uniforms a step loop draws at a time.  Each restart's stream
# fills its column of one (chunk, rows) buffer that every map of the
# loop reads, so the uniforms a loop holds do not grow with the steps.
# A float64 uniform consumes one 64-bit output of the stream, so a
# restart's uniforms drawn in chunks are the bits of one whole draw.
_DRAW_STEPS = 256
# Bytes of restart draws a loop may hold once it stacks seeds: per
# restart, its flips (a byte per step, two past 256 variables) and one
# chunk of float64 uniforms; its stream's Generator, about 0.9 KiB, is
# not counted.  The state budget does not bound them, as the flips grow
# with the steps and not with the variables.  When every seed held all
# its uniforms (9 B per restart and step), one small map of 500
# restarts x 1,280 steps stacked nine seeds under the state budget alone
# and peaked at 50.8 MiB (tracemalloc) for seeds 0-19, for no speed gain
# over two seeds (11.0 MiB of draws).
_DRAW_BYTES = 1 << 24


def _mapped(shape: tuple[int, int], dtype) -> np.ndarray:
    """A zeroed array in an anonymous mapping of its own, unmapped when
    freed.  Draws on the heap left holes that smaller blocks fragmented (a
    ladder-anneal sweep peaked 3.5 MiB higher); tracemalloc does not see it.
    MemoryError naming the bytes when the system refuses the mapping."""
    count, dtype = shape[0] * shape[1], np.dtype(dtype)
    size = count * dtype.itemsize
    try:
        buffer = mmap.mmap(-1, size)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"the system refused a mapping of {size} bytes for annealing "
                          "draws") from None
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def _restart_draws(seeds: Sequence[int], restarts: int, n: int,
                   steps: int) -> tuple[np.ndarray, np.ndarray, list]:
    """Every restart's start state and flips for ``seeds``, stacked seed
    by seed, and its stream.

    Row ``k * restarts + r`` holds restart ``r`` of ``seeds[k]``, drawn
    from ``default_rng([seed, r])`` exactly as a lone restart draws it:
    its start state (rows, n) as uint8, then its flip indices, stored as
    (steps, rows) so each step reads contiguous columns.  The indices
    are int64 draws kept in the smallest unsigned type that holds
    ``n - 1``.  The two arrays are read-only, as every step loop of the
    seeds reads them.  The third item holds each row's Generator where
    its flips end: its uniforms come next, and a step loop draws them
    ``_DRAW_STEPS`` steps at a time.
    """
    rows = len(seeds) * restarts
    starts = _mapped((rows, n), np.uint8)
    flips = _mapped((steps, rows), np.min_scalar_type(n - 1))
    streams = []
    for seed in seeds:
        for r in range(restarts):
            rng = np.random.default_rng([seed, r])
            starts[len(streams)] = rng.integers(0, 2, size=n)
            flips[:, len(streams)] = rng.integers(0, n, size=steps)
            streams.append(rng)
    for array in (starts, flips):
        array.setflags(write=False)
    return starts, flips, streams


def simulated_anneal(q: Qubo | Sequence[Qubo], cfg: SaConfig,
                     seeds: Sequence[int] = (0,)) -> list:
    """Independent single-bit-flip annealing chains, one per restart.

    Each step flips one uniformly random bit; the flip is kept when it
    does not increase the energy, and otherwise with probability
    ``exp(-dE / T)`` on a geometric temperature ladder.  One uniform
    draw is consumed per step whether or not it is needed, so each
    restart's stream is reproducible in isolation.  The final state of
    every restart is recorded.

    For one map, returns one set per seed, in order, each equal to
    :func:`simulated_anneal_reference` of that seed, the per-seed kernel
    this is tested against.  For a sequence of maps, returns one such
    list per map.  The start states and flips of each chunk of seeds are
    drawn once, and the maps of one size share those draws and run in
    one step loop, up to ``_LOOP_FLOATS`` state floats and, past one
    seed, ``_DRAW_BYTES`` of draws per loop, each map on its own
    temperature ladder; maps of different sizes run in separate loops.
    A loop draws the uniforms ``_DRAW_STEPS`` steps at a time, so they
    do not grow with ``steps``; when the maps of a chunk take more than
    one loop, every later loop restores each restart's stream to its
    state after the flips and draws the same uniforms again.
    No row's arithmetic depends on the rows beside it.
    """
    seeds = list(seeds)
    check_seeds(seeds)
    one = isinstance(q, Qubo)
    denses = [as_dense(m) for m in ([q] if one else q)]
    ladders = [cfg.temperatures(d) for d in denses]
    results: list[list[SampleSet]] = [[] for _ in denses]
    for n in dict.fromkeys(d.n for d in denses):
        same = [v for v, d in enumerate(denses) if d.n == n]
        blocks = _LOOP_FLOATS // (cfg.restarts * n)  # (map, seed) blocks per loop
        seed_draws = cfg.restarts * (cfg.steps * np.min_scalar_type(n - 1).itemsize
                                     + 8 * min(cfg.steps, _DRAW_STEPS))
        seeds_per_loop = max(1, min(blocks // len(same), _DRAW_BYTES // seed_draws))
        for k in range(0, len(seeds), seeds_per_loop):
            chunk = seeds[k:k + seeds_per_loop]
            draws = _restart_draws(chunk, cfg.restarts, n, cfg.steps)
            maps_per_loop = max(1, blocks // len(chunk))
            loops = range(0, len(same), maps_per_loop)
            after_flips = [rng.bit_generator.state for rng in draws[2]] if len(loops) > 1 else []
            for v in loops:
                if v:
                    for rng, state in zip(draws[2], after_flips):
                        rng.bit_generator.state = state
                part = same[v:v + maps_per_loop]
                temps = np.stack([ladders[m] for m in part])
                sets = _anneal_batch([denses[m] for m in part], temps, cfg, chunk, draws)
                for m, seed_sets in zip(part, sets):
                    results[m] += seed_sets
            del draws, after_flips  # freed before the next chunk draws, not after
    return results[0] if one else results


def _anneal_batch(denses: Sequence[DenseQubo], temps: np.ndarray, cfg: SaConfig,
                  seeds: Sequence[int], draws: tuple) -> list[list[SampleSet]]:
    """Anneal the restarts of ``seeds`` on every map of ``denses`` (one
    size) in one step loop, map ``v`` on the ladder ``temps[v]``, from
    ``draws``, the :func:`_restart_draws` of ``seeds``; one list of
    per-seed sets per map.  The streams of ``draws`` must stand where
    their flips end; the loop draws their uniforms.

    Rows are stacked map-major: row ``v * rows + k * R + r`` is restart
    ``r`` of ``seeds[k]`` on map ``v``, and it reads draw row ``k * R + r``
    and the concatenated map rows ``v * n + i``.
    """
    R, n, steps, V = cfg.restarts, denses[0].n, cfg.steps, len(denses)
    starts, flips, streams = draws
    rows = len(starts)
    linear = np.concatenate([d.linear for d in denses])
    couplings = np.concatenate([d.couplings for d in denses])
    states = np.tile(starts, (V, 1)).astype(np.float64)
    flat = states.reshape(-1)  # a view: bit i of row r is flat[r * n + i]
    row_start = np.arange(0, flat.size, n).reshape(V, rows)
    map_start = np.arange(0, V * n, n)[:, None]
    # d / -T is -d / T bit for bit, so each map's ladder is negated once.
    neg_temps = -temps.T[:, :, None]  # (steps, V, 1)
    uniforms = _mapped((min(steps, _DRAW_STEPS), rows), np.float64)
    for s in range(steps):
        u = s % _DRAW_STEPS
        if u == 0:  # every restart's next chunk of uniforms
            block = uniforms[:min(_DRAW_STEPS, steps - s)]
            for row, rng in enumerate(streams):
                block[:, row] = rng.random(len(block))
        i = flips[s]
        at = (row_start + i).reshape(-1)
        map_i = (map_start + i).reshape(-1)
        field_i = linear.take(map_i) + np.einsum(
            "rn,rn->r", couplings.take(map_i, axis=0), states)
        d_e = (1.0 - 2.0 * flat.take(at)) * field_i
        # dE <= 0 always passes: exp(0) = 1 > any uniform draw in [0, 1)
        accept = uniforms[u] < np.exp(np.maximum(d_e, 0.0).reshape(V, rows) / neg_temps[s])
        at = at[accept.reshape(-1)]
        flat[at] = 1.0 - flat[at]
    del uniforms, block  # unmapped before the sets are built

    results = []
    for v, dense in enumerate(denses):
        params = {"steps": steps, "restarts": R,
                  "t_start": float(temps[v, 0]), "t_end": float(temps[v, -1])}
        # One sampleset_from_states per (map, seed) keeps each seed's
        # energies rounded as a lone call rounds them.
        mine = states[v * rows:(v + 1) * rows]
        results.append([
            sampleset_from_states(dense, mine[k * R:(k + 1) * R], np.ones(R, dtype=np.int64),
                                  {"solver": "sa", "params": dict(params), "seed": seed})
            for k, seed in enumerate(seeds)])
    return results


def simulated_anneal_reference(q: Qubo, cfg: SaConfig, seed: int) -> SampleSet:
    """The set :func:`simulated_anneal` returns for ``seed``, one restart
    stream at a time: the reference the stacked kernel is tested against."""
    dense = as_dense(q)
    temps = cfg.temperatures(dense)
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
    check_seeds(seeds)
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
    rows = x.astype(np.uint8)
    first, counts = _distinct_rows(rows, samples.counts())
    return sampleset_from_states(dense, rows[first], counts,
                                 {**samples.meta, "postprocessed": True})


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


# The energies and multiplicities a sample CSV may hold.
_ENERGY_TEXT = re.compile(r"-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?")
_COUNT_TEXT = re.compile(r"-?[0-9]+")


def load_sampleset(path) -> SampleSet:
    """The set :func:`save_sampleset` wrote to ``path``; ValueError naming
    ``path`` when the meta line is not a JSON object, and naming the
    first row that is malformed (an energy that is not finite, a
    multiplicity that is not plain decimal digits or is past int64
    among others), repeats a bitstring or is not after the row before
    it in (energy, bits) order."""
    lines = Path(path).read_text().strip().splitlines()
    meta: dict = {}
    start = 0
    if lines and lines[0].startswith("# meta: "):
        try:
            meta = json.loads(lines[0][len("# meta: "):])
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: the meta line is not a JSON object")
        start = 1
    if not lines[start:] or lines[start] != "bits,energy,multiplicity":
        raise ValueError(f"{path} is not a sample CSV")
    entries: list[SampleEntry] = []
    seen: set[str] = set()
    for line in lines[start + 1:]:
        try:
            bits, energy, mult_text = line.split(",")
            key, mult = (float(energy), bits), int(mult_text)
        except ValueError:
            raise ValueError(f"{path}: row {line!r} is not three fields: bits, a number "
                             "and an integer") from None
        # float() and int() also read what save_sampleset never writes:
        # nan, inf, 1e999, blanks, underscores and non-ASCII digits.
        if not (_ENERGY_TEXT.fullmatch(energy) and math.isfinite(key[0])):
            raise ValueError(f"{path}: row {line!r} has energy {energy!r}, which is not a "
                             "finite decimal number")
        if not _COUNT_TEXT.fullmatch(mult_text) or mult >= 2**63:  # past int64
            raise ValueError(f"{path}: row {line!r} has multiplicity {mult_text!r}, which is "
                             "not a decimal integer of at most 2**63 - 1")
        if set(bits) - {"0", "1"}:
            raise ValueError(f"{path}: {bits!r} is not a 0/1 string")
        if entries and len(bits) != len(entries[0].bits):
            raise ValueError(f"{path}: {bits!r} does not have length {len(entries[0].bits)}")
        if mult < 1:
            raise ValueError(f"{path}: multiplicity {mult} of {bits!r} is below 1")
        if bits in seen or entries and not (entries[-1].energy, entries[-1].bits) < key:
            raise ValueError(f"{path}: row {line!r} repeats a bitstring or is out of "
                             "(energy, bits) order")
        seen.add(bits)
        entries.append(SampleEntry(bits, key[0], mult))
    return SampleSet(entries=tuple(entries), meta=meta)

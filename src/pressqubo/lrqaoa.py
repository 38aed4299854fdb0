"""Noiseless statevector simulation of fixed-ramp QAOA.

Instead of classically optimizing the rotation angles, the phase
angles increase linearly over the layers while the mixing angles
decrease linearly, which removes the outer optimization loop entirely.
The objective is normalized (largest coefficient magnitude 1) before
entering the circuit so one slope setting works across problem scales;
reported sample energies refer to the un-normalized objective so
results are comparable across construction variants.

State layout: amplitude index equals the bitstring value with variable
0 as the least-significant bit.  Simulation is float64/complex128 and
guarded at 26 qubits by ``errors.check_size``; ``statevector_peak_bytes``
gives the memory a simulation holds at most (24 bytes per amplitude for
a map that does not split, up to 48 for one that does).

The simulation holds one statevector.  Every pass over the full state
runs in place, one block of about ``_BLOCK_FLOATS`` float64 (256 KiB)
at a time through one small temporary, so a block and its temporary
stay in the L2 cache: a block is a run of the batch axis, or a slice of
the inner axis when one batch row is larger than a block.  Each block
takes the same arithmetic, row for row, as one call over the whole
state would.

The cost layer does not evaluate one exponential per amplitude.  The
phase ``exp(-i gamma E(x))`` factors over ``cost_split``: a core of
low bits and contiguous blocks above it that couple only to the core
and to themselves, such as the decision bits and each machine's slack
bits of a press map.  ``cost_factors`` holds one small float64 table
per block, cached read-only on the ``Qubo`` for the object's lifetime
(as ``as_dense`` caches the dense mirror), so runs at several depths
on one QUBO build the tables once.  Each layer exponentiates the
tables block by block and multiplies them into the state through
broadcast views.  A map that does not split has one factor, the full
2**n diagonal, which ``precompute_diagonal`` also computes as the
uncached reference; the layers then hold the state and that diagonal,
24 bytes per amplitude.  A split map holds 16 bytes per amplitude plus
its tables: 8 bytes per table entry cached, and in the first layer 16
per entry of the complex copies and 16 per entry of the first table in
the product write's temporary.  Sampling writes the squared
magnitudes, in ascending blocks, into the float64 view of the state
itself, where each block overwrites only amplitudes already read, and
sums them cumulatively in place, so it holds no more than the layers.

The circuit runs in the frame of the S gate ``D = diag(1, i)`` on
every qubit.  Since ``D^dagger X D = -Y``, each mixer rotation is
``exp(i beta X) = D R D^dagger`` with the real ``R = [[cos beta,
-sin beta], [sin beta, cos beta]]``, and the diagonal cost layers
commute with ``D``, so the circuit is ``D (R C_p ... R C_1) D^dagger``
applied to the uniform state.  ``_frame_state`` runs the bracket,
``final_state`` applies ``D`` once at the end through two small
broadcast tables, and sampling skips it: a power of ``i`` changes no
magnitude.  The frame kernel fuses the real one-qubit rotations: it
applies groups of up to ``MIXER_GROUP_QUBITS`` contiguous qubits as
one dense real Kronecker-power matrix each, in the manner of gate
fusion in state-vector simulators such as qsim.  A group above qubit 0
is a batched real GEMM over the interleaved float64 view, with half
the multiply-adds of the complex product, though slow while its inner
axis is narrow; the group that starts at qubit 0 is a 2-D GEMM whose
matrix is spread over the real and imaginary parts, at the arithmetic
of the complex product.  ``apply_mixer_layer`` keeps the X rotation as
``D^dagger``, the frame kernel and ``D``; ``mixer_layer_reference``
keeps the one-qubit-at-a-time loop it is tested against.

The first layer is closed-form.  After the uniform state, ``D^dagger``
and the first cost layer, each amplitude is ``2**(-n/2)`` times
``(-i)**popcount`` of its index times the product of the factors'
phases, so for every value of the core bits the state is a product
over the blocks, and the frame kernel's rotations of a block's qubits
act on that block's table alone.  The first layer therefore
exponentiates each table into a complex copy, gives each table's block
rows their S phases (the first table also the core's and the
amplitude), rotates each table's block qubits there, and writes the
tables' product into the state in one pass of small GEMMs that also
rotate the core's lowest qubits.  The rest of the core is rotated on
the full state by real left-multiplies, one 3-qubit group on
``press-03x2``, whose core has 6 qubits; a map that does not split has
no core, and its one table is formed in the state itself.  Layers 2 to
p run the cost layer and the frame kernel on the full state.
``final_state_reference`` runs every layer as the uniform state, the
full diagonal's phases and ``mixer_layer_reference``, the path the
fast one is tested against.

The module also exposes logical circuit-shape metrics (interaction
counts and a greedy-edge-coloring depth estimate) used for scaling
analyses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import check_size
from .qubo import (Qubo, _cached, as_dense, full_spectrum, index_states, minimum_states,
                   normalize_qubo)
from .solvers import SampleSet, check_seeds, sampleset_from_states

# Qubits per fused mixer group; 4 was fastest at 22 qubits on one BLAS thread.
MIXER_GROUP_QUBITS = 4
# Most core qubits the first layer rotates inside its product write; a
# wider GEMM costs more arithmetic than the pass over the state it saves.
FIRST_LAYER_FUSED_QUBITS = 5
# Lowest qubit at which the first layer rotates the rest of the core: a
# group below it has an inner axis of fewer than 16 floats, which is slow.
_FIRST_REST_LO = 3
# Entries of the first layer's temporary, unless the first table is larger.
_FUSED_TEMP_ENTRIES = 1 << 12
# Float64 entries of one block of an in-place pass over the state (256 KiB):
# a block and its temporary stay in L2.  A 22-qubit mixer layer on one BLAS
# thread (2 MiB L2) took 85, 75 and 92 ms at 2**13, 2**15 and 2**17, and
# 120 ms at 2**18, where the two no longer fit.
_BLOCK_FLOATS = 1 << 15


# ---------------------------------------------------------------------------
# Ramp schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RampSchedule:
    """Per-layer angles: phase ramps up, mixing ramps down."""

    p: int
    delta_gamma: float
    delta_beta: float
    gammas: tuple[float, ...]
    betas: tuple[float, ...]


def lr_schedule(p: int, delta_gamma: float = 0.9, delta_beta: float = 0.6) -> RampSchedule:
    """Build the linear ramp for ``p`` layers.

    Layer ``i`` (1-based) gets phase angle ``(i/p) * delta_gamma`` and
    mixing angle ``((p - i + 1)/p) * delta_beta``; the phase ramp ends
    at ``delta_gamma`` and the mixing ramp starts at ``delta_beta``.
    """
    if p < 1:
        raise ValueError("layer count must be >= 1")
    if not all(math.isfinite(d) and d > 0 for d in (delta_gamma, delta_beta)):
        raise ValueError(f"ramp slopes must be finite and positive, got "
                         f"{delta_gamma!r} and {delta_beta!r}")
    gammas = tuple(delta_gamma * i / p for i in range(1, p + 1))
    betas = tuple(delta_beta * (p - i + 1) / p for i in range(1, p + 1))
    return RampSchedule(p=p, delta_gamma=delta_gamma, delta_beta=delta_beta,
                        gammas=gammas, betas=betas)


# ---------------------------------------------------------------------------
# Statevector kernels
# ---------------------------------------------------------------------------

def statevector_peak_bytes(n: int, tables: Sequence[int] | None = None) -> int:
    """Bytes a simulation of ``n`` qubits holds at most, given the entry
    counts of its :func:`cost_factors` tables, first table first; by
    default the one full diagonal of a map that does not split.

    The state takes 16 bytes per amplitude and the cached tables 8 per
    entry, so a map that does not split, whose first layer is formed in
    the state, holds 24 per amplitude.  A split map's first layer also
    holds a complex copy of every table, 16 bytes per entry, and the
    temporary of its product write, 16 bytes per entry of the first
    table or of ``_FUSED_TEMP_ENTRIES``, whichever is more.  Beside
    these, a pass holds one block temporary of at most ``_BLOCK_FLOATS``
    floats (256 KiB), and sampling its draws, 16 bytes per shot.
    """
    tables = [1 << n] if tables is None else list(tables)
    peak = (16 << n) + 8 * sum(tables)
    if len(tables) > 1:
        peak += 16 * sum(tables) + 16 * max(tables[0], _FUSED_TEMP_ENTRIES)
    return peak


def uniform_state(n: int) -> np.ndarray:
    """Equal-amplitude superposition over all 2**n bitstrings."""
    check_size(f"the statevector of {n} qubits", 1 << n, statevector_peak_bytes(n))
    size = 1 << n
    return np.full(size, size ** -0.5, dtype=np.complex128)


def precompute_diagonal(q: Qubo) -> np.ndarray:
    """Normalized energies of all bitstrings (the diagonal phase profile).

    The simulation runs on :func:`cost_factors`; this is the reference
    they are tested against, computed afresh on every call.
    """
    check_size(f"the statevector of {q.n} qubits", 1 << q.n, statevector_peak_bytes(q.n))
    return full_spectrum(normalize_qubo(q))


@dataclass(frozen=True)
class CostFactor:
    """One phase table of the cost layer.

    ``table`` holds, for every state of the core bits ``[0, core)`` and
    the block bits ``[lo, hi)``, the normalized energy terms that touch
    the block; entry ``block * 2**core + core_bits``.  The first factor
    also holds the offset and the core-only terms.
    """

    core: int
    lo: int
    hi: int
    table: np.ndarray

    def state_shape(self, n: int) -> tuple[int, ...]:
        """The state's axes: bits above the block, the block, the bits
        between the core and the block, the core."""
        return (1 << (n - self.hi), 1 << (self.hi - self.lo), 1 << (self.lo - self.core),
                1 << self.core)


def cost_split(q: Qubo) -> tuple[int, list[tuple[int, int]]]:
    """The core width ``k`` and the blocks ``[lo, hi)`` that cover ``[k, n)``.

    No coefficient couples two blocks, and each block is as narrow as
    the couplings allow.  ``k`` minimises the total table size, the sum
    of ``2**(k + hi - lo)``, the smallest ``k`` on ties.  Adjacent
    blocks are then merged while the merged table has at most
    ``2**ceil(n/2)`` entries, which bounds the passes over the state.
    A map that does not split gives ``k = 0`` and the one block
    ``[0, n)``.  Linear in ``n`` and the number of coefficients.
    """
    n = q.n
    reach = list(range(n))  # the highest variable coupled to i from above
    for i, j in q.coeffs:
        reach[i] = max(reach[i], j)
    # The blocks of [k, n) for k = n - 1 down to 0, as the linked list
    # ((lo, hi), rest), lowest block first, so ``best`` keeps its blocks
    # without a copy: bit k opens a block that takes in every block
    # starting at or below reach[k].  ``total`` is the sum of 2**width
    # over the blocks, so core k has tables of total << k entries.
    above, total, best = None, 0, None
    for k in range(n - 1, -1, -1):
        hi = k + 1
        while above is not None and above[0][0] <= reach[k]:
            (lo, hi), above = above
            total -= 1 << (hi - lo)
        above = ((k, hi), above)
        total += 1 << (hi - k)
        if best is None or total <= best[0] << (best[1] - k):
            best = (total, k, above)
    _, k, above = best
    merged: list[tuple[int, int]] = []
    while above is not None:
        (lo, hi), above = above
        if merged and k + hi - merged[-1][0] <= (n + 1) // 2:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return k, merged


def cost_factors(q: Qubo) -> tuple[CostFactor, ...]:
    """The phase tables of ``q``'s cost layer, one per block of :func:`cost_split`.

    The product of ``exp(-i gamma table)`` over the factors is the
    cost layer of :func:`precompute_diagonal`.  Each table is the
    :func:`full_spectrum` of the normalized terms that touch its block,
    core bits first and the block bits re-indexed after them, so a map
    that does not split has one factor whose table is byte-equal to the
    diagonal.  Built on first use and cached on ``q``; the tables are
    read-only.  Over the size guard, the refusal names the
    :func:`statevector_peak_bytes` of the split's tables; past 64
    qubits it names that of one full table, without pricing a split.
    """
    return _cached(q, "_cost_factors", _build_cost_factors)


def _build_cost_factors(q: Qubo) -> tuple[CostFactor, ...]:
    if q.n > 64:  # no split of so many qubits fits the guard: refuse at once
        check_size(f"the statevector of {q.n} qubits", 1 << q.n, statevector_peak_bytes(q.n))
    core, blocks = cost_split(q)
    tables = [1 << (core + hi - lo) for lo, hi in blocks]
    check_size(f"the statevector of {q.n} qubits", 1 << q.n, statevector_peak_bytes(q.n, tables))
    normed = normalize_qubo(q)
    factors = []
    for pos, (lo, hi) in enumerate(blocks):
        def place(i: int) -> int:
            return i if i < core else core + i - lo

        coeffs = {(place(i), place(j)): c for (i, j), c in normed.coeffs.items()
                  if lo <= j < hi or (pos == 0 and j < core)}
        sub = Qubo(n=core + hi - lo, coeffs=coeffs, offset=normed.offset if pos == 0 else 0)
        table = full_spectrum(sub)
        table.setflags(write=False)
        factors.append(CostFactor(core, lo, hi, table))
    return tuple(factors)


def _qubit_count(sv: np.ndarray) -> int:
    n = len(sv).bit_length() - 1
    if n < 0 or len(sv) != 1 << n:
        raise ValueError("statevector length must be a power of two")
    return n


def _blocks(rows: int, cols: int, unit: int) -> tuple[np.ndarray, list[tuple[slice, slice]]]:
    """Blocks of a grid of ``rows x cols`` cells of ``unit`` float64 each,
    for a pass that writes its result back in place.

    A block is a run of whole rows, or, when one row holds more than
    ``_BLOCK_FLOATS`` floats, a run of one row's cells; it holds at most
    ``_BLOCK_FLOATS`` floats, or one cell when a cell is larger.  Returns
    a float64 temporary that holds any one block and the blocks' (rows,
    columns) slices, ascending in memory.
    """
    per = max(1, _BLOCK_FLOATS // unit)
    if cols <= per:
        step = min(rows, per // cols)
        spans = [(slice(r, r + step), slice(None)) for r in range(0, rows, step)]
        per = step * cols
    else:
        spans = [(slice(r, r + 1), slice(c, c + per))
                 for r in range(rows) for c in range(0, cols, per)]
    return np.empty(per * unit), spans


def apply_cost_layer(sv: np.ndarray, factors: Sequence[CostFactor], gamma: float) -> np.ndarray:
    """Multiply each amplitude by ``exp(-i * gamma * E)``, in place.

    ``factors`` is a :func:`cost_factors` set, whose tables sum to the
    normalized energy ``E``; the one factor ``CostFactor(0, 0, n,
    diag)`` applies a full diagonal.  Each factor's phases are formed in
    a small temporary, one block of table rows (or of one row's core
    entries) at a time, and multiplied into the state through a
    broadcast view, so nothing the size of the state is allocated.  A
    full-length factor takes exactly the steps of ``sv *=
    exp(-1j * gamma * diag)`` in place, block by block.
    """
    n = _qubit_count(sv)
    if factors[-1].hi != n:
        raise ValueError(f"cost factors cover {factors[-1].hi} qubits, the statevector {n}")
    for f in factors:
        view = sv.reshape(f.state_shape(n))
        table = f.table.reshape(1 << (f.hi - f.lo), 1 << f.core)
        temp, spans = _blocks(*table.shape, 2)
        for rows, cols in spans:
            part = table[rows, cols]
            phase = temp.view(np.complex128)[:part.size].reshape(part.shape)
            np.multiply(part, -1j * gamma, out=phase)
            np.exp(phase, out=phase)
            view[:, rows, :, cols] *= phase[:, None, :]
    return sv


def _mixer_groups(n: int) -> list[int]:
    """Contiguous qubit group sizes for the fused mixer, low qubits first:
    at most ``MIXER_GROUP_QUBITS`` per group, and as few groups as that
    allows."""
    if n < 1:
        return []
    count = -(-n // MIXER_GROUP_QUBITS)
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


def _rotation_power(beta: float, k: int) -> np.ndarray:
    """The ``k``-fold Kronecker power of ``R = [[cos, -sin], [sin, cos]](beta)``.

    ``R`` is the X rotation of :func:`apply_mixer_layer` in the frame of
    the S gate ``diag(1, i)``: ``S R S^dagger = exp(i beta X)``.  It is
    real, so the frame kernel applies it to the interleaved float64
    view of a complex array.
    """
    c, s = np.cos(beta), np.sin(beta)
    rot = np.array([[c, -s], [s, c]])
    return functools.reduce(np.kron, [rot] * k, np.ones((1, 1)))


def _s_phases(m: int, power: int) -> np.ndarray:
    """``(i**power)**popcount(x)`` for every ``x < 2**m``: the phases of
    ``S**power`` on each of ``m`` qubits."""
    count = np.zeros(1, dtype=np.intp)
    for _ in range(m):
        count = np.concatenate([count, count + 1])
    return np.array([1, 1j, -1, -1j])[count * power % 4]


def _apply_s(vec: np.ndarray, power: int) -> np.ndarray:
    """Apply ``S**power`` to every qubit of ``vec``, in place.

    Amplitude ``x`` is multiplied by ``(i**power)**popcount(x)`` through
    two broadcast tables, one per half of the bits, so nothing the size
    of ``vec`` is allocated.  A product with a power of ``i`` only swaps
    and negates parts, so no magnitude changes in any bit.
    """
    n = _qubit_count(vec)
    view = vec.reshape(1 << (n - n // 2), 1 << (n // 2))
    view *= _s_phases(n - n // 2, power)[:, None]
    view *= _s_phases(n // 2, power)
    return vec


def _low_matrix(beta: float, k: int) -> np.ndarray:
    """``kron(F.T, eye(2))`` for ``F = _rotation_power(beta, k)``: it applies
    ``F`` to both parts of a row of ``2**k`` interleaved complex entries
    from the right."""
    return np.kron(_rotation_power(beta, k).T, np.eye(2))


def _rotate_low(src: np.ndarray, low: np.ndarray, out: np.ndarray) -> None:
    """Rotate the lowest qubits of ``src`` into ``out`` by a :func:`_low_matrix`.

    One 2-D GEMM over the float64 views, whose lowest axis is the real
    and imaginary part; the matrix is half zeros, so it costs the
    arithmetic of the complex product.
    """
    width = len(low)
    np.matmul(src.view(np.float64).reshape(-1, width), low,
              out=out.view(np.float64).reshape(-1, width))


def _rotate_qubits(vec: np.ndarray, beta: float, lo: int, hi: int) -> np.ndarray:
    """Apply ``R(beta)`` of :func:`_rotation_power` to qubits ``[lo, hi)`` of ``vec``, in place.

    The fused kernel, which runs in the S-gate frame: each group of up
    to ``MIXER_GROUP_QUBITS`` contiguous qubits is applied as one dense,
    real Kronecker-power matrix by :func:`_rotate_group`.
    :func:`apply_mixer_layer` conjugates it by the S gates into the X
    rotation.
    """
    for k in _mixer_groups(hi - lo):
        _rotate_group(vec, beta, lo, k)
        lo += k
    return vec


def _rotate_group(vec: np.ndarray, beta: float, lo: int, k: int) -> None:
    """Apply ``R(beta)`` to each of qubits ``[lo, lo + k)`` of ``vec`` in one pass, in place.

    Above qubit 0 the pass is a batched real GEMM over the interleaved
    float64 view, ``F @ (2**(n-lo-k), 2**k, 2**(lo+1))``, with half the
    arithmetic of the complex product; from qubit 0 it is a 2-D GEMM of
    :func:`_rotate_low`.  It runs one :func:`_blocks` block at a time
    through a small temporary and writes each block back, so every
    block is the same GEMM rows as one call over the whole array and
    nothing the size of ``vec`` is allocated.
    """
    if lo == 0:
        low = _low_matrix(beta, k)
        temp, spans = _blocks(len(vec) >> k, 1, len(low))
        for rows, _ in spans:
            block = vec[rows.start << k:rows.stop << k]
            out = temp[:2 * len(block)].view(np.complex128)
            _rotate_low(block, low, out)
            block[:] = out
        return
    n = len(vec).bit_length() - 1
    matrix = _rotation_power(beta, k)
    view = vec.view(np.float64).reshape(1 << (n - lo - k), 1 << k, 2 << lo)
    temp, spans = _blocks(len(view), view.shape[2], 1 << k)
    for rows, cols in spans:
        block = view[rows, :, cols]
        out = temp[:block.size].reshape(block.shape)
        np.matmul(matrix, block, out=out)
        block[...] = out


def apply_mixer_layer(sv: np.ndarray, beta: float) -> np.ndarray:
    """Rotate every qubit around X by ``-2 * beta``, in place.

    Amplitude pairs (a0, a1) on each qubit map to
    ``(cos(beta) a0 + i sin(beta) a1, +i sin(beta) a0 + cos(beta) a1)``.

    The phase sign is chosen so that, together with the
    ``exp(-i gamma E)`` cost layer, the circuit trotterizes an anneal
    from the uniform state toward the objective's *minimum*; the
    mirrored sign pair converges to the maximum instead.

    The rotation is ``S R S^dagger`` with a real ``R`` on every qubit,
    so this applies the inverse S gates, the fused frame kernel
    :func:`_rotate_qubits` and the S gates.  ``mixer_layer_reference``
    is the one-qubit loop this must agree with.
    """
    n = _qubit_count(sv)
    _apply_s(sv, -1)
    _rotate_qubits(sv, beta, 0, n)
    return _apply_s(sv, 1)


def mixer_layer_reference(sv: np.ndarray, beta: float) -> np.ndarray:
    """One-qubit-at-a-time form of ``apply_mixer_layer``, in place."""
    n = _qubit_count(sv)
    c, s = np.cos(beta), 1j * np.sin(beta)
    for b in range(n):
        view = sv.reshape(-1, 2, 1 << b)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 + s * a1
        view[:, 1, :] = s * a0 + c * a1
    return sv


def _fused_core_qubits(core: int) -> int:
    """How many of the core's lowest qubits the first layer's product write rotates.

    The whole core when it has at most ``FIRST_LAYER_FUSED_QUBITS``.
    Otherwise the rest of the core takes as few mixer groups as a write
    of at most that many qubits allows, and the write the qubits below
    them, at least ``_FIRST_REST_LO``.  The write is a 2-D GEMM at the
    arithmetic of a complex product, the rest real left-multiplies at
    half of it, so a wider write pays only while it saves a pass.
    """
    rest = max(0, core - FIRST_LAYER_FUSED_QUBITS)
    groups = -(-rest // MIXER_GROUP_QUBITS)
    return max(core - MIXER_GROUP_QUBITS * groups, min(core, _FIRST_REST_LO))


def _first_layer(sv: np.ndarray, factors: Sequence[CostFactor], gamma: float,
                 beta: float) -> None:
    """Write the frame state after the first cost and mixer layers into ``sv``.

    After the uniform state, the inverse S gates and the first cost
    layer, the amplitude of core bits ``c`` and block bits ``x_f`` is
    ``2**(-n/2) (-i)**popcount(c)`` times the product of
    ``(-i)**popcount(x_f) exp(-i gamma T_f[x_f, c])`` over the factors,
    so the frame kernel's rotations of a block's qubits act on its table
    alone.  Each table is exponentiated into a complex array of its own,
    its block rows take their S phases (the first table also the core's
    phases and the amplitude), and its block qubits are rotated there.
    A map that does not split has one table, the full state, which is
    formed and rotated in ``sv`` itself.

    The product is then written into ``sv`` in one pass, fused with the
    rotation of the core's lowest ``g = _fused_core_qubits(core)``
    qubits: for a run of values ``u`` of the other tables' block bits,
    the first table times those tables' rows at ``u`` is formed in a
    small temporary and written to ``sv[u]`` by :func:`_rotate_low`.
    Only the core qubits ``[g, core)`` are then rotated on the full
    state, by real left-multiplies.
    """
    n = len(sv).bit_length() - 1
    core = factors[0].core
    if len(factors) == 1:
        np.multiply(factors[0].table, -1j * gamma, out=sv)
        np.exp(sv, out=sv)
        sv *= (1 << n) ** -0.5
        _apply_s(sv, -1)
        _rotate_qubits(sv, beta, 0, n)
        return
    tables = []
    for pos, f in enumerate(factors):
        table = np.multiply(f.table, -1j * gamma)
        np.exp(table, out=table)
        rows = table.reshape(-1, 1 << core)
        if pos == 0:
            table *= (1 << n) ** -0.5
            _apply_s(table, -1)
        else:
            rows *= _s_phases(f.hi - f.lo, -1)[:, None]
        _rotate_qubits(table, beta, core, core + f.hi - f.lo)
        tables.append(rows)
    g = _fused_core_qubits(core)
    low = _low_matrix(beta, g)
    # The state's axes: the blocks above the second, highest first, the
    # second block in runs of ``per`` rows, the first block, the core.
    first, second, higher = tables[0], tables[1], tables[:1:-1]
    per = min(len(second), max(1, _FUSED_TEMP_ENTRIES // first.size))
    temp = np.empty((per,) + first.shape, dtype=sv.dtype)
    runs = iter(sv.reshape(-1, per, *first.shape))
    for rows in itertools.product(*higher):
        common = functools.reduce(np.multiply, rows) if rows else None
        for row in range(0, len(second), per):
            part = second[row:row + per]
            if common is not None:
                part = part * common
            np.multiply(first, part[:, None, :], out=temp)
            _rotate_low(temp, low, next(runs))
    _rotate_qubits(sv, beta, g, core)


def _frame_state(q: Qubo, sched: RampSchedule) -> np.ndarray:
    """The state after all layers in the S-gate frame.

    The state is :func:`final_state`'s with the inverse S gate applied
    to every qubit, which changes no magnitude.  The first layer is
    :func:`_first_layer`; layers 2 to p apply the cost layer and the
    frame kernel to the full state in place.
    """
    if not sched.gammas:
        raise ValueError("layer count must be >= 1")
    factors = cost_factors(q)
    sv = np.empty(1 << q.n, dtype=np.complex128)
    _first_layer(sv, factors, sched.gammas[0], sched.betas[0])
    for gamma, beta in zip(sched.gammas[1:], sched.betas[1:]):
        apply_cost_layer(sv, factors, gamma)
        _rotate_qubits(sv, beta, 0, q.n)
    return sv


def final_state(q: Qubo, sched: RampSchedule) -> np.ndarray:
    """Statevector after all layers, starting from the uniform state.

    The circuit runs in the frame of the S gate ``diag(1, i)``, where
    each mixer layer is a real rotation (:func:`_frame_state`); the S
    gates are applied once at the end, in place.  The first layer is
    closed-form: the block qubits of every :func:`cost_factors` table
    are mixed in the table, the lowest core qubits inside the tables'
    product write, and only the rest of the ``cost_split`` core qubits
    on the full state (none on a map that does not split, whose one
    block is every qubit).  :func:`final_state_reference` is the
    layer-by-layer path this must agree with.
    """
    return _apply_s(_frame_state(q, sched), 1)


def final_state_reference(q: Qubo, sched: RampSchedule) -> np.ndarray:
    """Layer-by-layer form of :func:`final_state`: the uniform state,
    then per layer the full diagonal's phases and the one-qubit mixer."""
    sv = uniform_state(q.n)
    diag = precompute_diagonal(q)
    for gamma, beta in zip(sched.gammas, sched.betas):
        sv *= np.exp(-1j * gamma * diag)
        mixer_layer_reference(sv, beta)
    return sv


def run_lrqaoa(q: Qubo, sched: RampSchedule, shots: int,
               seeds: Sequence[int]) -> list[SampleSet]:
    """Simulate the circuit once and sample ``shots`` bitstrings per seed.

    Returns one set per seed, in order; every seed draws from the same
    cumulative distribution, and each draw is reproducible bit-exactly
    from its seed.  Energies in the result are evaluated against the
    un-normalized objective.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    check_seeds(seeds)
    # The frame state has the true state's magnitudes.  The cumulative
    # distribution goes into the first half of the state's float64 view:
    # float i holds |a_i|**2, written in ascending blocks, so a block
    # overwrites only amplitudes that it or an earlier block has read.
    sv = _frame_state(q, sched)
    cum = sv.view(np.float64)[:len(sv)]
    temp, spans = _blocks(len(sv), 1, 2)
    for rows, _ in spans:
        block = sv[rows]
        part = np.abs(block, out=temp[:len(block)])
        np.square(part, out=part)
        cum[rows] = part
    np.cumsum(cum, out=cum)
    cum[-1] = 1.0
    dense = as_dense(q)
    params = {"p": sched.p, "delta_gamma": sched.delta_gamma,
              "delta_beta": sched.delta_beta, "shots": shots}
    results = []
    for s in seeds:
        rng = np.random.default_rng([s])
        draws = np.searchsorted(cum, rng.random(shots), side="right")
        indices, counts = np.unique(draws, return_counts=True)
        states = index_states(indices, q.n).astype(np.int8)
        meta = {"solver": "lrqaoa", "params": dict(params), "seed": s}
        results.append(sampleset_from_states(dense, states, counts, meta))
    return results


def success_probability(q: Qubo, sched: RampSchedule) -> float:
    """Probability mass on the exact minimizer set of the objective.

    Computed from amplitudes directly (no sampling); a pure function of
    the objective and the schedule.
    """
    sv = _frame_state(q, sched)
    ks, _ = minimum_states(q)
    return float(np.sum(np.abs(sv[np.asarray(ks)]) ** 2))


# ---------------------------------------------------------------------------
# Logical circuit shape
# ---------------------------------------------------------------------------

def interaction_graph(q: Qubo) -> tuple[tuple[int, int], ...]:
    """The sorted edges ``(i, j)``, ``i < j``, of the objective's coupling
    graph: one per nonzero two-variable coefficient."""
    return tuple(sorted((i, j) for (i, j) in q.coeffs if i != j))


def edge_coloring(edges: Sequence[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Greedy proper edge coloring of an edge list, such as
    :func:`interaction_graph` returns (incident edges never share a color).

    Uses at most ``2 * max_degree - 1`` colors; colors correspond to
    groups of two-qubit interactions that can run in parallel.
    """
    used: dict[int, set[int]] = {}  # colors at each vertex that has an edge
    colors: dict[tuple[int, int], int] = {}
    for i, j in edges:
        if i == j:
            raise ValueError("interaction graph must be simple (no self-loops)")
        taken = used.setdefault(i, set()) | used.setdefault(j, set())
        color = 0
        while color in taken:
            color += 1
        colors[i, j] = color
        used[i].add(color)
        used[j].add(color)
    return colors


@dataclass(frozen=True)
class CircuitStats:
    qubits: int
    edges: int
    colors: int
    p: int
    two_qubit_interactions: int
    cost_layer_depth: int


def circuit_stats(q: Qubo, p: int) -> CircuitStats:
    """Logical-level gate counts: interactions scale linearly with layers."""
    if p < 0:
        raise ValueError("layer count must be >= 0")
    edges = interaction_graph(q)
    coloring = edge_coloring(edges)
    n_colors = (max(coloring.values()) + 1) if coloring else 0
    return CircuitStats(
        qubits=q.n,
        edges=len(edges),
        colors=n_colors,
        p=p,
        two_qubit_interactions=p * len(edges),
        cost_layer_depth=p * n_colors,
    )

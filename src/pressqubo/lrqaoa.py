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
guarded at 26 qubits; ``statevector_peak_bytes`` gives the memory a
simulation holds (state, scratch and diagonal: 40 bytes per amplitude).

``precompute_diagonal`` caches its read-only result on the ``Qubo``
for the object's lifetime, as ``as_dense`` caches the dense mirror, so
runs at several depths on one QUBO compute the 2**n spectrum once.
The peak stays 40 bytes per amplitude: the layers hold the state, the
scratch and the diagonal; sampling holds the state, the diagonal, the
squared magnitudes and their cumulative sum.

``final_state`` allocates one scratch buffer the size of the state and
passes it to both layers.  The cost layer forms its phases in it, and
the mixer fuses the one-qubit X rotations: it applies groups of up to
``MIXER_GROUP_QUBITS`` contiguous qubits as one dense Kronecker-power
matrix each, alternating between the state and the scratch, in the
manner of gate fusion in state-vector simulators such as qsim.
``mixer_layer_reference`` keeps the one-qubit-at-a-time loop that the
fused kernel is tested against.

The module also exposes logical circuit-shape metrics (interaction
counts and a greedy-edge-coloring depth estimate) used for scaling
analyses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import TooLarge
from .qubo import (Qubo, _cached, as_dense, full_spectrum, index_states, minimum_states,
                   normalize_qubo)
from .solvers import SampleSet, sampleset_from_states

STATEVECTOR_GUARD = 26
# Qubits per fused mixer group; 4 was fastest at 22 qubits on one BLAS thread.
MIXER_GROUP_QUBITS = 4


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

def statevector_peak_bytes(n: int) -> int:
    """Bytes a simulation of ``n`` qubits holds while its layers run.

    The complex128 state, the complex128 scratch buffer the layers
    share, and the float64 diagonal: 40 bytes per amplitude.  Building
    the diagonal holds less; sampling afterwards holds as much (the
    state, the cached diagonal, the squared magnitudes and their
    cumulative sum).
    """
    return 40 << n


def _check_guard(n: int) -> None:
    if n > STATEVECTOR_GUARD:
        raise TooLarge(
            f"{n} qubits exceed the statevector guard of {STATEVECTOR_GUARD} "
            f"(simulating them needs about {statevector_peak_bytes(n) / 2**30:.1f} GiB)"
        )


def uniform_state(n: int) -> np.ndarray:
    """Equal-amplitude superposition over all 2**n bitstrings."""
    _check_guard(n)
    size = 1 << n
    return np.full(size, size ** -0.5, dtype=np.complex128)


def precompute_diagonal(q: Qubo) -> np.ndarray:
    """Normalized energies of all bitstrings (the diagonal phase profile).

    Built on first use and cached on ``q`` like its dense mirror, so
    every run on ``q`` shares it; the array is therefore read-only.
    """
    _check_guard(q.n)
    return _cached(q, "_diagonal", _build_diagonal)


def _build_diagonal(q: Qubo) -> np.ndarray:
    diag = full_spectrum(normalize_qubo(q)).astype(np.float64)
    diag.setflags(write=False)
    return diag


def _scratch_for(sv: np.ndarray, scratch: np.ndarray | None) -> np.ndarray:
    if scratch is None:
        return np.empty_like(sv)
    if scratch.shape != sv.shape or scratch.dtype != sv.dtype:
        raise ValueError("scratch buffer must match the statevector's shape and dtype")
    return scratch


def apply_cost_layer(sv: np.ndarray, diag: np.ndarray, gamma: float,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """Multiply each amplitude by ``exp(-i * gamma * diag[k])``, in place.

    The phases are formed in ``scratch`` (allocated when not given), so
    a caller that passes one allocates nothing per layer.
    """
    if sv.shape != diag.shape:
        raise ValueError("statevector and diagonal lengths differ")
    phase = _scratch_for(sv, scratch)
    np.multiply(diag, -1j * gamma, out=phase)
    np.exp(phase, out=phase)
    sv *= phase
    return sv


def _mixer_groups(n: int) -> list[int]:
    """Contiguous qubit group sizes for the fused mixer, low qubits first.

    At most ``MIXER_GROUP_QUBITS`` per group and, from two qubits on,
    an even number of groups, so the ping-pong between the state and
    the scratch buffer ends in the state.
    """
    if n < 2:
        return [n] if n else []
    count = -(-n // MIXER_GROUP_QUBITS)
    count += count % 2
    base, extra = divmod(n, count)
    return [base + 1] * extra + [base] * (count - extra)


def apply_mixer_layer(sv: np.ndarray, beta: float,
                      scratch: np.ndarray | None = None) -> np.ndarray:
    """Rotate every qubit around X by ``-2 * beta``, in place.

    Amplitude pairs (a0, a1) on each qubit map to
    ``(cos(beta) a0 + i sin(beta) a1, +i sin(beta) a0 + cos(beta) a1)``.

    The phase sign is chosen so that, together with the
    ``exp(-i gamma E)`` cost layer, the circuit trotterizes an anneal
    from the uniform state toward the objective's *minimum*; the
    mirrored sign pair converges to the maximum instead.

    The one-qubit rotations are fused: each group of up to
    ``MIXER_GROUP_QUBITS`` contiguous qubits is applied as one dense
    Kronecker-power matrix, reading from the state or ``scratch`` and
    writing to the other.  ``mixer_layer_reference`` is the one-qubit
    loop this must agree with.
    """
    n = int(np.log2(len(sv)))
    if 1 << n != len(sv):
        raise ValueError("statevector length must be a power of two")
    other = _scratch_for(sv, scratch)
    rot = np.array([[np.cos(beta), 1j * np.sin(beta)],
                    [1j * np.sin(beta), np.cos(beta)]])
    src, dst = sv, other
    low = 0
    for k in _mixer_groups(n):
        # The Kronecker power of a symmetric matrix is symmetric, so it
        # acts on the group's axis without a transpose.
        fused = rot
        for _ in range(k - 1):
            fused = np.kron(fused, rot)
        shape = (1 << (n - low - k), 1 << k, 1 << low)
        np.matmul(fused, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
        low += k
    if src is not sv:
        sv[:] = src
    return sv


def mixer_layer_reference(sv: np.ndarray, beta: float) -> np.ndarray:
    """One-qubit-at-a-time form of ``apply_mixer_layer``, in place."""
    n = int(np.log2(len(sv)))
    if 1 << n != len(sv):
        raise ValueError("statevector length must be a power of two")
    c, s = np.cos(beta), 1j * np.sin(beta)
    for b in range(n):
        view = sv.reshape(-1, 2, 1 << b)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 + s * a1
        view[:, 1, :] = s * a0 + c * a1
    return sv


def final_state(q: Qubo, sched: RampSchedule) -> np.ndarray:
    """Statevector after all layers, starting from the uniform state.

    Both layers share one scratch buffer the size of the state.
    """
    diag = precompute_diagonal(q)
    sv = uniform_state(q.n)
    scratch = np.empty_like(sv)
    for gamma, beta in zip(sched.gammas, sched.betas):
        apply_cost_layer(sv, diag, gamma, scratch)
        apply_mixer_layer(sv, beta, scratch)
    return sv


def run_lrqaoa(q: Qubo, sched: RampSchedule, shots: int, seed: int) -> SampleSet:
    """Simulate the circuit and sample bitstrings from it.

    Energies in the result are evaluated against the un-normalized
    objective.  Sampling is reproducible bit-exactly from the seed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sv = final_state(q, sched)
    probs = np.abs(sv) ** 2
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.default_rng([seed])
    draws = np.searchsorted(cum, rng.random(shots), side="right")
    indices, counts = np.unique(draws, return_counts=True)

    states = index_states(indices, q.n).astype(np.int8)
    meta = {
        "solver": "lrqaoa",
        "params": {
            "p": sched.p,
            "delta_gamma": sched.delta_gamma,
            "delta_beta": sched.delta_beta,
            "shots": shots,
        },
        "seed": seed,
    }
    return sampleset_from_states(as_dense(q), states, counts, meta)


def success_probability(q: Qubo, sched: RampSchedule) -> float:
    """Probability mass on the exact minimizer set of the objective.

    Computed from amplitudes directly (no sampling); a pure function of
    the objective and the schedule.
    """
    sv = final_state(q, sched)
    ks, _ = minimum_states(q)
    return float(np.sum(np.abs(sv[np.asarray(ks)]) ** 2))


# ---------------------------------------------------------------------------
# Logical circuit shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionGraph:
    """Two-variable coupling structure of an objective (simple graph)."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def interaction_graph(q: Qubo) -> InteractionGraph:
    edges = sorted({(i, j) for (i, j) in q.coeffs if i != j})
    return InteractionGraph(vertices=tuple(range(q.n)), edges=tuple(edges))


def edge_coloring(g: InteractionGraph) -> dict[tuple[int, int], int]:
    """Greedy proper edge coloring (incident edges never share a color).

    Uses at most ``2 * max_degree - 1`` colors; colors correspond to
    groups of two-qubit interactions that can run in parallel.
    """
    used: dict[int, set[int]] = {v: set() for v in g.vertices}
    colors: dict[tuple[int, int], int] = {}
    for i, j in g.edges:
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
    g = interaction_graph(q)
    coloring = edge_coloring(g)
    n_colors = (max(coloring.values()) + 1) if coloring else 0
    return CircuitStats(
        qubits=q.n,
        edges=len(g.edges),
        colors=n_colors,
        p=p,
        two_qubit_interactions=p * len(g.edges),
        cost_layer_depth=p * n_colors,
    )

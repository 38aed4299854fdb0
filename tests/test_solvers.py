import math
import re
import tracemalloc
import weakref
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

import pressqubo as pq
from pressqubo.errors import TooLarge
from pressqubo.qubo import Qubo, as_dense, dense_energies, flip_delta
from pressqubo import solvers
from pressqubo.solvers import (
    SampleEntry,
    SampleSet,
    _bitflip_pass,
    sampleset_from_states,
    simulated_anneal_reference,
)

LAM_M = Fraction(1000)
LAM_T = Fraction(10**7)


def random_integer_qubo(rng, n, scale=50):
    coeffs = {}
    for i in range(n):
        for j in range(i, n):
            c = int(rng.integers(-scale, scale + 1))
            if c:
                coeffs[(i, j)] = Fraction(c)
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-10, 11))))


def random_fraction_qubo(rng, n, terms=None):
    """Coefficients p/d with |p| <= 50 and d in 1..12, on every pair or on
    ``terms`` random pairs."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)] if terms is None else [
        tuple(sorted(int(v) for v in rng.integers(0, n, size=2))) for _ in range(terms)]
    coeffs = {p: Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 13))) for p in pairs}
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-10, 11)), 3))


def spectrum_by_energy(q):
    return {bits: pq.qubo_energy(q, bits) for bits in
            ("".join(p) for p in product("01", repeat=q.n))}


class TestBruteForce:
    def test_tiny_matches_exhaustive_energy_scan(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        table = spectrum_by_energy(q)
        expected = min(table.items(), key=lambda kv: (kv[1], kv[0]))
        bits, energy = pq.brute_force_qubo(q)
        assert (bits, energy) == expected
        assert energy == 2

    def test_zero_qubo_tie_breaks_to_all_zeros(self):
        q = Qubo(n=4, coeffs={}, offset=Fraction(5))
        bits, energy = pq.brute_force_qubo(q)
        assert bits == "0000"
        assert energy == 5

    def test_single_negative_variable(self):
        q = Qubo(n=1, coeffs={(0, 0): Fraction(-1)}, offset=Fraction(2))
        assert pq.brute_force_qubo(q) == ("1", 1)

    def test_partial_tie(self):
        # variable 0 is free when only variable 1 has weight: lex picks 0
        q = Qubo(n=2, coeffs={(1, 1): Fraction(1)}, offset=Fraction(0))
        assert pq.brute_force_qubo(q) == ("00", 0)

    def test_guard(self):
        q = Qubo(n=27, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(TooLarge):
            pq.brute_force_qubo(q)

    def test_exact_on_rational_coefficients(self):
        # near-degenerate rational energies must be ranked exactly
        q = Qubo(
            n=2,
            coeffs={(0, 0): Fraction(1, 3), (1, 1): Fraction(1, 3) + Fraction(1, 10**12)},
            offset=Fraction(0),
        )
        assert pq.brute_force_qubo(q) == ("00", 0)
        q2 = Qubo(
            n=2,
            coeffs={(0, 0): Fraction(-1, 3), (1, 1): Fraction(-1, 3) - Fraction(1, 10**12)},
            offset=Fraction(0),
        )
        bits, energy = pq.brute_force_qubo(q2)
        assert bits == "11"
        assert energy == Fraction(-2, 3) - Fraction(1, 10**12)

    def test_dominates_all_samplesets(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        _, energy = pq.brute_force_qubo(q)
        for samples in (
            pq.random_sample(q, 200, [5])[0],
            pq.simulated_anneal(q, pq.SaConfig(steps=200, restarts=50), [5])[0],
        ):
            assert float(energy) <= samples.best.energy + 1e-9


class TestRandomSample:
    def test_counts(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.random_sample(q, 1000, [1])[0]
        assert samples.total == 1000

    def test_single_variable_strings(self):
        q = Qubo(n=1, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        samples = pq.random_sample(q, 4, [9])[0]
        assert {e.bits for e in samples.entries} <= {"0", "1"}

    def test_deterministic(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert pq.random_sample(q, 100, [3])[0] == pq.random_sample(q, 100, [3])[0]

    def test_energies_match_exact_evaluation(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        for entry in pq.random_sample(q, 50, [2])[0].entries:
            assert entry.energy == pytest.approx(float(pq.qubo_energy(q, entry.bits)), rel=1e-12)

    def test_sorted_and_merged(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.random_sample(q, 500, [7])[0]
        keys = [(e.energy, e.bits) for e in samples.entries]
        assert keys == sorted(keys)
        assert len({e.bits for e in samples.entries}) == len(samples.entries)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_no_shots_is_refused(self, tiny, shots):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        with pytest.raises(ValueError, match="shots must be >= 1"):
            pq.random_sample(q, shots, [0])


class TestSimulatedAnneal:
    def test_finds_global_minimum_on_tiny(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        best_bits, best_energy = pq.brute_force_qubo(q)
        samples = pq.simulated_anneal(q, pq.SaConfig(steps=1280, restarts=100), [3])[0]
        assert samples.best.bits == best_bits
        assert samples.best.energy == float(best_energy)

    def test_deterministic(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        cfg = pq.SaConfig(steps=300, restarts=40)
        assert pq.simulated_anneal(q, cfg, [11]) == pq.simulated_anneal(q, cfg, [11])

    def test_zero_energy_flips_always_accepted(self):
        # zero objective: every flip has dE = 0 and must be taken, so each
        # chain ends at its start XOR all its flips
        n, steps = 5, 17
        q = Qubo(n=n, coeffs={}, offset=Fraction(3))
        cfg = pq.SaConfig(steps=steps, restarts=3, t_start=1.0, t_end=0.5)
        [samples] = pq.simulated_anneal(q, cfg, [21])
        expected = {}
        for r in range(cfg.restarts):
            rng = np.random.default_rng([21, r])
            state = rng.integers(0, 2, size=n)
            for i in rng.integers(0, n, size=steps):
                state[i] ^= 1
            rng.random(steps)
            bits = "".join(str(b) for b in state)
            expected[bits] = expected.get(bits, 0) + 1
        assert {e.bits: e.multiplicity for e in samples.entries} == expected

    def test_restart_count_respected(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.simulated_anneal(q, pq.SaConfig(steps=10, restarts=77), [0])[0]
        assert samples.total == 77

    def test_config_validation(self):
        with pytest.raises(ValueError):
            pq.SaConfig(steps=0)
        with pytest.raises(ValueError):
            pq.SaConfig(restarts=0)
        with pytest.raises(ValueError):
            pq.simulated_anneal(Qubo(n=1, coeffs={}, offset=Fraction(0)), pq.SaConfig(), [-1])
        with pytest.raises(ValueError):
            pq.SaConfig(t_start=1.0, t_end=2.0)

    def test_one_step_ladder_is_its_start_temperature(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert pq.SaConfig(steps=1).temperatures(q).tolist() == [float(q.max_abs_coefficient())]
        assert pq.SaConfig(steps=1, t_start=2.0, t_end=1.0).temperatures(q).tolist() == [2.0]

    def test_given_end_above_the_maps_scale_is_refused(self):
        q = Qubo(n=2, coeffs={(0, 1): Fraction(-3)}, offset=Fraction(0))
        with pytest.raises(ValueError, match="need t_start >= t_end > 0"):
            pq.SaConfig(t_end=4.0).temperatures(q)
        assert set(pq.SaConfig(steps=5, t_end=3.0).temperatures(q).tolist()) == {3.0}

    @pytest.mark.parametrize("temps", [
        {"t_start": math.inf}, {"t_start": math.nan}, {"t_end": math.inf},
        {"t_end": math.nan}, {"t_start": math.inf, "t_end": 1.0}, {"t_end": 0.0},
        {"t_start": -1.0},
    ])
    def test_temperatures_must_be_finite_and_positive(self, temps):
        with pytest.raises(ValueError, match="finite and > 0"):
            pq.SaConfig(**temps)

    def test_default_scale_is_the_largest_coefficient_magnitude(self):
        rng = np.random.default_rng(17)
        cfg = pq.SaConfig(steps=3)
        for k in range(40):
            n = int(rng.integers(1, 12))
            q = random_fraction_qubo(rng, n) if k % 2 else random_integer_qubo(rng, n)
            scale = float(q.max_abs_coefficient())
            assert cfg.temperatures(q)[0] == (scale if scale > 0 else 1.0)
        for q in (Qubo(n=3, coeffs={}, offset=Fraction(4)),
                  Qubo(n=2, coeffs={(0, 1): Fraction(-7, 3)}, offset=Fraction(0)),
                  Qubo(n=2, coeffs={(1, 1): Fraction(-1, 10**30)}, offset=Fraction(0))):
            scale = float(q.max_abs_coefficient())
            assert cfg.temperatures(q)[0] == (scale if scale > 0 else 1.0)

    def test_geometric_temperature_ladder(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        cfg = pq.SaConfig(steps=5, t_start=16.0, t_end=1.0)
        temps = cfg.temperatures(q)
        assert temps == pytest.approx([16.0, 8.0, 4.0, 2.0, 1.0])

    def test_default_temperatures_follow_coefficient_scale(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        temps = pq.SaConfig(steps=100).temperatures(q)
        assert temps[0] == float(q.max_abs_coefficient())
        assert temps[-1] == pytest.approx(1e-3 * temps[0])

    def test_beats_random_baseline_median(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        sa_best, rnd_best = [], []
        for seed in range(20):
            sa = pq.simulated_anneal(q, pq.SaConfig(steps=200, restarts=100), [seed])[0]
            rnd = pq.random_sample(q, 100, [seed])[0]
            sa_best.append(sa.best.energy)
            rnd_best.append(rnd.best.energy)
        assert np.median(sa_best) <= np.median(rnd_best)

    @pytest.mark.parametrize("name", ["press-03x2", "press-19x2"])
    def test_dominates_random_at_equal_sample_counts(self, name):
        # best-of-restarts energy vs best-of-shots energy, median of 20 seeds
        inst = pq.bundled_instance(name)
        q = pq.build_qubo(inst, pq.RawVariant(Fraction(10**5), Fraction(10**9)))
        sa_best, rnd_best = [], []
        for seed in range(20):
            sa = pq.simulated_anneal(q, pq.SaConfig(steps=1280, restarts=100), [seed])[0]
            rnd = pq.random_sample(q, 100, [seed])[0]
            sa_best.append(sa.best.energy)
            rnd_best.append(rnd.best.energy)
        assert np.median(sa_best) <= np.median(rnd_best)


def stacked_and_alone(q, cfg, seeds):
    return (pq.simulated_anneal(q, cfg, seeds=seeds),
            [simulated_anneal_reference(q, cfg, k) for k in seeds])


def peak_bytes_of_anneal(monkeypatch, maps, cfg, seeds):
    """The traced peak of one simulated_anneal call plus the most bytes of
    restart draws alive at once, which tracemalloc does not see (the draws
    live in mappings of their own)."""
    live = [0, 0]  # bytes of draws alive, most bytes alive
    draw = solvers._restart_draws

    def drop(nbytes):
        live[0] -= nbytes

    def recording(*args):
        arrays = draw(*args)
        for array in arrays:
            live[0] += array.nbytes
            weakref.finalize(array, drop, array.nbytes)
        live[1] = max(live)
        return arrays

    monkeypatch.setattr(solvers, "_restart_draws", recording)
    tracemalloc.start()
    try:
        pq.simulated_anneal(maps, cfg, seeds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live[0] == 0  # every draw is freed by the time the call returns
    return peak + live[1]


@pytest.fixture
def recorded(monkeypatch):
    """The (maps, seeds) of every step loop and the seeds of every
    restart draw made while the fixture is alive."""
    record = SimpleNamespace(loops=[], draws=[])
    batch, draw = solvers._anneal_batch, solvers._restart_draws

    def recording_batch(denses, temps, cfg, seeds, draws):
        record.loops.append((len(denses), list(seeds)))
        return batch(denses, temps, cfg, seeds, draws)

    def recording_draw(seeds, restarts, n, steps):
        record.draws.append(list(seeds))
        return draw(seeds, restarts, n, steps)

    monkeypatch.setattr(solvers, "_anneal_batch", recording_batch)
    monkeypatch.setattr(solvers, "_restart_draws", recording_draw)
    return record


class TestStackedAnneal:
    """All seeds of one call in one step loop, against the per-seed reference."""

    def test_randomized_identity(self):
        rng = np.random.default_rng(23)
        for k in range(16):
            n = int(rng.integers(1, 24))
            q = random_fraction_qubo(rng, n) if k % 2 else random_integer_qubo(rng, n)
            cfg = pq.SaConfig(steps=int(rng.integers(1, 60)), restarts=(13, 77)[k % 4 // 2],
                              t_start=40.0 if k % 3 == 0 else None)
            seeds = [int(s) for s in rng.choice(50, size=1 + k % 3, replace=False)]
            stacked, alone = stacked_and_alone(q, cfg, seeds)
            assert stacked == alone
            assert [s.meta["seed"] for s in stacked] == seeds

    def test_bundled_instance_and_given_temperatures(self):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.ScaledVariant(Fraction(1)))
        cfg = pq.SaConfig(steps=200, restarts=40, t_start=50.0, t_end=0.5)
        stacked, alone = stacked_and_alone(q, cfg, [4, 0, 9])
        assert stacked == alone
        assert pq.simulated_anneal(q, cfg, [9]) == [alone[2]]

    def test_more_than_256_variables(self):
        rng = np.random.default_rng(5)
        q = random_fraction_qubo(rng, 300, terms=400)
        stacked, alone = stacked_and_alone(q, pq.SaConfig(steps=40, restarts=13), [1, 2])
        assert stacked == alone
        assert solvers._restart_draws([1, 2], 13, 300, 40)[1].dtype == np.uint16

    def test_loops_split_at_the_float_budget_without_splitting_a_block(self, recorded):
        rng = np.random.default_rng(8)
        q = random_fraction_qubo(rng, 9)
        assert solvers._LOOP_FLOATS == 1 << 16
        cfg = pq.SaConfig(steps=20, restarts=4000)  # 36,000 floats a seed: one seed a loop
        stacked, alone = stacked_and_alone(q, cfg, [3, 1, 2])
        assert stacked == alone
        assert recorded.draws == [[3], [1], [2]]
        cfg = pq.SaConfig(steps=5, restarts=8000)  # one block over the budget still runs whole
        stacked, alone = stacked_and_alone(q, cfg, [0, 1])
        assert stacked == alone
        assert recorded.draws[3:] == [[0], [1]]

    def test_seeds_stack_only_within_the_draw_budget(self, monkeypatch, recorded):
        rng = np.random.default_rng(4)
        q = random_integer_qubo(rng, 9)
        assert solvers._DRAW_BYTES == 1 << 24
        cfg = pq.SaConfig(steps=30, restarts=40)  # 360 floats a block: the state fits all
        monkeypatch.setattr(solvers, "_DRAW_BYTES", 2 * 40 * 30 * 9)  # two seeds' draws
        stacked, alone = stacked_and_alone(q, cfg, [3, 1, 2, 5, 4])
        assert stacked == alone
        assert recorded.draws == [[3, 1], [2, 5], [4]]
        monkeypatch.setattr(solvers, "_DRAW_BYTES", 2 * 40 * 30 * 9 - 1)
        stacked, alone = stacked_and_alone(q, cfg, [3, 1])
        assert stacked == alone
        assert recorded.draws[3:] == [[3], [1]]

    def test_results_do_not_depend_on_earlier_calls(self, recorded):
        rng = np.random.default_rng(2)
        a, b = random_integer_qubo(rng, 7), random_fraction_qubo(rng, 11)
        cfg, other = pq.SaConfig(steps=30, restarts=13), pq.SaConfig(steps=25, restarts=77)
        for q, c in ((a, cfg), (b, cfg), (a, cfg), (a, other), (a, cfg)):
            stacked, alone = stacked_and_alone(q, c, [0, 1])
            assert stacked == alone
            assert not any(isinstance(value, np.ndarray) for value in vars(solvers).values())
        # Every call draws its own, even the same draws as the call before.
        assert recorded.draws == [[0, 1]] * 5
        draws = solvers._restart_draws([0, 1], 13, 7, 30)
        assert not any(array.flags.writeable for array in draws)

    def test_empty_and_negative_seeds(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert pq.simulated_anneal(q, pq.SaConfig(steps=5, restarts=3), seeds=[]) == []
        with pytest.raises(ValueError, match="non-negative"):
            pq.simulated_anneal(q, pq.SaConfig(steps=5, restarts=3), seeds=[0, -1])

    def test_peak_memory_of_a_two_seed_batch(self, monkeypatch):
        rng = np.random.default_rng(1)
        q = random_integer_qubo(rng, 40)
        as_dense(q)
        cfg = pq.SaConfig(steps=1280, restarts=500)
        attempts = 2 * cfg.restarts * cfg.steps
        peak = peak_bytes_of_anneal(monkeypatch, q, cfg, [0, 1])
        # The draws take 9 B per flip attempt (a uint8 index and a float64
        # uniform); a lone call of the reference holds 16 B per attempt.
        assert 9 * attempts < peak < 10 * attempts

    def test_peak_memory_of_one_map_over_many_seeds(self, monkeypatch):
        rng = np.random.default_rng(3)
        q = random_integer_qubo(rng, 14)  # nine (map, seed) blocks fit the state budget
        as_dense(q)
        cfg = pq.SaConfig(steps=1280, restarts=500)
        peak = peak_bytes_of_anneal(monkeypatch, q, cfg, range(6))
        # Loops of two seeds: each holds two seeds' draws, 9 B per attempt,
        # and frees them before the next loop draws.
        assert 9 * 2 * cfg.restarts * cfg.steps < peak < 10 * 2 * cfg.restarts * cfg.steps


def default_variant_maps(name):
    inst = pq.bundled_instance(name)
    return [pq.build_qubo(inst, v) for kind in ("raw", "scaled", "rounded")
            for v in pq.bench.expand_variants({"kind": kind})]


def reference_per_map(maps, cfg, seeds):
    return [[simulated_anneal_reference(q, cfg, k) for k in seeds] for q in maps]


class TestStackedMaps:
    """Several maps in one step loop, against the per-map, per-seed reference."""

    def test_random_maps_of_one_size_on_their_own_ladders(self, recorded):
        rng = np.random.default_rng(31)
        for n in (2, 6, 13):
            maps = [random_integer_qubo(rng, n), random_fraction_qubo(rng, n),
                    random_integer_qubo(rng, n, scale=3)]
            ladders = {float(pq.SaConfig().temperatures(q)[0]) for q in maps}
            assert len(ladders) == 3
            cfg = pq.SaConfig(steps=int(rng.integers(1, 50)), restarts=17)
            assert pq.simulated_anneal(maps, cfg, [5, 0]) == reference_per_map(maps, cfg, [5, 0])
        assert recorded.loops == [(3, [5, 0])] * 3
        assert recorded.draws == [[5, 0]] * 3

    def test_given_temperatures(self):
        rng = np.random.default_rng(4)
        maps = [random_fraction_qubo(rng, 8) for _ in range(3)]
        cfg = pq.SaConfig(steps=40, restarts=11, t_start=30.0, t_end=0.2)
        assert pq.simulated_anneal(maps, cfg, [1, 2]) == reference_per_map(maps, cfg, [1, 2])

    @pytest.mark.parametrize("name", ["press-small", "press-03x2"])
    def test_default_variants_of_a_bundled_instance(self, name, recorded):
        maps = default_variant_maps(name)
        assert len(maps) == 12 and len({q.n for q in maps}) == 1
        cfg = pq.SaConfig(steps=60, restarts=30)
        assert pq.simulated_anneal(maps, cfg, [0, 2]) == reference_per_map(maps, cfg, [0, 2])
        assert recorded.loops == [(12, [0, 2])]
        assert recorded.draws == [[0, 2]]

    def test_budget_splits_a_batch_across_maps(self, recorded):
        rng = np.random.default_rng(12)
        maps = [random_fraction_qubo(rng, 9) for _ in range(4)]
        cfg = pq.SaConfig(steps=15, restarts=2000)  # 18,000 floats a block: 3 blocks a loop
        assert pq.simulated_anneal(maps, cfg, [0, 1]) == reference_per_map(maps, cfg, [0, 1])
        assert recorded.loops == [(3, [0]), (1, [0]), (3, [1]), (1, [1])]
        assert recorded.draws == [[0], [1]]  # both loops of a seed read one draw

    def test_maps_fill_a_loop_before_seeds(self, recorded):
        rng = np.random.default_rng(13)
        maps = [random_integer_qubo(rng, 9), random_fraction_qubo(rng, 9)]
        cfg = pq.SaConfig(steps=15, restarts=1000)  # 9,000 floats a block: 7 blocks a loop
        seeds = [0, 1, 2, 3, 4]
        assert pq.simulated_anneal(maps, cfg, seeds) == reference_per_map(maps, cfg, seeds)
        assert recorded.loops == [(2, [0, 1, 2]), (2, [3, 4])]
        assert recorded.draws == [[0, 1, 2], [3, 4]]

    def test_block_over_the_budget_runs_whole(self, recorded):
        rng = np.random.default_rng(14)
        maps = [random_integer_qubo(rng, 9), random_integer_qubo(rng, 9)]
        cfg = pq.SaConfig(steps=5, restarts=8000)  # 72,000 floats a block
        assert pq.simulated_anneal(maps, cfg, [7]) == reference_per_map(maps, cfg, [7])
        assert recorded.loops == [(1, [7]), (1, [7])]
        assert recorded.draws == [[7]]

    def test_maps_of_different_sizes_run_in_separate_loops(self, recorded):
        rng = np.random.default_rng(15)
        maps = [random_integer_qubo(rng, 5), random_fraction_qubo(rng, 7),
                random_fraction_qubo(rng, 5)]
        cfg = pq.SaConfig(steps=30, restarts=9)
        assert pq.simulated_anneal(maps, cfg, [3]) == reference_per_map(maps, cfg, [3])
        assert recorded.loops == [(2, [3]), (1, [3])]
        assert recorded.draws == [[3], [3]]  # the sizes draw start states of their own

    def test_one_map_or_a_sequence(self, tiny):
        q = pq.build_qubo(tiny, pq.RoundedVariant())
        cfg = pq.SaConfig(steps=20, restarts=5)
        assert pq.simulated_anneal([q], cfg, [0, 1]) == [pq.simulated_anneal(q, cfg, [0, 1])]
        assert pq.simulated_anneal([], cfg, [0]) == []
        assert pq.simulated_anneal([q, q], cfg, []) == [[], []]
        with pytest.raises(ValueError, match="non-negative"):
            pq.simulated_anneal([q], cfg, [-1])

    def test_maps_share_the_restart_draws(self, monkeypatch):
        rng = np.random.default_rng(1)
        maps = [random_integer_qubo(rng, 40) for _ in range(3)]
        for q in maps:
            as_dense(q)
        cfg = pq.SaConfig(steps=1280, restarts=500)  # 20,000 floats a block: one loop
        peak = peak_bytes_of_anneal(monkeypatch, maps, cfg, [0])
        # One map's draws take 9 B per flip attempt; three maps' would take 27 B.
        assert 9 * cfg.restarts * cfg.steps < peak < 12 * cfg.restarts * cfg.steps


class TestBitflipPostprocess:
    def test_global_minimum_unchanged(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        best_bits, _ = pq.brute_force_qubo(q)
        assert pq.bitflip_postprocess(q, best_bits) == best_bits

    def test_single_improving_bit_gets_flipped(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        best_bits, _ = pq.brute_force_qubo(q)
        # flip the last slack bit of the optimum: restoring it is the only
        # improving move, found by scanning all single flips
        start = best_bits[:-1] + ("0" if best_bits[-1] == "1" else "1")
        improving = [
            i for i in range(q.n)
            if pq.qubo_energy(q, start[:i] + ("1" if start[i] == "0" else "0") + start[i + 1:])
            < pq.qubo_energy(q, start)
        ]
        assert improving == [q.n - 1]
        assert pq.bitflip_postprocess(q, start) == best_bits

    def test_zero_qubo_unchanged(self):
        q = Qubo(n=6, coeffs={}, offset=Fraction(1))
        assert pq.bitflip_postprocess(q, "101010") == "101010"

    def test_left_to_right_uses_partial_updates(self):
        # E = x0 + x1 - 3 x0 x1: from "01", flipping bit 0 gives "11" with
        # E = -1 (improves), after which flipping bit 1 would worsen
        q = Qubo(
            n=2,
            coeffs={(0, 0): Fraction(1), (1, 1): Fraction(1), (0, 1): Fraction(-3)},
            offset=Fraction(0),
        )
        assert pq.bitflip_postprocess(q, "01") == "11"

    def test_never_increases_energy_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            q = random_integer_qubo(rng, n)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            out = pq.bitflip_postprocess(q, bits)
            assert pq.qubo_energy(q, out) <= pq.qubo_energy(q, bits)
            again = pq.bitflip_postprocess(q, out)
            assert pq.qubo_energy(q, again) <= pq.qubo_energy(q, out)

    def test_exact_zero_difference_is_not_an_improvement(self):
        # flipping bit 0 of "01" changes the energy by exactly 1/3 - 1/3 = 0;
        # the float error band must resolve to "no strict improvement"
        q = Qubo(
            n=2,
            coeffs={(0, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3)},
            offset=Fraction(0),
        )
        assert pq.qubo_energy(q, "11") == pq.qubo_energy(q, "01")
        assert pq.bitflip_postprocess(q, "01") == "01"

    def test_length_mismatch(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        with pytest.raises(ValueError):
            pq.bitflip_postprocess(q, "01")

    def test_postprocess_sampleset_preserves_total(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.random_sample(q, 200, [4])[0]
        cleaned = pq.postprocess_sampleset(q, samples)
        assert cleaned.total == samples.total
        assert cleaned.best.energy <= samples.best.energy
        assert cleaned.meta["postprocessed"]


def reference_postprocess(q, samples):
    """bits -> multiplicity after running the reference kernel per entry."""
    out = {}
    for bits, mult in [(e.bits, e.multiplicity) for e in samples.entries]:
        improved = pq.bitflip_postprocess(q, bits)
        out[improved] = out.get(improved, 0) + mult
    return out


def assert_batched_matches_reference(q, rows):
    x = np.array([[int(b) for b in bits] for bits in rows], dtype=np.float64)
    _bitflip_pass(q, as_dense(q), x)
    for bits, row in zip(rows, x):
        assert "".join(str(int(v)) for v in row) == pq.bitflip_postprocess(q, bits), bits
    samples = SampleSet(entries=tuple(SampleEntry(b, 0.0, 1 + k % 3)
                                      for k, b in enumerate(rows)), meta={})
    cleaned = pq.postprocess_sampleset(q, samples)
    assert {e.bits: e.multiplicity for e in cleaned.entries} == reference_postprocess(q, samples)
    assert [(e.energy, e.bits) for e in cleaned.entries] == sorted(
        (e.energy, e.bits) for e in cleaned.entries)


def random_rows(rng, n, count):
    return ["".join(str(b) for b in rng.integers(0, 2, size=n)) for _ in range(count)]


def exact_ties(q, rows):
    return sum(flip_delta(q, i, [int(b) for b in bits]) == 0
               for bits in rows for i in range(q.n))


class TestBatchedPostprocess:
    """The batched pass against ``bitflip_postprocess``, row by row."""

    def test_integer_qubos(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            n = int(rng.integers(1, 15))
            q = random_integer_qubo(rng, n, scale=int(rng.integers(1, 60)))
            assert as_dense(q).int_exact
            assert_batched_matches_reference(q, random_rows(rng, n, 25))

    def test_rational_qubos_with_exact_ties(self):
        rng = np.random.default_rng(11)
        ties = 0
        for _ in range(60):
            n = int(rng.integers(2, 13))
            # normalizing a map with coefficients in -3..3 and one 3 gives
            # thirds, whose single-flip differences are often exactly 0
            base = random_integer_qubo(rng, n, scale=3)
            base = Qubo(n=n, coeffs={**base.coeffs, (0, 0): Fraction(3)}, offset=base.offset)
            q = pq.normalize_qubo(base)
            rows = random_rows(rng, n, 25)
            if not as_dense(q).int_exact:
                ties += exact_ties(q, rows)
            assert_batched_matches_reference(q, rows)
        assert ties > 0

    def test_scaled_and_rounded_generated_instances(self):
        rng = np.random.default_rng(3)
        ties = 0
        for seed in range(6):
            inst = pq.sanitize_instance(pq.generate_instance(3, 2, 3, seed))
            for variant in (pq.ScaledVariant(Fraction(1, 10)), pq.ScaledVariant(Fraction(1)),
                            pq.RoundedVariant()):
                q = pq.build_qubo(inst, variant)
                for qq in (q, pq.normalize_qubo(q)):
                    rows = random_rows(rng, q.n, 30)
                    rows += [pq.brute_force_qubo(qq)[0]]
                    if not as_dense(qq).int_exact:
                        ties += exact_ties(qq, rows)
                    assert_batched_matches_reference(qq, rows)
        assert ties > 0

    def test_duplicate_rows_merge(self):
        q = Qubo(n=3, coeffs={(0, 0): Fraction(1, 3), (0, 1): Fraction(-1, 3),
                              (2, 2): Fraction(-1)}, offset=Fraction(0))
        samples = SampleSet(entries=(SampleEntry("110", 0.0, 2), SampleEntry("110", 0.0, 3),
                                     SampleEntry("111", 0.0, 4), SampleEntry("010", 0.0, 1)),
                            meta={})
        cleaned = pq.postprocess_sampleset(q, samples)
        assert {e.bits: e.multiplicity for e in cleaned.entries} == {"111": 9, "011": 1}
        assert_batched_matches_reference(q, ["110", "110", "111", "010"])

    def test_improvement_inside_the_float_band_is_found(self):
        # flipping bit 0 of "00" gains 1e-10, well inside the guard that the
        # 1e6 coupling sets: only the exact recheck sees the improvement
        q = Qubo(n=2, coeffs={(0, 0): Fraction(-1, 10**10), (0, 1): Fraction(10**6)},
                 offset=Fraction(0))
        assert as_dense(q).flip_guard[0] > 1e-10
        assert pq.bitflip_postprocess(q, "00") == "10"
        assert_batched_matches_reference(q, ["00", "01", "10", "11"])

    def test_annealed_samples_of_the_smallest_ladder_instance(self):
        inst = pq.bundled_instance("press-03x2")
        for variant in (pq.RawVariant(Fraction(10**5), Fraction(10**9)),
                        pq.ScaledVariant(Fraction(1)), pq.RoundedVariant()):
            q = pq.build_qubo(inst, variant)
            samples = pq.simulated_anneal(q, pq.SaConfig(), [0])[0]
            assert_batched_matches_reference(q, [e.bits for e in samples.entries])
            cleaned = pq.postprocess_sampleset(q, samples)
            assert {e.bits: e.multiplicity for e in cleaned.entries} == \
                reference_postprocess(q, samples)
            assert cleaned.total == samples.total

    def test_rejects_malformed_rows(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = SampleSet(entries=(SampleEntry("01", 0.0, 1),), meta={})
        with pytest.raises(ValueError, match=f"length {q.n}"):
            pq.postprocess_sampleset(q, samples)
        with pytest.raises(ValueError, match="not 0/1 strings of one length"):
            SampleSet(entries=(SampleEntry("0120" + "0" * (q.n - 4), 0.0, 1),), meta={})


class TestSampleSetIO:
    def test_roundtrip(self, tiny, tmp_path):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.simulated_anneal(q, pq.SaConfig(steps=50, restarts=20), [6])[0]
        path = tmp_path / "samples.csv"
        pq.save_sampleset(samples, path)
        assert pq.load_sampleset(path) == samples

    def test_schema(self, tiny, tmp_path):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        path = tmp_path / "samples.csv"
        pq.save_sampleset(pq.random_sample(q, 10, [0])[0], path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# meta: ")
        assert lines[1] == "bits,energy,multiplicity"

    @pytest.mark.parametrize("rows", [
        ["01x,0.0,1"],
        ["011,0.0,1", "01,0.0,1"],
        ["011,0.0,0"],
        ["011,0.0,-2"],
        ["11,5.0,1", "00,1.0,2", "11,0.5,3"],  # out of (energy, bits) order
        ["11,0.5,1", "00,1.0,2", "11,5.0,3"],  # in energy order, 11 twice
    ])
    def test_rejects_malformed_rows(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["bits,energy,multiplicity"] + rows) + "\n")
        with pytest.raises(ValueError):
            pq.load_sampleset(path)

    @pytest.mark.parametrize("row", ["01,1.0", "01,abc,1", "01,1.0,x", "01,1.0,1,1"])
    def test_unparsable_row_names_the_file_and_the_row(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("bits,energy,multiplicity\n00,0.5,1\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: row {row!r} is not three")):
            pq.load_sampleset(path)

    @pytest.mark.parametrize("row", ["01,nan,1", "01,inf,1", "01,-inf,1", "01,1e999,1",
                                     "01,-1e999,1", "01,1_0.5,1", "01, 1.0,1", "01,1.0,1_0",
                                     "01,1.0, 1", "01,1.0,+1"])
    def test_rejects_what_save_never_writes(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text("bits,energy,multiplicity\n00,0.5,1\n" + row + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: row {row!r} has ")):
            pq.load_sampleset(path)

    def test_reads_every_float_save_writes(self, tmp_path):
        energies = [-1e300, -2.5, -1e-05, 0.0, 5e-324, 1e-07, 3.0, 1.5e+16,
                    1.7976931348623157e+308]
        samples = SampleSet(entries=tuple(SampleEntry(format(k, "04b"), e, 10**k)
                                          for k, e in enumerate(energies)), meta={"m": 1})
        path = tmp_path / "ok.csv"
        pq.save_sampleset(samples, path)
        assert pq.load_sampleset(path) == samples

    def test_multiplicities_up_to_int64(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text(f"bits,energy,multiplicity\n01,0.5,{2**63 - 1}\n10,1.5,{2**63 - 1}\n")
        samples = pq.load_sampleset(path)
        assert samples.counts().tolist() == [2**63 - 1] * 2
        assert samples.total == 2**64 - 2
        for count in (2**63, 10**20):
            row = f"10,1.5,{count}"
            path.write_text(f"bits,energy,multiplicity\n01,0.5,1\n{row}\n")
            with pytest.raises(ValueError, match=re.escape(f"{path}: row {row!r} has "
                                                           "multiplicity")):
                pq.load_sampleset(path)

    @pytest.mark.parametrize("meta", ["{bad", "[1]", "3", "null", '"text"', ""])
    def test_meta_that_is_not_a_json_object_names_the_file(self, tmp_path, meta):
        path = tmp_path / "bad.csv"
        path.write_text(f"# meta: {meta}\nbits,energy,multiplicity\n01,0.5,1\n")
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{path}: the meta line is not a JSON object")):
            pq.load_sampleset(path)

    def test_rejects_non_csv(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            pq.load_sampleset(path)


class TestSampleSetMultiplicities:
    @pytest.mark.parametrize("count", [0, -1, -2**63])
    def test_a_multiplicity_below_one_is_refused(self, count):
        entries = [SampleEntry("01", 0.0, 2), SampleEntry("10", 1.0, count)]
        with pytest.raises(ValueError, match="a sample multiplicity is below 1"):
            SampleSet(entries=entries)
        entries[-1] = SampleEntry("10", 1.0, 1)
        assert SampleSet(entries=entries).total == 3

    def test_a_negative_count_cannot_push_a_share_past_one(self):
        # The optimum's encoding three times and the all-zero string -2
        # times once gave total 1 and percent_valid 3.0.
        inst = pq.bundled_instance("press-small")
        q = pq.build_qubo(inst, pq.RoundedVariant())
        choice = pq.exact_solve(inst).assignment.choice
        best = pq.encode_assignment(q, choice, pq.residual_slack(inst, choice))
        with pytest.raises(ValueError, match="a sample multiplicity is below 1"):
            SampleSet(entries=(SampleEntry(best, 0.0, 3), SampleEntry("0" * q.n, 0.0, -2)))


class TestSampleSetFromStates:
    """The one constructor against a dict merge written out here."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dict_merge(self, seed):
        inst = pq.sanitize_instance(pq.generate_instance(3, 2, 5, seed))
        q = pq.build_qubo(inst, pq.ScaledVariant(Fraction(1, 10)))
        dense = as_dense(q)
        assert not dense.int_exact
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2, size=(6, q.n), dtype=np.int8)
        states = pool[rng.integers(0, len(pool), size=40)]  # many duplicate rows
        counts = rng.integers(1, 4, size=len(states))

        energies = dense_energies(dense, states)
        merged = {}
        for row, e, c in zip(states, energies, counts):
            bits = "".join(str(int(b)) for b in row)
            first_energy, total = merged.get(bits, (float(e), 0))
            merged[bits] = (first_energy, total + int(c))
        expected = sorted((e, bits, c) for bits, (e, c) in merged.items())

        samples = sampleset_from_states(dense, states, counts, {"solver": "test"})
        assert [(e.energy, e.bits, e.multiplicity) for e in samples.entries] == expected
        assert samples.total == int(counts.sum())
        assert samples.meta == {"solver": "test"}
        for e in samples.entries:
            assert abs(e.energy - float(pq.qubo_energy(q, e.bits))) <= dense.energy_guard


def merge_cases():
    """(map, states, counts) for the fast merge: duplicates, ties, counts
    above one, one row, one variable and packed widths of 1 to 9 bytes."""
    rng = np.random.default_rng(11)
    cases = {}
    for n in (1, 3, 8, 13, 70):
        q = random_integer_qubo(rng, n) if n % 2 else random_fraction_qubo(rng, n)
        pool = rng.integers(0, 2, size=(max(2, n // 2), n), dtype=np.int8)
        states = pool[rng.integers(0, len(pool), size=60)]
        cases[f"n{n}-duplicates"] = (q, states, rng.integers(1, 5, size=len(states)))
    # popcount energies: every row ties with the rows of its weight
    weights = Qubo(n=11, coeffs={(i, i): Fraction(1) for i in range(11)}, offset=Fraction(0))
    states = rng.integers(0, 2, size=(300, 11)).astype(np.float64)
    cases["ties"] = (weights, states, np.ones(len(states), dtype=np.int64))
    flat = Qubo(n=9, coeffs={}, offset=Fraction(1, 3))
    cases["all-equal"] = (flat, rng.integers(0, 2, size=(50, 9), dtype=np.uint8), [2] * 50)
    cases["one-row"] = (random_fraction_qubo(rng, 5), np.array([[1, 0, 1, 1, 0]]), [7])
    cases["one-variable"] = (Qubo(n=1, coeffs={(0, 0): Fraction(-1)}, offset=Fraction(0)),
                             np.array([[1], [0], [1], [1]]), [1, 2, 3, 4])
    return cases


MERGE_CASES = merge_cases()


class TestFastMerge:
    """sampleset_from_states against the per-row merge it replaced."""

    @pytest.mark.parametrize("case", sorted(MERGE_CASES))
    def test_equals_the_reference(self, case):
        q, states, counts = MERGE_CASES[case]
        dense = as_dense(q)
        fast = sampleset_from_states(dense, states, counts, {"case": case})
        ref = solvers.sampleset_from_states_reference(dense, states, counts, {"case": case})
        assert fast.states().dtype == np.uint8
        np.testing.assert_array_equal(fast.states(), ref.states())
        np.testing.assert_array_equal(fast.counts(), ref.counts())
        assert fast.total == ref.total == int(np.sum(counts))
        assert fast.best == ref.best
        assert [repr(e.energy) for e in fast.entries] == [repr(e.energy) for e in ref.entries]
        assert fast == ref and ref == fast

    def test_a_sum_past_int64_is_refused_not_wrapped(self):
        # On -x0 - x1 the bit-flip pass takes both 00 and 01 to 11.
        q = Qubo(n=2, coeffs={(0, 0): Fraction(-1), (1, 1): Fraction(-1)}, offset=Fraction(0))
        big = 2**63 - 1
        samples = SampleSet([SampleEntry("00", 0.0, big), SampleEntry("01", -1.0, big)])
        ones = np.ones((2, 2), dtype=np.uint8)
        for merge in (lambda: pq.postprocess_sampleset(q, samples),
                      lambda: sampleset_from_states(as_dense(q), ones, [big, 2], {}),
                      lambda: solvers.sampleset_from_states_reference(as_dense(q), ones,
                                                                      [big, 2], {})):
            with pytest.raises(ValueError, match="a sample multiplicity does not fit int64"):
                merge()
        at_limit = sampleset_from_states(as_dense(q), ones, [big - 2, 2], {})
        assert at_limit.counts().tolist() == [big]

    def test_a_row_keeps_its_first_occurrences_energy(self, monkeypatch):
        # Energies may differ between copies of one row (the batch's BLAS
        # rounding); give every row its own energy to see which one is kept.
        q, states, counts = MERGE_CASES["n13-duplicates"]
        monkeypatch.setattr(solvers, "dense_energies",
                            lambda dense, rows: -np.arange(len(rows), dtype=np.float64))
        fast = sampleset_from_states(as_dense(q), states, counts, {})
        ref = solvers.sampleset_from_states_reference(as_dense(q), states, counts, {})
        assert fast == ref
        first = {}
        for r, row in enumerate(states):
            first.setdefault(row.tobytes(), -float(r))
        assert sorted(first.values()) == [e.energy for e in fast.entries]

    def test_the_cases_hold_what_they_name(self):
        def distinct(case):
            return len(sampleset_from_states(as_dense(MERGE_CASES[case][0]),
                                             *MERGE_CASES[case][1:], {}).counts())

        assert distinct("n70-duplicates") < 60 and distinct("n1-duplicates") <= 2
        ties = sampleset_from_states(as_dense(MERGE_CASES["ties"][0]), *MERGE_CASES["ties"][1:],
                                     {})
        energies = [e.energy for e in ties.entries]
        assert len(set(energies)) < len(energies) and (ties.counts() > 1).any()
        assert np.packbits(MERGE_CASES["n70-duplicates"][1], axis=1).shape[1] == 9

    def test_entries_are_built_once_on_first_read(self, monkeypatch):
        q, states, counts = MERGE_CASES["n13-duplicates"]
        samples = sampleset_from_states(as_dense(q), states, counts, {})
        built = []
        real = solvers.SampleEntry
        monkeypatch.setattr(solvers, "SampleEntry",
                            lambda *args: built.append(args) or real(*args))
        samples.states(), samples.counts(), samples.total
        assert built == []
        first = samples.entries
        assert len(built) == len(first) and samples.entries is first

    def test_a_set_cannot_be_changed(self):
        q, states, counts = MERGE_CASES["n8-duplicates"]
        samples = sampleset_from_states(as_dense(q), states, counts, {})
        for array in (samples.states(), samples.counts()):
            with pytest.raises(ValueError):
                array[0] = 0
        for name in ("entries", "meta", "_rows", "_counts"):
            with pytest.raises(AttributeError):
                setattr(samples, name, None)
        with pytest.raises(TypeError):
            hash(samples)

    def test_equality_is_entries_and_meta(self):
        q, states, counts = MERGE_CASES["one-row"]
        samples = sampleset_from_states(as_dense(q), states, counts, {"seed": 1})
        [entry] = samples.entries
        assert samples == SampleSet(entries=(entry,), meta={"seed": 1})
        assert samples != SampleSet(entries=(entry,), meta={"seed": 2})
        assert samples != SampleSet(entries=(SampleEntry(entry.bits, entry.energy, 8),),
                                    meta={"seed": 1})
        assert repr(samples) == repr(SampleSet(entries=(entry,), meta={"seed": 1}))


class TestUnreachedSampleSetChecks:
    def test_attributes_cannot_be_deleted(self):
        q, states, counts = MERGE_CASES["one-row"]
        samples = sampleset_from_states(as_dense(q), states, counts, {"seed": 1})
        for name in ("meta", "_rows"):
            with pytest.raises(AttributeError, match="cannot be changed"):
                delattr(samples, name)
        assert samples.meta == {"seed": 1}

    def test_comparison_with_another_type_is_not_implemented(self):
        q, states, counts = MERGE_CASES["one-row"]
        samples = sampleset_from_states(as_dense(q), states, counts, {})
        assert samples.__eq__(samples.entries) is NotImplemented
        assert samples != samples.entries
        assert samples != 5

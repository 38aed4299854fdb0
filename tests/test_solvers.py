import math
import tracemalloc
from fractions import Fraction
from itertools import product

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
        assert solvers._last_draws[0][1][1].dtype == np.uint16

    def test_batches_split_at_the_row_cap_without_splitting_a_seed(self):
        rng = np.random.default_rng(8)
        q = random_fraction_qubo(rng, 9)
        assert solvers._BATCH_ROWS == 1024
        cfg = pq.SaConfig(steps=20, restarts=400)
        stacked, alone = stacked_and_alone(q, cfg, [3, 1, 2])  # 1,200 rows: batches of 2, 1
        assert stacked == alone
        assert solvers._last_draws[0][0] == ((2,), 400, 9, 20)
        cfg = pq.SaConfig(steps=5, restarts=1100)  # one seed over the cap still runs whole
        stacked, alone = stacked_and_alone(q, cfg, [0, 1])
        assert stacked == alone
        assert solvers._last_draws[0][0] == ((1,), 1100, 9, 5)

    def test_results_do_not_depend_on_earlier_calls(self):
        rng = np.random.default_rng(2)
        a, b = random_integer_qubo(rng, 7), random_fraction_qubo(rng, 11)
        cfg, other = pq.SaConfig(steps=30, restarts=13), pq.SaConfig(steps=25, restarts=77)
        for q, c in ((a, cfg), (b, cfg), (a, cfg), (a, other), (a, cfg)):
            stacked, alone = stacked_and_alone(q, c, [0, 1])
            assert stacked == alone
            assert len(solvers._last_draws) == 1
            key, draws = solvers._last_draws[0]
            assert key == ((0, 1), c.restarts, q.n, c.steps)
            assert not any(array.flags.writeable for array in draws)

    def test_empty_and_negative_seeds(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert pq.simulated_anneal(q, pq.SaConfig(steps=5, restarts=3), seeds=[]) == []
        with pytest.raises(ValueError, match="non-negative"):
            pq.simulated_anneal(q, pq.SaConfig(steps=5, restarts=3), seeds=[0, -1])

    def test_peak_memory_of_a_two_seed_batch(self):
        rng = np.random.default_rng(1)
        q = random_integer_qubo(rng, 40)
        as_dense(q)
        cfg = pq.SaConfig(steps=1280, restarts=500)
        attempts = 2 * cfg.restarts * cfg.steps
        solvers._last_draws.clear()
        tracemalloc.start()
        try:
            pq.simulated_anneal(q, cfg, seeds=[0, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The draws take 9 B per flip attempt (a uint8 index and a float64
        # uniform); a lone call of the reference holds 16 B per attempt.
        assert peak < 10 * attempts


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
    for bits, mult in samples.iter_bits():
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
            assert_batched_matches_reference(q, [bits for bits, _ in samples.iter_bits()])
            cleaned = pq.postprocess_sampleset(q, samples)
            assert {e.bits: e.multiplicity for e in cleaned.entries} == \
                reference_postprocess(q, samples)
            assert cleaned.total == samples.total

    def test_rejects_malformed_rows(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        for bits in ("01", "0120" + "0" * (q.n - 4)):
            samples = SampleSet(entries=(SampleEntry(bits, 0.0, 1),), meta={})
            with pytest.raises(ValueError):
                pq.postprocess_sampleset(q, samples)


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

    def test_rejects_non_csv(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("hello\n")
        with pytest.raises(ValueError):
            pq.load_sampleset(path)


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

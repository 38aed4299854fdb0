"""The integer scoring pass against its exact-fraction reference.

``score_samples`` validates and prices all entries of a sample set at
once over common-denominator int64 arrays; ``score_samples_reference``
decodes, validates and prices one entry at a time in Fractions.  Both
must return equal ``ScoredSamples`` on every input and raise the same
errors where the fast pass hands over to the reference.
"""

from fractions import Fraction

import numpy as np
import pytest

import pressqubo as pq
from pressqubo import Instance, model
from pressqubo.bench import (
    SweepCell,
    ScoredSamples,
    run_cell,
    score_samples,
    score_samples_reference,
)
from pressqubo.errors import TooLarge
from pressqubo.qubo import Qubo, full_spectrum, spectrum_peak_bytes
from pressqubo.solvers import SampleEntry, SampleSet, brute_force_qubo

VARIANTS = (
    pq.RawVariant(Fraction(1000), Fraction(10**6)),
    pq.ScaledVariant(Fraction(1, 2)),
    pq.RoundedVariant(),
)


def with_costs(inst: Instance, cost) -> Instance:
    return Instance(id=inst.id, toolkits=inst.toolkits, machines=inst.machines,
                    cost=cost, workload=inst.workload, capacity=inst.capacity)


def fractional_instance(seed: int, T: int = 4, M: int = 3) -> Instance:
    """A generated instance whose costs are divided by denominators 1..7."""
    inst = model.generate_instance(T, M, 3, seed)
    rng = np.random.default_rng([seed, 99])
    return with_costs(inst, {k: c / int(rng.integers(1, 8)) for k, c in inst.cost.items()})


def mixed_samples(inst: Instance, q: Qubo, rng, rows: int = 60) -> SampleSet:
    """One-hot rows (feasible or over capacity), rows where a toolkit has
    two machines or none, and uniform rows; slack bits are random and
    multiplicities run from 1 to 5."""
    vm = q.varmap
    by_bits = {}
    for r in range(rows):
        x = rng.integers(0, 2, size=q.n, dtype=np.uint8)
        kind = r % 4
        if kind < 3:
            x[list(vm.decision_index.values())] = 0
            for t in inst.toolkits:
                x[vm.decision_index[t, inst.machines[rng.integers(inst.n_machines)]]] = 1
            t = inst.toolkits[rng.integers(inst.n_toolkits)]
            if kind == 1:
                x[[vm.decision_index[t, m] for m in inst.machines]] = 1
            elif kind == 2:
                x[[vm.decision_index[t, m] for m in inst.machines]] = 0
        by_bits["".join(map(str, x))] = int(rng.integers(1, 6))
    return SampleSet(entries=tuple(SampleEntry(b, 0.0, m) for b, m in by_bits.items()))


class TestAgainstReference:
    @pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.kind)
    @pytest.mark.parametrize("seed", range(6))
    def test_fractional_generated_instances(self, variant, seed):
        inst = fractional_instance(seed)
        q = pq.build_qubo(inst, variant)
        samples = mixed_samples(inst, q, np.random.default_rng(seed))
        fast = score_samples(samples, inst, q)
        assert fast == score_samples_reference(samples, inst, q)
        assert 0 < fast.n_valid < fast.total
        assert any(c.denominator > 1 for _, c in fast.valid)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_row_kind_is_present(self, seed):
        inst = fractional_instance(seed)
        q = pq.build_qubo(inst, VARIANTS[0])
        kinds = set()
        for bits, _ in mixed_samples(inst, q, np.random.default_rng(seed)).iter_bits():
            candidate = pq.decode(q, bits).candidate
            sizes = {len(ms) for ms in candidate.values()}
            if 0 in sizes:
                kinds.add("none")
            if max(sizes) > 1:
                kinds.add("two")
            if sizes == {1}:
                feasible = model.validate_candidate(inst, candidate).feasible
                kinds.add("valid" if feasible else "over capacity")
        assert kinds == {"valid", "over capacity", "none", "two"}

    @pytest.mark.parametrize("seed", range(3))
    def test_varmap_in_another_id_order(self, seed):
        # The map lays the ids out in reversed order; decoding follows the map.
        inst = fractional_instance(seed)
        flipped = Instance(id=inst.id, toolkits=inst.toolkits[::-1],
                           machines=inst.machines[::-1], cost=inst.cost,
                           workload=inst.workload, capacity=inst.capacity)
        q = pq.build_qubo(flipped, VARIANTS[1])
        samples = mixed_samples(flipped, q, np.random.default_rng(seed))
        fast = score_samples(samples, inst, q)
        assert fast == score_samples_reference(samples, inst, q)
        assert fast.n_valid > 0

    def test_annealed_samples_of_a_bundled_instance(self):
        inst = pq.bundled_instance("press-03x2")
        for variant in VARIANTS:
            q = pq.build_qubo(inst, variant)
            samples = pq.simulated_anneal(q, pq.SaConfig(steps=200, restarts=100), [1])[0]
            assert score_samples(samples, inst, q) == score_samples_reference(samples, inst, q)


class TestFallbacks:
    def test_costs_beyond_int64_scaling(self, tiny):
        big = with_costs(tiny, {k: c * 2**41 for k, c in tiny.cost.items()})
        assert model._scaled_int_arrays(big) is None
        q = pq.build_qubo(big, VARIANTS[0])
        samples = mixed_samples(big, q, np.random.default_rng(0), rows=16)
        fast = score_samples(samples, big, q)
        assert fast == score_samples_reference(samples, big, q)
        assert fast.n_valid > 0

    def test_foreign_machine_id_raises_like_the_reference(self, tiny):
        rename = {"m1": "m1", "m2": "zz"}
        foreign = Instance(
            id="foreign", toolkits=tiny.toolkits, machines=("m1", "zz"),
            cost={(t, rename[m]): c for (t, m), c in tiny.cost.items()},
            workload={(t, rename[m]): w for (t, m), w in tiny.workload.items()},
            capacity={rename[m]: h for m, h in tiny.capacity.items()},
        )
        q = pq.build_qubo(foreign, VARIANTS[0])
        choice = {"t1": "m1", "t2": "zz"}
        bits = pq.encode_assignment(q, choice, pq.residual_slack(foreign, choice))
        samples = SampleSet(entries=(SampleEntry(bits, 0.0, 3),))
        with pytest.raises(ValueError) as ref:
            score_samples_reference(samples, tiny, q)
        with pytest.raises(ValueError) as fast:
            score_samples(samples, tiny, q)
        assert str(fast.value) == str(ref.value)
        assert "unknown ids" in str(fast.value)

    def test_empty_set(self, tiny):
        q = pq.build_qubo(tiny, VARIANTS[0])
        empty = SampleSet(entries=())
        assert score_samples(empty, tiny, q) == score_samples_reference(empty, tiny, q)
        assert score_samples(empty, tiny, q) == ScoredSamples(total=0, valid=())

    @pytest.mark.parametrize("make", [lambda n: "01", lambda n: "2" + "0" * (n - 1),
                                      lambda n: " " + "1" * (n - 1)])
    def test_malformed_bits_raise_like_the_reference(self, tiny, make):
        q = pq.build_qubo(tiny, VARIANTS[0])
        samples = SampleSet(entries=(SampleEntry("0" * q.n, 0.0, 1),
                                     SampleEntry(make(q.n), 0.0, 1)))
        with pytest.raises(ValueError) as ref:
            score_samples_reference(samples, tiny, q)
        with pytest.raises(ValueError) as fast:
            score_samples(samples, tiny, q)
        assert str(fast.value) == str(ref.value)


class TestStates:
    def test_matrix_in_entry_order(self):
        samples = SampleSet(entries=(SampleEntry("0110", 0.0, 2), SampleEntry("1001", 1.0, 1)))
        states = samples.states()
        assert states.dtype == np.uint8
        np.testing.assert_array_equal(states, [[0, 1, 1, 0], [1, 0, 0, 1]])

    def test_empty_set(self):
        assert SampleSet(entries=()).states().shape == (0, 0)

    @pytest.mark.parametrize("rows", [("01", "011"), ("012",), ("0/1",), ("0a",), ("é0",)])
    def test_rejects_malformed_entries(self, rows):
        samples = SampleSet(entries=tuple(SampleEntry(b, 0.0, 1) for b in rows))
        with pytest.raises(ValueError):
            samples.states()


def test_zero_cost_optimum_scores_ratio_one():
    # Both toolkits cost nothing on machine m, which holds them both.
    inst = Instance(
        id="free", toolkits=("a", "b"), machines=("m", "n"),
        cost={("a", "m"): 0, ("b", "m"): 0, ("a", "n"): 3, ("b", "n"): 5},
        workload={(t, m): 1 for t in ("a", "b") for m in ("m", "n")},
        capacity={"m": 2, "n": 2},
    )
    reference = model.exact_solve(inst)
    assert reference.cost == 0
    cell = SweepCell("free.json", pq.RoundedVariant(), "sa",
                     {"steps": 200, "restarts": 20}, 0, False)
    record = run_cell(cell, inst, reference)
    assert record.error is None
    assert record.best_valid_cost == 0
    assert record.best_cost_ratio == 1.0
    assert ScoredSamples(total=1, valid=((1, Fraction(0)),)).best_cost_ratio(0) == 1


class TestSpectrumPeakBytes:
    def test_estimate_at_the_guard(self):
        # energies (8 B) + minimum mask (1 B) + worst-case index array (8 B) per state
        assert spectrum_peak_bytes(26) == (8 + 1 + 8) * 2**26 == 1088 * 2**20

    def test_guard_messages_carry_the_estimate(self):
        q = Qubo(n=27, coeffs={}, offset=0)  # nothing of size 2^27 is allocated
        with pytest.raises(TooLarge, match=r"2\^26 guard .*about 2\.1 GiB"):
            full_spectrum(q)
        # brute force is guarded by the full spectrum it runs first
        with pytest.raises(TooLarge, match=r"full spectrum of 27 variables .*about 2\.1 GiB"):
            brute_force_qubo(q)

import hashlib
import json
import re
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pressqubo as pq
from pressqubo.qubo import (
    VARIANT_KINDS,
    Qubo,
    as_dense,
    flip_delta,
    full_spectrum,
    index_to_bits,
    minimum_states,
    variant_grid,
)

from conftest import reference_optimum, reference_raw_energy

LAM_M = Fraction(1000)
LAM_T = Fraction(10**7)

# Every variant of the default grids: 9 raw, 2 scaled, 1 rounded.
DEFAULT_VARIANTS = tuple(v for kind in VARIANT_KINDS
                         for v in variant_grid(kind, VARIANT_KINDS[kind][1]))

# "<instance> <variant label>" -> sha256 of the coefficient file and of
# its sidecar, for every bundled instance and the variants of
# TestQuboIO.test_roundtrip_every_bundled_instance_and_variant.
COMPILED_SHA256 = json.loads((Path(__file__).parent / "compiled_sha256.json").read_text())


def all_bits(n):
    return ("".join(row) for row in product("01", repeat=n))


def subset_sums(values):
    reachable = 1  # bitset: bit v set <=> v is a subset sum
    for v in values:
        reachable |= reachable << v
    return reachable


class TestSlackEncoding:
    @pytest.mark.parametrize("h,count", [(0, 0), (1, 1), (7, 3), (10, 4), (255, 8)])
    def test_bit_count(self, h, count):
        assert pq.slack_bit_count(h) == count

    @pytest.mark.parametrize(
        "h,weights", [(1, (1,)), (7, (1, 2, 4)), (10, (1, 2, 4, 3)), (0, ())]
    )
    def test_weights(self, h, weights):
        assert pq.slack_coefficients(h) == weights

    def test_subset_sums_cover_exactly(self):
        for h in range(1, 257):
            weights = pq.slack_coefficients(h)
            assert len(weights) == pq.slack_bit_count(h)
            assert subset_sums(weights) == (1 << (h + 1)) - 1

    @given(h=st.integers(1, 2048))
    def test_subset_sums_property(self, h):
        assert subset_sums(pq.slack_coefficients(h)) == (1 << (h + 1)) - 1

    def test_non_integral_rejected(self):
        with pytest.raises(ValueError):
            pq.slack_bit_count(Fraction(3, 2))


class TestValueRange:
    def test_interval_width_matches_enumeration(self):
        coeffs = [Fraction(1), Fraction(2), Fraction(2), Fraction(1)]
        values = [
            sum(c * b for c, b in zip(coeffs, bits))
            for bits in product((0, 1), repeat=len(coeffs))
        ]
        assert pq.value_range(coeffs) == max(values) - min(values) == 6

    def test_single_and_empty(self):
        assert pq.value_range([Fraction(5)]) == 5
        assert pq.value_range([]) == 0
        assert pq.value_range([Fraction(0), Fraction(0)]) == 0

    @given(st.lists(st.fractions(min_value=-50, max_value=50), max_size=8))
    def test_matches_hypercube_bounds(self, coeffs):
        values = [
            sum((c * b for c, b in zip(coeffs, bits)), Fraction(0))
            for bits in product((0, 1), repeat=len(coeffs))
        ]
        assert pq.value_range(coeffs) == max(values) - min(values)


class TestBuildRaw:
    def test_variable_count(self, tiny):
        for variant in (pq.RawVariant(LAM_M, LAM_T), pq.ScaledVariant(Fraction(1)),
                        pq.RoundedVariant()):
            assert pq.build_qubo(tiny, variant).n == 6

    def test_energy_matches_direct_formula_everywhere(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        for bits in all_bits(q.n):
            assert pq.qubo_energy(q, bits) == reference_raw_energy(tiny, LAM_M, LAM_T, bits)

    def test_all_zeros_energy(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert pq.qubo_energy(q, "0" * 6) == 2 * 10**7 + 2 * 1000

    def test_minimum_decodes_to_optimum(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        best_bits = min(all_bits(q.n), key=lambda b: (pq.qubo_energy(q, b), b))
        decoded = pq.decode(q, best_bits)
        assignment = decoded.as_assignment()
        assert assignment.choice == {"t1": "m1", "t2": "m2"}
        assert decoded.slack == {"m1": 0, "m2": 0}
        assert pq.qubo_energy(q, best_bits) == 2

    def test_feasible_encoding_has_pure_cost_energy(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        for choice in ({"t1": "m1", "t2": "m2"}, {"t1": "m2", "t2": "m1"}):
            bits = pq.encode_assignment(q, choice, pq.residual_slack(tiny, choice))
            assert pq.qubo_energy(q, bits) == pq.solution_cost(tiny, pq.Assignment(choice))

    @pytest.mark.parametrize("shape", [None, (2, 2, 3, 4), (2, 2, 2, 6)])
    def test_separation_of_infeasible_states(self, tiny, shape):
        # with both penalties above the total cost, every state that is not
        # a zero-penalty encoding (feasible assignment plus exactly
        # complementary slack) sits strictly above every state that is
        inst = tiny if shape is None else pq.sanitize_instance(pq.generate_instance(*shape))
        total_cost = sum(inst.cost.values())
        q = pq.build_qubo(inst, pq.RawVariant(total_cost + 1, total_cost + 1))
        encoded_energies = []
        other_energies = []
        for bits in all_bits(q.n):
            decoded = pq.decode(q, bits)
            a = decoded.as_assignment()
            is_encoding = (
                a is not None
                and pq.validate_assignment(inst, a).feasible
                and decoded.slack == pq.residual_slack(inst, a.choice)
            )
            e = pq.qubo_energy(q, bits)
            (encoded_energies if is_encoding else other_energies).append(e)
        assert encoded_energies
        assert min(other_energies) > max(encoded_energies)

    def test_deterministic(self, tiny):
        a = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        b = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        assert a.coeffs == b.coeffs and a.offset == b.offset

    def test_rejects_unsanitized(self):
        inst = pq.Instance(
            id="x", toolkits=("a",), machines=("b",),
            cost={("a", "b"): Fraction(1)},
            workload={("a", "b"): Fraction(3, 2)},
            capacity={"b": Fraction(2)},
        )
        with pytest.raises(ValueError):
            pq.build_qubo(inst, pq.RawVariant(LAM_M, LAM_T))

    def test_rejects_nonpositive_penalties(self):
        with pytest.raises(ValueError):
            pq.RawVariant(Fraction(0), LAM_T)
        with pytest.raises(ValueError):
            pq.ScaledVariant(Fraction(-1))

    def test_variants_read_numbers_as_plans_do(self):
        assert pq.ScaledVariant(0.1) == pq.qubo.variant_grid("scaled", {"ls": [0.1]})[0]
        assert pq.ScaledVariant(0.1).assignment_scale == Fraction(1, 10)
        assert pq.RawVariant("1e3", 10**7) == pq.RawVariant(Fraction(1000), Fraction(10**7))

    @pytest.mark.parametrize("args", [(True, 1), (1, "x"), (1, float("nan")), (1, "1/0")])
    def test_rejects_what_plans_reject(self, args):
        with pytest.raises(ValueError):
            pq.RawVariant(*args)

    def test_nonpositive_error_names_kind_and_label(self):
        named = "raw variant parameter lt (toolkit penalty) must be positive, got -2"
        with pytest.raises(ValueError, match=re.escape(named)):
            pq.RawVariant(1, -2)


def reference_scaled_energy(inst, scale, bits, rounded=False):
    """Scaled-pipeline energy recomputed from scratch.

    Value ranges are taken as exact interval widths by enumerating each
    term over its own variables, independently of the production code.
    """
    def width(coeffs):
        values = [
            sum((c * b for c, b in zip(coeffs, pattern)), Fraction(0))
            for pattern in product((0, 1), repeat=len(coeffs))
        ]
        return max(values) - min(values)

    cost = dict(inst.cost)
    if rounded:
        c_min = min(c for c in cost.values() if c > 0)
        cost = {k: Fraction(int(c // c_min)) if c > 0 else Fraction(0)
                for k, c in cost.items()}
    T, M = inst.n_toolkits, inst.n_machines
    x = {}
    for i, t in enumerate(inst.toolkits):
        for j, m in enumerate(inst.machines):
            x[t, m] = int(bits[i * M + j])
    pos = T * M
    slack_value = {}
    slack_weights = {}
    for m in inst.machines:
        h = int(inst.capacity[m])
        weights = []
        if h > 0:
            r = h.bit_length() - 1
            weights = [2**j for j in range(r)] + [h - 2**r + 1]
        slack_weights[m] = weights
        slack_value[m] = sum(w * int(bits[pos + k]) for k, w in enumerate(weights))
        pos += len(weights)

    v_obj = width(list(cost.values()))
    v_assign = width([scale] * M)
    v_cap = {
        m: width([inst.workload[t, m] for t in inst.toolkits]
                 + [Fraction(w) for w in slack_weights[m]])
        for m in inst.machines
    }
    v_max = max([v_obj, v_assign, *v_cap.values()])

    energy = Fraction(0)
    if v_obj > 0:
        energy += (v_max / v_obj) * sum(
            cost[t, m] * x[t, m] for t in inst.toolkits for m in inst.machines
        )
    for t in inst.toolkits:
        lhs = scale * (sum(x[t, m] for m in inst.machines) - 1)
        energy += ((v_max / v_assign) * lhs) ** 2
    for m in inst.machines:
        if v_cap[m] == 0:
            continue
        load = sum(inst.workload[t, m] * x[t, m] for t in inst.toolkits)
        lhs = load + slack_value[m] - inst.capacity[m]
        energy += ((v_max / v_cap[m]) * lhs) ** 2
    return energy


def two_by_two(cost, workload, capacity):
    """A 2 x 2 instance from row-major cost and workload lists."""
    keys = [(t, m) for t in ("t1", "t2") for m in ("m1", "m2")]
    return pq.Instance(id="edge", toolkits=("t1", "t2"), machines=("m1", "m2"),
                       cost=dict(zip(keys, cost)), workload=dict(zip(keys, workload)),
                       capacity=dict(zip(("m1", "m2"), capacity)))


@pytest.fixture(params=["tiny", "vacuous-machine", "zero-capacity-load"])
def formula_instance(request, tiny):
    """``tiny``, and two instances with a capacity term at an edge: a
    vacuous machine (capacity 0, no workload), and a machine of capacity
    0 that a toolkit still loads, so its range is its workload alone."""
    if request.param == "vacuous-machine":
        return two_by_two([3, 5, 7, 2], [1, 0, 2, 0], [2, 0])
    if request.param == "zero-capacity-load":
        return two_by_two([3, 5, 7, 2], [1, 3, 2, 0], [3, 0])
    return tiny


class TestBuildScaledAndRounded:
    @pytest.mark.parametrize("scale", [Fraction(1), Fraction(1, 10)])
    def test_scaled_energy_matches_direct_formula(self, formula_instance, scale):
        q = pq.build_qubo(formula_instance, pq.ScaledVariant(scale))
        for bits in all_bits(q.n):
            assert pq.qubo_energy(q, bits) == reference_scaled_energy(
                formula_instance, scale, bits)

    def test_rounded_energy_matches_direct_formula(self, formula_instance):
        q = pq.build_qubo(formula_instance, pq.RoundedVariant())
        for bits in all_bits(q.n):
            assert pq.qubo_energy(q, bits) == reference_scaled_energy(
                formula_instance, Fraction(1), bits, rounded=True
            )

    def test_rounded_divides_costs_by_minimum(self):
        inst = pq.sanitize_instance(pq.generate_instance(2, 2, 3, 1))
        q = pq.build_qubo(inst, pq.RoundedVariant())
        c_min = min(c for c in inst.cost.values() if c > 0)
        rounded = {k: int(c // c_min) for k, c in inst.cost.items()}
        assert min(v for v in rounded.values() if v > 0) == 1
        # the encoded feasible assignments carry the rescaled costs exactly
        opt_cost, choice = reference_optimum(inst)
        bits = pq.encode_assignment(q, choice, pq.residual_slack(inst, choice))
        v_obj = pq.value_range([Fraction(v) for v in rounded.values()])
        v_assign = Fraction(inst.n_machines)
        v_caps = [
            pq.value_range(
                [inst.workload[t, m] for t in inst.toolkits]
                + [Fraction(w) for w in q.varmap.slack_weights[m]]
            )
            for m in inst.machines
        ]
        v_max = max([v_obj, v_assign, *v_caps])
        expected = (v_max / v_obj) * sum(
            Fraction(rounded[t, m]) for t, m in choice.items()
        )
        assert pq.qubo_energy(q, bits) == expected

    def test_feasible_encoding_carries_rescaled_cost_only(self, tiny):
        # zero penalty at exact slack: energy is the objective rescaled by
        # largest-range / objective-range
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        v_obj = pq.value_range(list(tiny.cost.values()))
        v_caps = [
            pq.value_range(
                [tiny.workload[t, m] for t in tiny.toolkits]
                + [Fraction(w) for w in q.varmap.slack_weights[m]]
            )
            for m in tiny.machines
        ]
        v_max = max([v_obj, Fraction(tiny.n_machines), *v_caps])
        for choice in ({"t1": "m1", "t2": "m2"}, {"t1": "m2", "t2": "m1"}):
            bits = pq.encode_assignment(q, choice, pq.residual_slack(tiny, choice))
            cost = pq.solution_cost(tiny, pq.Assignment(choice))
            assert pq.qubo_energy(q, bits) == cost * v_max / v_obj

    def test_rounded_needs_positive_cost(self):
        inst = pq.Instance(
            id="z", toolkits=("a",), machines=("b",),
            cost={("a", "b"): Fraction(0)},
            workload={("a", "b"): Fraction(1)},
            capacity={"b": Fraction(1)},
        )
        with pytest.raises(ValueError):
            pq.build_qubo(inst, pq.RoundedVariant())

    def test_grid_sizes(self):
        sizes = {kind: len(variant_grid(kind, VARIANT_KINDS[kind][1])) for kind in VARIANT_KINDS}
        assert sizes == {"raw": 9, "scaled": 2, "rounded": 1}

    @pytest.mark.parametrize("variant", DEFAULT_VARIANTS, ids=pq.qubo.variant_label)
    def test_every_grid_variant_round_trips_through_variant_grid(self, variant):
        grids = {label: [value] for label, value in variant.params()}
        assert pq.qubo.variant_grid(variant.kind, grids) == [variant]

    def test_variant_grid_names_a_missing_parameter(self):
        with pytest.raises(ValueError, match="'lt'"):
            pq.qubo.variant_grid("raw", {"lm": [1]})


class TestEnergyAndNormalize:
    def test_all_zeros_is_offset(self):
        q = Qubo(n=3, coeffs={(0, 1): Fraction(4)}, offset=Fraction(7, 2))
        assert pq.qubo_energy(q, "000") == Fraction(7, 2)

    def test_diagonal_entry(self):
        q = Qubo(n=2, coeffs={(0, 0): Fraction(5)}, offset=Fraction(1))
        assert pq.qubo_energy(q, "10") == 6
        assert pq.qubo_energy(q, "01") == 1

    def test_pair_entry(self):
        q = Qubo(n=2, coeffs={(0, 1): Fraction(3)}, offset=Fraction(2))
        assert pq.qubo_energy(q, "11") == 5
        assert pq.qubo_energy(q, "10") == 2

    def test_length_mismatch(self):
        q = Qubo(n=2, coeffs={(0, 1): Fraction(3)}, offset=Fraction(0))
        with pytest.raises(ValueError):
            pq.qubo_energy(q, "111")

    def test_normalize_scales_by_max_abs(self):
        q = Qubo(n=2, coeffs={(0, 0): Fraction(-10), (0, 1): Fraction(5)}, offset=Fraction(4))
        normed = pq.normalize_qubo(q)
        assert normed.coeffs == {(0, 0): Fraction(-1), (0, 1): Fraction(1, 2)}
        assert normed.offset == Fraction(2, 5)
        assert normed.max_abs_coefficient() == 1

    def test_normalize_identity_when_unit_scale(self):
        q = Qubo(n=1, coeffs={(0, 0): Fraction(1)}, offset=Fraction(3))
        assert pq.normalize_qubo(q).coeffs == q.coeffs

    def test_normalize_rejects_zero(self):
        with pytest.raises(ValueError):
            pq.normalize_qubo(Qubo(n=2, coeffs={}, offset=Fraction(1)))

    def test_normalize_preserves_minimizers(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        before = minimum_states(q)[0]
        after = minimum_states(pq.normalize_qubo(q))[0]
        assert before == after

    def test_zero_coefficients_stripped(self):
        q = Qubo(n=2, coeffs={(0, 0): Fraction(0), (0, 1): Fraction(1)}, offset=Fraction(0))
        assert (0, 0) not in q.coeffs

    def test_bad_keys_rejected(self):
        with pytest.raises(ValueError):
            Qubo(n=2, coeffs={(1, 0): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(ValueError):
            Qubo(n=2, coeffs={(0, 2): Fraction(1)}, offset=Fraction(0))


class TestFullSpectrum:
    @settings(deadline=None, max_examples=25)
    @given(data=st.data())
    def test_matches_pointwise_exact_energies(self, data):
        n = data.draw(st.integers(1, 7))
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        rational = data.draw(st.booleans())
        coeffs = {}
        for k in keys:
            num = data.draw(st.integers(-60, 60), label=str(k))
            if num == 0:
                continue
            den = data.draw(st.integers(1, 9)) if rational else 1
            coeffs[k] = Fraction(num, den)
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(data.draw(st.integers(-9, 9))))
        spectrum = full_spectrum(q)
        for k in range(1 << n):
            exact = pq.qubo_energy(q, index_to_bits(k, n))
            if rational:
                # abs floor covers float cancellation on near-zero energies
                assert spectrum[k] == pytest.approx(float(exact), rel=1e-12, abs=1e-9)
            else:
                assert spectrum[k] == exact

    def test_odd_and_even_counts_cover_split_halves(self, tiny):
        for variant in (pq.RawVariant(LAM_M, LAM_T), pq.ScaledVariant(Fraction(1))):
            q = pq.build_qubo(tiny, variant)  # n = 6
            spectrum = full_spectrum(q)
            for k in (0, 1, 21, 42, 63):
                assert spectrum[k] == pytest.approx(
                    float(pq.qubo_energy(q, index_to_bits(k, q.n))), rel=1e-12
                )
        single = Qubo(n=1, coeffs={(0, 0): Fraction(-2)}, offset=Fraction(1))
        assert full_spectrum(single).tolist() == [1, -1]


class TestDenseMirror:
    def variants(self, tiny):
        return [pq.build_qubo(tiny, v) for v in
                (pq.RawVariant(LAM_M, LAM_T), pq.ScaledVariant(Fraction(1, 10)),
                 pq.RoundedVariant())]

    def test_built_once_per_qubo(self, tiny):
        for q in self.variants(tiny):
            assert as_dense(q) is as_dense(q)

    def test_cached_arrays_equal_a_fresh_build(self, tiny):
        for q in self.variants(tiny):
            cached = as_dense(q)
            fresh = as_dense(Qubo(n=q.n, coeffs=q.coeffs, offset=q.offset))
            assert fresh is not cached
            assert (cached.linear == fresh.linear).all()
            assert (cached.couplings == fresh.couplings).all()
            assert (cached.flip_guard == fresh.flip_guard).all()
            assert (cached.offset, cached.int_exact, cached.energy_guard) == (
                fresh.offset, fresh.int_exact, fresh.energy_guard)

    def test_cached_arrays_are_read_only(self, tiny):
        dense = as_dense(self.variants(tiny)[1])
        for array in (dense.linear, dense.couplings, dense.flip_guard):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_cache_is_invisible_to_equality_repr_and_files(self, tiny, tmp_path):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        twin = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        pq.save_qubo(q, tmp_path / "before.coo")
        before_repr = repr(q)
        as_dense(q)
        flip_delta(q, 0, [0] * q.n)
        assert q == twin
        assert repr(q) == before_repr
        pq.save_qubo(q, tmp_path / "after.coo")
        assert (tmp_path / "before.coo").read_text() == (tmp_path / "after.coo").read_text()


class TestFloatRange:
    def test_energies_at_the_bound_stay_finite(self):
        # The symmetric mirror counts a coupling twice: 1e308 alone overflows.
        with pytest.raises(ValueError, match="float64"):
            as_dense(Qubo(n=2, coeffs={(0, 1): Fraction(10**308)}, offset=0))
        q = Qubo(n=2, coeffs={(0, 1): Fraction(sys.float_info.max) / 4}, offset=0)
        energies = pq.qubo.dense_energies(as_dense(q), np.ones((1, 2)))
        assert np.isfinite(energies).all()
        assert float(pq.qubo_energy(q, "11")) == energies[0]



def random_int_map(rng, n, scale):
    """A map on every pair with integer coefficients in [-scale, scale]."""
    coeffs = {(i, j): Fraction(int(rng.integers(-scale, scale + 1)))
              for i in range(n) for j in range(i, n)}
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-scale, scale + 1))))


class TestIntExactEnergies:
    """The GEMM energies of int-exact maps against the einsum reference."""

    @staticmethod
    def assert_same_floats(q, states):
        dense = as_dense(q)
        assert dense.int_exact
        fast = pq.qubo.dense_energies(dense, states)
        ref = pq.qubo.dense_energies_reference(dense, states)
        assert [repr(e) for e in fast.tolist()] == [repr(e) for e in ref.tolist()]
        assert fast.tobytes() == ref.tobytes()
        for row, e in zip(states, fast):
            assert e == float(pq.qubo_energy(q, "".join(str(int(b)) for b in row)))
        return fast

    @pytest.mark.parametrize("seed", range(6))
    def test_random_maps_with_negative_coefficients(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        q = random_int_map(rng, n, scale=int(rng.choice([3, 1000, 10**9])))
        assert any(c < 0 for c in q.coeffs.values())
        states = rng.integers(0, 2, size=(int(rng.integers(1, 200)), n), dtype=np.int8)
        self.assert_same_floats(q, states)

    @pytest.mark.parametrize("n", [2, 7, 30])
    def test_magnitudes_just_below_the_exact_bound(self, n):
        rng = np.random.default_rng(n)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        # abs_total = (pairs + 1) * c, the largest below 2**52
        c = (2**52 - 1) // (len(pairs) + 1)
        coeffs = {pair: Fraction(c * int(rng.choice([-1, 1]))) for pair in pairs}
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(-c))
        assert 2**52 - (len(pairs) + 1) <= (len(pairs) + 1) * c < 2**52
        states = rng.integers(0, 2, size=(300, n), dtype=np.int8)
        self.assert_same_floats(q, np.vstack([states, np.ones((1, n)), np.zeros((1, n))]))

    def test_zero_energies_are_positive_zero(self):
        # Negative couplings times zero bits give -0.0 terms; every energy
        # of this map is 0 on the states below.
        q = Qubo(n=3, coeffs={(0, 0): Fraction(-3), (0, 1): Fraction(3), (1, 2): Fraction(-4),
                              (2, 2): Fraction(4)}, offset=Fraction(0))
        states = np.array([[0, 0, 0], [1, 1, 0], [0, 1, 0], [0, 1, 1], [1, 1, 1]])
        energies = self.assert_same_floats(q, states)
        assert [repr(e) for e in energies.tolist()] == ["0.0"] * 5
        shifted = Qubo(n=2, coeffs={(0, 0): Fraction(5), (0, 1): Fraction(-2)},
                       offset=Fraction(-5))
        assert repr(self.assert_same_floats(shifted, np.array([[1, 0]])).tolist()[0]) == "0.0"

    def test_only_int_exact_maps_skip_the_reference(self, monkeypatch):
        def refused(dense, states):
            raise AssertionError("the einsum reference ran")

        ints = random_int_map(np.random.default_rng(0), 5, scale=9)
        halves = Qubo(n=2, coeffs={(0, 1): Fraction(1, 2)}, offset=Fraction(0))
        monkeypatch.setattr(pq.qubo, "dense_energies_reference", refused)
        pq.qubo.dense_energies(as_dense(ints), np.ones((2, 5)))
        with pytest.raises(AssertionError, match="reference ran"):
            pq.qubo.dense_energies(as_dense(halves), np.ones((2, 2)))


class TestFlipDelta:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_matches_difference_of_exact_energies(self, data):
        n = data.draw(st.integers(1, 7))
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        coeffs = {
            k: data.draw(st.fractions(min_value=-20, max_value=20, max_denominator=6),
                         label=str(k))
            for k in data.draw(st.sets(st.sampled_from(keys), max_size=len(keys)))
        }
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(1, 7))
        bits = data.draw(st.text(alphabet="01", min_size=n, max_size=n))
        x = [int(b) for b in bits]
        for i in range(n):
            flipped = bits[:i] + ("0" if bits[i] == "1" else "1") + bits[i + 1:]
            assert flip_delta(q, i, x) == pq.qubo_energy(q, flipped) - pq.qubo_energy(q, bits)


class TestVariableMap:
    def test_layout_is_derived_from_names_and_slack_weights(self):
        vm = pq.VariableMap(("a", "b"), ("x", "y"), {"x": (1, 2), "y": ()})
        assert vm.n == 6
        assert vm.decision_index == {("a", "x"): 0, ("a", "y"): 1, ("b", "x"): 2, ("b", "y"): 3}
        assert vm.slack_index == {("x", 0): 4, ("x", 1): 5}

    @pytest.mark.parametrize("toolkits, machines", [
        (("a", "a"), ("x",)),
        (("a",), ("x", "x")),
        ((), ("x",)),
        ((1,), ("x",)),
    ])
    def test_repeated_empty_or_non_string_names_are_refused(self, toolkits, machines):
        with pytest.raises(ValueError, match="distinct string names"):
            pq.VariableMap(toolkits, machines, dict.fromkeys(machines, ()))

    def test_choices_gather_the_decision_bits_in_the_order_asked(self):
        vm = pq.VariableMap(("a", "b", "c"), ("x", "y"), {"x": (1, 2), "y": (1,)})
        states = np.random.default_rng(5).integers(0, 2, size=(7, vm.n), dtype=np.uint8)
        gather = np.array([[vm.decision_index[t, m] for m in vm.machines] for t in vm.toolkits])
        assert np.array_equal(vm.choices(states), states[:, gather])
        assert np.array_equal(vm.choices(states, ("c", "b", "a"), ("y", "x")),
                              states[:, gather[::-1, ::-1]])
        assert vm.choices(states[:0]).shape == (0, 3, 2)
        with pytest.raises(KeyError):
            vm.choices(states, ("a", "d"))


class TestDecode:
    def test_direct_index_map(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        bits = pq.encode_assignment(q, {"t1": "m1", "t2": "m2"})
        decoded = pq.decode(q, bits)
        assert decoded.as_assignment().choice == {"t1": "m1", "t2": "m2"}

    def test_all_zeros_invalid_candidate(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        decoded = pq.decode(q, "0" * q.n)
        assert decoded.as_assignment() is None
        assert all(ms == frozenset() for ms in decoded.candidate.values())

    def test_slack_weights_sum(self):
        inst = pq.Instance(
            id="s", toolkits=("a",), machines=("b",),
            cost={("a", "b"): Fraction(1)},
            workload={("a", "b"): Fraction(1)},
            capacity={"b": Fraction(10)},
        )
        q = pq.build_qubo(inst, pq.RawVariant(LAM_M, LAM_T))
        # decision bit then slack digits (weights 1, 2, 4, 3): pattern 1101
        decoded = pq.decode(q, "0" + "1101")
        assert decoded.slack["b"] == 1 + 2 + 0 + 3

    def test_slack_within_bounds(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        for k in range(1 << q.n):
            decoded = pq.decode(q, index_to_bits(k, q.n))
            for m in tiny.machines:
                assert 0 <= decoded.slack[m] <= tiny.capacity[m]

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_encode_decode_roundtrip(self, data):
        try:
            inst = pq.sanitize_instance(
                pq.generate_instance(
                    data.draw(st.integers(1, 4)),
                    data.draw(st.integers(1, 3)),
                    data.draw(st.integers(2, 5)),
                    data.draw(st.integers(0, 100)),
                )
            )
        except pq.GenerationFailed:
            assume(False)  # shape too tight to populate; skip the draw
            return
        q = pq.build_qubo(inst, pq.RoundedVariant())
        choice = {
            t: data.draw(st.sampled_from(inst.machines), label=f"machine for {t}")
            for t in inst.toolkits
        }
        slack = {
            m: data.draw(st.integers(0, int(inst.capacity[m])), label=f"slack {m}")
            for m in inst.machines
        }
        decoded = pq.decode(q, pq.encode_assignment(q, choice, slack))
        assert decoded.as_assignment().choice == choice
        assert decoded.slack == slack


class TestRandomInstanceOracleAgreement:
    def test_raw_minimizer_always_matches_exhaustive_optimum(self):
        # with both penalty weights above the total cost the raw
        # construction provably separates, so the check cannot be flaky
        for seed in range(15):
            inst = pq.sanitize_instance(pq.generate_instance(3, 2, 3, seed))
            total = sum(inst.cost.values())
            q = pq.build_qubo(inst, pq.RawVariant(total + 1, total + 1))
            bits, energy = pq.brute_force_qubo(q)
            assignment = pq.decode(q, bits).as_assignment()
            assert assignment is not None
            assert pq.validate_assignment(inst, assignment).feasible
            expected_cost, _ = reference_optimum(inst)
            assert pq.solution_cost(inst, assignment) == expected_cost
            assert energy == expected_cost  # zero penalty at the optimum


class TestEncodeErrors:
    def test_unrepresentable_slack_rejected(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        with pytest.raises(ValueError):
            pq.encode_assignment(q, {"t1": "m1", "t2": "m2"},
                                 {"m1": 2, "m2": 0})  # capacity is 1

    def test_a_map_without_a_layout_is_refused(self, tiny):
        q = pq.build_qubo(tiny, pq.RoundedVariant())
        bare = Qubo(n=q.n, coeffs=q.coeffs, offset=q.offset)
        with pytest.raises(ValueError, match="no variable map"):
            pq.encode_assignment(bare, {"t1": "m1", "t2": "m2"})

    def test_residual_slack_rejects_overload(self, tiny):
        with pytest.raises(ValueError):
            pq.residual_slack(tiny, {"t1": "m1", "t2": "m1"})


class TestQuboIO:
    def test_roundtrip_bit_exact(self, tiny, tmp_path):
        for variant in (pq.RawVariant(LAM_M, LAM_T), pq.ScaledVariant(Fraction(1, 10)),
                        pq.RoundedVariant()):
            q = pq.build_qubo(tiny, variant)
            path = tmp_path / f"{variant.kind}.coo"
            pq.save_qubo(q, path)
            loaded = pq.load_qubo(path)
            assert loaded.n == q.n
            assert loaded.coeffs == q.coeffs
            assert loaded.offset == q.offset
            assert loaded.varmap == q.varmap

    @pytest.mark.parametrize("name", sorted(pq.model.BUNDLED_SHAPES))
    def test_roundtrip_every_bundled_instance_and_variant(self, name, tmp_path):
        inst = pq.bundled_instance(name)
        off_grid = (pq.RawVariant(7, 123456), pq.ScaledVariant(Fraction(3, 7)))
        changed = []
        for k, variant in enumerate(DEFAULT_VARIANTS + off_grid):
            q = pq.build_qubo(inst, variant)
            path = tmp_path / f"{k}.coo"
            pq.save_qubo(q, path)
            assert pq.load_qubo(path) == q  # n, coefficients, offset, varmap
            key = f"{name} {pq.qubo.variant_label(variant)}"
            digests = [hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (path, pq.qubo.sidecar_path(path))]
            changed += [f"{key}: {kind}" for kind, got, want in
                        zip(("coefficient file", "sidecar"), digests, COMPILED_SHA256[key])
                        if got != want]
        assert not changed, f"differ from tests/compiled_sha256.json: {changed}"

    def test_saving_without_a_layout_removes_the_old_sidecar(self, tmp_path):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
        path = tmp_path / "q.coo"
        pq.save_qubo(q, path)
        assert pq.qubo.sidecar_path(path).exists()
        bare = Qubo(n=q.n, coeffs=q.coeffs, offset=q.offset)
        pq.save_qubo(bare, path)
        assert not pq.qubo.sidecar_path(path).exists()
        assert pq.load_qubo(path) == bare

    def test_loads_without_sidecar(self, tmp_path):
        path = tmp_path / "bare.coo"
        path.write_text("2 1/3\n0 0 -5\n0 1 7/2\n")
        q = pq.load_qubo(path)
        assert q.offset == Fraction(1, 3)
        assert q.coeffs == {(0, 0): Fraction(-5), (0, 1): Fraction(7, 2)}
        assert q.varmap is None

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("2\n")
        with pytest.raises(ValueError):
            pq.load_qubo(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_rejects_an_empty_file(self, tmp_path, text):
        path = tmp_path / "empty.coo"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty coefficient file"):
            pq.load_qubo(path)

    def test_rejects_sidecar_of_another_size(self, tiny, tmp_path):
        path = tmp_path / "q.coo"
        pq.save_qubo(pq.build_qubo(tiny, pq.RoundedVariant()), path)
        n, offset = path.read_text().splitlines()[0].split()
        text = path.read_text().replace(f"{n} {offset}", f"{int(n) + 1} {offset}", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="variables"):
            pq.load_qubo(path)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_roundtrip_random_rationals(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 8))
        keys = [(i, j) for i in range(n) for j in range(i, n)]
        coeffs = {
            k: data.draw(st.fractions(min_value=-100, max_value=100), label=str(k))
            for k in data.draw(st.sets(st.sampled_from(keys), max_size=len(keys)))
        }
        q = Qubo(n=n, coeffs=coeffs,
                 offset=data.draw(st.fractions(min_value=-10, max_value=10)))
        path = tmp_path_factory.mktemp("io") / "q.coo"
        pq.save_qubo(q, path)
        loaded = pq.load_qubo(path)
        assert loaded.n == q.n
        assert loaded.coeffs == q.coeffs
        assert loaded.offset == q.offset


def int_map_at_the_exact_bound(rng, n):
    """An integer map on every pair whose coefficient and offset magnitudes
    sum to 2**52 - 1, the largest total ``as_dense`` calls int-exact."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    top = (2**52 - 1) // (len(pairs) + 1)
    coeffs = {pair: Fraction(int(rng.integers(1, top + 1)) * int(rng.choice([-1, 1])))
              for pair in pairs}
    rest = 2**52 - 1 - sum(abs(c) for c in coeffs.values())
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(rest * int(rng.choice([-1, 1]))))


class TestFullSpectrumIsFloat64:
    """Every map's spectrum takes the float64 path; int-exact maps stay exact."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 11])
    def test_int_maps_just_below_the_bound_are_exact_at_every_state(self, n):
        q = int_map_at_the_exact_bound(np.random.default_rng(n), n)
        assert sum(abs(c) for c in q.coeffs.values()) + abs(q.offset) == 2**52 - 1
        assert as_dense(q).int_exact
        spectrum = full_spectrum(q)
        assert spectrum.dtype == np.float64
        assert spectrum.shape == (1 << n,)
        for k, e in enumerate(spectrum.tolist()):
            assert Fraction(e) == pq.qubo_energy(q, index_to_bits(k, n))

    def test_rational_maps_are_float64_too(self):
        q = Qubo(n=3, coeffs={(0, 1): Fraction(1, 3), (2, 2): Fraction(-5, 7)}, offset=Fraction(1))
        assert full_spectrum(q).dtype == np.float64

    @pytest.mark.parametrize("seed", range(4))
    def test_int_minimum_set_never_evaluates_exactly(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        # Few distinct values, so the minimum is often tied.
        coeffs = {(i, j): Fraction(int(rng.integers(-2, 3)))
                  for i in range(n) for j in range(i, n)}
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-3, 4))))
        energies = [pq.qubo_energy(q, index_to_bits(k, n)) for k in range(1 << n)]
        best = min(energies)

        def refused(q, bits):
            raise AssertionError("qubo_energy ran")

        monkeypatch.setattr(pq.qubo, "qubo_energy", refused)
        ks, energy = minimum_states(q)
        assert ks == [k for k, e in enumerate(energies) if e == best]
        assert energy == best and type(energy) is Fraction
        halves = Qubo(n=2, coeffs={(0, 1): Fraction(1, 2)}, offset=Fraction(0))
        with pytest.raises(AssertionError, match="qubo_energy ran"):
            minimum_states(halves)

    def test_int_minimum_at_the_bound(self, monkeypatch):
        q = int_map_at_the_exact_bound(np.random.default_rng(7), 9)
        energies = [pq.qubo_energy(q, index_to_bits(k, 9)) for k in range(1 << 9)]
        monkeypatch.setattr(pq.qubo, "qubo_energy", None)
        assert minimum_states(q) == ([energies.index(min(energies))], min(energies))


class TestUnreachedInputChecks:
    def test_slack_bound_must_be_a_non_negative_integer(self):
        with pytest.raises(ValueError, match="capacity must be non-negative"):
            pq.slack_coefficients(-1)
        with pytest.raises(ValueError, match="capacity must be integral, got 2.5"):
            pq.slack_coefficients(2.5)

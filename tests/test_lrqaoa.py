import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import pressqubo as pq
from pressqubo.errors import SIZE_GUARD, TooLarge
from pressqubo import lrqaoa
from pressqubo.lrqaoa import RampSchedule, final_state, interaction_graph
from pressqubo.qubo import Qubo, as_dense, index_to_bits, minimum_states

LAM_M = Fraction(1000)
LAM_T = Fraction(10**7)


class TestSchedule:
    def test_single_layer_hits_both_slopes(self):
        sched = pq.lr_schedule(1, 0.9, 0.6)
        assert sched.gammas == (0.9,)
        assert sched.betas == (0.6,)

    def test_two_layers(self):
        sched = pq.lr_schedule(2, 0.9, 0.6)
        assert sched.gammas == pytest.approx((0.45, 0.9))
        assert sched.betas == pytest.approx((0.6, 0.3))

    @pytest.mark.parametrize("p", [1, 2, 5, 10, 100])
    def test_endpoints_and_monotonicity(self, p):
        sched = pq.lr_schedule(p, 0.9, 0.6)
        assert sched.gammas[-1] == pytest.approx(0.9)
        assert sched.betas[0] == pytest.approx(0.6)
        assert all(a < b for a, b in zip(sched.gammas, sched.gammas[1:]))
        assert all(a > b for a, b in zip(sched.betas, sched.betas[1:]))
        assert all(0 < g <= 0.9 + 1e-12 for g in sched.gammas)
        assert all(0 < b <= 0.6 + 1e-12 for b in sched.betas)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            pq.lr_schedule(0)
        with pytest.raises(ValueError):
            pq.lr_schedule(1, 0.0, 0.6)
        with pytest.raises(ValueError):
            pq.lr_schedule(1, 0.9, -0.1)

    @pytest.mark.parametrize("slopes", [(float("nan"), 0.6), (0.9, float("nan")),
                                        (float("inf"), 0.6), (0.9, float("inf"))])
    def test_slopes_must_be_finite(self, slopes):
        with pytest.raises(ValueError, match="finite and positive"):
            pq.lr_schedule(1, *slopes)


class TestDiagonal:
    def test_single_variable(self):
        q = Qubo(n=1, coeffs={(0, 0): Fraction(1)}, offset=Fraction(2))
        # already normalized (max coefficient magnitude 1)
        assert pq.precompute_diagonal(q).tolist() == [2.0, 3.0]

    def test_zero_rejected(self):
        q = Qubo(n=2, coeffs={}, offset=Fraction(1))
        with pytest.raises(ValueError):
            pq.precompute_diagonal(q)

    def test_guard(self):
        q = Qubo(n=27, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(TooLarge):
            pq.precompute_diagonal(q)

    def test_argmin_matches_brute_force(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        diag = pq.precompute_diagonal(q)
        bits, _ = pq.brute_force_qubo(q)
        assert index_to_bits(int(np.argmin(diag)), q.n) == bits

    def test_matches_normalized_exact_energies(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        diag = pq.precompute_diagonal(q)
        normed = pq.normalize_qubo(q)
        for k in (0, 1, 17, 43, 63):
            expected = float(pq.qubo_energy(normed, index_to_bits(k, q.n)))
            assert diag[k] == pytest.approx(expected, rel=1e-12)


class TestDiagonalCache:
    @staticmethod
    def build():
        return pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())

    def test_cache_is_invisible_to_equality_repr_and_file(self, tmp_path):
        q, copy = self.build(), self.build()
        text = repr(q)
        pq.save_qubo(q, tmp_path / "before.coo")
        lrqaoa.cost_factors(q)
        assert q == copy
        assert repr(q) == text
        pq.save_qubo(q, tmp_path / "after.coo")
        for suffix in ("", ".varmap.json"):
            before = (tmp_path / f"before.coo{suffix}").read_bytes()
            assert (tmp_path / f"after.coo{suffix}").read_bytes() == before

    def test_depths_share_one_spectrum_and_match_fresh_runs(self, monkeypatch):
        builds, spectra = [], []
        build, spectrum = lrqaoa._build_cost_factors, lrqaoa.full_spectrum

        def counting_build(q):
            builds.append(q.n)
            return build(q)

        def counting_spectrum(q):
            spectra.append(q.n)
            return spectrum(q)

        monkeypatch.setattr(lrqaoa, "_build_cost_factors", counting_build)
        monkeypatch.setattr(lrqaoa, "full_spectrum", counting_spectrum)
        q = self.build()
        one = pq.run_lrqaoa(q, pq.lr_schedule(1), shots=400, seeds=[3])[0]
        two = pq.run_lrqaoa(q, pq.lr_schedule(2), shots=400, seeds=[3])[0]
        assert builds == [q.n]
        assert spectra == [f.core + f.hi - f.lo for f in lrqaoa.cost_factors(q)]
        assert one == pq.run_lrqaoa(self.build(), pq.lr_schedule(1), shots=400, seeds=[3])[0]
        assert two == pq.run_lrqaoa(self.build(), pq.lr_schedule(2), shots=400, seeds=[3])[0]
        assert len(builds) == 3


def one_factor(diag):
    """The cost-factor set that applies the full diagonal ``diag``."""
    return (lrqaoa.CostFactor(0, 0, len(diag).bit_length() - 1, diag),)


class TestLayers:
    def test_cost_layer_zero_angle_is_identity(self):
        sv = pq.uniform_state(3)
        diag = np.arange(8, dtype=float)
        out = pq.apply_cost_layer(sv.copy(), one_factor(diag), 0.0)
        np.testing.assert_array_equal(out, sv)

    def test_cost_layer_constant_diagonal_is_global_phase(self):
        rng = np.random.default_rng(5)
        sv = rng.normal(size=8) + 1j * rng.normal(size=8)
        sv /= np.linalg.norm(sv)
        out = pq.apply_cost_layer(sv.copy(), one_factor(np.full(8, 2.5)), 0.7)
        np.testing.assert_allclose(out, np.exp(-1j * 0.7 * 2.5) * sv, atol=1e-15)
        np.testing.assert_allclose(np.abs(out) ** 2, np.abs(sv) ** 2, atol=1e-15)

    def test_cost_layer_norm_drift(self):
        rng = np.random.default_rng(6)
        sv = pq.uniform_state(8)
        diag = rng.normal(size=len(sv)) * 10
        for _ in range(100):
            pq.apply_cost_layer(sv, one_factor(diag), 0.33)
        assert abs(np.vdot(sv, sv).real - 1.0) < 1e-12

    def test_mixer_zero_angle_is_identity(self):
        sv = pq.uniform_state(3)
        np.testing.assert_array_equal(pq.apply_mixer_layer(sv.copy(), 0.0), sv)

    def test_mixer_quarter_turn_on_one_qubit(self):
        sv = np.array([1.0, 0.0], dtype=complex)
        out = pq.apply_mixer_layer(sv, np.pi / 2)
        np.testing.assert_allclose(out, [0.0, 1j], atol=1e-15)

    def test_mixer_half_turn_is_global_phase_per_qubit(self):
        rng = np.random.default_rng(7)
        sv = rng.normal(size=16) + 1j * rng.normal(size=16)
        sv /= np.linalg.norm(sv)
        out = pq.apply_mixer_layer(sv.copy(), np.pi)
        np.testing.assert_allclose(np.abs(out) ** 2, np.abs(sv) ** 2, atol=1e-12)

    def test_mixer_preserves_norm_over_many_layers(self):
        sv = pq.uniform_state(6)
        for beta in np.linspace(0.6, 0.006, 100):
            pq.apply_mixer_layer(sv, beta)
        assert abs(np.vdot(sv, sv).real - 1.0) < 1e-9

    def test_full_circuit_norm_drift_at_depth_100(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        sv = final_state(q, pq.lr_schedule(100))
        assert abs(np.vdot(sv, sv).real - 1.0) < 1e-9


def random_state(rng, n):
    return rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)


def rotate_reference(sv, beta, lo, hi):
    """Rotate qubits ``[lo, hi)`` one at a time, as ``mixer_layer_reference`` does all."""
    c, s = np.cos(beta), 1j * np.sin(beta)
    for b in range(lo, hi):
        view = sv.reshape(-1, 2, 1 << b)
        a0 = view[:, 0, :].copy()
        a1 = view[:, 1, :]
        view[:, 0, :] = c * a0 + s * a1
        view[:, 1, :] = s * a0 + c * a1
    return sv


class TestFusedKernels:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_mixer_matches_reference(self, n):
        rng = np.random.default_rng(100 + n)
        betas = [0.0, np.pi / 2, np.pi, *rng.uniform(-np.pi, np.pi, size=2)]
        for beta in betas:
            sv = random_state(rng, n)
            expected = lrqaoa.mixer_layer_reference(sv.copy(), beta)
            got = sv.copy()
            assert pq.apply_mixer_layer(got, beta) is got
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_mixer_groups(self):
        assert lrqaoa._mixer_groups(22) == [4, 4, 4, 4, 3, 3]
        for n in range(1, 30):
            groups = lrqaoa._mixer_groups(n)
            assert sum(groups) == n
            assert 1 <= min(groups) and max(groups) <= lrqaoa.MIXER_GROUP_QUBITS
            assert max(groups) - min(groups) <= 1

    def test_groups_are_as_few_as_allowed(self):
        assert lrqaoa._mixer_groups(9) == [3, 3, 3]
        for n in range(30):
            assert len(lrqaoa._mixer_groups(n)) == -(-n // lrqaoa.MIXER_GROUP_QUBITS)

    @pytest.mark.parametrize("size", [0, 6])
    @pytest.mark.parametrize("layer", [
        lambda sv: pq.apply_mixer_layer(sv, 0.3),
        lambda sv: lrqaoa.mixer_layer_reference(sv, 0.3),
        lambda sv: pq.apply_cost_layer(sv, one_factor(np.zeros(4)), 0.3)],
        ids=["mixer", "mixer_reference", "cost"])
    def test_lengths_other_than_a_power_of_two_are_rejected(self, layer, size):
        with pytest.raises(ValueError, match="power of two"):
            layer(np.zeros(size, dtype=complex))

    @pytest.mark.parametrize("block", [None, 96, 3000])
    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("gamma", [0.0, 0.37, -1.9, 12.5])
    def test_cost_layer_is_bitwise_the_exponential(self, monkeypatch, gamma, n, block):
        if block is not None:
            monkeypatch.setattr(lrqaoa, "_BLOCK_FLOATS", block)
        rng = np.random.default_rng(11)
        sv = random_state(rng, n)
        diag = rng.normal(size=len(sv)) * 40
        # In place, as the kernel multiplies: an out-of-place product can
        # round differently in its last bit.
        expected = sv.copy()
        expected *= np.exp(-1j * gamma * diag)
        factors = one_factor(diag)
        np.testing.assert_array_equal(pq.apply_cost_layer(sv.copy(), factors, gamma), expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_run_matches_reference_kernels(self, monkeypatch, seed):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
        sched = pq.lr_schedule(4)
        fast = pq.run_lrqaoa(q, sched, shots=2000, seeds=[seed])[0]
        assert len(lrqaoa.cost_factors(q)) > 1

        def reference(q, sched):
            # The true state: the frame's S gates change no magnitude.
            return lrqaoa.final_state_reference(q, sched)

        monkeypatch.setattr(lrqaoa, "_frame_state", reference)
        slow = pq.run_lrqaoa(q, sched, shots=2000, seeds=[seed])[0]
        assert fast == slow

    def test_layer_pair_allocates_less_than_a_state(self):
        n = 16
        rng = np.random.default_rng(3)
        sv = random_state(rng, n)
        diag = rng.normal(size=len(sv))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pq.apply_cost_layer(sv, one_factor(diag), 0.4)
            pq.apply_mixer_layer(sv, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < sv.nbytes

    def test_peak_bytes_at_the_guard(self):
        n = SIZE_GUARD.bit_length() - 1
        amps = 2 ** n
        state = amps * np.dtype(np.complex128).itemsize
        diag = amps * np.dtype(np.float64).itemsize
        assert lrqaoa.statevector_peak_bytes(n) == state + diag == 24 * amps
        assert lrqaoa.statevector_peak_bytes(n) == 3 * 2**29

    def test_guard_message_names_the_estimate(self):
        with pytest.raises(TooLarge, match=r"27 qubits .* about 3\.0 GiB"):
            pq.uniform_state(27)
        q = Qubo(n=27, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(TooLarge, match=r"about 3\.0 GiB"):
            pq.precompute_diagonal(q)


def s_gates(sv):
    """The S gate ``diag(1, i)`` on every qubit, as a new array."""
    n = len(sv).bit_length() - 1
    index = np.arange(1 << n)
    popcount = sum((index >> b) & 1 for b in range(n))
    return sv * 1j ** popcount


def chain_qubo(rng, n):
    """A chain of couplings over all ``n`` bits, which does not split."""
    chain = {(i, i + 1): Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 4)))
             for i in range(n - 1)}
    return Qubo(n=n, coeffs={**chain, (0, 0): Fraction(-7)}, offset=Fraction(5, 3))


def split_qubo(core, widths):
    """A map of ``core`` low bits and blocks of ``widths`` coupled to the core only."""
    n = core + sum(widths)
    coeffs = {(i, i): Fraction(i + 1) for i in range(n)}
    lo = core
    for w in widths:
        coeffs.update({(i, j): Fraction(i - j, 3) for j in range(lo, lo + w)
                       for i in range(j) if i < core or i >= lo})
        lo += w
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(2))


class TestSFrame:
    """The real rotation kernel of the S-gate frame and the S gates."""

    @pytest.mark.parametrize("n", range(1, 18))
    def test_frame_kernel_matches_the_conjugated_loop_on_every_range(self, monkeypatch, n):
        # Blocks of 3 * 2**(n//2) floats: a group runs both in runs of
        # batch rows and in slices of one row's inner axis, and blocks
        # end in the middle of either axis.
        monkeypatch.setattr(lrqaoa, "_BLOCK_FLOATS", 3 << n // 2)
        grids = []
        blocks = lrqaoa._blocks

        def recording(rows, cols, unit):
            grids.append((rows, cols, max(1, lrqaoa._BLOCK_FLOATS // unit)))
            return blocks(rows, cols, unit)

        monkeypatch.setattr(lrqaoa, "_blocks", recording)
        rng = np.random.default_rng(200 + n)
        sv = random_state(rng, n)
        phases = s_gates(np.ones_like(sv))
        np.testing.assert_array_equal(rotate_reference(sv.copy(), 0.3, 0, n),
                                      lrqaoa.mixer_layer_reference(sv.copy(), 0.3))
        for lo in range(n + 1):
            for hi in range(lo, n + 1):
                beta = float(rng.uniform(-np.pi, np.pi))
                # S^dagger X-rotation S is the frame kernel's real rotation.
                expected = np.conj(phases) * rotate_reference(phases * sv, beta, lo, hi)
                got = sv.copy()
                assert lrqaoa._rotate_qubits(got, beta, lo, hi) is got
                np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
        if n >= 8:
            assert any(cols > per and cols % per for rows, cols, per in grids)
            assert any(cols <= per and rows % (per // cols) for rows, cols, per in grids)

    @pytest.mark.parametrize("q", [split_qubo(5, [6, 6]), chain_qubo(np.random.default_rng(1), 17)],
                             ids=["split", "unsplit"])
    def test_blocks_change_no_bit(self, monkeypatch, q):
        # Against one block the size of the state: every pass, the
        # sampling included, takes the same arithmetic in blocks.
        sched = pq.lr_schedule(3)
        state = final_state(q, sched)
        [samples] = pq.run_lrqaoa(q, sched, shots=500, seeds=[4])
        monkeypatch.setattr(lrqaoa, "_BLOCK_FLOATS", 4 << q.n)
        np.testing.assert_array_equal(final_state(q, sched), state)
        assert pq.run_lrqaoa(q, sched, shots=500, seeds=[4]) == [samples]

    @pytest.mark.parametrize("n", range(0, 10))
    def test_s_gates_are_exact_phases(self, n):
        sv = random_state(np.random.default_rng(n), n)
        got = sv.copy()
        assert lrqaoa._apply_s(got, 1) is got
        np.testing.assert_array_equal(got, s_gates(sv))
        np.testing.assert_array_equal(np.abs(got), np.abs(sv))
        np.testing.assert_array_equal(lrqaoa._apply_s(got, -1), sv)

    @pytest.mark.parametrize("p", [1, 3])
    def test_final_state_is_the_frame_state_under_s_gates(self, p):
        q = split_qubo(3, [4, 3])
        frame = lrqaoa._frame_state(q, pq.lr_schedule(p))
        np.testing.assert_array_equal(final_state(q, pq.lr_schedule(p)), s_gates(frame))


def random_block_qubo(rng, fractions):
    """A map of a random core and 1-4 blocks that couple only to the core."""
    core = int(rng.integers(0, 5))
    widths = [int(w) for w in rng.integers(1, 4, size=int(rng.integers(1, 5)))]
    n = core + sum(widths)

    def value():
        num = int(rng.integers(-40, 41))
        return Fraction(num, int(rng.integers(1, 9))) if fractions else Fraction(num)

    coeffs = {(i, i): value() for i in range(n)}
    pairs = [(i, j) for i in range(core) for j in range(i + 1, core)]
    lo = core
    for w in widths:
        pairs += [(i, j) for j in range(lo, lo + w) for i in range(j) if i < core or i >= lo]
        lo += w
    coeffs.update({pair: value() for pair in pairs if rng.random() < 0.6})
    return Qubo(n=n, coeffs=coeffs, offset=value())


class TestCostFactors:
    @pytest.mark.parametrize("seed", range(40))
    def test_factored_layer_matches_the_diagonal(self, seed):
        rng = np.random.default_rng(seed)
        q = random_block_qubo(rng, fractions=seed % 2 == 1)
        core, blocks = lrqaoa.cost_split(q)
        assert blocks[0][0] == core and blocks[-1][1] == q.n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        block_of = {i: pos for pos, (lo, hi) in enumerate(blocks) for i in range(lo, hi)}
        assert all(block_of[i] == block_of[j] for i, j in q.coeffs if i >= core)
        factors = lrqaoa.cost_factors(q)
        assert [(f.core, f.lo, f.hi) for f in factors] == [(core, lo, hi) for lo, hi in blocks]
        assert all(len(f.table) == 1 << (f.core + f.hi - f.lo) for f in factors)
        diag = pq.precompute_diagonal(q)
        for gamma in (0.45, 0.9, float(rng.uniform(-3, 3))):
            sv = random_state(rng, q.n)
            expected = sv * np.exp(-1j * gamma * diag)
            got = sv.copy()
            assert pq.apply_cost_layer(got, factors, gamma) is got
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(6))
    def test_unsplittable_map_is_the_diagonal_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = 6 + seed
        chain = {(i, i + 1): Fraction(int(rng.integers(1, 30)), 1 + seed % 3)
                 for i in range(n - 1)}
        q = Qubo(n=n, coeffs={**chain, (0, 0): Fraction(-7)}, offset=Fraction(5, 3))
        assert lrqaoa.cost_split(q) == (0, [(0, n)])
        [factor] = lrqaoa.cost_factors(q)
        diag = pq.precompute_diagonal(q)
        assert factor.table.dtype == diag.dtype
        assert factor.table.tobytes() == diag.tobytes()
        sv = random_state(rng, n)
        expected = sv.copy()
        expected *= np.exp(-1j * 0.7 * diag)
        got = pq.apply_cost_layer(sv.copy(), (factor,), 0.7)
        np.testing.assert_array_equal(got, pq.apply_cost_layer(sv.copy(), one_factor(diag), 0.7))
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("variant", [pq.RawVariant(10**5, 10**9), pq.ScaledVariant(1),
                                         pq.RoundedVariant()])
    def test_press_map_splits_at_the_decision_bits(self, variant, tmp_path):
        q = pq.build_qubo(pq.bundled_instance("press-03x2"), variant)
        assert lrqaoa.cost_split(q) == (6, [(6, 14), (14, 22)])
        # The split reads the coefficients only, so a bare coefficient file gets it too.
        bare = Qubo(n=q.n, coeffs=q.coeffs, offset=q.offset)
        assert bare.varmap is None
        assert lrqaoa.cost_split(bare) == (6, [(6, 14), (14, 22)])
        assert [len(f.table) for f in lrqaoa.cost_factors(q)] == [2**14, 2**14]

    def test_uncoupled_bits_merge_into_bounded_tables(self):
        q = Qubo(n=9, coeffs={(i, i): Fraction(i + 1) for i in range(9)}, offset=Fraction(0))
        assert lrqaoa.cost_split(q) == (0, [(0, 5), (5, 9)])

    def test_factors_are_cached_and_read_only(self):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
        factors = lrqaoa.cost_factors(q)
        assert lrqaoa.cost_factors(q) is factors
        with pytest.raises(ValueError):
            factors[0].table[0] = 0.0

    def test_factors_of_another_size_are_rejected(self):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
        with pytest.raises(ValueError, match="cost factors cover 14 qubits"):
            pq.apply_cost_layer(pq.uniform_state(15), lrqaoa.cost_factors(q), 0.3)


class TestFirstLayer:
    """The closed-form first layer against the layer-by-layer reference."""

    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(24))
    def test_block_maps_match_the_reference(self, seed, p):
        rng = np.random.default_rng(1000 + seed)
        q = random_block_qubo(rng, fractions=seed % 2 == 1)
        sched = pq.lr_schedule(p, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
        np.testing.assert_allclose(final_state(q, sched), lrqaoa.final_state_reference(q, sched),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_unsplit_chain_matches_the_reference(self, p):
        q = chain_qubo(np.random.default_rng(p), 9)
        assert lrqaoa.cost_split(q) == (0, [(0, 9)])
        sched = pq.lr_schedule(p)
        np.testing.assert_allclose(final_state(q, sched), lrqaoa.final_state_reference(q, sched),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("shape, core, tables", [((3, 3, 3, 0), 9, 3), ((4, 2, 4, 1), 8, 2),
                                                     ((2, 3, 4, 2), 6, 3)])
    def test_generated_maps_with_large_cores_match_the_reference(self, shape, core, tables, p):
        q = pq.build_qubo(pq.generate_instance(*shape[:3], seed=shape[3]), pq.RoundedVariant())
        factors = lrqaoa.cost_factors(q)
        assert (factors[0].core, len(factors)) == (core, tables)
        sched = pq.lr_schedule(p)
        np.testing.assert_allclose(final_state(q, sched), lrqaoa.final_state_reference(q, sched),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_two_blocks_without_a_core_match_the_reference(self, p):
        q = Qubo(n=2, coeffs={(0, 0): Fraction(3), (1, 1): Fraction(-2)}, offset=Fraction(1))
        assert lrqaoa.cost_split(q) == (0, [(0, 1), (1, 2)])
        sched = pq.lr_schedule(p, 1.3, 0.7)
        np.testing.assert_allclose(final_state(q, sched), lrqaoa.final_state_reference(q, sched),
                                   rtol=0, atol=1e-12)

    @staticmethod
    def first_layer_ranges(monkeypatch, inst):
        """The ``(length, lo, hi)`` of every ``_rotate_qubits`` call of the
        first layer, those that rotate each table's block qubits, and n."""
        q = pq.build_qubo(inst, pq.RoundedVariant())
        ranges = []
        rotate = lrqaoa._rotate_qubits

        def recording(vec, beta, lo, hi):
            ranges.append((len(vec), lo, hi))
            return rotate(vec, beta, lo, hi)

        monkeypatch.setattr(lrqaoa, "_rotate_qubits", recording)
        final_state(q, pq.lr_schedule(1))
        core, blocks = lrqaoa.cost_split(q)
        assert core > 0 and len(blocks) > 1
        in_tables = [(1 << (core + hi - lo), core, core + hi - lo) for lo, hi in blocks]
        return ranges, in_tables, q.n

    def test_press_map_mixes_only_the_core_on_the_state(self, monkeypatch):
        # Each table's block qubits are mixed in the table, 3 of the 6 core
        # qubits inside the product write and one 3-qubit group on the
        # full state.
        ranges, in_tables, n = self.first_layer_ranges(monkeypatch,
                                                       pq.bundled_instance("press-small"))
        assert ranges == in_tables + [(1 << n, 3, 6)]

    def test_large_core_mixes_only_its_high_qubits_on_the_state(self, monkeypatch):
        # A 9-qubit core: 5 qubits in the product write, one 4-qubit group
        # on the full state.
        ranges, in_tables, n = self.first_layer_ranges(monkeypatch,
                                                       pq.generate_instance(3, 3, 3, seed=0))
        assert ranges == in_tables + [(1 << n, 5, 9)]

    def test_fused_core_qubits(self):
        assert [lrqaoa._fused_core_qubits(core) for core in range(15)] == [
            0, 1, 2, 3, 4, 5, 3, 3, 4, 5, 3, 3, 4, 5, 3]

    @pytest.mark.parametrize("q", [split_qubo(4, [6, 6]), chain_qubo(np.random.default_rng(0), 16)],
                             ids=["split", "unsplit"])
    def test_first_layer_holds_no_second_state(self, q):
        n = q.n
        assert n == 16
        tables = sum(f.table.nbytes for f in lrqaoa.cost_factors(q))
        state = 16 << n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            final_state(q, pq.lr_schedule(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The state; beside it only the tables' complex copies, one block
        # temporary and numpy's casting buffers of a fixed 8192 elements.
        assert peak - base < state + state // 2
        assert state + tables <= lrqaoa.statevector_peak_bytes(n)

    def test_peak_bytes_bound_a_split_map_with_a_large_first_table(self):
        # A chain over bits 0-14 and bit 15 uncoupled: the first table holds
        # half the state, and its complex copy and the product write's
        # temporary each take 8 bytes per amplitude beside the state.
        chain = chain_qubo(np.random.default_rng(0), 15)
        q = Qubo(n=16, coeffs={**chain.coeffs, (15, 15): Fraction(3)}, offset=chain.offset)
        assert lrqaoa.cost_split(q) == (0, [(0, 15), (15, 16)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pq.run_lrqaoa(q, pq.lr_schedule(2), 1000, [0, 1])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        tables = [f.table.size for f in lrqaoa.cost_factors(q)]
        assert tables == [2**15, 2]
        estimate = lrqaoa.statevector_peak_bytes(q.n, tables)
        assert estimate == (16 << 16) + 24 * (2**15 + 2) + 16 * 2**15
        # The unsplit figure, 24 bytes per amplitude, is exceeded; the
        # estimate holds with one pass's block temporary beside it.
        assert lrqaoa.statevector_peak_bytes(q.n) < peak <= estimate + 8 * lrqaoa._BLOCK_FLOATS

    def test_peak_bytes_of_one_table_is_the_state_and_the_diagonal(self):
        for n in (1, 12, 26):
            assert lrqaoa.statevector_peak_bytes(n, [1 << n]) == \
                lrqaoa.statevector_peak_bytes(n) == 24 << n
        # two small tables: the product write's temporary is its fixed minimum
        assert lrqaoa.statevector_peak_bytes(5, [8, 8]) == \
            (16 << 5) + 24 * 16 + 16 * lrqaoa._FUSED_TEMP_ENTRIES

    def test_schedule_without_layers_is_rejected(self, tiny):
        q = pq.build_qubo(tiny, pq.RoundedVariant())
        with pytest.raises(ValueError, match="layer count"):
            final_state(q, RampSchedule(p=0, delta_gamma=0.9, delta_beta=0.6, gammas=(),
                                        betas=()))


class TestRun:
    def test_zero_angles_give_uniform_distribution(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        sched = RampSchedule(p=1, delta_gamma=0.0, delta_beta=0.0,
                             gammas=(0.0,), betas=(0.0,))
        shots = 10_000
        samples = pq.run_lrqaoa(q, sched, shots=shots, seeds=[1])[0]
        counts = {e.bits: e.multiplicity for e in samples.entries}
        size = 1 << q.n
        expected = shots / size
        chi2 = sum(
            (counts.get(index_to_bits(k, q.n), 0) - expected) ** 2 / expected
            for k in range(size)
        )
        dof = size - 1
        assert abs(chi2 - dof) < 5 * (2 * dof) ** 0.5

    def test_reproducible(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        a = pq.run_lrqaoa(q, pq.lr_schedule(2), shots=500, seeds=[9])[0]
        b = pq.run_lrqaoa(q, pq.lr_schedule(2), shots=500, seeds=[9])[0]
        assert a == b

    def test_energies_reported_against_unnormalized_objective(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.run_lrqaoa(q, pq.lr_schedule(1), shots=200, seeds=[3])[0]
        for entry in samples.entries:
            assert entry.energy == float(pq.qubo_energy(q, entry.bits))

    def test_total_and_meta(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        samples = pq.run_lrqaoa(q, pq.lr_schedule(5), shots=321, seeds=[0])[0]
        assert samples.total == 321
        assert samples.meta["params"]["p"] == 5

    @pytest.mark.parametrize("shots", [0, -1])
    def test_no_shots_is_refused(self, tiny, shots):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        with pytest.raises(ValueError, match="shots must be >= 1"):
            pq.run_lrqaoa(q, pq.lr_schedule(1), shots=shots, seeds=[0])

    def test_all_zero_rejected(self):
        q = Qubo(n=2, coeffs={}, offset=Fraction(0))
        with pytest.raises(ValueError):
            pq.run_lrqaoa(q, pq.lr_schedule(1), shots=10, seeds=[0])[0]

    def test_guard(self):
        q = Qubo(n=27, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(TooLarge):
            pq.run_lrqaoa(q, pq.lr_schedule(1), shots=10, seeds=[0])[0]

    @pytest.mark.parametrize("q", [split_qubo(4, [6, 6]), chain_qubo(np.random.default_rng(0), 16)],
                             ids=["split", "unsplit"])
    def test_run_holds_one_state(self, q):
        # The cached tables and dense mirror are built first; the run then
        # holds the state and, beside it, less than one more state.
        lrqaoa.cost_factors(q)
        as_dense(q)
        state = 16 << q.n
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pq.run_lrqaoa(q, pq.lr_schedule(2), shots=1000, seeds=[0, 1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.n == 16
        assert peak - base < 2 * state


class TestBatchedRun:
    def test_seeds_share_one_simulation_and_equal_separate_calls(self, monkeypatch,
                                                                 tmp_path):
        q = pq.build_qubo(pq.bundled_instance("press-small"), pq.RoundedVariant())
        params = {"p": 2, "delta_gamma": 0.9, "delta_beta": 0.6, "shots": 300}
        sched = pq.lr_schedule(2, 0.9, 0.6)
        alone = [pq.run_lrqaoa(q, sched, 300, [seed])[0] for seed in (0, 1, 2)]
        calls = []
        original = lrqaoa._frame_state

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lrqaoa, "_frame_state", counting)
        [batch] = pq.bench.SOLVERS["lrqaoa"].run([q], params, [0, 1, 2])
        assert len(calls) == 1
        assert batch == alone
        for i, (got, expected) in enumerate(zip(batch, alone)):
            pq.save_sampleset(got, tmp_path / f"batch{i}.csv")
            pq.save_sampleset(expected, tmp_path / f"alone{i}.csv")
            assert ((tmp_path / f"batch{i}.csv").read_bytes()
                    == (tmp_path / f"alone{i}.csv").read_bytes())

    def test_seed_or_seeds(self, tiny):
        q = pq.build_qubo(tiny, pq.RoundedVariant())
        sched = pq.lr_schedule(1)
        with pytest.raises(ValueError, match="non-negative"):
            pq.run_lrqaoa(q, sched, 10, seeds=[0, -1])


class TestSuccessProbability:
    def test_pure_function(self, tiny):
        q = pq.build_qubo(tiny, pq.RoundedVariant())
        sched = pq.lr_schedule(10)
        assert pq.success_probability(q, sched) == pq.success_probability(q, sched)

    def test_matches_amplitudes_of_minimum_states(self, tiny):
        q = pq.build_qubo(tiny, pq.ScaledVariant(Fraction(1)))
        sched = pq.lr_schedule(3)
        sv = final_state(q, sched)
        ks, _ = minimum_states(q)
        expected = sum(abs(sv[k]) ** 2 for k in ks)
        assert pq.success_probability(q, sched) == pytest.approx(expected, rel=1e-12)

    def test_deep_ramp_beats_single_layer(self, tiny):
        for variant in (pq.RawVariant(LAM_M, LAM_T), pq.ScaledVariant(Fraction(1)),
                        pq.RoundedVariant()):
            q = pq.build_qubo(tiny, variant)
            assert pq.success_probability(q, pq.lr_schedule(100)) > pq.success_probability(
                q, pq.lr_schedule(1)
            )


class TestCircuitShape:
    def graph(self, edges, n):
        coeffs = {e: Fraction(1) for e in edges}
        return interaction_graph(Qubo(n=n, coeffs=coeffs, offset=Fraction(0)))

    def test_graph_is_the_sorted_edge_tuple(self):
        assert self.graph([(1, 2), (0, 0), (0, 2)], 3) == ((0, 2), (1, 2))

    def test_triangle_needs_three_colors(self):
        g = self.graph([(0, 1), (0, 2), (1, 2)], 3)
        coloring = pq.edge_coloring(g)
        assert len(set(coloring.values())) == 3
        self.assert_proper(g, coloring)

    def test_perfect_matching_needs_one(self):
        g = self.graph([(0, 1), (2, 3), (4, 5)], 6)
        assert set(pq.edge_coloring(g).values()) == {0}

    def test_star_needs_degree_colors(self):
        g = self.graph([(0, 1), (0, 2), (0, 3)], 4)
        assert len(set(pq.edge_coloring(g).values())) == 3

    @staticmethod
    def assert_proper(g, coloring):
        for e1 in g:
            for e2 in g:
                if e1 != e2 and set(e1) & set(e2):
                    assert coloring[e1] != coloring[e2]

    def test_random_graphs_proper_and_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 61))
            density = rng.random() * 0.5
            edges = [
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
            ]
            if not edges:
                continue
            g = self.graph(edges, n)
            coloring = pq.edge_coloring(g)
            self.assert_proper(g, coloring)
            degree = np.zeros(n, dtype=int)
            for i, j in edges:
                degree[i] += 1
                degree[j] += 1
            assert len(set(coloring.values())) <= 2 * degree.max() - 1

    def test_triangle_stats(self):
        q = Qubo(n=3, coeffs={(0, 1): Fraction(1), (0, 2): Fraction(1), (1, 2): Fraction(1)},
                 offset=Fraction(0))
        stats = pq.circuit_stats(q, 2)
        assert stats.two_qubit_interactions == 6
        assert stats.cost_layer_depth == 6
        assert stats.qubits == 3

    def test_interactions_scale_linearly_in_depth(self, tiny):
        q = pq.build_qubo(tiny, pq.RawVariant(LAM_M, LAM_T))
        s1 = pq.circuit_stats(q, 1)
        s10 = pq.circuit_stats(q, 10)
        assert s10.two_qubit_interactions == 10 * s1.two_qubit_interactions
        assert s10.cost_layer_depth == 10 * s1.cost_layer_depth

    def test_no_offdiagonal_means_no_interactions(self):
        q = Qubo(n=4, coeffs={(0, 0): Fraction(1)}, offset=Fraction(0))
        stats = pq.circuit_stats(q, 3)
        assert stats.two_qubit_interactions == 0
        assert stats.cost_layer_depth == 0

    def test_memory_does_not_grow_with_the_variable_count(self):
        q = Qubo(n=10**6, coeffs={(0, 1): Fraction(1), (1, 10**6 - 1): Fraction(-2)},
                 offset=Fraction(0))
        tracemalloc.start()
        try:
            stats = pq.circuit_stats(q, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats == pq.CircuitStats(qubits=10**6, edges=2, colors=2, p=3,
                                         two_qubit_interactions=6, cost_layer_depth=6)
        assert peak < 2**20


def cost_split_reference(q):
    """:func:`lrqaoa.cost_split` as one scan of the blocks per core width,
    quadratic in ``n``: the rule it must agree with."""
    n = q.n
    reach = list(range(n))
    for i, j in q.coeffs:
        reach[i] = max(reach[i], j)
    best = None
    for k in range(n):
        blocks, lo, end = [], k, k
        for i in range(k, n):
            end = max(end, reach[i])
            if end == i:
                blocks.append((lo, i + 1))
                lo = i + 1
        size = sum(1 << (k + hi - lo) for lo, hi in blocks)
        if best is None or size < best[0]:
            best = (size, k, blocks)
    _, k, blocks = best
    merged = blocks[:1]
    for lo, hi in blocks[1:]:
        if k + hi - merged[-1][0] <= (n + 1) // 2:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return k, merged


def random_sparse_qubo(rng, n, pairs):
    """``pairs`` random couplings (some long-range) over ``n`` bits."""
    coeffs = {}
    for _ in range(pairs):
        i, j = sorted(int(v) for v in rng.integers(0, n, size=2))
        coeffs[i, j] = Fraction(int(rng.integers(1, 9)))
    return Qubo(n=n, coeffs=coeffs, offset=Fraction(0))


def found_split_map():
    """A chain over bits 0-25 and an uncoupled bit 26: 27 qubits in two blocks."""
    chain = {(i, i + 1): Fraction(1) for i in range(25)}
    return Qubo(n=27, coeffs=chain, offset=Fraction(0))


class TestCostSplitLinear:
    @pytest.mark.parametrize("seed", range(60))
    def test_matches_the_scan_per_core_width(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 3 == 0:
            q = random_block_qubo(rng, fractions=False)
        else:
            n = int(rng.integers(1, 40))
            q = random_sparse_qubo(rng, n, int(rng.integers(0, 2 * n)))
        assert lrqaoa.cost_split(q) == cost_split_reference(q)

    @pytest.mark.parametrize("q", [split_qubo(4, [6, 6]), split_qubo(0, [3, 3, 3]),
                                   found_split_map(), chain_qubo(np.random.default_rng(1), 9),
                                   Qubo(n=33, coeffs={}, offset=Fraction(1))],
                             ids=["split", "blocks", "found", "chain", "empty"])
    def test_matches_on_shaped_maps(self, q):
        assert lrqaoa.cost_split(q) == cost_split_reference(q)

    def test_press_maps_match(self):
        for name in ("press-03x2", "press-19x2", "press-small"):
            q = pq.build_qubo(pq.bundled_instance(name), pq.RoundedVariant())
            assert lrqaoa.cost_split(q) == cost_split_reference(q)


class TestCostFactorsGuard:
    def test_split_map_is_refused_with_its_own_estimate(self):
        q = found_split_map()
        assert lrqaoa.cost_split(q) == (0, [(0, 26), (26, 27)])
        estimate = lrqaoa.statevector_peak_bytes(27, [2**26, 2])
        assert f"{estimate / 2**30:.1f}" == "4.5"
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match=r"^the statevector of 27 qubits has 134217728 "
                                               r"entries, over the 2\^26 guard \(it needs "
                                               r"about 4\.5 GiB\)$"):
                pq.run_lrqaoa(q, pq.lr_schedule(1), shots=10, seeds=[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n", [2000, 100_000])
    def test_a_huge_declared_map_is_refused_at_once(self, n):
        q = Qubo(n=n, coeffs={}, offset=Fraction(0))
        start = time.perf_counter()
        with pytest.raises(TooLarge) as exc:
            pq.run_lrqaoa(q, pq.lr_schedule(1), shots=10, seeds=[0])
        assert time.perf_counter() - start < 1.0
        message = str(exc.value)
        assert message.startswith(f"the statevector of {n} qubits has 2^{n} entries, over the "
                                  f"2^26 guard (it needs about 2^")
        assert len(message) < 200

    def test_huge_chain_split_is_linear(self):
        n = 20_000
        q = Qubo(n=n, coeffs={(i, i + 1): Fraction(1) for i in range(n - 1)}, offset=Fraction(0))
        start = time.perf_counter()
        assert lrqaoa.cost_split(q) == (0, [(0, n)])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("signs", [(1, -1), (3, -2)], ids=["normalized-int", "int"])
    def test_integer_unsplit_chain_is_the_diagonal_byte_for_byte(self, signs):
        n = 12
        chain = {(i, i + 1): Fraction(signs[i % 2]) for i in range(n - 1)}
        q = Qubo(n=n, coeffs={**chain, (0, 0): Fraction(-1)}, offset=Fraction(2))
        assert as_dense(q).int_exact
        assert as_dense(pq.normalize_qubo(q)).int_exact == (signs == (1, -1))
        assert lrqaoa.cost_split(q) == (0, [(0, n)])
        [factor] = lrqaoa.cost_factors(q)
        diag = pq.precompute_diagonal(q)
        assert factor.table.dtype == diag.dtype == np.float64
        assert factor.table.tobytes() == diag.tobytes()
        normed = pq.normalize_qubo(q)
        for k in range(0, 1 << n, 97):
            exact = pq.qubo_energy(normed, index_to_bits(k, n))
            if as_dense(normed).int_exact:
                assert Fraction(diag[k]) == exact
            else:
                assert diag[k] == pytest.approx(float(exact), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("build", ["precompute_diagonal", "cost_factors"])
    def test_unsplit_table_is_built_without_a_copy(self, build):
        # The table is the spectrum itself: 8 bytes per amplitude and the
        # small half enumerations, not a second full-size array.
        n = 18
        q = Qubo(n=n, coeffs={(i, i + 1): Fraction(1 + i % 3) for i in range(n - 1)},
                 offset=Fraction(0))
        assert lrqaoa.cost_split(q) == (0, [(0, n)])
        as_dense(pq.normalize_qubo(q))
        tracemalloc.start()
        try:
            getattr(lrqaoa, build)(q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << n


class TestUnreachedShapeChecks:
    def test_edge_coloring_refuses_a_self_loop(self):
        with pytest.raises(ValueError, match="self-loops"):
            pq.edge_coloring([(1, 1)])

    def test_circuit_stats_refuses_a_negative_layer_count(self):
        q = Qubo(n=2, coeffs={(0, 1): Fraction(1)}, offset=Fraction(0))
        with pytest.raises(ValueError, match="layer count must be >= 0"):
            pq.circuit_stats(q, -1)

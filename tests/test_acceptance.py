"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion NN] ...: PASS|FAIL`` line (run
with ``pytest tests/test_acceptance.py -v -s`` to see them live) and
asserts the criterion at its stated tolerance.  Expected values are
exact wherever the data is exact; no criterion uses a fudge factor
beyond what it states.
"""

import time
from fractions import Fraction

import numpy as np

import pressqubo as pq
from pressqubo.model import BENCH_INSTANCE_NAMES
from pressqubo.qubo import Qubo, minimum_states
from pressqubo.solvers import SampleEntry, SampleSet

RAW_REFERENCE = pq.RawVariant(Fraction(10**5), Fraction(10**9))

_instances = {}


def bundled(name):
    if name not in _instances:
        _instances[name] = pq.bundled_instance(name)
    return _instances[name]


def small_bundled():
    """Bundled instances small enough for exhaustive state scans."""
    return [bundled("press-small"), bundled("press-03x2")]


def announce(num, name, ok):
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def minimizer_matches_oracle(inst, variant):
    """Brute-force minimizer decodes feasible with exactly the optimal cost."""
    q = pq.build_qubo(inst, variant)
    bits, _ = pq.brute_force_qubo(q)
    assignment = pq.decode(q, bits).as_assignment()
    if assignment is None:
        return f"{inst.id}/{variant.kind}: minimizer is not a total assignment"
    if not pq.validate_assignment(inst, assignment).feasible:
        return f"{inst.id}/{variant.kind}: minimizer violates constraints"
    cost = pq.solution_cost(inst, assignment)
    opt = pq.exact_solve(inst).cost
    if cost != opt:
        return f"{inst.id}/{variant.kind}: cost {cost} != optimum {opt}"
    return None


def test_criterion_01_oracle_equivalence_raw():
    start = time.perf_counter()
    failures = [
        msg
        for inst in small_bundled()
        for msg in [minimizer_matches_oracle(inst, RAW_REFERENCE)]
        if msg
    ]
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    announce(1, "oracle equivalence, raw construction", not failures)
    assert not failures, failures


def test_criterion_02_oracle_equivalence_scaled_rounded():
    failures = []
    for variant in (pq.ScaledVariant(Fraction(1)), pq.RoundedVariant()):
        for inst in small_bundled():
            msg = minimizer_matches_oracle(inst, variant)
            if msg:
                failures.append(msg)
    announce(2, "oracle equivalence, scaled and rounded constructions", not failures)
    assert not failures, failures


def test_criterion_03_slack_completeness():
    start = time.perf_counter()
    failures = []
    for h in range(1, 4097):
        reachable = 1
        for w in pq.slack_coefficients(h):
            reachable |= reachable << w
        if reachable != (1 << (h + 1)) - 1:
            failures.append(f"h={h}: subset sums differ from 0..h")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    announce(3, "slack digits reach every value 0..h, h <= 4096", not failures)
    assert not failures, failures


def test_criterion_04_single_layer_sampling_finds_optimum():
    start = time.perf_counter()
    inst = bundled("press-03x2")
    opt = pq.exact_solve(inst).cost
    failures = []
    for variant in (RAW_REFERENCE, pq.ScaledVariant(Fraction(1)), pq.RoundedVariant()):
        q = pq.build_qubo(inst, variant)
        samples = pq.run_lrqaoa(q, pq.lr_schedule(1, 0.9, 0.6), shots=1000, seeds=[0])[0]
        hit = False
        for bits in [e.bits for e in samples.entries]:
            assignment = pq.decode(q, bits).as_assignment()
            if assignment is None or not pq.validate_assignment(inst, assignment).feasible:
                continue
            if pq.solution_cost(inst, assignment) == opt:
                hit = True
                break
        if not hit:
            failures.append(f"{variant.kind}: optimum missing from 1000 shots")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 300s")
    announce(4, "single ramp layer samples the optimum on the 22-variable instance",
             not failures)
    assert not failures, failures


def test_criterion_05_depth_improves_success_probability():
    start = time.perf_counter()
    inst = bundled("press-small")
    failures = []
    for variant in (RAW_REFERENCE, pq.ScaledVariant(Fraction(1)), pq.RoundedVariant()):
        q = pq.build_qubo(inst, variant)
        p1 = pq.success_probability(q, pq.lr_schedule(1))
        p100 = pq.success_probability(q, pq.lr_schedule(100))
        if not p100 > p1:
            failures.append(f"{variant.kind}: p=100 gives {p100:.3e} <= p=1 {p1:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    announce(5, "exact success probability rises from 1 to 100 layers", not failures)
    assert not failures, failures


def best_valid_cost(samples, inst, q):
    """Lowest decoded feasible cost in a sample set, or +inf."""
    costs = []
    for bits in [e.bits for e in samples.entries]:
        assignment = pq.decode(q, bits).as_assignment()
        if assignment is None or not pq.validate_assignment(inst, assignment).feasible:
            continue
        costs.append(pq.solution_cost(inst, assignment))
    return float(min(costs)) if costs else np.inf


def test_criterion_06_annealing_dominates_random_baseline():
    failures = []
    for name in BENCH_INSTANCE_NAMES:
        inst = bundled(name)
        q = pq.build_qubo(inst, RAW_REFERENCE)
        sa_costs, rnd_costs, sa_valid, rnd_valid = [], [], [], []
        for seed in range(20):
            sa = pq.simulated_anneal(q, pq.SaConfig(steps=1280, restarts=500), [seed])[0]
            rnd = pq.random_sample(q, 1000, [seed])[0]
            sa_costs.append(best_valid_cost(sa, inst, q))
            rnd_costs.append(best_valid_cost(rnd, inst, q))
            sa_valid.append(pq.score_samples(sa, inst, q).percent_valid())
            rnd_valid.append(pq.score_samples(rnd, inst, q).percent_valid())
        if not np.median(sa_costs) <= np.median(rnd_costs):
            failures.append(f"{name}: SA median best valid cost above random baseline")
        if not np.median(sa_valid) >= np.median(rnd_valid):
            failures.append(f"{name}: SA median valid share below random baseline")
    announce(6, "annealing dominates the random baseline on every instance",
             not failures)
    assert not failures, failures


def test_criterion_07_bitflip_pass_never_increases_energy():
    rng = np.random.default_rng(2024)
    failures = 0
    pairs = 0
    for _ in range(500):
        n = int(rng.integers(2, 17))
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                c = int(rng.integers(-40, 41))
                if c:
                    coeffs[(i, j)] = Fraction(c)
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-5, 6))))
        for _ in range(20):
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            out = pq.bitflip_postprocess(q, bits)
            pairs += 1
            if pq.qubo_energy(q, out) > pq.qubo_energy(q, bits):
                failures += 1
    ok = failures == 0 and pairs == 10_000
    announce(7, f"bit-flip pass never increased energy over {pairs} pairs", ok)
    assert ok, f"{failures} increases over {pairs} pairs"


def test_criterion_08_normalization_preserves_minimizers():
    rng = np.random.default_rng(99)
    failures = []
    for trial in range(50):
        n = int(rng.integers(2, 17))
        coeffs = {}
        for i in range(n):
            for j in range(i, n):
                num = int(rng.integers(-30, 31))
                if not num:
                    continue
                den = int(rng.integers(1, 7)) if trial % 2 else 1
                coeffs[(i, j)] = Fraction(num, den)
        if not coeffs:
            continue
        q = Qubo(n=n, coeffs=coeffs, offset=Fraction(int(rng.integers(-5, 6))))
        before = minimum_states(q)[0]
        after = minimum_states(pq.normalize_qubo(q))[0]
        if before != after:
            failures.append(f"trial {trial}: argmin set changed")
    announce(8, "normalization preserves the exact argmin set (50 random cases)",
             not failures)
    assert not failures, failures


def test_criterion_09_metric_identities(tiny):
    failures = []
    q = pq.build_qubo(tiny, RAW_REFERENCE)
    opt = pq.exact_solve(tiny).cost
    rng = np.random.default_rng(3)
    for _ in range(25):
        counts = {}
        for row in rng.integers(0, 2, size=(50, q.n)):
            bits = "".join(str(b) for b in row)
            counts[bits] = counts.get(bits, 0) + 1
        samples = SampleSet(
            entries=tuple(SampleEntry(b, 0.0, m) for b, m in sorted(counts.items())),
            meta={},
        )
        scored = pq.score_samples(samples, tiny, q)
        pv = scored.percent_valid()
        pno = scored.percent_near_opt(opt)
        direct = 0
        total = 0
        for bits, mult in [(e.bits, e.multiplicity) for e in samples.entries]:
            total += mult
            a = pq.decode(q, bits).as_assignment()
            if a is None or not pq.validate_assignment(tiny, a).feasible:
                continue
            if pq.solution_cost(tiny, a) <= Fraction(101, 100) * opt:
                direct += mult
        product = 0.0 if pno is None else pv * pno
        if abs(product - direct / total) > 1e-12:
            failures.append("valid*near_opt != directly counted share")
    xs = [0.5, 1.25, 3.0, 4.5]
    if abs(pq.pearson_r(xs, [3 * x - 2 for x in xs]) - 1.0) > 1e-12:
        failures.append("positive affine correlation not exactly 1")
    if abs(pq.pearson_r(xs, [-0.5 * x + 4 for x in xs]) + 1.0) > 1e-12:
        failures.append("negative affine correlation not exactly -1")
    if abs(pq.pearson_r([1, 2, 3], [1, 3, 2]) - 0.5) > 1e-12:
        failures.append("hand-computed correlation 0.5 missed")
    announce(9, "metric identities and exact correlation cases", not failures)
    assert not failures, failures


def _grid_plan(tmp_path, steps=400, restarts=100):
    inst = bundled("press-small")
    inst_path = tmp_path / "instance.json"
    pq.save_instance(inst, inst_path)
    return {
        "instances": [str(inst_path)],
        "variants": [{"kind": "raw"}, {"kind": "scaled"}, {"kind": "rounded"}],
        "solvers": [{"name": "sa", "params": {"steps": steps, "restarts": restarts}}],
        "seeds": [0],
    }


def test_criterion_10_grid_shape_and_linearity(tmp_path):
    failures = []
    records = pq.sweep(_grid_plan(tmp_path))
    if len(records) != 12:
        failures.append(f"expected 9 + 2 + 1 = 12 records, got {len(records)}")
    kinds = [r.variant.kind for r in records]
    if (kinds.count("raw"), kinds.count("scaled"), kinds.count("rounded")) != (9, 2, 1):
        failures.append(f"combination counts off: {kinds}")
    q = pq.build_qubo(bundled("press-03x2"), RAW_REFERENCE)
    base = pq.circuit_stats(q, 1)
    for p in (2, 5, 10, 100):
        stats = pq.circuit_stats(q, p)
        if stats.two_qubit_interactions != p * base.two_qubit_interactions:
            failures.append(f"p={p}: interactions not exactly linear")
    announce(10, "penalty grid shape (9+2+1) and linear gate scaling", not failures)
    assert not failures, failures


def test_criterion_11_sweep_determinism(tmp_path):
    plan = _grid_plan(tmp_path, steps=200, restarts=50)
    plan["solvers"].append({"name": "lrqaoa", "params": {"p": 1, "shots": 200}})
    plan["solvers"].append({"name": "random", "params": {"shots": 200}})
    first = pq.sweep(plan)
    second = pq.sweep(plan)
    pq.export_report(first, tmp_path / "a", plan=plan)
    pq.export_report(second, tmp_path / "b", plan=plan)
    failures = []
    for name in ("runs.csv", "metrics.csv", "report.json"):
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            failures.append(f"{name} differs between identical sweeps")
    announce(11, "repeated sweeps produce byte-identical reports", not failures)
    assert not failures, failures

"""Simulated annealing against the uniform-random baseline.

Runs both samplers over the bundled instances at the standard budgets
(1280 annealing steps with 500 restarts; 1000 random draws), applies
the single-bit-flip cleanup pass, and scores both with the benchmark
metrics.  The random baseline stops finding any feasible assignment
once the search space grows, while annealing keeps producing them.
"""

from fractions import Fraction

import pressqubo as pq
from pressqubo.bench import score_samples
from pressqubo.model import BENCH_INSTANCE_NAMES

variant = pq.RawVariant(Fraction(10**5), Fraction(10**9))

print(f"{'instance':<12} {'vars':>5} {'sampler':>8} {'valid':>8} "
      f"{'near-opt':>9} {'best/opt':>9}")
for name in BENCH_INSTANCE_NAMES:
    inst = pq.bundled_instance(name)
    q = pq.build_qubo(inst, variant)
    opt = pq.exact_solve(inst).cost

    [sa] = pq.simulated_anneal(q, pq.SaConfig(steps=1280, restarts=500), seeds=[0])
    [rnd] = pq.random_sample(q, shots=1000, seeds=[0])

    for label, samples in (("sa", sa), ("random", rnd)):
        cleaned = pq.postprocess_sampleset(q, samples)
        scored = score_samples(cleaned, inst, q)  # one pass over all entries
        valid = scored.percent_valid()
        near = scored.percent_near_opt(opt)
        ratio = scored.best_cost_ratio(opt)
        near_text = "--" if near is None else f"{near:.3f}"
        ratio_text = "--" if ratio is None else f"{float(ratio):.4f}"
        print(f"{name:<12} {q.n:>5} {label:>8} {valid:>8.3f} "
              f"{near_text:>9} {ratio_text:>9}")

print("\n'--' marks undefined metrics: the sampler produced no feasible"
      "\nassignment at all, which is different from producing poor ones."
      "\nWithout the bit-flip cleanup the random baseline finds no feasible"
      "\nassignment beyond the two smallest instances; the cleanup pass"
      "\nrescues some of its samples, so both samplers are shown cleaned.")

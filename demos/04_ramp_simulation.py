"""Fixed-ramp circuit simulation: depth versus solution quality.

Shows the ramp itself (phase angles rising, mixing angles falling),
tracks the exact probability of landing in the global minimum as the
layer count grows, samples one shallow circuit, and prints the logical
circuit-shape numbers whose gate count grows linearly with depth.
"""

from fractions import Fraction

import pressqubo as pq

inst = pq.bundled_instance("press-small")
print(f"instance {inst.id} -> "
      f"{pq.build_qubo(inst, pq.RoundedVariant()).n} qubits")

sched = pq.lr_schedule(5, delta_gamma=0.9, delta_beta=0.6)
print("\n5-layer ramp:")
print("  phase angles :", [round(g, 3) for g in sched.gammas])
print("  mixing angles:", [round(b, 3) for b in sched.betas])

print("\nexact probability of the global minimum vs layer count:")
print(f"{'p':>5} {'raw':>10} {'scaled':>10} {'rounded':>10}")
variants = [
    pq.RawVariant(Fraction(10**5), Fraction(10**9)),
    pq.ScaledVariant(Fraction(1)),
    pq.RoundedVariant(),
]
qubos = {v.kind: pq.build_qubo(inst, v) for v in variants}
for p in (1, 2, 5, 10, 25, 50, 100):
    row = [pq.success_probability(qubos[v.kind], pq.lr_schedule(p)) for v in variants]
    print(f"{p:>5} " + " ".join(f"{x:>10.5f}" for x in row))

# Even one layer spreads enough mass onto good states that a modest
# number of shots finds the optimum.
opt = pq.exact_solve(inst).cost
q = qubos["rounded"]
[samples] = pq.run_lrqaoa(q, pq.lr_schedule(1), shots=1000, seeds=[0])
hits = sum(m for m, cost in pq.score_samples(samples, inst, q).valid if cost == opt)
print(f"\n1 layer, 1000 shots (rounded): {hits} shots hit an optimal assignment")

print("\nlogical circuit shape (rounded):")
print("qubits,edges,colors,p,two_qubit_interactions,cost_layer_depth")
for p in (1, 2, 5, 10):
    s = pq.circuit_stats(q, p)
    print(f"{s.qubits},{s.edges},{s.colors},{s.p},{s.two_qubit_interactions},"
          f"{s.cost_layer_depth}")

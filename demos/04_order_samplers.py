"""Every random-order construction as a seedable sampler.

Each sampler draws one OrderBatch of arrays per chunk (`batches`) and
streams the same draws as OrderSample records: the order itself, the latent
randomness behind it, and the per-element statistic eta when one exists.
Frequencies below sit next to their exact values.
"""

from homord import (
    AtomOrderSampler,
    AtomSpec,
    BipartiteMinSampler,
    ConditionedAtomSampler,
    DualFunctionalSampler,
    FixedOrder,
    InvolutionOrderSampler,
    PQOrderSampler,
    UniformOrderSampler,
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    estimate_order_event,
    find_involution_pattern_pair,
    graph_class,
)

N = 30_000
S = build_generic(graph_class(), t=2, cap=24, seed=0).top

uni = UniformOrderSampler(S)
e = estimate_order_event(uni, (0, 1, 2), (0, 1, 2), n=N, seed=1)
print(f"uniform sampler, P(0<1<2) = {e.value:.4f}   (exact 1/6 = 0.1667)")

# one atom of mass 1/2 at location 1/2; collisions broken by a fixed order
asc = FixedOrder("asc", tuple(S.elements))
spec = AtomSpec(atoms=((0.5, 0.5),), tie_break={0.5: asc})
atoms = AtomOrderSampler(S, spec)
e = estimate_order_event(atoms, (0, 1), (0, 1), n=N, seed=2)
print(f"atom sampler,    P(0<1)   = {e.value:.4f}   (exact 5/8 = 0.6250)")

cond = ConditionedAtomSampler(atoms, 0.5, (0, 1))
e = estimate_order_event(cond, (0, 1), (0, 1), n=2000, seed=3)
print(f"conditioned on both hitting the atom, P(0<1) = {e.value:.4f}   (exact 1)")

pq = build_two_predicate_PQ(2, 2)
pqs = PQOrderSampler(pq)
p0 = sorted(t[0] for t in pq.table("P"))[0]
q0 = sorted(t[0] for t in pq.table("Q"))[0]
e = estimate_order_event(pqs, (p0, q0), (p0, q0), n=N, seed=4)
print(f"two-block sampler, P(P-point < Q-point) = {e.value:.4f}   (exact 1)")

bip = build_bipartite_deg2(5, seed=0)
bs = BipartiteMinSampler(bip)
a0 = bs.elements[0]
mean = sum(s.eta[a0] for s in bs.stream(5, N)) / N
print(f"min-field sampler, E[eta] = {mean:.4f}   (exact 1/3 = 0.3333)")

inv = build_involution_order(6, seed=2)
ins = InvolutionOrderSampler(inv)
a, b = find_involution_pattern_pair(inv, "fa<fb<a<b")
e = estimate_order_event(ins, (a, b), (a, b), n=N, seed=6)
print(f"involution sampler, nested pair P(a<b) = {e.value:.4f}   (exact 3/4)")

v3 = build_f2_vector_space(3)
dual = DualFunctionalSampler(v3)
M = dual.field_matrix(7, N)
xor_holds = all(
    (M[:, v ^ w] == (M[:, v] ^ M[:, w])).all() for v in range(8) for w in range(8)
)
print(f"dual-functional sampler, xor identity on all {N} samples: {xor_holds}")
print(f"  ...yet each nonzero marginal is fair: mean(xi(5)) = {M[:, 5].mean():.4f}")

# determinism is part of the interface: same seed, same samples, any n
first = next(uni.stream(99, 1))
again = list(uni.stream(99, 1000))[0]
print("\nsample 0 at n=1 equals sample 0 at n=1000:", first == again)

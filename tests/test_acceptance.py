"""Acceptance gate.

One test per behavioral criterion, named test_criterion_NN_<label> so that
`pytest -v` prints exactly one pass/fail line for each.  Every criterion
runs at a fixed seed and its stated tolerance; the stochastic ones were
seeded once and frozen, never tuned past the first passing choice.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from homord.builders import find_involution_pattern_pair
from homord.cro import (
    build_cro_system,
    projected_dimension,
    uniqueness_report,
)
from homord.groups import invariant_equivalences, orbits
from homord.samplers import (
    AtomOrderSampler,
    AtomSpec,
    BipartiteMinSampler,
    DualFunctionalSampler,
    FixedOrder,
    InvolutionOrderSampler,
    PQOrderSampler,
    UniformOrderSampler,
)
from homord.stats import (
    estimate_eta_covariance,
    estimate_order_event,
    iid_bernoulli_sequences,
    mixture_bernoulli_sequences,
    test_exchangeability as exchangeability_verdict,
    test_monotone_coupling as monotone_verdict,
    test_shift_ergodicity as ergodicity_verdict,
)
from homord.structures import canonical_type
from homord.taupaths import build_tau_index, find_tau_path

from helpers import order_from_latents


def report(num, ok, detail):
    marker = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {marker}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_uniform_triple_patterns(graph_top):
    n = 100_000
    size = graph_top.size
    rng = np.random.default_rng(101)
    triples = []
    while len(triples) < 20:
        t = tuple(int(x) for x in rng.choice(size, size=3, replace=False))
        if t not in triples:
            triples.append(t)
    patterns = list(itertools.permutations(range(3)))
    pat_idx = {p: i for i, p in enumerate(patterns)}
    counts = np.zeros((20, 6), dtype=np.int64)
    for s in UniformOrderSampler(graph_top).stream(1001, n):
        pos = {a: i for i, a in enumerate(s.order)}
        for ti, t in enumerate(triples):
            ranks = (pos[t[0]], pos[t[1]], pos[t[2]])
            pat = tuple(sorted(range(3), key=ranks.__getitem__))
            counts[ti, pat_idx[pat]] += 1
    sigma = math.sqrt((1 / 6) * (5 / 6) / n)
    worst = float(np.abs(counts / n - 1 / 6).max())
    report(1, worst <= 3 * sigma, f"max |freq-1/6| {worst:.5f} vs 3s {3*sigma:.5f}")


def test_criterion_02_order_is_comparator_sort(graph_top):
    n = 10_000
    bad = 0
    for s in UniformOrderSampler(graph_top).stream(1002, n):
        if s.order != order_from_latents(s.latent):
            bad += 1
    report(2, bad == 0, f"{bad} mismatches in {n} latent draws")


def test_criterion_03_tau_path_totality(graph_top):
    index = build_tau_index(graph_top)
    E = graph_top.table("E")
    edge = canonical_type(graph_top, next(iter(E)))
    non = next(
        (x, y)
        for x, y in itertools.permutations(graph_top.elements, 2)
        if (x, y) not in E
    )
    nonedge = canonical_type(graph_top, non)
    rng = np.random.default_rng(1003)
    elements = list(graph_top.elements)
    searched = 0
    failed = []
    for a, b in itertools.permutations(elements, 2):
        others = [x for x in elements if x not in (a, b)]
        for tau in (edge, nonedge):
            for _ in range(50):
                k = int(rng.integers(0, 3))
                avoid = frozenset(
                    int(x) for x in rng.choice(others, size=k, replace=False)
                )
                searched += 1
                if find_tau_path(graph_top, a, b, tau, avoid, index=index) is None:
                    failed.append((a, b, tau, tuple(avoid)))
    report(3, not failed, f"{searched} searches, {len(failed)} without a path")


def test_criterion_04_monotone_coupling(graph_top):
    n = 100_000
    asc = FixedOrder("asc", tuple(graph_top.elements))
    spec = AtomSpec(
        atoms=((0.35, 0.3), (0.7, 0.2)), tie_break={0.35: asc, 0.7: asc}
    )
    v_uni = monotone_verdict(UniformOrderSampler(graph_top), seed=1004, n=n)
    v_atom = monotone_verdict(AtomOrderSampler(graph_top, spec), seed=1014, n=n)
    total = (
        v_uni.details["violating_samples"] + v_atom.details["violating_samples"]
    )
    report(4, v_uni.passed and v_atom.passed, f"{total} violations in 2x{n} samples")


def test_criterion_05_cro_pure_sets_unique():
    bad = []
    for level in (2, 3, 4, 5):
        rep = uniqueness_report(build_cro_system("pure_set", level))
        if not (
            rep.uniform_feasible
            and rep.nullspace_dim == 0
            and rep.dirac_count == 0
        ):
            bad.append(level)
    report(5, not bad, f"levels 2..5 all unique and Dirac-free (bad: {bad})")


def test_criterion_06_cro_linear_orders_degenerate():
    bad = []
    for level in (2, 3, 4):
        rep = uniqueness_report(build_cro_system("linear_order", level))
        if rep.dirac_count < 2 or rep.nullspace_dim < 1:
            bad.append(level)
    report(6, not bad, f"levels 2..4 have >= 2 Dirac points (bad: {bad})")


def test_criterion_07_cro_graphs_and_projection():
    sys3 = build_cro_system("graph", 3)
    sys4 = build_cro_system("graph", 4)
    r3, r4 = uniqueness_report(sys3), uniqueness_report(sys4)
    proj = projected_dimension(sys4, 3)
    ok = (
        r3.uniform_feasible
        and r4.uniform_feasible
        and (r3.nullspace_dim, r4.nullspace_dim) == (2, 23)
        and proj <= r3.nullspace_dim
        and proj == 2
    )
    report(
        7,
        ok,
        f"null dims (2, 23), level-3 shadow of the level-4 system = {proj} <= 2",
    )


def test_criterion_08_dual_functional_xor_law(f2d3):
    n = 100_000
    samp = DualFunctionalSampler(f2d3)
    M = samp.field_matrix(1008, n)
    xor_ok = all(
        (M[:, v ^ w] == (M[:, v] ^ M[:, w])).all()
        for v, w in itertools.product(range(8), repeat=2)
    )
    sigma = math.sqrt(0.25 / n)
    margins = M[:, 1:].mean(axis=0)
    worst = float(np.abs(margins - 0.5).max())
    report(
        8,
        xor_ok and worst <= 3 * sigma,
        f"xor identity on all of {n} samples, max |marginal-1/2| {worst:.5f}",
    )


def test_criterion_09_min_field_covariances(bip5):
    # quadrature oracle for E[min(U,V) min(U,W)], then the exact fraction
    num, _ = integrate.tplquad(
        lambda w, v, u: min(u, v) * min(u, w), 0, 1, 0, 1, 0, 1
    )
    assert abs(num - 2 / 15) < 1e-5
    cov_oracle = float(Fraction(2, 15) - Fraction(1, 9))
    samp = BipartiteMinSampler(bip5)
    shared = next(
        (a, b)
        for a, b in itertools.combinations(samp.elements, 2)
        if len(set(samp._nbrs[a]) & set(samp._nbrs[b])) == 1
    )
    disjoint = next(
        (a, b)
        for a, b in itertools.combinations(samp.elements, 2)
        if not set(samp._nbrs[a]) & set(samp._nbrs[b])
    )
    e_sh = estimate_eta_covariance(samp, shared, seed=1009, n=20_000)
    e_dj = estimate_eta_covariance(samp, disjoint, seed=1019, n=20_000)
    ok = (
        e_sh.value > 3 * e_sh.stderr
        and abs(e_sh.value - cov_oracle) <= 3 * e_sh.stderr
        and abs(e_dj.value) <= 3 * e_dj.stderr
    )
    report(
        9,
        ok,
        f"shared cov {e_sh.value:.5f} (oracle {cov_oracle:.5f}), "
        f"disjoint cov {e_dj.value:.5f}",
    )


def test_criterion_10_involution_order(inv6):
    n = 20_000
    samp = InvolutionOrderSampler(inv6)
    a, b = find_involution_pattern_pair(inv6, "fa<fb<a<b")
    f = dict(inv6.table("f"))
    lt = inv6.table("lt")
    rank = {x: sum(1 for t in lt if t[1] == x) for x in inv6.elements}
    oracle = Fraction(
        sum(1 for ia in (a, f[a]) for ib in (b, f[b]) if rank[ia] < rank[ib]), 4
    )
    hits = sum(
        1
        for s in samp.stream(1010, n)
        if s.order.index(a) < s.order.index(b)
    )
    freq = hits / n
    sigma = math.sqrt(float(oracle) * (1 - float(oracle)) / n)
    groups: dict = {}
    for pair in itertools.permutations(samp.elements, 2):
        groups.setdefault(samp.pattern_type(pair), []).append(pair)
    same_type = next(v for v in groups.values() if len(v) >= 2)
    verdict = exchangeability_verdict(
        samp, [(same_type[0], same_type[1])], seed=1020, n=20_000
    )
    ok = abs(freq - float(oracle)) <= 3 * sigma and verdict.passed
    report(
        10,
        ok,
        f"nested-pair freq {freq:.4f} vs oracle {float(oracle):.4f}, "
        f"exchangeability p {verdict.statistic:.3g}",
    )


def test_criterion_11_pq_block_order(pq22):
    n = 100_000
    samp = PQOrderSampler(pq22)
    p = sorted(t[0] for t in pq22.table("P"))
    q = sorted(t[0] for t in pq22.table("Q"))
    block = estimate_order_event(samp, (p[0], q[0]), (p[0], q[0]), n=n, seed=1011)
    within = estimate_order_event(samp, (p[0], p[1]), (p[0], p[1]), n=n, seed=1021)
    sigma = math.sqrt(0.25 / n)
    ok = block.value == 1.0 and abs(within.value - 0.5) <= 3 * sigma
    report(
        11,
        ok,
        f"P-before-Q freq {block.value}, within-block freq {within.value:.4f}",
    )


def test_criterion_12_shift_ergodicity_dichotomy():
    n, length, block = 10_000, 256, 64
    v_iid = ergodicity_verdict(iid_bernoulli_sequences(0.5, length), block, 1012, n)
    v_mix = ergodicity_verdict(
        mixture_bernoulli_sequences(0.25, 0.75, length), block, 1022, n
    )
    analytic = 0.25 ** 2 + 0.25 * 0.75 / block
    gap = abs(v_mix.details["observed_block_var"] - analytic)
    ok = v_iid.passed and (not v_mix.passed) and gap < 0.01
    report(
        12,
        ok,
        f"iid z {v_iid.statistic:.2f}, mixture block var "
        f"{v_mix.details['observed_block_var']:.5f} vs analytic {analytic:.5f}",
    )


def test_criterion_13_orbits_equal_types(paley13):
    part = orbits(paley13, 2)
    orbit_blocks = {frozenset(b) for b in part.blocks}
    by_type: dict = {}
    for pair in itertools.permutations(paley13.elements, 2):
        by_type.setdefault(canonical_type(paley13, pair), set()).add(pair)
    type_blocks = {frozenset(v) for v in by_type.values()}
    ok = orbit_blocks == type_blocks and len(orbit_blocks) == 2
    report(13, ok, f"{len(orbit_blocks)} orbit blocks == {len(type_blocks)} type blocks")


def test_criterion_14_primitivity_probe(pq22, bip5):
    from homord.builders import bipartite_m_view

    parts_pq = invariant_equivalences(pq22)
    p = tuple(sorted(t[0] for t in pq22.table("P")))
    q = tuple(sorted(t[0] for t in pq22.table("Q")))
    split = tuple(sorted((p, q)))
    found_split = split in [tuple(sorted(x)) for x in parts_pq]
    view, _ = bipartite_m_view(bip5)
    parts_bip = invariant_equivalences(view)
    ok = found_split and len(parts_bip) == 2
    report(
        14,
        ok,
        f"P/Q congruence found; min-field view carries {len(parts_bip)} "
        "invariant equivalences (both trivial)",
    )


def test_criterion_15_bit_identical_reruns(graph_top, bip5, inv6, f2d3):
    checks = []

    uni = UniformOrderSampler(graph_top)
    checks.append(list(uni.stream(1001, 1000)) == list(uni.stream(1001, 1000)))

    asc = FixedOrder("asc", tuple(graph_top.elements))
    spec = AtomSpec(atoms=((0.35, 0.3), (0.7, 0.2)), tie_break={0.35: asc, 0.7: asc})
    ats = AtomOrderSampler(graph_top, spec)
    checks.append(list(ats.stream(1014, 500)) == list(ats.stream(1014, 500)))

    dual = DualFunctionalSampler(f2d3)
    checks.append(np.array_equal(dual.field_matrix(1008, 2000), dual.field_matrix(1008, 2000)))

    bsamp = BipartiteMinSampler(bip5)
    e1 = estimate_eta_covariance(bsamp, (0, 1), seed=1009, n=2000)
    e2 = estimate_eta_covariance(bsamp, (0, 1), seed=1009, n=2000)
    checks.append(e1 == e2)

    inv = InvolutionOrderSampler(inv6)
    checks.append(list(inv.stream(1010, 1000)) == list(inv.stream(1010, 1000)))

    checks.append(
        uniqueness_report(build_cro_system("graph", 3))
        == uniqueness_report(build_cro_system("graph", 3))
    )

    E = graph_top.table("E")
    edge = canonical_type(graph_top, next(iter(E)))
    p1 = find_tau_path(graph_top, 0, 4, edge)
    p2 = find_tau_path(graph_top, 0, 4, edge)
    checks.append(p1 == p2)

    mix = mixture_bernoulli_sequences(0.25, 0.75, 64)
    checks.append(np.array_equal(mix(1022, 100), mix(1022, 100)))

    report(15, all(checks), f"{sum(checks)}/{len(checks)} rerun digests identical")

"""The benchmark's four workloads: inputs, operations and their oracles.

Each workload has a `setup(seed)` that builds its fixed inputs (timed as part
of `setup_s`) and an `ops(inputs, seed, pass_index, ...)` that lists one pass
of operations.  An operation is one public homord call (or one `homord` CLI
invocation); its result goes to an oracle from `oracles.py`, so a fast but
wrong answer counts as a failed operation.  Inputs come from the seed and
the pass index only.

Why these workloads (each one loads a different layer and idles the rest):

  mc         samplers + stats: every sampler construction through estimates
             and the verdict suites; builders, groups and cro stay idle.
  structure  builders (graph t=3 witness completion), groups (automorphisms,
             orbits, invariant equivalences) and taupaths (index, BFS, an
             exhaustive no-path walk); samplers, stats and cro stay idle.
  exact      cro: exact assembly (canonical_type on millions of tiny tuples)
             and Fraction RREF verdicts.
  cli        the `homord` CLI as a pipeline of fresh processes: pays the
             interpreter start and `import homord` on every call, and writes
             every sample to CSV instead of reducing it to a statistic.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import homord as H
import homord.cli

import oracles as O
from oracles import require

ALPHA = 1e-7  # verdict suites that must pass; planted defects still fail by miles
N = 5000  # samples per stream; crosses the 4096-sample chunk edge


@dataclass
class Op:
    name: str
    phase: str
    run: Callable[[], object]
    check: Callable[[object], None]
    samples: int = 0
    prepare: Callable[[], None] | None = None  # untimed input prep that needs earlier results


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{pass_index}")


# --- mc ------------------------------------------------------------------------

ATOM_LOC, ATOM_MASS = 0.5, 0.5


def mc_setup(seed: int) -> dict:
    G = H.build_generic(H.graph_class(), 2, 24, 0).top
    asc = H.FixedOrder("asc", tuple(G.elements))
    PQ = H.build_two_predicate_PQ(4, 4)
    B = H.build_bipartite_deg2(6, seed)
    I = H.build_involution_order(6, seed)
    F = H.build_f2_vector_space(4)
    return {
        "G": G,
        "PQ": PQ,
        "B": B,
        "I": I,
        "uniform": H.UniformOrderSampler(G),
        "atoms": H.AtomOrderSampler(G, H.AtomSpec(((ATOM_LOC, ATOM_MASS),), {ATOM_LOC: asc})),
        "pq": H.PQOrderSampler(PQ),
        "bimin": H.BipartiteMinSampler(B),
        "involution": H.InvolutionOrderSampler(I),
        "dual": H.DualFunctionalSampler(F),
        "dim": 4,
    }


def _estimate_op(name, sampler, points, target, n, seed, prob) -> Op:
    def check(est):
        require(est.n == n, f"{name}: n = {est.n}")
        O.check_frequency(est.value, prob, n, name)

    return Op(
        f"estimate.{name}", "samples",
        lambda: H.estimate_order_event(sampler, points, target, n, seed),
        check, samples=n,
    )


def _verdict_op(name, run, expect_pass: bool, samples: int) -> Op:
    def check(v):
        if expect_pass:
            require(v.passed, f"{name}: expected pass, statistic {v.statistic:.4g} vs {v.threshold:.4g}")
        else:
            require(not v.passed, f"{name}: planted defect passed, statistic {v.statistic:.4g}")

    return Op(name, "samples", run, check, samples=samples)


def mc_ops(inp: dict, seed: int, pass_index: int, mode: str, workdir: Path) -> list[Op]:
    rng = _rng("mc", seed, pass_index)

    def s() -> int:
        return rng.randrange(2**31)

    G, PQ, B, I = inp["G"], inp["PQ"], inp["B"], inp["I"]
    ops: list[Op] = []
    half = Fraction(1, 2)

    # order-event estimates against exact probabilities
    pts = tuple(rng.sample(range(G.size), 3))
    ops.append(_estimate_op("uniform", inp["uniform"], pts, _shuffled(rng, pts), N, s(),
                            O.uniform_order_prob(3)))
    pts = tuple(rng.sample(range(G.size), 3))
    target = _shuffled(rng, pts)
    ops.append(_estimate_op("atoms", inp["atoms"], pts, target, N, s(),
                            O.atom_order_prob(list(target), half, half)))
    a, b, c = rng.sample(range(G.size), 3)
    cond = H.ConditionedAtomSampler(inp["atoms"], ATOM_LOC, (a, b))
    target = _shuffled(rng, (a, b, c))
    forced = {target.index(a), target.index(b)}
    ops.append(_estimate_op("atoms_conditioned", cond, (a, b, c), target, 1500, s(),
                            O.atom_order_prob(list(target), half, half, forced)))
    p_set = {t[0] for t in PQ.table("P")}
    pts = tuple(rng.sample(range(PQ.size), 3))
    target = _shuffled(rng, pts)
    ops.append(_estimate_op("pq", inp["pq"], pts, target, N, s(),
                            O.block_order_prob([0 if x in p_set else 1 for x in target])))
    nbrs = _bipartite_nbrs(B)
    s0 = sorted(nbrs)
    pts = tuple(rng.sample(s0, 3))
    target = _shuffled(rng, pts)
    ops.append(_estimate_op("bimin", inp["bimin"], pts, target, N, s(),
                            O.min_field_order_prob([nbrs[x] for x in target])))
    rank, partner, m_elems = _involution_tables(I)
    pts = tuple(rng.sample(m_elems, 3))
    target = _shuffled(rng, pts)
    ops.append(_estimate_op("involution", inp["involution"], pts, target, N, s(),
                            O.involution_order_prob([(rank[x], rank[partner[x]]) for x in target])))

    # monotone coupling: exact zero-violation law, pq inverts eta across blocks
    for key, expect in (("uniform", True), ("atoms", True), ("bimin", True), ("pq", False)):
        sampler, seed_k = inp[key], s()
        ops.append(_verdict_op(f"monotone.{key}", lambda sm=sampler, sd=seed_k:
                               H.test_monotone_coupling(sm, sd, N), expect, N))

    # independence: pairs pass; shared min-field neighbours and xor triples fail
    share = [(x, y) for x in s0 for y in s0 if x < y and set(nbrs[x]) & set(nbrs[y])]
    apart = [(x, y) for x in s0 for y in s0 if x < y and not set(nbrs[x]) & set(nbrs[y])]
    u4 = rng.sample(range(G.size), 4)
    v, w = rng.sample(range(1, 1 << inp["dim"]), 2)
    cases = (
        ("uniform", [tuple(u4[:2]), tuple(u4[2:])], True),
        ("bimin_apart", [rng.choice(apart)], True),
        ("bimin_shared", [rng.choice(share)], False),
        ("involution", [tuple(rng.sample(m_elems, 2))], True),
        ("dual_pairs", [(v, w), (v, v ^ w)], True),
        ("dual_xor", [(v, w, v ^ w)], False),
    )
    for label, tuples, expect in cases:
        sampler, seed_k = inp[label.split("_")[0]], s()
        ops.append(_verdict_op(f"independence.{label}", lambda sm=sampler, t=tuples, sd=seed_k:
                               H.test_independence(sm, t, sd, N, alpha=ALPHA), expect, N))

    # exchangeability: two tuples of one type must share an order-pattern law
    edges = sorted(G.table("E"))
    e1, e2 = rng.sample(edges, 2)
    q_set = sorted(set(range(PQ.size)) - p_set)
    pq_pairs = [(x, y) for x in sorted(p_set) for y in q_set]
    pattern = {(x, y): _interleaving(rank, partner, x, y)
               for x in m_elems for y in m_elems if x != y}
    inv_pair = rng.choice([(t1, t2) for t1 in pattern for t2 in pattern
                           if t1 < t2 and pattern[t1] == pattern[t2]])
    for label, pair in (
        ("uniform", (e1, e2)),
        ("pq", tuple(rng.sample(pq_pairs, 2))),
        ("bimin", tuple(rng.sample(share, 2))),
        ("involution", inv_pair),
    ):
        sampler, seed_k = inp[label], s()
        ops.append(_verdict_op(f"exchangeability.{label}", lambda sm=sampler, pr=pair, sd=seed_k:
                               H.test_exchangeability(sm, [pr], sd, N, alpha=ALPHA), True, 2 * N))

    # eta covariance: min of shared-neighbour uniforms has covariance 1/45
    for label, sampler, pair, expect in (
        ("bimin", inp["bimin"], rng.choice(share), 1 / 45),
        ("uniform", inp["uniform"], tuple(rng.sample(range(G.size), 2)), 0.0),
    ):
        def check(est, label=label, expect=expect):
            O.check_mean(est.value, expect, est.stderr, f"eta_covariance.{label}")

        seed_k = s()
        ops.append(Op(f"eta_covariance.{label}", "samples",
                      lambda sm=sampler, pr=pair, sd=seed_k: H.estimate_eta_covariance(sm, pr, sd, N),
                      check, samples=N))

    # shift ergodicity: i.i.d. sequences stay inside the band, a mixture fails
    def iid_check(v):
        require(v.statistic <= O.Z_BAND, f"shift_ergodicity.iid: z = {v.statistic:.3g}")

    seed_k = s()
    ops.append(Op("shift_ergodicity.iid", "samples",
                  lambda sd=seed_k: H.test_shift_ergodicity(H.iid_bernoulli_sequences(0.5, 256), 64, sd, N),
                  iid_check))
    seed_k = s()
    ops.append(_verdict_op("shift_ergodicity.mixture", lambda sd=seed_k: H.test_shift_ergodicity(
        H.mixture_bernoulli_sequences(0.25, 0.75, 256), 64, sd, N), False, 0))
    return ops


def _shuffled(rng: random.Random, pts) -> tuple:
    out = list(pts)
    rng.shuffle(out)
    return tuple(out)


def _bipartite_nbrs(B) -> dict[int, tuple[int, int]]:
    nbrs: dict[int, list[int]] = {}
    for x, y in B.table("R"):
        if B.sorts[x] == "S0":
            nbrs.setdefault(x, []).append(y)
    return {x: tuple(sorted(v)) for x, v in nbrs.items()}


def _involution_tables(I):
    lt = I.table("lt")
    rank = {a: sum(1 for x, y in lt if y == a) for a in range(I.size)}
    partner = dict(I.table("f"))
    m_elems = sorted(a for a in range(I.size) if I.sorts[a] == "M")
    return rank, partner, m_elems


def _interleaving(rank, partner, a, b) -> tuple[str, ...]:
    names = {a: "a", b: "b", partner[a]: "fa", partner[b]: "fb"}
    return tuple(names[x] for x in sorted(names, key=rank.get))


# --- structure ------------------------------------------------------------------

# The graph t=3 chain is grown from a fixed build seed: its cost swings from
# ~25 s to ~52 s across build seeds, which would drown any change in noise.
# Build seed 2 gives 83 vertices in 7 levels in ~25 s; the baseline's seed 0
# (86 vertices, 8 levels, ~50 s) would double the length of every run.
CHAIN_T, CHAIN_CAP, CHAIN_SEED = 3, 200, 2
AUT_ORDER = {"paley13": 78, "paley17": 136, "cube4": 384}
EQUIVALENCES = {"paley13": 2, "paley17": 2, "cube4": 4}
PATH_QUERIES = 24


def structure_setup(seed: int) -> dict:
    cube = H.hypercube_graph(4)
    return {
        "spec": H.graph_class(),
        "fixtures": {"paley13": H.paley_graph(13), "paley17": H.paley_graph(17), "cube4": cube},
        "cube_edge": H.canonical_type(cube, (0, 1)),
    }


def structure_ops(inp: dict, seed: int, pass_index: int, mode: str, workdir: Path) -> list[Op]:
    rng = _rng("structure", seed, pass_index)
    spec = inp["spec"]
    state: dict = {}
    ops: list[Op] = []

    def chain_check(chain):
        top = chain.top
        require(chain.saturation[-1] == CHAIN_T, f"chain: top saturation {chain.saturation[-1]}")
        spec.validate(top)
        require(O.witness_saturated(top.size, top.table("E"), CHAIN_T),
                "chain: top is not witness-saturated at depth t")
        state["chain"] = chain

    ops.append(Op("build_generic", "chain",
                  lambda: H.build_generic(spec, CHAIN_T, CHAIN_CAP, CHAIN_SEED), chain_check))

    a, b = rng.sample((0, 1), 2)

    def acl_check(prof):
        chain = state["chain"]
        sizes = prof.orbit_sizes
        require(len(sizes) == len(chain.levels) and min(sizes) >= 1, "acl: bad orbit sizes")
        require(b in prof.final_orbit, "acl: b is not in its own orbit")
        if sizes[-1] > sizes[-2]:
            require(prof.verdict == "growing", f"acl: verdict {prof.verdict}")
        E = chain.top.table("E")
        for y in prof.final_orbit:
            require(((a, y) in E) == ((a, b) in E), f"acl: {y} differs from b over A")
            require(sum(1 for e in E if e[0] == y) == sum(1 for e in E if e[0] == b),
                    f"acl: {y} has another degree than b")

    ops.append(Op("acl_profile", "aut", lambda: H.acl_profile(state["chain"], {a}, b), acl_check))

    for name, S in inp["fixtures"].items():
        edges = sorted(S.table("E"))

        def aut_check(g, name=name, S=S, edges=edges):
            require(g.complete, f"{name}: enumeration incomplete")
            O.check_automorphisms(g.elements, S.size, edges, AUT_ORDER[name], name)
            state["group", name] = g.elements

        ops.append(Op("automorphisms", "aut", lambda S=S: H.automorphisms(S), aut_check))

        for k, fixed in ((2, frozenset()), (3, frozenset({rng.randrange(S.size)}))):
            def orbit_check(part, name=name, S=S, k=k, fixed=fixed):
                O.check_tuple_partition(part.blocks, S.size, k, f"{name} orbits k={k}")
                want = O.burnside_count(state["group", name], k, fixed)
                require(len(part.blocks) == want, f"{name} orbits k={k}: {len(part.blocks)} != {want}")

            ops.append(Op("orbits", "aut", lambda S=S, k=k, fixed=fixed: H.orbits(S, k, fixed=fixed),
                          orbit_check))

        def equiv_check(parts, name=name, S=S):
            O.check_invariant_partitions(parts, S.size, state["group", name], EQUIVALENCES[name], name)

        ops.append(Op("invariant_equivalences", "aut", lambda S=S: H.invariant_equivalences(S),
                      equiv_check))

    def index_check(index):
        top = state["chain"].top
        E = top.table("E")
        kinds = {}
        for code, firsts in index.first.items():
            pairs = {(x, y) for x, ys in firsts.items() for y in ys}
            joined = {p in E for p in pairs}
            require(len(joined) == 1, "tau index: a code mixes edges and non-edges")
            kinds[joined.pop()] = (code, pairs)
        require(set(kinds) == {True, False}, "tau index: edge and non-edge codes expected")
        require(kinds[True][1] == set(E), "tau index: edge code does not cover the edges")
        require(len(kinds[False][1]) == top.size * (top.size - 1) - len(E), "tau index: non-edges")
        state["index"] = index
        state["tau"] = {kind: code for kind, (code, _) in kinds.items()}

    ops.append(Op("build_tau_index", "path", lambda: H.build_tau_index(state["chain"].top),
                  index_check))

    for q in range(PATH_QUERIES):
        edge = q % 2 == 0
        narrow = q % 4 >= 2  # avoid every common witness: forces length 4
        ends = rng.sample(range(80), 2)  # the top has 83 vertices
        ops.append(_path_query_op(state, ends, edge, narrow))

    cube, cube_tau = inp["fixtures"]["cube4"], inp["cube_edge"]
    cube_edges = cube.table("E")
    for q in range(6):
        x = rng.randrange(16)
        odd = q < 4  # odd Hamming distance: parity forbids any path
        while True:
            mask = rng.randrange(1, 16)
            if (bin(mask).count("1") % 2 == 1) == odd:
                break

        def cube_check(path, x=x, y=x ^ mask, mask=mask, odd=odd):
            if odd:
                require(path is None, f"cube {x}->{y}: parity-blocked query found a path")
                return
            require(path is not None, f"cube {x}->{y}: no path found")
            H.verify_tau_path(cube, path)
            O.check_alternating_path(path.nodes, lambda u, w: (u, w) in cube_edges, (), "cube")
            require(path.length == bin(mask).count("1"), f"cube {x}->{y}: not shortest")

        ops.append(Op("find_tau_path.cube", "path",
                      lambda x=x, y=x ^ mask: H.find_tau_path(cube, x, y, cube_tau), cube_check))
    return ops


def _path_query_op(state: dict, ends, edge: bool, narrow: bool) -> Op:
    a, b = ends
    avoid: set[int] = set()

    def joined_fn():
        E = state["chain"].top.table("E")
        return (lambda u, w: (u, w) in E) if edge else (lambda u, w: u != w and (u, w) not in E)

    def witnesses(joined, n, x, y):
        return {w for w in range(n) if w not in (x, y) and joined(x, w) and joined(y, w)}

    def prepare():
        if narrow:
            avoid.update(witnesses(joined_fn(), state["chain"].top.size, a, b))

    def run():
        return H.find_tau_path(state["chain"].top, a, b, state["tau"][edge],
                               avoid=frozenset(avoid), index=state["index"])

    def check(path):
        top = state["chain"].top
        joined = joined_fn()
        n = top.size
        label = f"path {a}->{b} {'edge' if edge else 'nonedge'}"
        # shortest length from plain adjacency: 2 if a common witness is
        # allowed, else 4 if a, w1, y, w2, b exists with the interior allowed
        free = set(range(n)) - avoid
        if witnesses(joined, n, a, b) & free:
            shortest = 2
        else:
            shortest = None
            for y in free - {a, b}:
                left = witnesses(joined, n, a, y) & free - {b}
                right = witnesses(joined, n, y, b) & free - {a}
                if left and right and len(left | right) >= 2:
                    shortest = 4
                    break
        if shortest is None:
            require(path is None or path.length >= 6, f"{label}: a path shorter than 6 appeared")
            if path is None:
                return
        require(path is not None, f"{label}: no path, expected length {shortest}")
        H.verify_tau_path(top, path)
        O.check_alternating_path(path.nodes, joined, avoid, label)
        require(path.nodes[0] == a and path.nodes[-1] == b, f"{label}: wrong endpoints")
        if shortest is not None:
            require(path.length == shortest, f"{label}: length {path.length}, shortest {shortest}")

    return Op("find_tau_path", "path", run, check, prepare=prepare)


# --- exact ------------------------------------------------------------------------

# (class, level, nullity, Dirac solutions) from the frozen exact verdicts.
REPORTS = (
    ("graph", 4, 23, 0),
    ("tournament", 4, 27, 0),
    ("kn_free_graph:3", 4, 16, 0),
    ("linear_order", 5, 56, 2),
)
ASSEMBLY_ONLY = (("graph", 5), ("tournament", 5))


def exact_setup(seed: int) -> dict:
    return {}


def exact_ops(inp: dict, seed: int, pass_index: int, mode: str, workdir: Path) -> list[Op]:
    # The inputs are fixed; the seed only shuffles the order of the systems.
    items = [(c, level, (null, dirac)) for c, level, null, dirac in REPORTS]
    items += [(c, level, None) for c, level in ASSEMBLY_ONLY]
    _rng("exact", seed, pass_index).shuffle(items)
    ops: list[Op] = []
    for class_name, level, verdict in items:
        state: dict = {}
        label = f"{class_name} L={level}"

        def build_check(system, label=label, class_name=class_name, level=level, state=state,
                        keep=verdict is not None):
            want = sum(O.labelled_count(class_name, k) for k in range(1, level + 1))
            require(len(system.variables) == want, f"{label}: {len(system.variables)} vars, expected {want}")
            uniform = [Fraction(1, math.factorial(v.level)) for v in system.variables]
            O.check_solution(((r.coeffs, r.rhs) for r in system.rows), uniform, f"{label} uniform point")
            if keep:  # only until its report: live systems would make later ops' GC order-dependent
                state["system"] = system

        ops.append(Op("build_cro_system", "assemble",
                      lambda c=class_name, lv=level: H.build_cro_system(c, lv), build_check))
        if verdict is None:
            continue

        def report_check(rep, label=label, verdict=verdict, state=state):
            system = state.pop("system")
            require(rep.uniform_feasible, f"{label}: uniform point infeasible")
            got = (rep.nullspace_dim, rep.dirac_count)
            require(got == verdict, f"{label}: nullity/Dirac {got}, expected {verdict}")
            require(rep.num_variables == len(system.variables), f"{label}: variable count")
            for sol in rep.dirac_solutions:
                point = [Fraction(int(v.code in sol)) for v in system.variables]
                O.check_solution(((r.coeffs, r.rhs) for r in system.rows), point, f"{label} Dirac")

        ops.append(Op("uniqueness_report", "verdict",
                      lambda state=state: H.uniqueness_report(state["system"]), report_check))
    return ops


# --- cli -----------------------------------------------------------------------------

CLI_N = 20000


def cli_setup(seed: int) -> dict:
    return {}


def cli_ops(inp: dict, seed: int, pass_index: int, mode: str, workdir: Path) -> list[Op]:
    """One pipeline: build -> sample -> test -> estimate -> tau-path -> orbits
    -> cro.  mode 'subprocess' runs `python -m homord` per step; 'inprocess'
    calls homord.cli.main with the same argument lists."""
    rng = _rng("cli", seed, pass_index)
    run_seed = rng.randrange(2**31)
    d = workdir
    chain, samples = d / "chain.json", d / "samples.csv"
    # The chain is the fixed 18-vertex t=2 chain of build seed 0, as in mc.
    pts = rng.sample(range(18), 3)
    a, b = rng.sample(range(18), 2)
    call = _subprocess_cli if mode == "subprocess" else _inprocess_cli
    spec = H.graph_class()

    def top():
        return H.chain_loads(chain.read_text()).top

    def step(sub: str, argv: list[str], check: Callable[[dict], None], out: str) -> Op:
        def run():
            return call([sub, *argv, "--out", str(d / out)])

        def checked(code):
            has_payload = out.endswith(".json") and out != chain.name and code in (0, 1)
            check({"code": code, "payload": json.loads((d / out).read_text()) if has_payload else {}})

        return Op(f"cli.{sub}", "cli", run, checked)

    def build_check(r):
        require(r["code"] == 0, f"build: exit {r['code']}")
        c = H.chain_loads(chain.read_text())
        spec.validate(c.top)
        require(c.saturation[-1] == 2, f"build: saturation {c.saturation[-1]}")
        require(O.witness_saturated(c.top.size, c.top.table("E"), 2), "build: top not saturated")

    def sample_check(r):
        require(r["code"] == 0, f"sample: exit {r['code']}")
        S = top()
        k = S.size
        first = next(iter(H.UniformOrderSampler(S).stream(run_seed, 1))).order
        with samples.open(newline="") as fh:
            reader = csv.reader(fh)
            head = next(reader)
            require(head[: k + 1] == ["sampleIndex"] + [f"pos{j}" for j in range(k)], "sample: header")
            count = 0
            for row in reader:
                order = [int(x) for x in row[1: k + 1]]
                eta = [float(x) for x in row[k + 1:]]
                require(int(row[0]) == count, "sample: sample index out of sequence")
                require(count or tuple(order) == first, "sample: row 0 differs from the API")
                require(sorted(order) == list(range(k)), "sample: a row is not a permutation")
                along = [eta[p] for p in order]
                require(all(x <= y for x, y in zip(along, along[1:])), "sample: order does not sort eta")
                count += 1
        require(count == CLI_N, f"sample: {count} CSV rows after the header, expected {CLI_N}")

    def test_check(r):
        verdicts = r["payload"]["verdicts"]
        require(r["code"] == (0 if all(v["pass"] for v in verdicts) else 1), "test: exit code rule")
        require(r["code"] == 0 and verdicts[0]["statistic"] == 0.0, "test: monotone verdict failed")

    def estimate_check(r):
        require(r["code"] == 0, f"estimate: exit {r['code']}")
        require(r["payload"]["n"] == CLI_N, "estimate: n")
        O.check_frequency(r["payload"]["value"], O.uniform_order_prob(3), CLI_N, "cli estimate")

    def path_check(r):
        require(r["code"] == 0 and r["payload"]["found"], f"tau-path: exit {r['code']}")
        S = top()
        E = S.table("E")
        nodes = tuple(r["payload"]["nodes"])
        H.verify_tau_path(S, H.TauPath(nodes, H.canonical_type(S, next(iter(sorted(E))))))
        O.check_alternating_path(nodes, lambda u, w: (u, w) in E, (), "cli tau-path")
        require(len(nodes) == 3 and (nodes[0], nodes[-1]) == (a, b), "tau-path: not the shortest a-b path")

    def orbits_check(r):
        require(r["code"] == 0, f"orbits: exit {r['code']}")
        S = top()
        blocks = [[tuple(t) for t in block] for block in r["payload"]["blocks"]]
        O.check_tuple_partition(blocks, S.size, 2, "cli orbits")
        group = H.automorphisms(S).elements
        O.check_automorphisms(group, S.size, sorted(S.table("E")), len(group), "cli orbits group")
        require(len(blocks) == O.burnside_count(group, 2, frozenset()), "orbits: block count")

    def cro_check(r):
        require(r["code"] == 0, f"cro: exit {r['code']}")
        p = r["payload"]
        require(p["nullspaceDim"] == 23 and p["diracSolutions"] == [], "cro: graph L=4 verdict")
        require(p["uniformFeasible"] and len(p["variables"]) == 75, "cro: graph L=4 system")

    csv_pts = ",".join(map(str, pts))
    return [
        step("build", ["--class", "graph", "--sat", "2", "--cap", "24", "--seed", "0"],
             build_check, "chain.json"),
        step("sample", ["--sampler", "uniform", "--in", str(chain), "--n", str(CLI_N),
                        "--seed", str(run_seed)], sample_check, "samples.csv"),
        step("test", ["--suite", "monotone", "--sampler", "uniform", "--in", str(chain),
                      "--n", str(CLI_N), "--seed", str(run_seed)], test_check, "test.json"),
        step("estimate", ["--sampler", "uniform", "--in", str(chain), "--points", csv_pts,
                          "--n", str(CLI_N), "--seed", str(run_seed)], estimate_check, "estimate.json"),
        step("tau-path", ["--in", str(chain), "--a", str(a), "--b", str(b), "--tau", "edge"],
             path_check, "path.json"),
        step("orbits", ["--in", str(chain), "--k", "2"], orbits_check, "orbits.json"),
        step("cro", ["--class", "graph", "--n", "4"], cro_check, "cro.json"),
    ]


def _subprocess_cli(argv: list[str]) -> int:
    proc = subprocess.run(
        [sys.executable, "-m", "homord", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=150, env=os.environ,
    )
    if proc.returncode == 2:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode


def _inprocess_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return homord.cli.main(argv)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    ops: Callable[..., list[Op]]


WORKLOADS = {
    "mc": Workload(mc_setup, mc_ops),
    "structure": Workload(structure_setup, structure_ops),
    "exact": Workload(exact_setup, exact_ops),
    "cli": Workload(cli_setup, cli_ops),
}

"""Builders: class checkers, witness completion, example structures."""

import itertools
import json
import math

import pytest

from helpers import plain_is_member
from homord.builders import (
    StructureChain,
    audit_saturation,
    bipartite_deg2_class,
    bipartite_m_view,
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    chain_dumps,
    chain_from_json,
    chain_loads,
    class_by_name,
    find_involution_pattern_pair,
    graph_class,
    hypercube_chain,
    hypercube_graph,
    involution_m_view,
    involution_order_chain,
    involution_order_class,
    involution_pair_pattern,
    kn_free_graph_class,
    linear_order_class,
    paley_graph,
    pure_set_chain,
    pure_set_class,
    tournament_class,
    two_predicate_class,
)
from homord.cro import _mask_structure
from homord.errors import SaturationInfeasibleError, ValidationError
from homord.structures import FinStructure, Signature, induced_substructure, make_structure

GSIG = Signature((("E", 2),))


def graph(n, edges):
    sym = set()
    for a, b in edges:
        sym.add((a, b))
        sym.add((b, a))
    return make_structure(GSIG, n, {"E": sym})


def arc_changes(arcs, k):
    """arcs, then each copy with one loop added, one arc dropped or one
    reverse arc added (a 2-cycle) on k points: the cases a bitset check
    detects differently from a tuple walk."""
    yield arcs
    for x in range(k):
        yield arcs | {(x, x)}
    for a, b in arcs:
        yield arcs - {(a, b)}
        if (b, a) not in arcs:
            yield arcs | {(b, a)}


class TestMembership:
    def test_graph_checker(self):
        spec = graph_class()
        assert spec.is_member(graph(3, [(0, 1)]))
        loop = make_structure(GSIG, 2, {"E": {(0, 0)}})
        assert not spec.is_member(loop)
        asym = make_structure(GSIG, 2, {"E": {(0, 1)}})
        assert not spec.is_member(asym)

    def test_kn_free(self):
        spec = kn_free_graph_class(3)
        assert spec.is_member(graph(3, [(0, 1), (1, 2)]))
        assert not spec.is_member(graph(3, [(0, 1), (1, 2), (0, 2)]))
        with pytest.raises(ValidationError):
            kn_free_graph_class(2)

    def test_tournament(self):
        spec = tournament_class()
        sig = spec.signature
        good = make_structure(sig, 3, {"A": {(0, 1), (1, 2), (2, 0)}})
        assert spec.is_member(good)
        both = make_structure(sig, 2, {"A": {(0, 1), (1, 0)}})
        assert not spec.is_member(both)
        neither = make_structure(sig, 2, {"A": set()})
        assert not spec.is_member(neither)

    def test_linear_order(self):
        spec = linear_order_class()
        sig = spec.signature
        chain3 = make_structure(sig, 3, {"lt": {(0, 1), (0, 2), (1, 2)}})
        assert spec.is_member(chain3)
        cyclic = make_structure(sig, 3, {"lt": {(0, 1), (1, 2), (2, 0)}})
        assert not spec.is_member(cyclic)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_linear_order_brute_force(self, k):
        # of the arc wirings (one direction per pair), the checker accepts
        # exactly those transitive on every triple, and there are k! of them
        spec = linear_order_class()
        pairs = list(itertools.combinations(range(k), 2))
        accepted = 0
        for flips in itertools.product((False, True), repeat=len(pairs)):
            lt = {(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)}
            transitive = all((a, c) in lt for a, b, c in itertools.permutations(range(k), 3)
                             if (a, b) in lt and (b, c) in lt)
            assert spec.is_member(make_structure(spec.signature, k, {"lt": lt})) == transitive
            accepted += transitive
        assert accepted == math.factorial(k)

    def test_two_predicate(self):
        spec = two_predicate_class()
        S = build_two_predicate_PQ(2, 1)
        assert spec.is_member(S)
        sig = spec.signature
        overlap = make_structure(sig, 1, {"P": {(0,)}, "Q": {(0,)}})
        assert not spec.is_member(overlap)

    def test_empty_structure_accepted(self):
        # hereditary classes must admit the empty structure
        for spec in (
            pure_set_class(),
            graph_class(),
            kn_free_graph_class(3),
            tournament_class(),
            linear_order_class(),
        ):
            empty = make_structure(spec.signature, 0, {})
            assert spec.is_member(empty), spec.name

    @pytest.mark.parametrize("names", [("graph", "kn_free_graph:3", "kn_free_graph:4"),
                                       ("tournament",), ("linear_order",)],
                             ids=["graph", "tournament", "linear_order"])
    def test_bitset_checks_match_tuple_checks(self, names):
        # every structure a mask wires on k <= 5 points, and its arc changes;
        # the classes in names share one signature
        specs = [class_by_name(name) for name in names]
        ((rel, _),) = specs[0].signature.relations
        for k in range(6):
            for mask in range(1 << k * (k - 1) // 2):
                for arcs in arc_changes(_mask_structure(specs[0], k, mask).tables[rel], k):
                    S = FinStructure(specs[0].signature, k, {rel: arcs})
                    for spec in specs:
                        assert spec.is_member(S) == plain_is_member(spec, S), (spec.name, S)

    @pytest.mark.parametrize("name, build", [("bipartite_deg2", build_bipartite_deg2),
                                             ("involution_order", build_involution_order)])
    def test_sorted_bitset_checks_match_tuple_checks(self, name, build):
        # built members, the arc changes of each binary relation, each copy
        # with one symmetric pair of arcs added, and each copy with one
        # point's sort label swapped for the other label
        spec = class_by_name(name)
        for size, seed in itertools.product(range(1, 6), range(3)):
            S = build(size, seed)
            copies = [FinStructure(S.signature, S.size, {**S.tables, rel: arcs}, S.sorts)
                      for rel, _ in S.signature.relations
                      for arcs in itertools.chain(
                          arc_changes(S.tables[rel], S.size),
                          (S.tables[rel] | {(a, b), (b, a)}
                           for a, b in itertools.combinations(range(S.size), 2)))]
            swap = dict(zip(sorted(set(S.sorts)), sorted(set(S.sorts), reverse=True)))
            copies += [FinStructure(S.signature, S.size, S.tables,
                                    S.sorts[:x] + (swap[S.sorts[x]],) + S.sorts[x + 1:])
                       for x in range(S.size)]
            for T in copies:
                assert spec.is_member(T) == plain_is_member(spec, T), T

    def test_class_by_name(self):
        assert class_by_name("kn_free_graph:4").params == (4,)
        assert class_by_name("graph").name == "graph"
        assert class_by_name("kn_free_graph").params == (3,)
        for bad in ("frobnicator", "graph:5", "tournament:", "kn_free_graph:x"):
            with pytest.raises(ValidationError):
                class_by_name(bad)


class TestBuildGeneric:
    def test_reproducible_byte_for_byte(self):
        a = build_generic(graph_class(), 2, 24, seed=0)
        b = build_generic(graph_class(), 2, 24, seed=0)
        assert chain_dumps(a) == chain_dumps(b)
        c = build_generic(graph_class(), 2, 24, seed=1)
        assert chain_dumps(a) != chain_dumps(c)

    def test_saturation_audited(self, graph_chain):
        top = graph_chain.top
        assert graph_chain.saturation[-1] == 2
        assert audit_saturation(top, graph_class(), 2) == 2

    def test_negative_audit_depth_rejected(self, graph_chain):
        # a depth below 0 is malformed, as it is for build_generic
        assert audit_saturation(graph_chain.top, graph_class(), 0) == 0
        with pytest.raises(ValidationError, match="depth -1 < 0"):
            audit_saturation(graph_chain.top, graph_class(), -1)

    def test_depth1_witnesses(self):
        # depth 1: every vertex has both a neighbor and a non-neighbor
        chain = build_generic(graph_class(), 1, 24, seed=3)
        S = chain.top
        E = S.table("E")
        for a in S.elements:
            others = [c for c in S.elements if c != a]
            assert any((a, c) in E for c in others)
            assert any((a, c) not in E for c in others)

    def test_depth2_witnesses(self, graph_top):
        # depth 2: every pair has a common neighbor and a common non-neighbor
        E = graph_top.table("E")
        for a, b in itertools.combinations(graph_top.elements, 2):
            nbr = [c for c in graph_top.elements if c not in (a, b)]
            assert any((a, c) in E and (b, c) in E for c in nbr)
            assert any((a, c) not in E and (b, c) not in E for c in nbr)

    def test_hereditarity_spot_check(self, graph_top):
        spec = graph_class()
        for size in (2, 3, 4):
            for pts in itertools.islice(
                itertools.combinations(range(graph_top.size), size), 60
            ):
                assert spec.is_member(induced_substructure(graph_top, pts))

    def test_kn_free_never_builds_clique(self):
        spec = kn_free_graph_class(4)
        chain = build_generic(spec, 2, 64, seed=0)
        S = chain.top
        E = S.table("E")
        for quad in itertools.combinations(S.elements, 4):
            assert not all(
                (x, y) in E for x, y in itertools.combinations(quad, 2)
            )
        assert chain.saturation[-1] >= 2

    def test_pure_set_trivial(self):
        chain = build_generic(pure_set_class(), 3, 7, seed=0)
        assert chain.top.size == 7
        assert chain.saturation == (3,)
        assert build_generic(pure_set_class(), 3, 3, seed=0).saturation == (2,)

    def test_cap_exceeded(self):
        with pytest.raises(SaturationInfeasibleError):
            build_generic(graph_class(), 2, 4, seed=0)

    def test_cap_hit_mid_round(self):
        # the round from 6 vertices adds 6 witnesses at cap 64; cap 10 stops it after 4
        sizes = [S.size for S in build_generic(graph_class(), 2, 64, seed=0).levels]
        assert sizes == [2, 6, 12, 17, 18]
        with pytest.raises(SaturationInfeasibleError) as err:
            build_generic(graph_class(), 2, 10, seed=0)
        assert str(err.value) == "saturation infeasible at cap 10 (depth 2, size 10)"

    def test_saturation_matches_audit(self):
        # the build reads each level's depth off its round's frontier; the
        # audit walks the finished level afresh, one size bound at a time
        built = 0
        for cls in ("graph", "tournament", "kn_free_graph:3", "kn_free_graph:4", "pure_set"):
            spec = class_by_name(cls)
            for t, cap, seed in itertools.product(range(4), (3, 8, 40, 120), range(3)):
                try:
                    chain = build_generic(spec, t, cap, seed)
                except SaturationInfeasibleError:
                    continue
                want = tuple(audit_saturation(S, spec, t) for S in chain.levels)
                assert chain.saturation == want, (cls, t, cap, seed)
                built += 1
        assert built == 155

    def test_non_witnessable_rejected(self):
        with pytest.raises(ValidationError):
            build_generic(linear_order_class(), 1, 8, seed=0)

    def test_levels_pass_make_structure(self, graph_chain_t3):
        # the build makes each level with no tuple checks; they would have
        # rejected nothing
        chains = (graph_chain_t3,
                  build_generic(class_by_name("tournament"), 3, 400, seed=1),
                  build_generic(class_by_name("kn_free_graph:4"), 2, 200, seed=0))
        for chain in chains:
            for S in chain.levels:
                assert S == make_structure(S.signature, S.size, S.tables, S.sorts)

    def test_chain_levels_nest(self, graph_chain):
        for lo, hi in zip(graph_chain.levels, graph_chain.levels[1:]):
            assert induced_substructure(hi, tuple(range(lo.size))) == lo


class TestPQ:
    def test_sizes_and_disjointness(self):
        S = build_two_predicate_PQ(3, 2)
        p = {t[0] for t in S.table("P")}
        q = {t[0] for t in S.table("Q")}
        assert len(p) == 3 and len(q) == 2
        assert p | q == set(S.elements) and not (p & q)

    def test_degenerate_empty_p(self):
        S = build_two_predicate_PQ(0, 2)
        assert S.size == 2 and not S.table("P")


class TestBipartite:
    def test_degrees_exactly_two(self, bip5):
        R = bip5.table("R")
        for a in bip5.elements_of_sort("S0"):
            assert sum(1 for x, _ in R if x == a) == 2

    def test_no_same_sort_edges(self, bip5):
        for a, b in bip5.table("R"):
            assert {bip5.sort_of(a), bip5.sort_of(b)} == {"S0", "S1"}

    def test_m1_and_m2_shapes(self):
        S1 = build_bipartite_deg2(1, seed=0)
        assert len(S1.elements_of_sort("S1")) == 2
        S2 = build_bipartite_deg2(2, seed=0)
        # forced shared neighbor
        assert len(S2.elements_of_sort("S1")) == 3

    def test_class_checker(self, bip5):
        assert bipartite_deg2_class().is_member(bip5)

    def test_m_view_share_relations(self, bip5):
        view, carrier = bipartite_m_view(bip5)
        R = bip5.table("R")
        nbrs = {
            a: {b for x, b in R if x == a} for a in bip5.elements_of_sort("S0")
        }
        for i, a in enumerate(carrier):
            for j, b in enumerate(carrier):
                if i == j:
                    continue
                k = len(nbrs[a] & nbrs[b])
                assert view.holds(f"share{k}", (i, j))

    def test_some_pair_shares_exactly_one(self, bip5):
        view, carrier = bipartite_m_view(bip5)
        assert view.table("share1")


class TestInvolution:
    def test_involution_law(self, inv6):
        f = dict(inv6.table("f"))
        assert all(f[f[a]] == a and f[a] != a for a in inv6.elements)

    def test_total_order(self, inv6):
        lt = inv6.table("lt")
        for a, b in itertools.combinations(inv6.elements, 2):
            assert ((a, b) in lt) != ((b, a) in lt)

    def test_m_sort_is_upper_member_of_pair(self, inv6):
        f = dict(inv6.table("f"))
        lt = inv6.table("lt")
        for a in inv6.elements_of_sort("M"):
            assert (f[a], a) in lt

    def test_pattern_scan(self, inv6):
        pair = find_involution_pattern_pair(inv6, "fa<fb<a<b")
        assert pair is not None
        assert involution_pair_pattern(inv6, *pair) == "fa<fb<a<b"

    def test_pattern_consistency_all_pairs(self, inv6):
        # the reported pattern string must order the four points correctly
        f = dict(inv6.table("f"))
        lt = inv6.table("lt")
        rank = {a: sum(1 for t in lt if t[1] == a) for a in inv6.elements}
        ms = inv6.elements_of_sort("M")
        for a, b in itertools.permutations(ms, 2):
            pat = involution_pair_pattern(inv6, a, b)
            vals = {"a": rank[a], "b": rank[b], "fa": rank[f[a]], "fb": rank[f[b]]}
            names = pat.split("<")
            assert [v for v in sorted(vals, key=vals.get)] == names

    def test_chain_nesting(self):
        chain = involution_order_chain([2, 4], seed=5)
        assert [S.size for S in chain.levels] == [4, 8]
        lo, hi = chain.levels
        assert induced_substructure(hi, tuple(range(4))) == lo
        assert involution_order_class().is_member(hi)

    def test_m_view_traces(self, inv6):
        view, carrier = involution_m_view(inv6)
        f = dict(inv6.table("f"))
        lt = inv6.table("lt")
        for i, a in enumerate(carrier):
            for j, b in enumerate(carrier):
                if i == j:
                    continue
                assert view.holds("lt", (i, j)) == ((a, b) in lt)
                assert view.holds("flt", (i, j)) == ((f[a], b) in lt)
                assert view.holds("fltf", (i, j)) == ((f[a], f[b]) in lt)


class TestF2:
    def test_xor_table_exhaustive(self):
        for d in (1, 2, 3):
            S = build_f2_vector_space(d)
            add = S.table("add")
            assert len(add) == (1 << d) ** 2
            for a, b, c in add:
                assert a ^ b == c
            assert S.table("zero") == frozenset({(0,)})

    def test_self_inverse(self):
        S = build_f2_vector_space(3)
        add = S.table("add")
        for a in S.elements:
            assert (a, a, 0) in add

    def test_dim_bounds(self):
        with pytest.raises(ValidationError):
            build_f2_vector_space(0)
        with pytest.raises(ValidationError):
            build_f2_vector_space(9)


class TestFixedGraphs:
    def test_paley13_strongly_regular(self, paley13):
        # srg(13, 6, 2, 3)
        E = paley13.table("E")
        adj = {a: {b for x, b in E if x == a} for a in paley13.elements}
        assert all(len(adj[a]) == 6 for a in paley13.elements)
        for a, b in itertools.combinations(paley13.elements, 2):
            common = len(adj[a] & adj[b])
            assert common == (2 if b in adj[a] else 3)

    def test_paley_saturation_two(self, paley13):
        assert audit_saturation(paley13, graph_class(), 2) == 2

    def test_paley_rejects_bad_modulus(self):
        with pytest.raises(ValidationError):
            paley_graph(7)  # 7 % 4 == 3

    def test_hypercube(self):
        S = hypercube_graph(3)
        E = S.table("E")
        assert len(E) == 2 * 12
        for a, b in E:
            x = a ^ b
            assert x and x & (x - 1) == 0  # differ in exactly one bit

    def test_hypercube_chain_nests(self):
        chain = hypercube_chain(3)
        assert [S.size for S in chain.levels] == [2, 4, 8]


class TestChainIO:
    def test_json_roundtrip(self, graph_chain):
        assert chain_dumps(chain_loads(chain_dumps(graph_chain))) == chain_dumps(
            graph_chain
        )

    def test_broken_nesting_rejected(self):
        a = graph(2, [(0, 1)])
        b = graph(3, [])  # prefix no longer has the edge
        with pytest.raises(ValidationError):
            StructureChain("graph", (a, b), (0, 0))

    @pytest.mark.parametrize("text", [
        "not json",
        "[]",
        '{"class": "graph", "saturation": [0]}',
        '{"class": "graph", "levels": 5, "saturation": [0]}',
        '{"class": "graph", "levels": [5], "saturation": [0]}',
        '{"class": "graph", "levels": [{"sig": [["E", 2]], "size": 2, "rel": []}],'
        ' "saturation": [0]}',
        '{"class": "graph", "levels": [{"sig": [["E", 2]], "size": 2}], "saturation": ["x"]}',
    ])
    def test_malformed_json_rejected(self, text):
        with pytest.raises(ValidationError):
            chain_loads(text)

    @pytest.mark.parametrize("text", [
        '{"class": "frobnicator", "levels": [{"sig": [], "size": 1}], "saturation": [0]}',
        '{"class": "kn_free_graph:x", "levels": [{"sig": [], "size": 1}], "saturation": [0]}',
        '{"class": 7, "levels": [{"sig": [], "size": 1}], "saturation": [0]}',
        '{"class": "graph", "levels": [{"sig": [["E", 2]], "size": 2, "rel": {"E": [[0, 1]]}}],'
        ' "saturation": [0]}',
        '{"class": "graph", "levels": [{"sig": [["A", 2]], "size": 1}], "saturation": [0]}',
        '{"class": "kn_free_graph:3", "levels": [{"sig": [["E", 2]], "size": 3, "rel": {"E":'
        ' [[0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1]]}}], "saturation": [0]}',
    ])
    def test_level_outside_class_rejected(self, text):
        with pytest.raises(ValidationError):
            chain_loads(text)

    # a claim of 12 on 18 vertices would walk ~3^18 instances if the audit
    # walked every instance up to size 12; it stops at the first open one
    @pytest.mark.parametrize("level,delta", [(-1, 1), (-1, 10), (1, -1), (0, 1), (3, 1), (0, -1)])
    def test_tampered_saturation_rejected(self, graph_chain, level, delta):
        obj = json.loads(chain_dumps(graph_chain))
        assert obj["saturation"] == [0, 1, 1, 1, 2]
        assert chain_from_json(obj) == graph_chain
        obj["saturation"][level] += delta
        with pytest.raises(ValidationError, match="saturation"):
            chain_from_json(obj)

    def test_raised_top_claim_rejected_at_depth_3(self, graph_chain_t3):
        # the audit one past the top's true depth ends at its first open
        # instance instead of walking every instance of size 4
        top = graph_chain_t3.top
        assert top.size == 83 and graph_chain_t3.saturation[-1] == 3
        assert audit_saturation(top, graph_class(), 4) == 3
        obj = json.loads(chain_dumps(graph_chain_t3))
        obj["saturation"][-1] = 4
        with pytest.raises(ValidationError, match="saturation"):
            chain_from_json(obj)

    def test_saturation_on_class_without_audit_rejected(self):
        chain = involution_order_chain([2, 3], 1)
        obj = json.loads(chain_dumps(chain))
        assert chain_from_json(obj) == chain
        obj["saturation"][0] = 1
        with pytest.raises(ValidationError, match="no saturation audit"):
            chain_from_json(obj)

    @pytest.mark.parametrize("make", [
        *(lambda cls=cls, t=t: build_generic(class_by_name(cls), t, 64, 3)
          for cls, t in (("graph", 2), ("kn_free_graph:3", 1), ("kn_free_graph:4", 1),
                         ("tournament", 2), ("pure_set", 2))),
        lambda: hypercube_chain(3),
        lambda: pure_set_chain([1, 3, 4]),
        lambda: involution_order_chain([2, 3], 1),
    ], ids=["graph", "k3_free", "k4_free", "tournament", "pure_set", "hypercube",
            "pure_set_chain", "involution"])
    def test_builder_chains_roundtrip(self, make):
        chain = make()
        assert chain_loads(chain_dumps(chain)) == chain

"""Automorphism groups, orbits, acl profiles, invariant equivalences."""

import itertools
import math

import pytest

import homord.groups
from helpers import brute_isomorphisms, relabel
from homord.builders import (
    bipartite_m_view,
    build_generic,
    graph_class,
    hypercube_chain,
    hypercube_graph,
    paley_graph,
)
from homord.errors import ResourceLimitError, ValidationError
from homord.groups import (
    acl_profile,
    automorphisms,
    invariant_equivalences,
    orbits,
)
from homord.structures import Signature, find_isomorphism, isomorphisms, make_structure

GSIG = Signature((("E", 2),))


def graph(n, edges):
    sym = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    return make_structure(GSIG, n, {"E": sym})


def aut_brute(S):
    """Oracle: filter all n! permutations."""
    out = []
    rels = S.signature.relations
    for perm in itertools.permutations(range(S.size)):
        ok = True
        for name, arity in rels:
            T = S.table(name)
            if {tuple(perm[x] for x in t) for t in T} != T:
                ok = False
                break
        if ok:
            out.append(perm)
    return sorted(out)


C4 = graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
P3 = graph(3, [(0, 1), (1, 2)])


class TestAutomorphisms:
    def test_against_brute_force(self):
        cases = [
            C4,
            P3,
            graph(4, []),
            graph(4, [(0, 1), (2, 3)]),
            graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]),
        ]
        for S in cases:
            got = automorphisms(S)
            assert got.complete
            assert sorted(got.elements) == aut_brute(S)

    def test_c4_is_dihedral(self):
        assert len(automorphisms(C4)) == 8

    def test_paley13_order(self, paley13):
        # srg vertex-transitive: 13 translations x 6 square multipliers
        assert len(automorphisms(paley13)) == 78

    def test_group_closure(self):
        g = automorphisms(C4).elements
        as_set = set(g)
        for a, b in itertools.product(g, repeat=2):
            assert tuple(a[b[i]] for i in range(4)) in as_set

    def test_bound_cuts_off(self):
        partial = automorphisms(graph(4, []), bound=5)
        assert not partial.complete
        assert len(partial) == 5

    @pytest.mark.parametrize("bound", [0, -1, -2, 2.5])
    def test_bound_must_be_positive_int(self, bound):
        with pytest.raises(ValidationError, match="bound"):
            automorphisms(C4, bound=bound)

    def test_empty_structure(self):
        S = make_structure(GSIG, 0, {})
        assert automorphisms(S).elements == ((),)

    def test_truncated_symmetric_group(self):
        # every point has the same invariants, so the promised order is
        # itertools.permutations order
        partial = automorphisms(graph(8, []), bound=5000)
        assert partial.elements == tuple(itertools.islice(itertools.permutations(range(8)), 5000))

    def test_isomorphisms_after_find_isomorphism(self, f2d3):
        # find_isomorphism leaves its search at the first solution, and each
        # transversal search stops at its first; every search must start from
        # clean images, which the ternary and unary tables of F2^3 check
        T = relabel(f2d3, (5, 2, 7, 0, 3, 6, 1, 4))
        brute = brute_isomorphisms(f2d3, T)
        assert len(brute) == 168
        assert find_isomorphism(f2d3, T) == list(brute[0])
        assert list(isomorphisms(f2d3, T)) == brute
        assert list(automorphisms(f2d3).elements) == brute_isomorphisms(f2d3, f2d3)


def check_group(S, order):
    """S is vertex-transitive with |Aut(S)| = order: the listed elements are
    that many distinct permutations, each maps E onto E, and, as every point
    has the same invariants, they come in plain lexicographic order."""
    group = automorphisms(S)
    assert group.complete and len(group) == order
    assert len(set(group.elements)) == order
    assert all(sorted(g) == list(range(S.size)) for g in group.elements)
    E = S.table("E")
    assert all({(g[a], g[b]) for a, b in E} == E for g in group.elements)
    assert list(group.elements) == sorted(group.elements)


class TestClosedFormOrders:
    @pytest.mark.parametrize("q", [37, 41])
    def test_paley(self, q):
        # x -> a x + b with a a nonzero square mod the prime q
        check_group(paley_graph(q), q * (q - 1) // 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_hypercube(self, d):
        # a translation by a bitmask after a permutation of the d coordinates
        check_group(hypercube_graph(d), 2**d * math.factorial(d))


class TestOrbits:
    def orbit_brute(self, S, k, fixed=frozenset()):
        stab = [g for g in aut_brute(S) if all(g[x] == x for x in fixed)]
        blocks = set()
        for tup in itertools.permutations(range(S.size), k):
            blocks.add(tuple(sorted({tuple(g[x] for x in tup) for g in stab})))
        return tuple(sorted(blocks))

    def test_against_brute_force(self):
        for S in (C4, P3, graph(4, [(0, 1), (2, 3)])):
            for k in (1, 2):
                assert orbits(S, k).blocks == self.orbit_brute(S, k)

    def test_stabilized(self):
        # fixing one C4 vertex splits the others: the two neighbors
        # (swappable by the reflection) and the antipode
        part = orbits(C4, 1, fixed={0})
        assert part.blocks == self.orbit_brute(C4, 1, frozenset({0}))
        sizes = sorted(len(b) for b in part.blocks)
        assert sizes == [1, 1, 2]

    def test_pairs_of_c4(self):
        part = orbits(C4, 2)
        assert sorted(len(b) for b in part.blocks) == [4, 8]

    def test_validation(self):
        with pytest.raises(ValidationError):
            orbits(C4, 0)
        with pytest.raises(ValidationError):
            orbits(C4, 5)
        with pytest.raises(ValidationError):
            orbits(C4, 1, fixed={9})

    def test_tuple_bound(self):
        big = graph(30, [])
        with pytest.raises(ResourceLimitError):
            orbits(big, 6)

    def test_group_of_another_structure_rejected(self, paley13):
        for S, other in ((paley13, paley_graph(17)), (C4, graph(4, [(0, 1)]))):
            aut = automorphisms(other)
            with pytest.raises(ValidationError, match="another structure"):
                orbits(S, 2, aut=aut)
            with pytest.raises(ValidationError, match="another structure"):
                invariant_equivalences(S, aut=aut)

    def test_group_of_an_equal_structure_accepted(self, paley13):
        aut = automorphisms(paley_graph(13))
        assert aut.structure is not paley13
        assert orbits(paley13, 2, aut=aut) == orbits(paley13, 2)
        assert invariant_equivalences(paley13, aut=aut) == invariant_equivalences(paley13)


class TestAclProfile:
    def test_growing_on_hypercube(self):
        prof = acl_profile(hypercube_chain(3), A=set(), b=0)
        assert prof.verdict == "growing"
        assert prof.orbit_sizes == (2, 4, 8)

    def test_point_in_a_is_algebraic(self):
        prof = acl_profile(hypercube_chain(3), A={0}, b=0)
        assert prof.verdict == "algebraic-over-A"
        assert prof.final_orbit == (0,)

    def test_rigid_chain_freezes_orbit(self, graph_chain):
        # witness completion breaks symmetry, so upper levels are rigid and
        # the finite heuristic sees a frozen one-point orbit
        prof = acl_profile(graph_chain, A=frozenset(), b=1)
        assert prof.verdict == "algebraic-over-A"
        assert prof.final_orbit == (1,)
        assert len(prof.orbit_sizes) == len(graph_chain.levels)

    def test_short_chain_rejected(self, graph_top):
        from homord.builders import StructureChain

        one = StructureChain("graph", (graph_top,), (0,))
        with pytest.raises(ValidationError):
            acl_profile(one, A=set(), b=0)

    def test_out_of_range_point(self):
        with pytest.raises(ValidationError):
            acl_profile(hypercube_chain(3), A=set(), b=7)  # not in level 0


class TestInvariantEquivalences:
    def test_pq_finds_predicate_congruence(self, pq22):
        parts = invariant_equivalences(pq22)
        p = tuple(sorted(t[0] for t in pq22.table("P")))
        q = tuple(sorted(t[0] for t in pq22.table("Q")))
        split = tuple(sorted((p, q)))
        assert split in [tuple(sorted(x)) for x in parts]
        assert len(parts) >= 3  # two trivial ones plus the split

    def test_bipartite_view_only_trivial(self, bip5):
        view, carrier = bipartite_m_view(bip5)
        parts = invariant_equivalences(view)
        n = view.size
        singletons = tuple((i,) for i in range(n))
        everything = (tuple(range(n)),)
        assert sorted(parts) == sorted([singletons, everything])

    def test_partitions_are_invariant(self, pq22):
        aut = automorphisms(pq22)
        for part in invariant_equivalences(pq22):
            blocks = {frozenset(b) for b in part}
            for g in aut.elements:
                mapped = {frozenset(g[x] for x in b) for b in blocks}
                assert mapped == blocks

    def test_empty_carrier_rejected(self, pq22):
        with pytest.raises((ValidationError, KeyError)):
            invariant_equivalences(pq22, sort="nope")

    def test_reuses_callers_group(self, pq22, bip5):
        view, _ = bipartite_m_view(bip5)
        for S in (pq22, view):
            assert invariant_equivalences(S, aut=automorphisms(S)) == invariant_equivalences(S)

    def test_incomplete_group_rejected(self, pq22):
        partial = automorphisms(pq22, bound=1)
        assert not partial.complete
        with pytest.raises(ResourceLimitError):
            invariant_equivalences(pq22, aut=partial)

    def test_pair_orbit_bound(self, pq22, monkeypatch):
        # pq22 has four pair orbits: within P, within Q, P to Q and Q to P
        monkeypatch.setattr(homord.groups, "_PAIR_ORBIT_BOUND", 3)
        with pytest.raises(ResourceLimitError, match="4 pair orbits exceed bound 3"):
            invariant_equivalences(pq22)

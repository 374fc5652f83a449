"""Alternating 2-type paths: index, verification, BFS search, disjoint families."""

import itertools
from collections import deque

import pytest
from hypothesis import example, given

from helpers import plain_tau_index
from homord.builders import build_f2_vector_space, build_generic, class_by_name, hypercube_graph
from homord.errors import ResourceLimitError, TypeNotRealizedError, ValidationError
from homord.structures import Signature, canonical_type, make_structure
from homord.taupaths import (
    TauPath,
    build_tau_index,
    disjoint_tau_paths,
    find_tau_path,
    verify_tau_path,
)
from test_properties import ONE_WAY, SETTINGS, TWISTED, WIDE, wide_structures

GSIG = Signature((("E", 2),))


def graph(n, edges):
    sym = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    return make_structure(GSIG, n, {"E": sym})


EDGE = canonical_type(graph(2, [(0, 1)]), (0, 1))
NONEDGE = canonical_type(graph(2, []), (0, 1))


def shortest_len_brute(S, a, b, tau, avoid=frozenset()):
    """Oracle: BFS over full path states, no index, no pruning tricks."""
    n = S.size

    def tp(x, y):
        return canonical_type(S, (x, y))

    best = None
    queue = deque([(a,)])
    while queue:
        path = queue.popleft()
        if best is not None and len(path) - 1 >= best:
            continue
        y = path[-1]
        for w in range(n):
            if w in path or w in avoid:
                continue
            if tp(y, w) != tau:
                continue
            for y2 in range(n):
                if y2 in path or y2 == w or tp(y2, w) != tau:
                    continue
                if y2 == b:
                    if best is None or len(path) + 1 < best:
                        best = len(path) + 1
                elif y2 not in avoid:
                    queue.append(path + (w, y2))
    return best


class TestIndex:
    def test_matches_direct_type_calls(self):
        S = graph(5, [(0, 1), (1, 2), (3, 4)])
        idx = build_tau_index(S)
        for x, y in itertools.permutations(range(5), 2):
            code = canonical_type(S, (x, y))
            assert y in idx.first[code][x]
            assert x in idx.second[code][y]

    def test_realized(self):
        idx = build_tau_index(graph(3, []))
        assert idx.realized(NONEDGE)
        assert not idx.realized(EDGE)


# WIDE without its ternary relation: E and F (loops included), P and sorts
BINARY = Signature(tuple((name, arity) for name, arity in WIDE.relations if arity < 3))


@SETTINGS
@given(wide_structures())
@example(ONE_WAY)
@example(TWISTED)
@example(build_f2_vector_space(3))
@example(hypercube_graph(5))
def test_index_matches_per_pair_types(S):
    """The index against a per-pair reading, repr for repr: the codes, the
    order of every dict's keys and of every witness tuple.  A WIDE structure
    is also read without its ternary relation.  The drawn structures are
    small, and a set of small ints iterates in ascending order whatever its
    filling order, so the 5-cube, whose witness tuples are not all
    ascending, checks the witness order."""
    structures = [S]
    if S.signature == WIDE:
        tables = {name: S.tables[name] for name in BINARY.names()}
        structures.append(make_structure(BINARY, S.size, tables, S.sorts))
    for T in structures:
        index = build_tau_index(T)
        first, second = plain_tau_index(T)
        assert repr(index.first) == repr(first)
        assert repr(index.second) == repr(second)


def test_depth3_index_matches_per_pair_types(graph_chain_t3):
    """The same check on the tops of the two depth-3 chains the golden
    digests pin: graph (83 vertices) and tournament cap 400, build seed 1."""
    tournament = build_generic(class_by_name("tournament"), 3, 400, 1)
    for top in (graph_chain_t3.top, tournament.top):
        index = build_tau_index(top)
        first, second = plain_tau_index(top)
        assert repr(index.first) == repr(first), top.size
        assert repr(index.second) == repr(second), top.size


class TestVerify:
    def test_hand_path(self):
        S = graph(3, [(0, 1), (1, 2)])
        verify_tau_path(S, TauPath(nodes=(0, 1, 2), tau=EDGE))

    def test_tampered_rejected(self):
        S = graph(4, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError):
            verify_tau_path(S, TauPath(nodes=(0, 1, 3), tau=EDGE))
        with pytest.raises(ValidationError):
            verify_tau_path(S, TauPath(nodes=(0, 1), tau=EDGE))
        with pytest.raises(ValidationError):
            verify_tau_path(S, TauPath(nodes=(0, 1, 0), tau=EDGE))


class TestFind:
    def test_direct_hop(self):
        S = graph(3, [(0, 1), (1, 2)])
        path = find_tau_path(S, 0, 2, EDGE)
        assert path is not None and path.nodes == (0, 1, 2)

    def test_no_path_is_none(self):
        S = graph(3, [(0, 1), (1, 2)])
        assert find_tau_path(S, 0, 2, EDGE, avoid={1}) is None

    def test_unreachable_spends_no_states(self):
        # edges flip one coordinate, so an edge-type path keeps the parity of
        # the Hamming distance: 0 -> 7 (distance 3) has none, and the
        # component check answers before the BFS could pass its cap
        cube = hypercube_graph(4)
        assert find_tau_path(cube, 0, 7, canonical_type(cube, (0, 1)), state_cap=10) is None

    def test_reachable_search_keeps_its_cap(self):
        cube = hypercube_graph(4)
        with pytest.raises(ResourceLimitError):
            find_tau_path(cube, 0, 15, canonical_type(cube, (0, 1)), state_cap=10)

    def test_unrealized_type_raises(self):
        with pytest.raises(TypeNotRealizedError):
            find_tau_path(graph(3, []), 0, 2, EDGE)

    def test_bad_arguments(self):
        S = graph(3, [(0, 1)])
        with pytest.raises(ValidationError):
            find_tau_path(S, 0, 0, EDGE)
        with pytest.raises(ValidationError):
            find_tau_path(S, 0, 9, EDGE)
        with pytest.raises(ValidationError):
            find_tau_path(S, 0, 2, EDGE, avoid={0})

    def test_avoid_point_out_of_range(self):
        # refused as an endpoint out of range is, also through the greedy
        # family, which passes its avoid set on
        S = graph(3, [(0, 1), (1, 2)])
        for bad in (3, 99, -1):
            with pytest.raises(ValidationError, match=f"avoid point {bad} out of range"):
                find_tau_path(S, 0, 2, EDGE, avoid={bad})
            with pytest.raises(ValidationError, match=f"avoid point {bad} out of range"):
                disjoint_tau_paths(S, 0, 2, EDGE, count=1, avoid={bad})

    def test_shortest_against_brute_force(self):
        # random graphs, both 2-types, every endpoint pair
        import random

        rng = random.Random(11)
        for trial in range(12):
            n = rng.randrange(4, 7)
            edges = [
                (a, b)
                for a, b in itertools.combinations(range(n), 2)
                if rng.random() < 0.45
            ]
            S = graph(n, edges)
            idx = build_tau_index(S)
            for tau in (EDGE, NONEDGE):
                if not idx.realized(tau):
                    continue
                for a, b in itertools.combinations(range(n), 2):
                    want = shortest_len_brute(S, a, b, tau)
                    got = find_tau_path(S, a, b, tau, index=idx)
                    if want is None:
                        assert got is None
                    else:
                        assert got is not None and got.length == want

    def test_avoid_respected(self):
        S = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        path = find_tau_path(S, 0, 2, EDGE, avoid={1})
        assert path is not None
        assert 1 not in path.nodes
        assert path.length == shortest_len_brute(S, 0, 2, EDGE, avoid={1})

    def test_alternation_on_built_graph(self, graph_top):
        idx = build_tau_index(graph_top)
        E = graph_top.table("E")
        path = find_tau_path(graph_top, 0, 5, EDGE, avoid={1, 2}, index=idx)
        assert path is not None
        nodes = path.nodes
        for i in range(1, len(nodes), 2):
            assert (nodes[i - 1], nodes[i]) in E
            assert (nodes[i + 1], nodes[i]) in E
        assert not {1, 2} & set(path.interior)


class TestDisjoint:
    def test_interiors_disjoint(self, graph_top):
        # 0 and 4 share five neighbors in this build, so three length-2
        # paths with distinct middles exist
        fam = disjoint_tau_paths(graph_top, 0, 4, EDGE, count=3)
        assert fam.achieved == 3
        seen = set()
        for p in fam.paths:
            verify_tau_path(graph_top, p)
            inner = set(p.interior)
            assert not inner & seen
            seen |= inner
        lengths = {p.length for p in fam.paths}
        assert len(lengths) == 1

    def test_shortage_reported(self):
        # only one interior vertex available, so a second path cannot exist
        S = graph(3, [(0, 1), (1, 2)])
        fam = disjoint_tau_paths(S, 0, 2, EDGE, count=2)
        assert fam.achieved == 1 and fam.shortage

    def test_zero_count(self, graph_top):
        fam = disjoint_tau_paths(graph_top, 0, 5, EDGE, count=0)
        assert fam.paths == () and not fam.shortage

    def test_zero_count_checks_endpoints(self):
        S = graph(3, [(0, 1), (1, 2)])
        for a, b in ((0, 0), (0, 99), (-1, 2)):
            with pytest.raises(ValidationError):
                disjoint_tau_paths(S, a, b, EDGE, count=0)

    def test_zero_count_checks_avoid(self):
        S = graph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValidationError, match="avoid point -5 out of range"):
            disjoint_tau_paths(S, 0, 2, EDGE, count=0, avoid={-5})
        with pytest.raises(ValidationError, match="endpoints may not be avoided"):
            disjoint_tau_paths(S, 0, 2, EDGE, count=0, avoid={2})

    def test_zero_count_checks_tau(self):
        with pytest.raises(TypeNotRealizedError):
            disjoint_tau_paths(graph(3, []), 0, 2, EDGE, count=0)

    def test_negative_count(self, graph_top):
        with pytest.raises(ValidationError):
            disjoint_tau_paths(graph_top, 0, 5, EDGE, count=-1)

"""Structure core: construction, types, isomorphism, serialization."""

import itertools

import numpy as np
import pytest

from homord.errors import ValidationError
from homord.structures import (
    FinStructure,
    Signature,
    canonical_type,
    enumerate_types,
    find_isomorphism,
    induced_substructure,
    make_structure,
    structure_dumps,
    structure_from_json,
    structure_to_json,
    type_code_str,
)

GSIG = Signature((("E", 2),))


def graph(n, edges):
    sym = set()
    for a, b in edges:
        sym.add((a, b))
        sym.add((b, a))
    return make_structure(GSIG, n, {"E": sym})


# oracle: isomorphism decision by trying every permutation
def iso_brute(S, T):
    if S.size != T.size or S.signature != T.signature:
        return None
    for perm in itertools.permutations(range(S.size)):
        ok = True
        for name, arity in S.signature.relations:
            mapped = {tuple(perm[x] for x in t) for t in S.table(name)}
            if mapped != T.table(name):
                ok = False
                break
        if ok:
            return list(perm)
    return None


class TestMakeStructure:
    def test_basic(self):
        S = graph(3, [(0, 1)])
        assert S.size == 3
        assert S.holds("E", (0, 1)) and S.holds("E", (1, 0))
        assert not S.holds("E", (0, 2))
        assert list(S.elements) == [0, 1, 2]

    def test_point_out_of_range(self):
        with pytest.raises(ValidationError):
            make_structure(GSIG, 2, {"E": {(0, 2)}})

    def test_wrong_arity(self):
        with pytest.raises(ValidationError):
            make_structure(GSIG, 3, {"E": {(0, 1, 2)}})

    def test_undeclared_relation(self):
        with pytest.raises(ValidationError):
            make_structure(GSIG, 3, {"F": {(0, 1)}})

    def test_rejects_non_int_points(self):
        with pytest.raises(ValidationError):
            make_structure(GSIG, 3, {"E": {(np.int64(0), np.int64(1))}})
        with pytest.raises(ValidationError):
            make_structure(GSIG, 3, {"E": {(True, False)}})

    def test_sorts(self):
        sig = Signature((("R", 2),))
        S = make_structure(sig, 3, {"R": set()}, sorts=("a", "b", "a"))
        assert S.sort_of(1) == "b"
        assert S.elements_of_sort("a") == (0, 2)
        with pytest.raises(ValidationError):
            make_structure(sig, 3, {"R": set()}, sorts=("a", "b"))

    def test_signature_validation(self):
        with pytest.raises(ValidationError):
            Signature((("E", 2), ("E", 3)))
        with pytest.raises(ValidationError):
            Signature((("E", 0),))

    def test_unknown_relation_lookup(self):
        S = graph(2, [])
        with pytest.raises(ValidationError):
            S.table("nope")


class TestInduced:
    def test_relabels_in_listed_order(self):
        S = graph(4, [(0, 1), (1, 2), (2, 3)])
        T = induced_substructure(S, (2, 1))
        # 2 -> 0, 1 -> 1; the edge survives under the new labels
        assert T.size == 2
        assert T.holds("E", (0, 1))

    def test_composition(self):
        S = graph(5, [(0, 2), (2, 4), (1, 3)])
        once = induced_substructure(S, (4, 2, 0))
        twice = induced_substructure(once, (2, 0))
        direct = induced_substructure(S, (0, 4))
        assert twice == direct

    def test_repeated_points_rejected(self):
        S = graph(3, [])
        with pytest.raises(ValidationError):
            induced_substructure(S, (1, 1))


class TestCanonicalType:
    def test_positions_are_named(self):
        S = graph(3, [(0, 1)])
        # (0,1) is an edge in both orders, (0,2) is not; codes must differ
        assert canonical_type(S, (0, 1)) == canonical_type(S, (1, 0))
        assert canonical_type(S, (0, 1)) != canonical_type(S, (0, 2))

    def test_order_sensitivity(self):
        sig = Signature((("lt", 2),))
        S = make_structure(sig, 2, {"lt": {(0, 1)}})
        assert canonical_type(S, (0, 1)) != canonical_type(S, (1, 0))

    def test_code_matches_induced_iso(self):
        # codes agree exactly when the position-respecting map is an isomorphism
        S = graph(4, [(0, 1), (1, 2)])
        for p in itertools.permutations(range(4), 3):
            for q in itertools.permutations(range(4), 3):
                same = canonical_type(S, p) == canonical_type(S, q)
                A, B = induced_substructure(S, p), induced_substructure(S, q)
                assert same == (A == B)

    def test_code_str_roundtrip_label(self):
        S = graph(2, [(0, 1)])
        text = type_code_str(canonical_type(S, (0, 1)))
        assert "E" in text and text.startswith("k2")


class TestFindIsomorphism:
    def test_matches_brute_force_all_small_graphs(self):
        # every pair of graphs on 4 vertices: decision must agree with the
        # all-permutations oracle
        pairs = list(itertools.combinations(range(4), 2))
        all_graphs = []
        for picks in itertools.product([0, 1], repeat=len(pairs)):
            edges = [e for e, on in zip(pairs, picks) if on]
            all_graphs.append(graph(4, edges))
        rng = np.random.default_rng(0)
        idx = rng.integers(0, len(all_graphs), size=(120, 2))
        for i, j in idx:
            S, T = all_graphs[int(i)], all_graphs[int(j)]
            got = find_isomorphism(S, T)
            want = iso_brute(S, T)
            assert (got is None) == (want is None)
            if got is not None:
                # verify the returned map really is an isomorphism
                mapped = {(got[a], got[b]) for a, b in S.table("E")}
                assert mapped == set(T.table("E"))

    def test_size_six_case(self):
        S = graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])  # C6
        T = graph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])  # relabeled C6
        assert find_isomorphism(S, T) is not None
        U = graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])  # 2 triangles
        assert find_isomorphism(S, U) is None

    def test_different_sizes(self):
        assert find_isomorphism(graph(2, []), graph(3, [])) is None


class TestEnumerateTypes:
    def test_counts_on_path(self):
        S = graph(3, [(0, 1), (1, 2)])
        assert len(enumerate_types(S, 0)) == 1
        assert len(enumerate_types(S, 1)) == 1
        # ordered pairs: edge and non-edge
        assert len(enumerate_types(S, 2)) == 2

    def test_triangle_vs_empty(self):
        S = graph(3, [(0, 1), (1, 2), (0, 2)])
        assert len(enumerate_types(S, 2)) == 1
        assert len(enumerate_types(graph(3, []), 2)) == 1

    def test_k_zero_singleton(self):
        assert len(enumerate_types(graph(1, []), 0)) == 1


class TestSerialization:
    def test_json_roundtrip(self):
        sig = Signature((("R", 3), ("P", 1)))
        S = make_structure(
            sig, 4, {"R": {(0, 1, 2)}, "P": {(3,)}}, sorts=("x", "x", "y", "y")
        )
        assert structure_from_json(structure_to_json(S)) == S
        assert structure_dumps(S) == structure_dumps(
            structure_from_json(structure_to_json(S))
        )

    def test_frozen(self):
        S = graph(2, [])
        with pytest.raises(Exception):
            S.size = 5  # type: ignore[misc]

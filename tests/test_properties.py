"""Property tests against brute-force oracles written out here.

Random graphs, tournaments and triangle-free graphs on at most 9 vertices
(and pure sets, for the audit): the saturation audit must agree with the definition of witness depth, and
the backtracker behind `automorphisms` and `find_isomorphism` must agree
with a walk over every permutation.  Random members this small rarely reach
depth 2, so the audit also sees three saturated fixtures: the 3x3 rook's
graph (depth 2), the quadratic-residue tournament on 7 vertices (depth 2)
and the triangle-free Clebsch graph (depth 3).

Type codes are checked against their definition on random structures with
binary, ternary and unary relations and optional sorts: two tuples get equal
codes exactly when the position map between them preserves every relation
and every sort label.
"""

import itertools

from hypothesis import example, given, settings, strategies as st

from homord.builders import audit_saturation, class_by_name
from homord.groups import automorphisms
from homord.structures import Signature, canonical_type, find_isomorphism, make_structure

KINDS = ("graph", "tournament", "kn_free_graph:3")
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def members(draw, kind, max_size, sorted_=False):
    """A member of the named class; graphs may carry sort labels."""
    n = draw(st.integers(0, max_size))
    m = n * (n - 1) // 2
    coins = iter(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    pairs = set()
    for a, b in itertools.combinations(range(n), 2):
        coin = next(coins)
        if kind == "tournament":
            pairs.add((a, b) if coin else (b, a))
        elif coin and not (kind == "kn_free_graph:3" and any(
                (a, c) in pairs and (b, c) in pairs for c in range(n))):
            pairs |= {(a, b), (b, a)}
    sorts = None
    if sorted_ and n and kind != "tournament" and draw(st.booleans()):
        sorts = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n))
    spec = class_by_name(kind)
    tables = {name: pairs for name, _ in spec.signature.relations}
    S = make_structure(spec.signature, n, tables, sorts)
    spec.validate(S)
    return S


def _fixture(kind, n, related):
    spec = class_by_name(kind)
    rel = {(a, b) for a in range(n) for b in range(n) if a != b and related(a, b)}
    return make_structure(spec.signature, n, {spec.signature.relations[0][0]: rel})


ROOK = _fixture("graph", 9, lambda a, b: a // 3 == b // 3 or a % 3 == b % 3)
QR7 = _fixture("tournament", 7, lambda a, b: (b - a) % 7 in (1, 2, 4))
CLEBSCH = _fixture("kn_free_graph:3", 16, lambda a, b: bin(a ^ b).count("1") == 1 or a ^ b == 15)


def relabel(S, perm):
    tables = {name: {tuple(perm[x] for x in tup) for tup in table}
              for name, table in S.tables.items()}
    sorts = None
    if S.sorts is not None:
        sorts = [None] * S.size
        for x, y in enumerate(perm):
            sorts[y] = S.sorts[x]
    return make_structure(S.signature, S.size, tables, sorts)


def is_isomorphism(S, T, perm):
    if sorted(perm) != list(range(S.size)):
        return False
    return relabel(S, perm) == T


def brute_saturation(S, kind, t):
    rel = set().union(*S.tables.values())
    n = S.size
    for depth in range(t + 1):
        for points in itertools.combinations(range(n), depth):
            for in_a in itertools.product((True, False), repeat=depth):
                A = [p for p, flag in zip(points, in_a) if flag]
                B = [p for p, flag in zip(points, in_a) if not flag]
                if kind == "kn_free_graph:3" and any((a, b) in rel for a in A for b in A):
                    continue  # A holds an edge: no triangle-free witness exists
                if kind == "pure_set":
                    def fits(w):
                        return True
                elif kind == "tournament":
                    def fits(w):
                        return all((w, a) in rel for a in A) and all((b, w) in rel for b in B)
                else:
                    def fits(w):
                        return all((w, a) in rel for a in A) and all((w, b) not in rel for b in B)
                if not any(fits(w) for w in range(n) if w not in points):
                    return max(depth - 1, 0)
    return t


@SETTINGS
@given(st.sampled_from(KINDS + ("pure_set",)).flatmap(
    lambda k: st.tuples(st.just(k), members(k, 9))),
       st.integers(0, 3))
@example(("graph", ROOK), 3)
@example(("tournament", QR7), 3)
@example(("kn_free_graph:3", CLEBSCH), 3)
def test_audit_matches_definition(kind_and_S, t):
    kind, S = kind_and_S
    assert audit_saturation(S, class_by_name(kind), t) == brute_saturation(S, kind, t)


@SETTINGS
@given(st.sampled_from(KINDS).flatmap(lambda k: members(k, 7, sorted_=True)))
def test_automorphisms_match_brute_force(S):
    group = automorphisms(S)
    brute = {p for p in itertools.permutations(range(S.size)) if relabel(S, p) == S}
    assert group.complete
    assert len(group.elements) == len(set(group.elements))
    assert set(group.elements) == brute


@SETTINGS
@given(st.sampled_from(KINDS).flatmap(lambda k: st.tuples(
    members(k, 7, sorted_=True), members(k, 7, sorted_=True))), st.data())
def test_find_isomorphism_matches_brute_force(pair, data):
    S, other = pair
    if data.draw(st.booleans()):
        other = relabel(S, data.draw(st.permutations(range(S.size))))
    found = find_isomorphism(S, other)
    if found is not None:
        assert is_isomorphism(S, other, found)
    else:
        assert S.size != other.size or not any(
            is_isomorphism(S, other, p) for p in itertools.permutations(range(S.size)))


MIXED = Signature((("E", 2), ("T", 3), ("P", 1)))


@st.composite
def mixed_structures(draw, n, sorted_):
    """Random tables over MIXED on n points, repeated points allowed."""
    tables = {}
    for name, arity in MIXED.relations:
        cells = list(itertools.product(range(n), repeat=arity))
        coins = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        tables[name] = {cell for cell, on in zip(cells, coins) if on}
    sorts = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n)) if sorted_ else None
    return make_structure(MIXED, n, tables, sorts)


def one_flips(T, q):
    """Every copy of T with one sort label of q's points or one table cell
    over q's points flipped."""
    sorts = T.sorts
    for x in q if sorts is not None else ():
        flipped = list(sorts)
        flipped[x] = "y" if sorts[x] == "x" else "x"
        yield make_structure(MIXED, T.size, T.tables, flipped)
    for name, arity in MIXED.relations:
        for cell in itertools.product(q, repeat=arity):
            tables = dict(T.tables)
            tables[name] = T.tables[name] ^ {cell}
            yield make_structure(MIXED, T.size, tables, sorts)


def positions_preserved(S, p, T, q):
    """Does position i -> position i carry every relation and sort of p to q?"""
    if S.sorts is not None and any(S.sorts[a] != T.sorts[b] for a, b in zip(p, q)):
        return False
    for name, arity in MIXED.relations:
        for idx in itertools.product(range(len(p)), repeat=arity):
            if (tuple(p[i] for i in idx) in S.tables[name]) != (
                    tuple(q[i] for i in idx) in T.tables[name]):
                return False
    return True


@SETTINGS
@given(st.data())
def test_type_codes_match_definition(data):
    n = data.draw(st.integers(1, 5))
    sorted_ = data.draw(st.booleans())
    S = data.draw(mixed_structures(n, sorted_))
    k = data.draw(st.integers(0, min(n, 3)))
    p = tuple(data.draw(st.permutations(range(n)))[:k])
    code = canonical_type(S, p)
    # another tuple of S, and a tuple of an unrelated structure
    for T in (S, data.draw(mixed_structures(n, sorted_))):
        q = tuple(data.draw(st.permutations(range(n)))[:k])
        assert (code == canonical_type(T, q)) == positions_preserved(S, p, T, q)
    # p's image under an isomorphism, then every one-flip near miss of it
    perm = data.draw(st.permutations(range(n)))
    T, q = relabel(S, perm), tuple(perm[x] for x in p)
    assert positions_preserved(S, p, T, q)
    assert code == canonical_type(T, q)
    for U in one_flips(T, q):
        assert not positions_preserved(S, p, U, q)
        assert code != canonical_type(U, q)

"""Property tests against brute-force oracles written out here.

Random graphs, tournaments and triangle-free graphs on at most 9 vertices
(and K4-free graphs and pure sets, for the audit): the saturation audit must
agree with the definition of witness depth, the walk behind it must list
exactly the open instances that a plain enumeration from the tables (kept
in tests/helpers.py) finds, and the backtracker behind `automorphisms` and
`find_isomorphism` must agree with a walk over every permutation.  Random
members this small rarely reach depth 2, so the audit and the walk also see
four saturated fixtures: the 3x3 rook's graph (depth 2), the
quadratic-residue tournament on 7 vertices (depth 2), the triangle-free
Clebsch graph (depth 3) and a built K4-free graph on 15 vertices (depth 2).

The backtracker is checked again on relations no class member has: two
binary relations, a ternary and a unary one, with loops and optional sorts,
from a structure to itself, to a relabelled copy, to a one-flip near miss of
that copy and to an unrelated structure.  There the brute force also fixes
the order in which isomorphisms come out.  On the same structures the
per-point bitsets of `FinStructure.bits` must match a pair-by-pair reading
of the tables, and reading them must leave ==, repr and the JSON unchanged.

The transversal table behind the search is checked against the plain
backtracker kept in tests/helpers.py, which has none: on circulant graphs
C_n(J) with n <= 20 and on disjoint unions of two of them (a copy of one
circulant beside itself among them), each to itself and to a seeded
relabelling, every isomorphism must come out, in the same order.  There the
groups reach 1,000 elements, past what a walk over every permutation can
check.

Type codes are checked against their definition on random structures with
binary, ternary and unary relations and optional sorts: two tuples get equal
codes exactly when the position map between them preserves every relation
and every sort label.

The tau-path search is checked against the plain breadth-first search kept
in tests/helpers.py, on random graphs and tournaments with random avoid sets
and small state caps: it returns what the reference returns, and where the
reference runs out of states it returns None exactly when no walk, repeated
nodes allowed, leads from a to b.

Every sampler, the rejection and planted-defect ones included, must give a
stream whose first m rows do not depend on how many rows were asked for,
across the chunk edges; and each `_draw(rng, m)` must return the first m rows
of the full-chunk draw from a generator in the same state.  A batch's
`ranks(cols)`, which sorts only the given columns, must rank them as the full
`order` restricted to them does, for distinct columns in any order, also on
draws from a coarse generator whose uniforms take four values, so that keys
tie across columns.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    brute_isomorphisms,
    disjoint_union,
    plain_bits,
    plain_isomorphisms,
    plain_open_instances,
    reference_tau_path,
    relabel,
)
from homord.builders import (
    _forbid,
    _open_instances,
    audit_saturation,
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    class_by_name,
    paley_graph,
)
from homord.errors import ResourceLimitError, ValidationError
from homord.groups import automorphisms
from homord.samplers import (
    CHUNK,
    AtomOrderSampler,
    AtomSpec,
    BipartiteMinSampler,
    ConditionedAtomSampler,
    DualFunctionalSampler,
    FixedOrder,
    InvolutionOrderSampler,
    PQOrderSampler,
    UniformOrderSampler,
)
from homord.stats import BiasedEdgeOrderSampler, BrokenCouplingSampler
from homord.structures import (
    Signature,
    canonical_type,
    find_isomorphism,
    isomorphisms,
    make_structure,
    structure_dumps,
)
from homord.taupaths import build_tau_index, find_tau_path

KINDS = ("graph", "tournament", "kn_free_graph:3")
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


@st.composite
def members(draw, kind, max_size, sorted_=False):
    """A member of the named class; graphs may carry sort labels."""
    n = draw(st.integers(0, max_size))
    m = n * (n - 1) // 2
    coins = iter(draw(st.lists(st.booleans(), min_size=m, max_size=m)))
    base, _, arg = kind.partition(":")
    pairs = set()
    for a, b in itertools.combinations(range(n), 2):
        coin = next(coins)
        if kind == "tournament":
            pairs.add((a, b) if coin else (b, a))
        elif coin and not (base == "kn_free_graph" and closes_clique(pairs, n, a, b, int(arg))):
            pairs |= {(a, b), (b, a)}
    sorts = None
    if sorted_ and n and kind != "tournament" and draw(st.booleans()):
        sorts = draw(st.lists(st.sampled_from("xy"), min_size=n, max_size=n))
    spec = class_by_name(kind)
    tables = {name: pairs for name, _ in spec.signature.relations}
    S = make_structure(spec.signature, n, tables, sorts)
    spec.validate(S)
    return S


def closes_clique(pairs, n, a, b, size):
    """Whether adding the edge {a, b} to pairs would complete a K_size."""
    common = [c for c in range(n) if (a, c) in pairs and (b, c) in pairs]
    return any(all((c, d) in pairs for c, d in itertools.combinations(K, 2))
               for K in itertools.combinations(common, size - 2))


def _fixture(kind, n, related):
    spec = class_by_name(kind)
    rel = {(a, b) for a in range(n) for b in range(n) if a != b and related(a, b)}
    return make_structure(spec.signature, n, {spec.signature.relations[0][0]: rel})


ROOK = _fixture("graph", 9, lambda a, b: a // 3 == b // 3 or a % 3 == b % 3)
QR7 = _fixture("tournament", 7, lambda a, b: (b - a) % 7 in (1, 2, 4))
CLEBSCH = _fixture("kn_free_graph:3", 16, lambda a, b: bin(a ^ b).count("1") == 1 or a ^ b == 15)
# a depth-2 K4-free graph on 15 vertices that holds triangles
K4FREE = build_generic(class_by_name("kn_free_graph:4"), 2, 200, 0).top


def is_isomorphism(S, T, perm):
    if sorted(perm) != list(range(S.size)):
        return False
    return relabel(S, perm) == T


def brute_saturation(S, kind, t):
    """The definition: one less than the smallest open instance, at most t."""
    sizes = {len(A) + len(B) for A, B in plain_open_instances(S, kind, t, 0)}
    return max(min(sizes) - 1, 0) if sizes else t


WITNESSABLE = st.sampled_from(KINDS + ("kn_free_graph:4", "pure_set")).flatmap(
    lambda k: st.tuples(st.just(k), members(k, 9)))


@SETTINGS
@given(WITNESSABLE, st.integers(0, 3))
@example(("graph", ROOK), 3)
@example(("tournament", QR7), 3)
@example(("kn_free_graph:3", CLEBSCH), 3)
@example(("kn_free_graph:4", K4FREE), 3)
def test_audit_matches_definition(kind_and_S, t):
    kind, S = kind_and_S
    assert audit_saturation(S, class_by_name(kind), t) == brute_saturation(S, kind, t)


@SETTINGS
@given(WITNESSABLE, st.integers(0, 3), st.integers(0, 16))
@example(("graph", ROOK), 3, 5)
@example(("tournament", QR7), 3, 3)
@example(("kn_free_graph:3", CLEBSCH), 3, 9)
@example(("kn_free_graph:4", K4FREE), 3, 12)
@example(("pure_set", make_structure(Signature(()), 4, {})), 3, 0)
def test_open_instances_match_enumeration(kind_and_S, t, lo):
    """The walk lists each open instance once, and exactly those the plain
    enumeration finds; first=True gives one of them, if there are any.  lo
    wraps into 0..S.size."""
    kind, S = kind_and_S
    spec = class_by_name(kind)
    lo %= S.size + 1
    into = next((into for _, into in S.bits.values()), [0] * S.size)
    args = (into, t, lo, _forbid(spec), spec.wiring)
    want = plain_open_instances(S, kind, t, lo)
    got = _open_instances(*args)
    assert len(got) == len(set(got)) and set(got) == want
    one = _open_instances(*args, first=True)
    assert len(one) == min(len(want), 1) and set(one) <= want


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
        yield make_structure(T.signature, T.size, T.tables, flipped)
    for name, arity in T.signature.relations:
        for cell in itertools.product(q, repeat=arity):
            tables = dict(T.tables)
            tables[name] = T.tables[name] ^ {cell}
            yield make_structure(T.signature, T.size, tables, sorts)


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


# --- the backtracker on relations no class member produces ---------------------
#
# Two binary relations (so pair patterns carry four bits), a ternary and a
# unary relation, loops and repeated points, optional sorts.  The expected
# output is brute force: every permutation that carries S onto T, listed in
# the order the search promises (lexicographic in the images of its element
# order, fewest same-invariant candidates first).

WIDE = Signature((("E", 2), ("F", 2), ("T", 3), ("P", 1)))


@st.composite
def wide_structures(draw):
    """Random tables over WIDE on at most 6 points, each a union of orbits of
    a drawn permutation g, so that g is an automorphism and groups are not
    all trivial.  Each table draws its own density, from empty to full, so
    that no one dense relation pins every point by itself."""
    n = draw(st.integers(0, 6))
    g = draw(st.permutations(range(n)))
    rng = draw(st.randoms(use_true_random=False))

    def orbit(cell):
        out = {cell}
        image = tuple(g[x] for x in cell)
        while image not in out:
            out.add(image)
            image = tuple(g[x] for x in image)
        return out

    tables = {}
    for name, arity in WIDE.relations:
        seen, table = set(), set()
        density = rng.choice((0, 0.25, 0.5, 0.75, 1))
        for cell in itertools.product(range(n), repeat=arity):
            if cell not in seen:
                cells = orbit(cell)
                seen |= cells
                if rng.random() < density:
                    table |= cells
        tables[name] = table
    sorts = None
    if n and draw(st.booleans()):
        sorts = [None] * n
        for x in range(n):
            if sorts[x] is None:
                label = rng.choice("xy")
                for (y,) in orbit((x,)):
                    sorts[y] = label
    return make_structure(WIDE, n, tables, sorts)


@SETTINGS
@given(wide_structures())
def test_bits_match_tables(S):
    """FinStructure.bits reads every binary relation as a pair-by-pair walk
    does, and reading it leaves ==, repr and the JSON form as they were."""
    text, dumped = repr(S), structure_dumps(S)
    assert S.bits == plain_bits(S)
    fresh = make_structure(S.signature, S.size, S.tables, S.sorts)
    assert S == fresh and fresh == S
    assert repr(S) == text and structure_dumps(S) == dumped


# Both edges run from a later element of the search order to an earlier one,
# so only the reverse-direction bits of 0's and 1's patterns see them: a search
# comparing one direction of each pair would also accept swapping 0 and 1 alone.
ONE_WAY = make_structure(WIDE, 4, {"E": {(2, 1), (3, 0)}})
# Every relation, loops and sorts at once; Aut is the 3-cycle (0 1 2)(3 4 5).
TWISTED = make_structure(WIDE, 6, {
    "E": {(0, 3), (1, 4), (2, 5), (0, 0), (1, 1), (2, 2)},
    "F": {(3, 4), (4, 5), (5, 3)},
    "T": {(0, 1, 3), (1, 2, 4), (2, 0, 5)},
    "P": {(3,), (4,), (5,)},
}, "xxxyyy")


@SETTINGS
@given(wide_structures())
@example(ONE_WAY)
@example(TWISTED)
def test_wide_automorphisms_match_brute_force(S):
    group = automorphisms(S)
    assert group.complete
    assert list(group.elements) == brute_isomorphisms(S, S)


@SETTINGS
@given(wide_structures(), wide_structures(), st.randoms(use_true_random=False))
@example(ONE_WAY, TWISTED, random.Random(0))
@example(TWISTED, ONE_WAY, random.Random(1))
def test_wide_isomorphisms_match_brute_force(S, other, rng):
    """S to a relabelled copy, to a one-flip near miss of it, and to another
    structure: every isomorphism in order, and find_isomorphism's first."""
    copy = relabel(S, rng.sample(range(S.size), S.size))
    targets = {"copy": copy, "other": other}
    flips = list(one_flips(copy, tuple(range(S.size))))
    if flips:
        targets["near miss"] = rng.choice(flips)
    for kind, T in targets.items():
        brute = brute_isomorphisms(S, T)
        assert list(isomorphisms(S, T)) == brute, kind
        assert find_isomorphism(S, T) == (list(brute[0]) if brute else None), kind
        if kind != "other":
            assert bool(brute) == (kind == "copy")


def circulant(n, jumps):
    """C_n(jumps): i ~ i + j mod n for each jump j."""
    edges = {(i, (i + j) % n) for i in range(n) for j in jumps}
    return make_structure(class_by_name("graph").signature, n,
                          {"E": edges | {(b, a) for a, b in edges}})


@st.composite
def circulants(draw):
    n = draw(st.integers(1, 20))
    return circulant(n, draw(st.sets(st.integers(1, n // 2))) if n > 1 else ())


CIRCULANT_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@CIRCULANT_SETTINGS
@given(st.one_of(circulants(),
                 st.builds(disjoint_union, circulants(), circulants()),
                 circulants().map(lambda S: disjoint_union(S, S))),
       st.randoms(use_true_random=False))
@example(disjoint_union(circulant(7, {1}), circulant(7, {1})), random.Random(0))
@example(disjoint_union(circulant(12, {1, 4}), circulant(9, {2})), random.Random(1))
def test_isomorphisms_match_plain_backtracker(S, rng):
    assume(automorphisms(S, bound=1000).complete)
    for T in (S, relabel(S, rng.sample(range(S.size), S.size))):
        assert list(isomorphisms(S, T)) == list(plain_isomorphisms(S, T))


@st.composite
def tau_queries(draw):
    """A graph or tournament on 2..7 points, a realized 2-type, two distinct
    endpoints, an avoid set among the other points and a state cap of 0..40."""
    S = draw(st.sampled_from(("graph", "tournament")).flatmap(lambda k: members(k, 7)).filter(
        lambda S: S.size >= 2))
    a, b = draw(st.permutations(range(S.size)))[:2]
    tau = draw(st.sampled_from(sorted(build_tau_index(S).first)))
    avoid = frozenset(v for v in range(S.size) if v not in (a, b) and draw(st.booleans()))
    return S, a, b, tau, avoid, draw(st.integers(0, 40))


def walk_reachable(S, a, b, tau, avoid):
    """Whether y_0 = a, w_0, y_1, ..., b exists with tp(y_i, w_i) =
    tp(y_{i+1}, w_i) = tau, no w_i and no y_i but b in avoid, repeats allowed."""
    def links(y, y2):
        return any(w not in avoid and w not in (y, y2) and canonical_type(S, (y, w)) == tau
                   and canonical_type(S, (y2, w)) == tau for w in range(S.size))

    reached, todo = {a}, [a]
    while todo:
        y = todo.pop()
        for y2 in range(S.size):
            if y2 not in reached and (y2 == b or y2 not in avoid) and links(y, y2):
                reached.add(y2)
                todo.append(y2)
    return b in reached


# the path 0 - 1 - 2 and the isolated 3: one queued state, and 3 out of reach
SPLIT = _fixture("graph", 4, lambda a, b: abs(a - b) == 1 and 3 not in (a, b))


@SETTINGS
@given(tau_queries())
@example((SPLIT, 0, 3, canonical_type(SPLIT, (0, 1)), frozenset(), 0))
def test_tau_path_matches_reference(query):
    S, a, b, tau, avoid, cap = query
    index = build_tau_index(S)
    try:
        want = reference_tau_path(index, a, b, tau, avoid, cap)
    except ResourceLimitError:
        if walk_reachable(S, a, b, tau, avoid):
            with pytest.raises(ResourceLimitError):
                find_tau_path(S, a, b, tau, avoid, index=index, state_cap=cap)
        else:
            assert find_tau_path(S, a, b, tau, avoid, index=index, state_cap=cap) is None
        return
    got = find_tau_path(S, a, b, tau, avoid, index=index, state_cap=cap)
    assert (None if got is None else got.nodes) == want


PALEY13 = paley_graph(13)


def _atoms(S):
    asc = FixedOrder("asc", tuple(S.elements))
    desc = FixedOrder("desc", tuple(reversed(S.elements)))
    return AtomOrderSampler(S, AtomSpec(((0.75, 0.3), (0.25, 0.2)), {0.75: asc, 0.25: desc}))


SAMPLERS = {
    "uniform": lambda: UniformOrderSampler(PALEY13),
    "atoms": lambda: _atoms(PALEY13),
    "conditioned": lambda: ConditionedAtomSampler(_atoms(PALEY13), 0.75, (0, 1)),
    "pq": lambda: PQOrderSampler(build_two_predicate_PQ(3, 4)),
    "bimin": lambda: BipartiteMinSampler(build_bipartite_deg2(5, seed=0)),
    "involution": lambda: InvolutionOrderSampler(build_involution_order(6, seed=2)),
    "dual": lambda: DualFunctionalSampler(build_f2_vector_space(3)),
    "biased": lambda: BiasedEdgeOrderSampler(PALEY13, 0.2),
    "broken": lambda: BrokenCouplingSampler(PALEY13),
}
FIELDS = ("order", "latent", "eta", "tiebreak")
PREFIX_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


def _field(batch, f):
    """A batch's field, None where absent: a batch without keys has no order."""
    return None if f == "order" and batch.keys is None else getattr(batch, f)


def _rows(batches):
    """Each field of a run of batches stacked over rows, None where absent."""
    batches = list(batches)
    return [None if _field(batches[0], f) is None
            else np.concatenate([_field(b, f) for b in batches]) for f in FIELDS]


def _assert_prefix(part, full, m):
    for f, a, b in zip(FIELDS, part, full):
        assert (a is None) == (b is None), f
        assert a is None or np.array_equal(a, b[:m]), f


# `stream` is the row view of `batches`, so the rows are compared as arrays
@pytest.mark.parametrize("name", sorted(SAMPLERS))
@PREFIX_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, 2 * CHUNK + 1), st.integers(1, 2 * CHUNK + 1))
@example(0, CHUNK, CHUNK + 1)
@example(1, 1, 2 * CHUNK + 1)
@example(2, CHUNK - 1, CHUNK)
def test_stream_prefix(name, seed, a, b):
    m, n = min(a, b), max(a, b)
    sampler = SAMPLERS[name]()
    full = _rows(sampler.batches(seed, n))
    assert len(full[1]) == n
    _assert_prefix(_rows(sampler.batches(seed, m)), full, m)


@pytest.mark.parametrize("name", sorted(set(SAMPLERS) - {"conditioned"}))
@PREFIX_SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(1, CHUNK))
@example(0, 1)
@example(1, CHUNK - 1)
def test_draw_prefix(name, seed, m):
    sampler = SAMPLERS[name]()
    ss = np.random.SeedSequence([seed, 0])
    part = sampler._draw(np.random.default_rng(ss), m)
    full = sampler._draw(np.random.default_rng(ss), CHUNK)
    assert len(part) == m and len(full) == CHUNK
    _assert_prefix([_field(part, f) for f in FIELDS], [_field(full, f) for f in FIELDS], m)


class CoarseRng:
    """A generator whose uniforms are multiples of 1/4.  Keys then tie
    across columns: an atom sampler's continuous draws land on its atom
    locations and on each other, and bimin's neighbours that share a minimum
    draw the same tie uniform too."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size):
        return np.floor(self._rng.random(size) * 4) / 4

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)


RANK_SAMPLERS = {
    **SAMPLERS,
    # everything lands on the one atom; its tie order is not the column order
    "one_atom": lambda: AtomOrderSampler(
        PALEY13, AtomSpec(((0.5, 1.0),), {0.5: FixedOrder("mixed", (*range(7, 13), *range(7)))})
    ),
}


@pytest.mark.parametrize("name", sorted(RANK_SAMPLERS))
@PREFIX_SETTINGS
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_ranks_match_restricted_order(name, seed, coarse, data):
    sampler = RANK_SAMPLERS[name]()
    if coarse and name != "conditioned":
        batch = sampler._draw(CoarseRng(seed), 300)
    else:
        batch = next(sampler.batches(seed, 300))
    k = len(sampler.elements)
    cols = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    if batch.keys is None:
        with pytest.raises(ValidationError, match="draws no order"):
            batch.ranks(cols)
        with pytest.raises(ValidationError, match="draws no order"):
            batch.order
        return
    want = []
    for row in batch.order.tolist():
        kept = [c for c in row if c in cols]
        want.append([kept.index(c) for c in cols])
    assert batch.ranks(cols).tolist() == want

"""Builders for finite approximations of homogeneous structures.

Two families live here.  Witnessable classes (pure sets, graphs, K_n-free
graphs, tournaments) are grown by witness completion: each round adds one
fresh witness per extension-axiom instance that is still unsatisfied, wires
its remaining edges by seeded coin flips, and stops once the structure
witnesses every instance of the requested depth against itself.  The other
builders construct single finite members of specific amalgamation classes
(two unary predicates, degree-2 bipartite, order-with-involution, F2 vector
spaces) directly.

Saturation depth t means: every pair of disjoint subsets (A, B) of the
universe with |A|+|B| <= t has a correctly wired witness vertex.  For
K_n-free graphs only admissible instances count (A must not contain a
K_{n-1}, otherwise no witness can exist).

Witness completion works on Python-int bitsets: bits[v] holds the vertices
that relate positively to v (its neighbours; for tournaments, the vertices
that beat v).  The witnesses of (A, B) are then one mask, the AND of bits[a]
over A with the complement of every bits[b] over B, minus A and B.  A new
witness adds no edge among old vertices, so a witnessed instance stays
witnessed and an instance's admissibility never changes.  After a round that
started with n vertices, every instance inside those n is witnessed or
inadmissible, and the next round only walks the instances that touch a
vertex added since.  It completes them in the order (|A|+|B|, |A|, A, B),
re-checking each against the live state, so the seeded coin flips fall
exactly as in a full rescan.  The saturation audit walks every instance of
depth <= t on bitsets read from the finished structure.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import SaturationInfeasibleError, ValidationError
from .structures import (
    FinStructure,
    Signature,
    induced_substructure,
    make_structure,
    structure_from_json,
    structure_to_json,
)

_WIRING_RETRIES = 32


@dataclass(frozen=True)
class FraisseClassSpec:
    """A named amalgamation class: signature plus a membership checker."""

    name: str
    signature: Signature
    is_member: Callable[[FinStructure], bool] = field(compare=False)
    witnessable: bool = False
    params: tuple[int, ...] = ()

    def validate(self, S: FinStructure) -> None:
        if not self.is_member(S):
            raise ValidationError(f"structure is not a member of class {self.name}")


def _symmetric_irreflexive(S: FinStructure, rel: str) -> bool:
    for a, b in S.table(rel):
        if a == b or (b, a) not in S.table(rel):
            return False
    return True


def pure_set_class() -> FraisseClassSpec:
    sig = Signature(())
    return FraisseClassSpec("pure_set", sig, lambda S: S.signature == sig, witnessable=True)


def graph_class() -> FraisseClassSpec:
    sig = Signature((("E", 2),))
    return FraisseClassSpec(
        "graph", sig, lambda S: S.signature == sig and _symmetric_irreflexive(S, "E"),
        witnessable=True,
    )


def kn_free_graph_class(n: int) -> FraisseClassSpec:
    if n < 3:
        raise ValidationError(f"kn_free_graph needs n >= 3, got {n}")
    sig = Signature((("E", 2),))

    def member(S: FinStructure) -> bool:
        return (
            S.signature == sig
            and _symmetric_irreflexive(S, "E")
            and not _clique_in(_bits_of(S), (1 << S.size) - 1, n)
        )

    return FraisseClassSpec(f"kn_free_graph:{n}", sig, member, witnessable=True, params=(n,))


def tournament_class() -> FraisseClassSpec:
    sig = Signature((("A", 2),))

    def member(S: FinStructure) -> bool:
        if S.signature != sig:
            return False
        arcs = S.table("A")
        for a, b in arcs:
            if a == b:
                return False
        for a, b in itertools.combinations(range(S.size), 2):
            if ((a, b) in arcs) == ((b, a) in arcs):
                return False
        return True

    return FraisseClassSpec("tournament", sig, member, witnessable=True)


def linear_order_class() -> FraisseClassSpec:
    sig = Signature((("lt", 2),))

    def member(S: FinStructure) -> bool:
        if S.signature != sig:
            return False
        lt = S.table("lt")
        for a, b in lt:
            if a == b or (b, a) in lt:
                return False
        for a, b in itertools.combinations(range(S.size), 2):
            if (a, b) not in lt and (b, a) not in lt:
                return False
        for a, b in lt:
            for c, d in lt:
                if b == c and (a, d) not in lt:
                    return False
        return True

    return FraisseClassSpec("linear_order", sig, member)


def two_predicate_class() -> FraisseClassSpec:
    sig = Signature((("P", 1), ("Q", 1)))

    def member(S: FinStructure) -> bool:
        if S.signature != sig:
            return False
        p = {t[0] for t in S.table("P")}
        q = {t[0] for t in S.table("Q")}
        return not (p & q)

    return FraisseClassSpec("two_predicate_PQ", sig, member)


def bipartite_deg2_class() -> FraisseClassSpec:
    sig = Signature((("R", 2),))

    def member(S: FinStructure) -> bool:
        if S.signature != sig or S.sorts is None:
            return False
        if set(S.sorts) - {"S0", "S1"}:
            return False
        table = S.table("R")
        if not _symmetric_irreflexive(S, "R"):
            return False
        deg = [0] * S.size
        for a, b in table:
            if S.sorts[a] == S.sorts[b]:
                return False
            deg[a] += 1
        return all(deg[i] == 2 for i in range(S.size) if S.sorts[i] == "S0")

    return FraisseClassSpec("bipartite_deg2", sig, member)


def involution_order_class() -> FraisseClassSpec:
    sig = Signature((("lt", 2), ("f", 2)))
    lo = linear_order_class()

    def member(S: FinStructure) -> bool:
        if S.signature != sig:
            return False
        order_part = make_structure(lo.signature, S.size, {"lt": set(S.table("lt"))})
        if not lo.is_member(order_part):
            return False
        f = S.table("f")
        partner: dict[int, int] = {}
        for a, b in f:
            if a == b or (b, a) not in f:
                return False
            if a in partner and partner[a] != b:
                return False
            partner[a] = b
        return len(partner) == S.size

    return FraisseClassSpec("involution_order", sig, member)


def f2_vector_space_class(d: int) -> FraisseClassSpec:
    if not (1 <= d <= 8):
        # spec'd bound is 16 but the explicit table has 4^d tuples; see ledger
        raise ValidationError(f"f2_vector_space dimension {d} out of range 1..8")
    sig = Signature((("add", 3), ("zero", 1)))

    def member(S: FinStructure) -> bool:
        if S.signature != sig or S.size != 1 << d:
            return False
        if S.table("zero") != frozenset({(0,)}):
            return False
        want = frozenset(
            (a, b, a ^ b) for a in range(S.size) for b in range(S.size)
        )
        return S.table("add") == want

    return FraisseClassSpec(f"f2_vector_space:{d}", sig, member, params=(d,))


def class_by_name(name: str) -> FraisseClassSpec:
    """Parse names like 'graph', 'kn_free_graph:3', 'f2_vector_space:4'."""
    base, _, arg = name.partition(":")
    if base == "pure_set":
        return pure_set_class()
    if base == "graph":
        return graph_class()
    if base == "kn_free_graph":
        return kn_free_graph_class(int(arg or 3))
    if base == "tournament":
        return tournament_class()
    if base == "linear_order":
        return linear_order_class()
    if base == "two_predicate_PQ":
        return two_predicate_class()
    if base == "bipartite_deg2":
        return bipartite_deg2_class()
    if base == "involution_order":
        return involution_order_class()
    if base == "f2_vector_space":
        return f2_vector_space_class(int(arg or 3))
    raise ValidationError(f"unknown class {name!r}")


# --- chains ----------------------------------------------------------------


@dataclass(frozen=True)
class StructureChain:
    """Increasing levels; each embeds into the next by identity on the prefix.

    saturation[i] is the audited witness depth of levels[i] against itself.
    """

    class_name: str
    levels: tuple[FinStructure, ...]
    saturation: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValidationError("chain needs at least one level")
        if len(self.saturation) != len(self.levels):
            raise ValidationError("saturation list does not match levels")
        for lo, hi in zip(self.levels, self.levels[1:]):
            if lo.size > hi.size:
                raise ValidationError("levels must be non-decreasing")
            if induced_substructure(hi, tuple(range(lo.size))) != lo:
                raise ValidationError("level is not an identity-prefix substructure of the next")

    @property
    def top(self) -> FinStructure:
        return self.levels[-1]


def chain_to_json(chain: StructureChain) -> dict:
    return {
        "class": chain.class_name,
        "levels": [structure_to_json(S) for S in chain.levels],
        "saturation": list(chain.saturation),
    }


def chain_from_json(obj: dict) -> StructureChain:
    """Rebuild a chain; missing keys, wrong shapes, an unknown class and a
    level outside the class raise ValidationError."""
    try:
        spec = class_by_name(obj["class"])
        levels = tuple(structure_from_json(o) for o in obj["levels"])
        for level in levels:
            spec.validate(level)
        return StructureChain(
            class_name=obj["class"],
            levels=levels,
            saturation=tuple(int(x) for x in obj["saturation"]),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed chain JSON: {type(exc).__name__}: {exc}") from None


def chain_dumps(chain: StructureChain) -> str:
    return json.dumps(chain_to_json(chain), sort_keys=True, indent=1)


def chain_loads(text: str) -> StructureChain:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"chain file is not JSON: {exc}") from None
    return chain_from_json(obj)


# --- witness completion ------------------------------------------------------


def _members(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _clique_in(bits: list[int], mask: int, k: int) -> bool:
    """Whether the vertices in mask hold a k-clique of the symmetric bits."""
    if k <= 0:
        return True
    while mask.bit_count() >= k:
        low = mask & -mask
        mask ^= low
        if _clique_in(bits, mask & bits[low.bit_length() - 1], k - 1):
            return True
    return False


def _bits_of(S: FinStructure) -> list[int]:
    """bits[b] has a for every (a, b) in the structure's binary relation."""
    bits = [0] * S.size
    for name, _ in S.signature.relations:  # witnessable classes have at most one
        for a, b in S.table(name):
            bits[b] |= 1 << a
    return bits


def _forbid(spec: FraisseClassSpec) -> int | None:
    """n for K_n-free graphs, None for the other witnessable classes."""
    if not spec.witnessable:
        raise ValidationError(f"class {spec.name} is not witnessable")
    return spec.params[0] if spec.name.startswith("kn_free_graph") else None


def _witness_mask(bits: list[int], a_set, b_set) -> int:
    """Vertices w outside A ∪ B with w in every bits[a] and in no bits[b]."""
    cand = (1 << len(bits)) - 1
    for a in a_set:
        cand &= bits[a] & ~(1 << a)
    for b in b_set:
        cand &= ~(bits[b] | 1 << b)
    return cand


def _open_instances(bits: list[int], t: int, lo: int, forbid: int | None, pure: bool = False):
    """Admissible (A, B) with |A|+|B| <= t, max(A ∪ B) >= lo, and no witness.

    Elements are chosen in decreasing order and sent to A or B, so each pair
    is reached once, and its witness mask is its prefix's mask ANDed with the
    mask of ({x}, {}) or ({}, {x}).  lo = 0 walks every instance, the empty
    one too.
    """
    n = len(bits)
    full = _witness_mask(bits, (), ())
    neg = [_witness_mask(bits, (), (x,)) for x in range(n)]
    # a pure set has no relation (bits are all 0): a witness need only be new
    pos = neg if pure else [_witness_mask(bits, (x,), ()) for x in range(n)]
    k = forbid - 1 if forbid else 0  # A holding a k-clique is inadmissible
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def walk(a_set, b_set, a_mask, cand, low, top, room):
        for x in range(low, top):
            if not k or not _clique_in(bits, a_mask & pos[x], k - 1):
                c = cand & pos[x]
                if not c:
                    found.append(((x, *a_set), b_set))
                if room > 1:
                    walk((x, *a_set), b_set, a_mask | 1 << x, c, 0, x, room - 1)
            c = cand & neg[x]
            if not c:
                found.append((a_set, (x, *b_set)))
            if room > 1:
                walk(a_set, (x, *b_set), a_mask, c, 0, x, room - 1)

    if lo == 0 and not full:
        found.append(((), ()))
    if t > 0:
        walk((), (), 0, full, lo, n, t)
    return found


class _WitnessState:
    """Graph, K_n-free or tournament under witness completion, as bitsets.

    bits[v] holds the vertices that relate positively to v: its neighbours,
    or for tournaments the vertices that beat v.  A new witness adds no edge
    among old vertices, so a witnessed instance stays witnessed.
    """

    def __init__(self, spec: FraisseClassSpec):
        self.forbid = _forbid(spec)
        self.tournament = spec.name == "tournament"
        self.bits = [0b10, 0] if self.tournament else [0, 0]  # 1 beats 0

    @property
    def size(self) -> int:
        return len(self.bits)

    def add_witness(self, a_set, b_set, rng: np.random.Generator) -> None:
        w = self.size
        required = sum(1 << a for a in a_set)
        others = [v for v in range(w) if v not in a_set and v not in b_set]
        for _ in range(_WIRING_RETRIES):
            coins = rng.random(len(others))
            wins = required | sum(1 << v for v, c in zip(others, coins) if c < 0.5)
            if not (self.forbid and _clique_in(self.bits, wins, self.forbid - 1)):
                break
        else:
            # minimal wiring: provably safe since the instance is admissible
            wins = required
        self.bits.append(~wins & ((1 << w) - 1) if self.tournament else wins)
        for v in _members(wins):
            self.bits[v] |= 1 << w

    def freeze(self, sig: Signature) -> FinStructure:
        pairs = {(a, b) for b in range(self.size) for a in _members(self.bits[b])}
        return make_structure(sig, self.size, {sig.relations[0][0]: pairs})


def audit_saturation(S: FinStructure, spec: FraisseClassSpec, t: int) -> int:
    """Largest depth t' <= t at which every admissible instance is witnessed.

    Exhaustive: walks all disjoint (A, B) with |A|+|B| <= t on bitsets read
    from S itself, independent of how S was built.  S must be in spec.
    """
    found = _open_instances(_bits_of(S), t, 0, _forbid(spec), spec.name == "pure_set")
    return max(min((len(a) + len(b) for a, b in found), default=t + 1) - 1, 0)


def build_generic(spec: FraisseClassSpec, t: int, cap: int, seed: int) -> StructureChain:
    """Witness-complete until the structure satisfies its own depth-t axioms.

    Deterministic given seed.  Raises SaturationInfeasibleError when the cap
    would be exceeded before saturation.
    """
    if t < 0:
        raise ValidationError(f"depth {t} < 0")
    if cap < 1:
        raise ValidationError(f"cap {cap} < 1")
    if not spec.witnessable:
        raise ValidationError(f"class {spec.name} is not witnessable")
    rng = np.random.default_rng(seed)

    if spec.name == "pure_set":
        # trivially saturated once the size clears the depth
        level = make_structure(spec.signature, cap, {})
        return StructureChain(spec.name, (level,), (audit_saturation(level, spec, t),))

    state = _WitnessState(spec)
    if state.size > cap:
        raise SaturationInfeasibleError(f"cap {cap} below the initial structure")
    levels = [state.freeze(spec.signature)]
    done = 0  # instances inside the first `done` vertices are witnessed or inadmissible
    while True:
        start = state.size
        # the order a full rescan meets them in, which fixes the seeded coin flips
        frontier = sorted(
            _open_instances(state.bits, t, done, state.forbid),
            key=lambda ab: (len(ab[0]) + len(ab[1]), len(ab[0]), ab),
        )
        for a_set, b_set in frontier:
            if _witness_mask(state.bits, a_set, b_set):
                continue
            if state.size >= cap:
                raise SaturationInfeasibleError(
                    f"saturation infeasible at cap {cap} (depth {t}, size {state.size})"
                )
            state.add_witness(a_set, b_set, rng)
        if state.size == start:
            break
        levels.append(state.freeze(spec.signature))
        done = start
    sat = tuple(audit_saturation(S, spec, t) for S in levels)
    chain = StructureChain(spec.name, tuple(levels), sat)
    for S in chain.levels:
        spec.validate(S)
    return chain


# --- direct builders ---------------------------------------------------------


def build_two_predicate_PQ(size_p: int, size_q: int) -> FinStructure:
    """Universe of size_p + size_q, P on the first block, Q on the second."""
    if size_p < 0 or size_q < 0:
        raise ValidationError("negative block size")
    spec = two_predicate_class()
    S = make_structure(
        spec.signature,
        size_p + size_q,
        {
            "P": {(i,) for i in range(size_p)},
            "Q": {(i,) for i in range(size_p, size_p + size_q)},
        },
    )
    spec.validate(S)
    return S


def build_bipartite_deg2(m_size: int, seed: int) -> FinStructure:
    """Degree-2 bipartite structure whose neighbor pairs overlap.

    S0 elements 0..m-1, S1 elements m..; for m >= 3 the overlap pattern is the
    cycle (element i shares one neighbor with i-1 and one with i+1, mod m),
    relabeled by a seeded shuffle of both sorts.  m = 2 gives the path with
    three S1 vertices and one shared neighbor; m = 1 two private neighbors.
    """
    if m_size < 1:
        raise ValidationError(f"m_size {m_size} < 1")
    rng = np.random.default_rng(seed)
    if m_size == 1:
        nbrs = {0: (0, 1)}
        s1_count = 2
    elif m_size == 2:
        nbrs = {0: (0, 1), 1: (1, 2)}
        s1_count = 3
    else:
        nbrs = {i: (i, (i + 1) % m_size) for i in range(m_size)}
        s1_count = m_size
    # seeded relabeling keeps the iso class, varies the tables
    perm0 = [int(x) for x in rng.permutation(m_size)]
    perm1 = [int(x) for x in rng.permutation(s1_count)]
    table = set()
    for a, pair in nbrs.items():
        for b in pair:
            x = perm0[a]
            y = m_size + perm1[b]
            table.add((x, y))
            table.add((y, x))
    sorts = tuple(["S0"] * m_size + ["S1"] * s1_count)
    spec = bipartite_deg2_class()
    S = make_structure(spec.signature, m_size + s1_count, {"R": table}, sorts)
    spec.validate(S)
    return S


def bipartite_m_view(S: FinStructure) -> tuple[FinStructure, tuple[int, ...]]:
    """S0-sort view with shares-0/1/2-neighbors as derived binary relations.

    Returns (view, carrier) where carrier[i] is the S0 element behind view
    element i.
    """
    bipartite_deg2_class().validate(S)
    carrier = S.elements_of_sort("S0")
    nbrs = {
        a: {b for x, b in S.table("R") if x == a}
        for a in carrier
    }
    sig = Signature((("share0", 2), ("share1", 2), ("share2", 2)))
    tables: dict[str, set[tuple[int, ...]]] = {"share0": set(), "share1": set(), "share2": set()}
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            if i == j:
                continue
            shared = len(nbrs[a] & nbrs[b])
            tables[f"share{shared}"].add((i, j))
    view = make_structure(sig, len(carrier), tables)
    return view, carrier


def build_involution_order(pairs: int, seed: int) -> FinStructure:
    """2*pairs elements, natural order, seeded fixed-point-free matching.

    Sorts: 'M' marks {a : f(a) < a} (the larger point of each matched pair),
    'Mp' the rest.
    """
    if pairs < 1:
        raise ValidationError(f"pairs {pairs} < 1")
    n = 2 * pairs
    rng = np.random.default_rng(seed)
    ids = list(rng.permutation(n))
    f_table = set()
    partner = {}
    for i in range(pairs):
        a, b = int(ids[2 * i]), int(ids[2 * i + 1])
        f_table.add((a, b))
        f_table.add((b, a))
        partner[a] = b
        partner[b] = a
    lt = {(i, j) for i in range(n) for j in range(n) if i < j}
    sorts = tuple("M" if partner[i] < i else "Mp" for i in range(n))
    spec = involution_order_class()
    S = make_structure(spec.signature, n, {"lt": lt, "f": f_table}, sorts)
    spec.validate(S)
    return S


def involution_order_chain(pair_counts: list[int], seed: int) -> StructureChain:
    """Nested involution-order levels; new pairs interleave at seeded spots.

    The order relation is stored explicitly, so later elements may sit
    anywhere in the order while the universe still grows by identity suffix.
    """
    if not pair_counts or any(
        p < 1 or q <= p for p, q in zip(pair_counts, pair_counts[1:])
    ) or pair_counts[0] < 1:
        raise ValidationError("pair_counts must be strictly increasing and positive")
    rng = np.random.default_rng(seed)
    spec = involution_order_class()
    ranking: list[int] = []  # element ids listed least to greatest
    partner: dict[int, int] = {}
    levels = []
    next_id = 0
    for count in pair_counts:
        while len(partner) < 2 * count:
            a, b = next_id, next_id + 1
            next_id += 2
            partner[a] = b
            partner[b] = a
            pos_a = int(rng.integers(0, len(ranking) + 1))
            ranking.insert(pos_a, a)
            pos_b = int(rng.integers(0, len(ranking) + 1))
            ranking.insert(pos_b, b)
        n = 2 * count
        rank_of = {e: r for r, e in enumerate(ranking)}
        lt = {(i, j) for i in range(n) for j in range(n) if i != j and rank_of[i] < rank_of[j]}
        f_table = {(a, partner[a]) for a in range(n)}
        sorts = tuple("M" if rank_of[partner[i]] < rank_of[i] else "Mp" for i in range(n))
        level = make_structure(spec.signature, n, {"lt": lt, "f": f_table}, sorts)
        spec.validate(level)
        levels.append(level)
    return StructureChain(spec.name, tuple(levels), tuple(0 for _ in levels))


def involution_m_view(S: FinStructure) -> tuple[FinStructure, tuple[int, ...]]:
    """M-sort view with the trace relations lt, flt (f(a)<b), fltf (f(a)<f(b)).

    Pair types in this language capture the full interleaving pattern of
    {a, f(a), b, f(b)}.  Returns (view, carrier).
    """
    involution_order_class().validate(S)
    if S.sorts is None:
        raise ValidationError("involution structure lacks sorts")
    lt = S.table("lt")
    fmap = {a: b for a, b in S.table("f")}
    carrier = tuple(sorted(S.elements_of_sort("M"), key=lambda a: sum(1 for x, y in lt if y == a)))
    sig = Signature((("lt", 2), ("flt", 2), ("fltf", 2)))
    tables: dict[str, set[tuple[int, ...]]] = {"lt": set(), "flt": set(), "fltf": set()}
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            if i == j:
                continue
            if (a, b) in lt:
                tables["lt"].add((i, j))
            if (fmap[a], b) in lt:
                tables["flt"].add((i, j))
            if (fmap[a], fmap[b]) in lt:
                tables["fltf"].add((i, j))
    return make_structure(sig, len(carrier), tables), carrier


def involution_pair_pattern(S: FinStructure, a: int, b: int) -> str:
    """Interleaving pattern of f(a), f(b), a, b as a readable string."""
    involution_order_class().validate(S)
    fmap = {x: y for x, y in S.table("f")}
    lt = S.table("lt")
    names = {a: "a", b: "b", fmap[a]: "fa", fmap[b]: "fb"}
    if len(names) != 4:
        raise ValidationError("points share an orbit pair")
    ordered = sorted(names, key=lambda x: sum(1 for p, q in lt if q == x))
    return "<".join(names[x] for x in ordered)


def find_involution_pattern_pair(S: FinStructure, pattern: str) -> tuple[int, int] | None:
    """First M-sort pair (a, b) realizing the given interleaving pattern."""
    m_elems = S.elements_of_sort("M")
    for a, b in itertools.permutations(m_elems, 2):
        if involution_pair_pattern(S, a, b) == pattern:
            return a, b
    return None


def build_f2_vector_space(d: int) -> FinStructure:
    """F2^d with the ternary xor relation and a zero predicate.

    Universe = bitmasks 0..2^d-1; add(a, b, c) iff c == a xor b.
    """
    spec = f2_vector_space_class(d)  # validates 1 <= d <= 8
    n = 1 << d
    add = {(a, b, a ^ b) for a in range(n) for b in range(n)}
    S = make_structure(spec.signature, n, {"add": add, "zero": {(0,)}})
    spec.validate(S)
    return S


# --- symmetric fixtures ------------------------------------------------------


def paley_graph(q: int) -> FinStructure:
    """Paley graph on a prime q = 1 mod 4: i ~ j iff i-j is a nonzero square.

    Arc-transitive on both edges and non-edges; the q = 13 instance audits at
    witness depth 2, so it serves as a maximally symmetric saturated
    approximation for orbit-vs-type comparisons.
    """
    if q < 5 or q % 4 != 1 or any(q % k == 0 for k in range(2, int(q**0.5) + 1)):
        raise ValidationError(f"{q} is not a prime = 1 mod 4")
    squares = {(x * x) % q for x in range(1, q)}
    table = {(i, j) for i in range(q) for j in range(q) if i != j and (i - j) % q in squares}
    S = make_structure(graph_class().signature, q, {"E": table})
    graph_class().validate(S)
    return S


def hypercube_graph(d: int) -> FinStructure:
    """d-cube on bitmask vertices; vertex-transitive with orbit growth in d."""
    if d < 1:
        raise ValidationError(f"d {d} < 1")
    n = 1 << d
    table = set()
    for v in range(n):
        for bit in range(d):
            w = v ^ (1 << bit)
            table.add((v, w))
    return make_structure(graph_class().signature, n, {"E": table})


def hypercube_chain(d_max: int) -> StructureChain:
    """Q_1 through Q_{d_max}; each level is the identity prefix of the next."""
    levels = tuple(hypercube_graph(d) for d in range(1, d_max + 1))
    return StructureChain("graph", levels, tuple(0 for _ in levels))


def pure_set_chain(sizes: list[int]) -> StructureChain:
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes or sizes[0] < 1:
        raise ValidationError("sizes must be strictly increasing and positive")
    spec = pure_set_class()
    levels = tuple(make_structure(spec.signature, n, {}) for n in sizes)
    return StructureChain(spec.name, levels, tuple(0 for _ in levels))

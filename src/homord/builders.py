"""Builders for finite approximations of homogeneous structures.

Two families live here.  Witnessable classes (pure sets, graphs, K_n-free
graphs, tournaments) are grown by witness completion: each round adds one
fresh witness per extension-axiom instance that is still unsatisfied, wires
its remaining edges by seeded coin flips, and stops once the structure
witnesses every instance of the requested depth against itself.  The other
builders construct single finite members of specific amalgamation classes
(two unary predicates, degree-2 bipartite, order-with-involution, F2 vector
spaces) directly.  Each class's spec carries its builder and its build flags'
defaults, so a new class is one factory and one entry in `CLASSES`.

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
exactly as in a full rescan.  That walk meets every open instance of the
level the round starts from, so the level's depth is one less than the size
of the smallest, read off the sorted frontier.  audit_saturation measures the
same depth from a structure alone, one size bound at a time: loading a chain
re-runs it, and the tests hold the build to it.

numpy is imported inside the four seeded builders, not here: loading a
chain, the class specs and the exact layers that build on them (cro, groups,
taupaths) then start without it.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import SaturationInfeasibleError, ValidationError
from .structures import (
    FinStructure,
    Signature,
    _json_int,
    _members,
    induced_substructure,
    make_structure,
    structure_from_json,
    structure_to_json,
)

_WIRING_RETRIES = 32


@dataclass(frozen=True)
class FraisseClassSpec:
    """A named amalgamation class: signature plus a membership checker.

    wiring says how one bit per pair a < b sets a class whose one relation is
    binary: "edge" switches the edge {a, b} on, "arc" turns the arc (a, b)
    into (b, a); None for every other class.  build(spec, seed, **flags)
    returns a chain or one member of the class (None: the class has no
    builder); flags maps each keyword flag to the value it takes left out."""

    name: str
    signature: Signature
    is_member: Callable[[FinStructure], bool] = field(compare=False)
    params: tuple[int, ...] = ()
    wiring: str | None = None
    build: Callable[..., StructureChain | FinStructure] | None = field(default=None, compare=False)
    flags: Mapping[str, object] = field(default_factory=dict, compare=False)

    @property
    def witnessable(self) -> bool:
        return self.build is _witness_complete

    def validate(self, S: FinStructure) -> None:
        if not self.is_member(S):
            raise ValidationError(f"structure is not a member of class {self.name}")


def _symmetric_irreflexive(S: FinStructure, rel: str) -> bool:
    """Whether the binary rel is symmetric and has no loop."""
    out, into = S.bits[rel]
    return out == into and not any(o >> x & 1 for x, o in enumerate(out))


def _tournament(S: FinStructure, rel: str) -> bool:
    """Whether the binary rel holds exactly one of (a, b) and (b, a) for each
    pair a != b: every other point is out or in, none both, and no loop."""
    full = (1 << S.size) - 1
    return all(o | i == full ^ 1 << x and not o & i
               for x, (o, i) in enumerate(zip(*S.bits[rel])))


def _places(S: FinStructure) -> list[int]:
    """Each point's number of predecessors in "lt"."""
    return [i.bit_count() for i in S.bits["lt"][1]]


def _linear_order(S: FinStructure) -> bool:
    """Whether "lt" is a strict linear order: a tournament whose places are
    0..n-1, since a tournament is transitive iff its scores are distinct
    (Landau)."""
    return _tournament(S, "lt") and set(_places(S)) == set(range(S.size))


def _witness_complete(spec: FraisseClassSpec, seed: int, sat: int, cap: int) -> StructureChain:
    return build_generic(spec, sat, cap, seed)


_WITNESS = {"build": _witness_complete, "flags": {"sat": 1, "cap": 64}}


def pure_set_class() -> FraisseClassSpec:
    sig = Signature(())
    return FraisseClassSpec("pure_set", sig, lambda S: S.signature == sig, **_WITNESS)


def graph_class() -> FraisseClassSpec:
    sig = Signature((("E", 2),))
    return FraisseClassSpec(
        "graph", sig, lambda S: S.signature == sig and _symmetric_irreflexive(S, "E"),
        wiring="edge", **_WITNESS,
    )


def kn_free_graph_class(n: int = 3) -> FraisseClassSpec:
    if n < 3:
        raise ValidationError(f"kn_free_graph needs n >= 3, got {n}")
    sig = Signature((("E", 2),))

    def member(S: FinStructure) -> bool:
        return (
            S.signature == sig
            and _symmetric_irreflexive(S, "E")
            and not _clique_in(S.bits["E"][0], (1 << S.size) - 1, n)
        )

    return FraisseClassSpec(
        f"kn_free_graph:{n}", sig, member, params=(n,), wiring="edge", **_WITNESS
    )


def tournament_class() -> FraisseClassSpec:
    sig = Signature((("A", 2),))
    return FraisseClassSpec(
        "tournament", sig, lambda S: S.signature == sig and _tournament(S, "A"),
        wiring="arc", **_WITNESS,
    )


def linear_order_class() -> FraisseClassSpec:
    sig = Signature((("lt", 2),))
    return FraisseClassSpec(
        "linear_order", sig, lambda S: S.signature == sig and _linear_order(S), wiring="arc"
    )


def two_predicate_class() -> FraisseClassSpec:
    sig = Signature((("P", 1), ("Q", 1)))

    def member(S: FinStructure) -> bool:
        if S.signature != sig:
            return False
        p = {t[0] for t in S.table("P")}
        q = {t[0] for t in S.table("Q")}
        return not (p & q)

    return FraisseClassSpec("two_predicate_PQ", sig, member, flags={"size_p": 2, "size_q": 2},
                            build=lambda spec, seed, **sizes: build_two_predicate_PQ(**sizes))


def bipartite_deg2_class() -> FraisseClassSpec:
    sig = Signature((("R", 2),))

    def member(S: FinStructure) -> bool:
        if S.signature != sig or S.sorts is None or set(S.sorts) - {"S0", "S1"}:
            return False
        s1 = sum(1 << x for x, label in enumerate(S.sorts) if label == "S1")
        # an S0 point has two neighbours, all in S1; an S1 point none in S1
        return _symmetric_irreflexive(S, "R") and all(
            o & s1 == o and o.bit_count() == 2 if label == "S0" else not o & s1
            for o, label in zip(S.bits["R"][0], S.sorts))

    return FraisseClassSpec("bipartite_deg2", sig, member, flags={"m": 3},
                            build=lambda spec, seed, m: build_bipartite_deg2(m, seed))


def involution_order_class() -> FraisseClassSpec:
    sig = Signature((("lt", 2), ("f", 2)))

    def member(S: FinStructure) -> bool:
        # f is a fixed-point-free involution: symmetric, no loop, one image each
        return (S.signature == sig and _linear_order(S) and _symmetric_irreflexive(S, "f")
                and all(o.bit_count() == 1 for o in S.bits["f"][0]))

    return FraisseClassSpec("involution_order", sig, member, flags={"pairs": (3,)},
                            build=lambda spec, seed, pairs: involution_order_chain(pairs, seed))


def f2_vector_space_class(d: int = 3) -> FraisseClassSpec:
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

    return FraisseClassSpec(f"f2_vector_space:{d}", sig, member, params=(d,),
                            build=lambda spec, seed: build_f2_vector_space(spec.params[0]))


# Every class, by base name: the factory of its spec.
CLASSES: dict[str, Callable[..., FraisseClassSpec]] = {
    "pure_set": pure_set_class,
    "graph": graph_class,
    "kn_free_graph": kn_free_graph_class,
    "tournament": tournament_class,
    "linear_order": linear_order_class,
    "two_predicate_PQ": two_predicate_class,
    "bipartite_deg2": bipartite_deg2_class,
    "involution_order": involution_order_class,
    "f2_vector_space": f2_vector_space_class,
}


def class_by_name(name: str) -> FraisseClassSpec:
    """Parse names like 'graph', 'kn_free_graph:3', 'f2_vector_space:4'.

    A parameter is ASCII digits; left out, it takes its factory's default.  A
    parameter on a class whose factory takes none is rejected, not dropped.
    """
    base, colon, arg = name.partition(":")
    make = CLASSES.get(base)
    if make is None:
        raise ValidationError(f"unknown class {name!r}")
    if not colon:
        return make()
    if not inspect.signature(make).parameters:
        raise ValidationError(f"class {base!r} takes no parameter, got {name!r}")
    if not (arg.isascii() and arg.isdigit()):
        raise ValidationError(f"class {name!r}: parameter {arg!r} is not ASCII digits")
    return make(int(arg))


# --- chains ----------------------------------------------------------------


@dataclass(frozen=True)
class StructureChain:
    """Increasing levels; each embeds into the next by identity on the prefix.

    saturation[i] is the witness depth of levels[i] against itself, the value
    audit_saturation gives.
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
    """Rebuild a chain; missing keys, wrong shapes, an unknown class, a level
    outside the class and a saturation value the audit does not reproduce
    raise ValidationError."""
    try:
        spec = class_by_name(obj["class"])
        levels = tuple(structure_from_json(o) for o in obj["levels"])
        for level in levels:
            spec.validate(level)
        chain = StructureChain(
            class_name=obj["class"],
            levels=levels,
            saturation=tuple(map(_json_int, obj["saturation"])),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed chain JSON: {type(exc).__name__}: {exc}") from None
    _reaudit(spec, chain)
    return chain


def _reaudit(spec: FraisseClassSpec, chain: StructureChain) -> None:
    """Re-run the saturation audit on every level against the stored values.

    The build depth t is not stored, but an honest value is min(t, the
    level's own depth) and t is at least the largest value, so auditing a
    level at one more than its value, capped at the largest, gives the value
    back.  The audit stops at the first open instance, so a raised claim
    costs no more than the level's true depth plus one.  A depth of 0 claims
    nothing; lowering the one largest value only weakens a true claim, and
    passes."""
    depth = max(chain.saturation)
    if depth > 0 and not spec.witnessable:
        raise ValidationError(f"class {spec.name} has no saturation audit, yet claims {depth}")
    for i, (S, stored) in enumerate(zip(chain.levels, chain.saturation)):
        audited = audit_saturation(S, spec, min(stored + 1, depth)) if depth > 0 else 0
        if audited != stored:
            raise ValidationError(f"level {i}: stored saturation {stored}, audit gives {audited}")


def chain_dumps(chain: StructureChain) -> str:
    return json.dumps(chain_to_json(chain), sort_keys=True, indent=1)


def chain_loads(text: str) -> StructureChain:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"chain file is not JSON: {exc}") from None
    return chain_from_json(obj)


# --- witness completion ------------------------------------------------------


def _clique_in(bits: Sequence[int], mask: int, k: int) -> bool:
    """Whether the vertices in mask hold a k-clique of the symmetric bits."""
    if k <= 0:
        return True
    while mask.bit_count() >= k:
        low = mask & -mask
        mask ^= low
        if _clique_in(bits, mask & bits[low.bit_length() - 1], k - 1):
            return True
    return False


def _forbid(spec: FraisseClassSpec) -> int | None:
    """n for K_n-free graphs, the one witnessable class with a parameter; else None."""
    if not spec.witnessable:
        raise ValidationError(f"class {spec.name} is not witnessable")
    return spec.params[0] if spec.params else None


def _witness_mask(bits: Sequence[int], a_set, b_set) -> int:
    """Vertices w outside A ∪ B with w in every bits[a] and in no bits[b]."""
    cand = (1 << len(bits)) - 1
    for a in a_set:
        cand &= bits[a] & ~(1 << a)
    for b in b_set:
        cand &= ~(bits[b] | 1 << b)
    return cand


def _open_instances(bits: Sequence[int], t: int, lo: int, forbid: int | None, wiring: str | None,
                    first: bool = False):
    """Admissible (A, B) with |A|+|B| <= t, max(A ∪ B) >= lo, and no witness.

    Elements are chosen in decreasing order and sent to A or B, so each pair
    is reached once, and its witness mask is its prefix's mask ANDed with the
    mask of ({x}, {}) or ({}, {x}).  lo <= len(bits); lo = 0 walks every
    instance, the empty one too.  wiring is the class's (None for a pure
    set, whose witness need only be new).  Each choice tries the largest
    element first: the open instances of a built level involve its newest
    vertices, so first=True, which stops the walk at the first open instance
    (the list then holds at most one), tends to stop early.  The full list
    comes in no fixed order.

    The last element is settled for every x in [low, top) at once, from the
    witness side.  keep[w] is the transposed step masks: the x with w outside
    pos[x], and n bits up, the x with w outside neg[x].  ANDing keep[w] over
    the prefix's witnesses w leaves the x whose ({x}, {}) or ({}, {x}) step
    leaves the prefix no witness.  The AND stops once nothing is left (after
    about log2(top) witnesses on a random graph), and the clique test runs
    only on the x that are left.
    """
    n = len(bits)
    full = _witness_mask(bits, (), ())
    neg = [_witness_mask(bits, (), (x,)) for x in range(n)]
    # keep[w] holds {x : w not in pos[x]} in its low n bits and
    # {x : w not in neg[x]} in the n bits above, so one AND settles both sides
    if wiring is None:
        pos = neg  # bits are all 0: only x = w keeps w out of either mask
        keep = [1 << w | 1 << w + n for w in range(n)]
    else:
        pos = [_witness_mask(bits, (x,), ()) for x in range(n)]
        # above[w] = {x != w : w in bits[x]}, the relation transposed
        above = bits if wiring == "edge" else [full & ~(b | 1 << w) for w, b in enumerate(bits)]
        keep = [full & ~m | (m | 1 << w) << n for w, m in enumerate(above)]
    k = forbid - 1 if forbid else 0  # A holding a k-clique is inadmissible
    found: list[tuple[tuple[int, ...], tuple[int, ...]]] = []

    def last(a_set, b_set, a_mask, cand, low, top):
        """The open instances one element below top; True once first has been met."""
        hit = (1 << top) - (1 << low)
        hit |= hit << n
        while cand and hit:
            w = cand & -cand
            cand ^= w
            hit &= keep[w.bit_length() - 1]
        if not hit:
            return False
        for x in _members(hit & full):
            if not k or not _clique_in(bits, a_mask & pos[x], k - 1):
                found.append(((x, *a_set), b_set))
                if first:
                    return True
        for x in _members(hit >> n):
            found.append((a_set, (x, *b_set)))
            if first:
                return True
        return False

    def walk(a_set, b_set, a_mask, cand, low, top, room):
        """Walk the extensions below top; True once first has been met."""
        if room == 1:
            return last(a_set, b_set, a_mask, cand, low, top)
        for x in range(top - 1, low - 1, -1):
            if not k or not _clique_in(bits, a_mask & pos[x], k - 1):
                c = cand & pos[x]
                if not c:
                    found.append(((x, *a_set), b_set))
                    if first:
                        return True
                if walk((x, *a_set), b_set, a_mask | 1 << x, c, 0, x, room - 1):
                    return True
            c = cand & neg[x]
            if not c:
                found.append((a_set, (x, *b_set)))
                if first:
                    return True
            if walk(a_set, (x, *b_set), a_mask, c, 0, x, room - 1):
                return True
        return False

    if lo == 0 and not full:
        found.append(((), ()))
        if first:
            return found
    if t > 0:
        walk((), (), 0, full, lo, n, t)
    return found


def audit_saturation(S: FinStructure, spec: FraisseClassSpec, t: int) -> int:
    """Largest depth t' <= t at which every admissible instance is witnessed.

    Exhaustive up to the answer: walks the disjoint (A, B) on bitsets read
    from S itself (the into bitsets of its relation in `FinStructure.bits`,
    all 0 for a pure set), independent of how S was built, one size bound
    at a time (0, 1, ..., t), and stops at the first open instance.  A size
    below the bound holds none, so that instance has the bound's size, and a
    depth past the true one costs one walk that ends at its first open
    instance.  S must be in spec.
    """
    if t < 0:
        raise ValidationError(f"depth {t} < 0")
    bits = next((into for _, into in S.bits.values()), [0] * S.size)
    forbid = _forbid(spec)
    for size in range(t + 1):
        if _open_instances(bits, size, 0, forbid, spec.wiring, first=True):
            return max(size - 1, 0)
    return t


def build_generic(spec: FraisseClassSpec, t: int, cap: int, seed: int) -> StructureChain:
    """Witness-complete until the structure satisfies its own depth-t axioms.

    One level per round; each level's saturation is read off the round's
    sorted frontier.  Deterministic given seed.  Raises
    SaturationInfeasibleError when the cap would be exceeded before
    saturation.
    """
    if t < 0:
        raise ValidationError(f"depth {t} < 0")
    if cap < 1:
        raise ValidationError(f"cap {cap} < 1")
    if not spec.witnessable:
        raise ValidationError(f"class {spec.name} is not witnessable")
    if not spec.signature.relations:
        # a pure set is trivially saturated once the size clears the depth
        level = FinStructure(spec.signature, cap, {})
        return StructureChain(spec.name, (level,), (audit_saturation(level, spec, t),))
    import numpy as np

    rng = np.random.default_rng(seed)
    forbid, tournament = _forbid(spec), spec.wiring == "arc"
    bits = [0b10, 0] if tournament else [0, 0]  # 1 beats 0
    if len(bits) > cap:
        raise SaturationInfeasibleError(f"cap {cap} below the initial structure")
    rel = spec.signature.relations[0][0]
    levels, sat = [], []
    done = 0  # instances inside the first `done` vertices are witnessed or inadmissible
    pairs: set[tuple[int, int]] = set()  # the levels share these tuples
    while True:
        start = len(bits)
        # each level extends the one below, so only the pairs through a
        # vertex at or past done are new
        pairs.update((a, b) for b in range(start)
                     for a in _members(bits[b] if b >= done else bits[b] >> done << done))
        # the pairs name distinct points below start, so make_structure's
        # checks would have nothing to reject
        levels.append(FinStructure(spec.signature, start, {rel: frozenset(pairs)}))
        # every open instance of the level, in the order a full rescan meets
        # them, which fixes the seeded coin flips; the smallest sets its depth
        frontier = sorted(
            _open_instances(bits, t, done, forbid, spec.wiring),
            key=lambda ab: (len(ab[0]) + len(ab[1]), len(ab[0]), ab),
        )
        sat.append(max(len(frontier[0][0]) + len(frontier[0][1]) - 1, 0) if frontier else t)
        for a_set, b_set in frontier:
            if _witness_mask(bits, a_set, b_set):
                continue
            w = len(bits)
            if w >= cap:
                raise SaturationInfeasibleError(
                    f"saturation infeasible at cap {cap} (depth {t}, size {w})"
                )
            required = sum(1 << a for a in a_set)
            others = [v for v in range(w) if v not in a_set and v not in b_set]
            for _ in range(_WIRING_RETRIES):
                coins = rng.random(len(others))
                wins = required | sum(1 << v for v, c in zip(others, coins) if c < 0.5)
                if not (forbid and _clique_in(bits, wins, forbid - 1)):
                    break
            else:
                # minimal wiring: provably safe since the instance is admissible
                wins = required
            bits.append(~wins & ((1 << w) - 1) if tournament else wins)
            for v in _members(wins):
                bits[v] |= 1 << w
        if len(bits) == start:
            break
        done = start
    chain = StructureChain(spec.name, tuple(levels), tuple(sat))
    for S in chain.levels:  # bitwise, and leaves each level's bits cached
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
    import numpy as np

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
    out, _ = S.bits["R"]
    sig = Signature((("share0", 2), ("share1", 2), ("share2", 2)))
    tables: dict[str, set[tuple[int, ...]]] = {"share0": set(), "share1": set(), "share2": set()}
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            if i == j:
                continue
            shared = (out[a] & out[b]).bit_count()
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
    import numpy as np

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


def involution_order_chain(pair_counts: Sequence[int], seed: int) -> StructureChain:
    """Nested involution-order levels; new pairs interleave at seeded spots.

    The order relation is stored explicitly, so later elements may sit
    anywhere in the order while the universe still grows by identity suffix.
    """
    if not pair_counts or any(
        p < 1 or q <= p for p, q in zip(pair_counts, pair_counts[1:])
    ) or pair_counts[0] < 1:
        raise ValidationError("pair_counts must be strictly increasing and positive")
    import numpy as np

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
    carrier = tuple(sorted(S.elements_of_sort("M"), key=_places(S).__getitem__))
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
    return _pair_patterns(S)(a, b)


def find_involution_pattern_pair(S: FinStructure, pattern: str) -> tuple[int, int] | None:
    """First M-sort pair (a, b) realizing the given interleaving pattern."""
    involution_order_class().validate(S)
    pattern_of = _pair_patterns(S)
    for a, b in itertools.permutations(S.elements_of_sort("M"), 2):
        if pattern_of(a, b) == pattern:
            return a, b
    return None


def _pair_patterns(S: FinStructure) -> Callable[[int, int], str]:
    """The pair-pattern function of a validated involution structure; a
    point's place in the order is its number of predecessors."""
    fmap = dict(S.table("f"))
    place = _places(S)

    def pattern_of(a: int, b: int) -> str:
        names = {a: "a", b: "b", fmap[a]: "fa", fmap[b]: "fb"}
        if len(names) != 4:
            raise ValidationError("points share an orbit pair")
        return "<".join(names[x] for x in sorted(names, key=place.__getitem__))

    return pattern_of


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

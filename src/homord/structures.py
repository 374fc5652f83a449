"""Finite relational structures, induced substructures, and tuple type codes.

Everything downstream (builders, orbit machinery, path search, samplers, the
rational order-system) works over `FinStructure`: a finite universe {0..n-1},
a purely relational signature, explicit tuple tables, and optional sort labels.

A tuple's *type code* is a canonical byte string determined by the induced
tables on the tuple with positions named.  Two tuples get equal codes exactly
when the position-respecting map between them is an isomorphism of induced
substructures.  Codes are deterministic across runs and platforms: they are
built by direct serialization, never from `hash()`.  Relation names and sort
labels are ASCII identifiers, so the separators of a code never occur inside
a name and every code is ASCII.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .errors import ResourceLimitError, ValidationError

# Opaque canonical byte string for a tuple's quantifier-free type.
TypeCode = bytes

# How many k-tuples enumerate_types is willing to walk.
_ENUM_CAP = 2_000_000


def _check_name(kind: str, name: object) -> None:
    """A relation name or sort label is an ASCII identifier: type codes join
    them with ",", "|", "=" and ";" and encode them as ASCII, so any other
    string could make two codes collide or fail to encode."""
    if not (isinstance(name, str) and name.isascii() and name.isidentifier()):
        raise ValidationError(f"{kind} {name!r} is not an ASCII identifier")


@dataclass(frozen=True)
class Signature:
    """Relation names with arities.  Purely relational: no function symbols."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate relation name in signature")
        for name, arity in self.relations:
            _check_name("relation name", name)
            if arity < 1:
                raise ValidationError(f"relation {name}: arity {arity} < 1")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)


@dataclass(frozen=True)
class FinStructure:
    """Finite structure on universe {0..size-1} with explicit tuple tables.

    tables maps every relation name of the signature to a frozenset of
    int tuples.  sorts, when present, labels each element with a sort name;
    sorts are part of the structure (isomorphisms must preserve them).
    """

    signature: Signature
    size: int
    tables: dict[str, frozenset[tuple[int, ...]]]
    sorts: tuple[str, ...] | None = None

    @property
    def elements(self) -> range:
        return range(self.size)

    def table(self, name: str) -> frozenset[tuple[int, ...]]:
        try:
            return self.tables[name]
        except KeyError:
            raise ValidationError(f"unknown relation {name!r}") from None

    def holds(self, name: str, points: tuple[int, ...]) -> bool:
        return points in self.table(name)

    def sort_of(self, element: int) -> str | None:
        if self.sorts is None:
            return None
        return self.sorts[element]

    def elements_of_sort(self, label: str) -> tuple[int, ...]:
        if self.sorts is None:
            raise ValidationError("structure has no sorts")
        return tuple(i for i in self.elements if self.sorts[i] == label)

    @cached_property
    def bits(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Each binary relation as per-point bitsets, read once per instance.

        bits[name] = (out, into): out[a] has bit b and into[b] has bit a for
        each tuple (a, b) of the relation, loops included; relations of other
        arities are left out.  The cache lives in the instance __dict__,
        which a frozen dataclass leaves writable and which ==, repr and the
        JSON form never read.
        """
        n, bits = self.size, {}
        for name, arity in self.signature.relations:
            if arity == 2:
                out, into = [0] * n, [0] * n
                for a, b in self.tables[name]:
                    out[a] |= 1 << b
                    into[b] |= 1 << a
                # a symmetric relation (a graph's) keeps one tuple, not two
                out, into = tuple(out), tuple(into)
                bits[name] = out, out if out == into else into
        return bits


def make_structure(
    signature: Signature,
    size: int,
    tables: dict[str, set[tuple[int, ...]] | frozenset[tuple[int, ...]]],
    sorts: tuple[str, ...] | list[str] | None = None,
) -> FinStructure:
    """Validate eagerly and freeze.  Missing relations get empty tables.

    Rejected: negative size, tuples out of range, arity mismatches, table
    entries for relations not in the signature, sort vector of wrong length,
    a sort label that is not an ASCII identifier.
    """
    if size < 0:
        raise ValidationError(f"size {size} < 0")
    declared = set(signature.names())
    for name in tables:
        if name not in declared:
            raise ValidationError(f"table for undeclared relation {name!r}")
    frozen: dict[str, frozenset[tuple[int, ...]]] = {}
    for name, arity in signature.relations:
        rows = tables.get(name, frozenset())
        out = set()
        for tup in rows:
            tup = tuple(tup)
            if len(tup) != arity:
                raise ValidationError(
                    f"relation {name}: tuple {tup} has arity {len(tup)}, expected {arity}"
                )
            for x in tup:
                if not isinstance(x, int) or isinstance(x, bool) or not (0 <= x < size):
                    raise ValidationError(f"relation {name}: point {x!r} out of range")
            out.add(tup)
        frozen[name] = frozenset(out)
    sort_tuple: tuple[str, ...] | None = None
    if sorts is not None:
        sort_tuple = tuple(sorts)
        if len(sort_tuple) != size:
            raise ValidationError("sorts length does not match size")
        for label in sort_tuple:
            _check_name("sort label", label)
    return FinStructure(signature=signature, size=size, tables=frozen, sorts=sort_tuple)


def _check_points(S: FinStructure, points: tuple[int, ...]) -> None:
    for p in points:
        if not (0 <= p < S.size):
            raise ValidationError(f"point {p} out of range")
    if len(set(points)) != len(points):
        raise ValidationError(f"repeated point in {points}")


def induced_substructure(S: FinStructure, points: tuple[int, ...]) -> FinStructure:
    """Pull back along position i -> points[i]; result lives on {0..k-1}."""
    points = tuple(points)
    _check_points(S, points)
    k = len(points)
    tables: dict[str, frozenset[tuple[int, ...]]] = {}
    for name, arity in S.signature.relations:
        holds = map(S.tables[name].__contains__, itertools.product(points, repeat=arity))
        indices = itertools.product(range(k), repeat=arity)
        tables[name] = frozenset(itertools.compress(indices, holds))
    sorts = None
    if S.sorts is not None:
        sorts = tuple(S.sorts[p] for p in points)
    return FinStructure(signature=S.signature, size=k, tables=tables, sorts=sorts)


def canonical_type(S: FinStructure, points: tuple[int, ...]) -> TypeCode:
    """Canonical code of the tuple's quantifier-free type, positions named.

    Serializes k, the per-position sort labels, and for each relation the
    sorted set of index tuples that hold on the tuple.  No canonical labeling
    search is needed: positions are named, so the induced tables are already
    a complete invariant.  `itertools.product` walks the index tuples in
    lexicographic order, so the hits come out sorted.
    """
    points = tuple(points)
    _check_points(S, points)
    return _type_code(S, points)


def _type_code(S: FinStructure, points: tuple[int, ...]) -> TypeCode:
    """canonical_type for a tuple of distinct points of S, unchecked."""
    k = len(points)
    parts = [f"k{k}"]
    if S.sorts is not None:
        parts.append("s" + ",".join(S.sorts[p] for p in points))
    for name, arity in S.signature.relations:
        holds = map(S.tables[name].__contains__, itertools.product(points, repeat=arity))
        parts.append(name + "=" + ";".join(itertools.compress(_index_labels(k, arity), holds)))
    return "|".join(parts).encode("ascii")


@lru_cache(maxsize=64)
def _index_labels(k: int, arity: int) -> tuple[str, ...]:
    """The "i,j,..." label of every index tuple over range(k), in product order."""
    return tuple(",".join(map(str, idx)) for idx in itertools.product(range(k), repeat=arity))


def type_code_str(code: TypeCode) -> str:
    """Printable form of a type code (used by JSON output)."""
    return code.decode("ascii")


def _members(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_blocks(S: FinStructure) -> list[dict[int, int]]:
    """Every point's pair-pattern blocks, refined from `FinStructure.bits`.

    blocks[x] maps each pattern p to the bitset of the points y != x with
    that pattern from x, when there are any: bit 2i of p says (x, y) and bit
    2i+1 (y, x) is in the i-th binary relation.  The blocks start as one
    block of every other point and are refined one binary relation at a
    time.
    """
    n = S.size
    blocks = [{0: ((1 << n) - 1) ^ (1 << x)} for x in range(n)]
    for i, (out, into) in enumerate(S.bits.values()):
        low, high = 1 << 2 * i, 2 << 2 * i
        for x in range(n):
            succ, pred = out[x], into[x]
            if not succ | pred:
                continue
            refined = {}
            for p, block in blocks[x].items():
                for part, q in ((block & ~(succ | pred), p),
                                (block & succ & ~pred, p | low),
                                (block & pred & ~succ, p | high),
                                (block & succ & pred, p | low | high)):
                    if part:
                        refined[q] = part
            blocks[x] = refined
    return blocks


class _View(NamedTuple):
    """The isomorphism search's view of a structure.  invariants[x]: x's sort
    label and incidence count at each relation position; classes[inv]: the
    bitset of the elements of invariant inv; unchecked[x]: the (tuple, name)
    pairs through x of arity other than 2 or a loop, which masks leave
    unchecked; patterns[a][b], when not 0: a's pair pattern towards b (see
    `_pair_blocks`); masks[y][p]: the bitset of the points w != y with
    patterns[y][w] == p, absent when there are none."""

    tables: dict[str, frozenset[tuple[int, ...]]]
    invariants: list[tuple]
    classes: dict[tuple, int]
    unchecked: list[list[tuple[tuple[int, ...], str]]]
    patterns: list[dict[int, int]]
    masks: list[dict[int, int]]


def _view(S: FinStructure) -> _View:
    """S's `_View`: binary relations read off `FinStructure.bits` and
    `_pair_blocks`, the rest tuple by tuple."""
    n = S.size
    masks = _pair_blocks(S)
    width = sum(arity for _, arity in S.signature.relations)
    counts = [[0] * width for _ in range(n)]
    unchecked: list[list] = [[] for _ in range(n)]
    offset = 0
    for name, arity in S.signature.relations:
        if arity == 2:
            out, into = S.bits[name]
            for x in range(n):
                counts[x][offset] = out[x].bit_count()
                counts[x][offset + 1] = into[x].bit_count()
                if out[x] >> x & 1:
                    unchecked[x].append(((x, x), name))
        else:
            for tup in S.tables[name]:
                for pos, x in enumerate(tup):
                    counts[x][offset + pos] += 1
                for x in set(tup):
                    unchecked[x].append((tup, name))
        offset += arity
    invariants = [(S.sort_of(x), tuple(counts[x])) for x in range(n)]
    classes: dict[tuple, int] = collections.defaultdict(int)
    for x, inv in enumerate(invariants):
        classes[inv] |= 1 << x
    patterns = [{w: p for p, block in row.items() if p for w in _members(block)} for row in masks]
    return _View(S.tables, invariants, classes, unchecked, patterns, masks)


def isomorphisms(S: FinStructure, T: FinStructure) -> Iterator[tuple[int, ...]]:
    """Yield every isomorphism S -> T as an image tuple, in a fixed order:
    that of a plain backtracker mapping the elements b = `order` of S, most
    constrained first, to candidates in ascending order.

    Let G_d be the pointwise stabiliser of b[:d] in Aut(S).  The
    isomorphisms agreeing with an isomorphism h on b[:d] form the coset
    h G_d, and their images of b[d] are h(z) for z in the orbit b[d]^G_d.
    So a transversal table (Sims), one u_{d,z} in G_d with u_{d,z}(b[d]) = z
    per orbit point z, lists them all: the walk below visits the z in
    ascending h(z) and recurses on h u_{d,z}.  It starts from the identity
    when T is S, and otherwise from the first solution of the backtracker,
    yielded before any table work, so `find_isomorphism` between two
    structures runs one search.

    The table is filled from the deepest d up.  Every automorphism found
    so far was found at some depth d' >= d, so it fixes b[:d] and lies in
    G_d, and so do its products.  At depth d a breadth-first closure of
    b[d] under them gives each point z it reaches a product mapping b[d] to
    z; each candidate z it does not reach runs a first-solution search with
    b[:d] pinned to themselves and b[d] to z, and a solution joins the
    automorphisms and the closure runs again.  So the entries at depth d
    are the whole orbit, and most orbit points cost no search.  Which
    u_{d,z} the table holds does not change the output: every later factor
    fixes b[d], so the walk yields the leaves in lexicographic order of
    their images along b, the plain backtracker's order.

    The search reads one `_View` of S, and one of T unless T is S.  Each
    unmapped element keeps a bitset domain of images, seeded by invariant.
    Mapping x -> y cuts each later z's domain to the w with y's pair pattern
    towards w in T equal to x's towards z in S; a branch ends at an empty
    domain.  So domains check injectivity and every binary tuple on two
    distinct points; the unchecked tuples through x and y are checked once
    all their points are mapped.
    """
    if S.size != T.size or S.signature != T.signature:
        return
    n = S.size
    view_s = _view(S)
    view_t = view_s if T is S else _view(T)
    if sorted(view_s.invariants) != sorted(view_t.invariants):
        return
    order = sorted(range(n), key=lambda x: view_s.classes[view_s.invariants[x]].bit_count())
    # later_patterns[d]: the pattern of order[d] towards each later element
    later_patterns = [[view_s.patterns[x].get(z, 0) for z in order[d + 1:]]
                      for d, x in enumerate(order)]

    def backtracker(view_t: _View):
        """search(depth, domains) yields the isomorphisms S -> T that fix
        order[:depth] and send each later order[depth + i] into domains[i],
        in ascending order of images along order; seeds come from invariants."""
        image, inverse = [-1] * n, [-1] * n

        def fits(x: int, y: int) -> bool:
            for tup, name in view_s.unchecked[x]:
                mapped = tuple(map(image.__getitem__, tup))
                if -1 not in mapped and mapped not in view_t.tables[name]:
                    return False
            for tup, name in view_t.unchecked[y]:
                mapped = tuple(map(inverse.__getitem__, tup))
                if -1 not in mapped and mapped not in view_s.tables[name]:
                    return False
            return True

        def extend(depth: int, domains: list[int]):
            # domains[i] is the domain of order[depth + i]
            if depth == n:
                yield tuple(image)
                return
            x, patterns, rest = order[depth], later_patterns[depth], domains[1:]
            left = domains[0]
            while left:
                low = left & -left
                left ^= low
                y = low.bit_length() - 1
                image[x], inverse[y] = y, x
                if fits(x, y):
                    masks = view_t.masks[y]
                    cut = [d & masks.get(p, 0) for d, p in zip(rest, patterns)]
                    if all(cut):
                        yield from extend(depth + 1, cut)
                image[x], inverse[y] = -1, -1

        def search(depth: int, domains: list[int]):
            # order[:depth] pinned to themselves (T is S then); a search
            # abandoned after its first solution leaves its images set
            image[:], inverse[:] = [-1] * n, [-1] * n
            for x in order[:depth]:
                image[x] = inverse[x] = x
            yield from extend(depth, domains)

        seeds = [view_t.classes[view_s.invariants[x]] for x in order]
        return search, seeds

    if T is S:
        start = tuple(range(n))
    else:
        search, seeds = backtracker(view_t)
        start = next(search(0, seeds), None)
        if start is None:
            return
        yield start
    auto, seeds = backtracker(view_s)

    # levels[d]: the domains of order[d:] on the identity path
    levels = [seeds]
    for d, x in enumerate(order[:-1]):
        masks = view_s.masks[x]
        levels.append([dom & masks.get(p, 0) for dom, p in zip(levels[d][1:], later_patterns[d])])

    # table: for each d with a nontrivial orbit, the pairs (z, step) with
    # step(h) = h u_{d,z}, and None for u_{d,b[d]}, the identity; filled
    # deepest first, so every automorphism in gens fixes b[:d]
    gens: list[tuple[int, ...]] = []
    table: list[list[tuple[int, Callable | None]]] = []

    def close(orbit: dict[int, tuple[int, ...] | None], queue: list[int]) -> None:
        # breadth first: each g in gens after the u of a point z reaches g(z)
        for z in queue:  # queue grows as it goes
            u = orbit[z]
            for g in gens:
                if g[z] not in orbit:
                    orbit[g[z]] = g if u is None else tuple(map(g.__getitem__, u))
                    queue.append(g[z])

    for d in reversed(range(n)):
        x, domains = order[d], levels[d]
        if domains[0] == 1 << x:
            continue
        orbit: dict[int, tuple[int, ...] | None] = {x: None}
        close(orbit, [x])
        for z in _members(domains[0]):
            if z not in orbit:
                u = next(auto(d, [1 << z] + domains[1:]), None)
                if u is not None:
                    gens.append(u)
                    orbit[z] = u
                    close(orbit, list(orbit))
        if len(orbit) > 1:
            # itemgetter(*u)(h) is the tuple h u, as n > 1 here
            table.append([(z, None if u is None else operator.itemgetter(*u))
                          for z, u in orbit.items()])
    table.reverse()

    def walk(level: int, h: tuple[int, ...]):
        # the last level yields its products itself, saving a generator a leaf
        entries = sorted(table[level], key=lambda entry: h[entry[0]])
        if level + 1 == len(table):
            for _, step in entries:
                yield h if step is None else step(h)
        else:
            for _, step in entries:
                yield from walk(level + 1, h if step is None else step(h))

    cosets = walk(0, start) if table else iter((start,))
    if T is not S:
        next(cosets)  # start itself, yielded above
    yield from cosets


def find_isomorphism(S: FinStructure, T: FinStructure) -> list[int] | None:
    """First isomorphism S -> T as an image list, or None."""
    found = next(isomorphisms(S, T), None)
    return None if found is None else list(found)


def enumerate_types(S: FinStructure, k: int) -> set[TypeCode]:
    """All type codes of distinct k-tuples.  k=0 gives the singleton empty type."""
    if k < 0:
        raise ValidationError(f"k {k} < 0")
    if k == 0:
        return {canonical_type(S, ())}
    if k > S.size:
        raise ValidationError(f"k {k} exceeds size {S.size}")
    count = math.perm(S.size, k)
    if count > _ENUM_CAP:
        raise ResourceLimitError(f"{count} tuples exceed enumeration cap {_ENUM_CAP}")
    return {canonical_type(S, tup) for tup in itertools.permutations(range(S.size), k)}


# --- JSON form ---------------------------------------------------------------
#
# {"sig": [["E", 2], ...], "size": 4, "sorts": ["M", ...] | null,
#  "rel": {"E": [[0, 1], ...], ...}}


def structure_to_json(S: FinStructure) -> dict:
    return {
        "sig": [[name, arity] for name, arity in S.signature.relations],
        "size": S.size,
        "sorts": list(S.sorts) if S.sorts is not None else None,
        "rel": {name: sorted([list(t) for t in S.tables[name]]) for name, _ in S.signature.relations},
    }


def _json_int(value: object) -> int:
    """value itself when it is a JSON integer; a float, a bool or a string is
    refused, never truncated or converted."""
    if type(value) is not int:
        raise ValidationError(f"expected an integer, got {value!r}")
    return value


def structure_from_json(obj: dict) -> FinStructure:
    sig = Signature(tuple((name, _json_int(arity)) for name, arity in obj["sig"]))
    tables = {
        name: {tuple(map(_json_int, tup)) for tup in rows}
        for name, rows in obj.get("rel", {}).items()
    }
    sorts = obj.get("sorts")
    if sorts is not None and not isinstance(sorts, list):
        raise ValidationError(f"sorts must be a list or null, got a {type(sorts).__name__}")
    return make_structure(sig, _json_int(obj["size"]), tables, sorts)


def structure_dumps(S: FinStructure) -> str:
    return json.dumps(structure_to_json(S), sort_keys=True)

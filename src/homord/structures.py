"""Finite relational structures, induced substructures, and tuple type codes.

Everything downstream (builders, orbit machinery, path search, samplers, the
rational order-system) works over `FinStructure`: a finite universe {0..n-1},
a purely relational signature, explicit tuple tables, and optional sort labels.

A tuple's *type code* is a canonical byte string determined by the induced
tables on the tuple with positions named.  Two tuples get equal codes exactly
when the position-respecting map between them is an isomorphism of induced
substructures.  Codes are deterministic across runs and platforms: they are
built by direct serialization, never from `hash()`.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from .errors import ResourceLimitError, ValidationError

# Opaque canonical byte string for a tuple's quantifier-free type.
TypeCode = bytes

# How many k-tuples enumerate_types is willing to walk.
_ENUM_CAP = 2_000_000


@dataclass(frozen=True)
class Signature:
    """Relation names with arities.  Purely relational: no function symbols."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate relation name in signature")
        for name, arity in self.relations:
            if not name or any(ch.isspace() for ch in name):
                raise ValidationError(f"bad relation name {name!r}")
            if arity < 1:
                raise ValidationError(f"relation {name}: arity {arity} < 1")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.relations)

    def arity(self, name: str) -> int:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        raise ValidationError(f"unknown relation {name!r}")


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


def make_structure(
    signature: Signature,
    size: int,
    tables: dict[str, set[tuple[int, ...]] | frozenset[tuple[int, ...]]],
    sorts: tuple[str, ...] | list[str] | None = None,
) -> FinStructure:
    """Validate eagerly and freeze.  Missing relations get empty tables.

    Rejected: negative size, tuples out of range, arity mismatches, table
    entries for relations not in the signature, sort vector of wrong length.
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


def _element_invariants(S: FinStructure) -> list[tuple]:
    """Per-element (sort label, incidence count per relation position)."""
    width = sum(arity for _, arity in S.signature.relations)
    counts = [[0] * width for _ in range(S.size)]
    offset = 0
    for name, arity in S.signature.relations:
        for tup in S.tables[name]:
            for pos, x in enumerate(tup):
                counts[x][offset + pos] += 1
        offset += arity
    return [(S.sort_of(x), tuple(counts[x])) for x in range(S.size)]


def _incidence(S: FinStructure) -> list[list[tuple[tuple[int, ...], str]]]:
    """For each element, the (tuple, relation name) pairs whose tuple holds it."""
    inc: list[list] = [[] for _ in range(S.size)]
    for name, _ in S.signature.relations:
        for tup in S.tables[name]:
            for x in set(tup):
                inc[x].append((tup, name))
    return inc


def isomorphisms(S: FinStructure, T: FinStructure) -> Iterator[tuple[int, ...]]:
    """Yield every isomorphism S -> T as an image tuple, in a fixed order.

    Backtracking over elements, most constrained first, with candidates
    pruned by element invariants (sort label, incidence counts per relation
    position).  Extending a partial map by x -> y checks only the tuples of
    S through x and of T through y whose points are all mapped already.
    """
    if S.size != T.size or S.signature != T.signature:
        return
    n = S.size
    inv_s = _element_invariants(S)
    inv_t = inv_s if T is S else _element_invariants(T)
    if sorted(inv_s) != sorted(inv_t):
        return
    candidates = [[y for y in range(n) if inv_t[y] == inv_s[x]] for x in range(n)]
    order = sorted(range(n), key=lambda x: len(candidates[x]))
    inc_s, inc_t = _incidence(S), _incidence(T)
    image, inverse = [-1] * n, [-1] * n

    def fits(x: int, y: int) -> bool:
        for tup, name in inc_s[x]:
            mapped = tuple(map(image.__getitem__, tup))
            if -1 not in mapped and mapped not in T.tables[name]:
                return False
        for tup, name in inc_t[y]:
            mapped = tuple(map(inverse.__getitem__, tup))
            if -1 not in mapped and mapped not in S.tables[name]:
                return False
        return True

    def extend(depth: int):
        if depth == n:
            yield tuple(image)
            return
        x = order[depth]
        for y in candidates[x]:
            if inverse[y] < 0:
                image[x], inverse[y] = y, x
                if fits(x, y):
                    yield from extend(depth + 1)
                image[x], inverse[y] = -1, -1

    yield from extend(0)


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
    count = 1
    for i in range(k):
        count *= S.size - i
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


def structure_from_json(obj: dict) -> FinStructure:
    sig = Signature(tuple((name, int(arity)) for name, arity in obj["sig"]))
    tables = {
        name: {tuple(int(x) for x in tup) for tup in rows}
        for name, rows in obj.get("rel", {}).items()
    }
    sorts = obj.get("sorts")
    return make_structure(sig, int(obj["size"]), tables, tuple(sorts) if sorts else None)


def structure_dumps(S: FinStructure) -> str:
    return json.dumps(structure_to_json(S), sort_keys=True)

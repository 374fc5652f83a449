"""Automorphism groups, orbit partitions, closure profiles, invariant congruences.

Orbit computations use the finite structure's actual automorphisms: the
isomorphisms from the structure to itself, enumerated by the backtracker in
`structures.isomorphisms`.  No homogeneity is assumed: when the finite level
is less symmetric than the limit it approximates, the orbit partition
properly refines the type partition and callers see the gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .builders import StructureChain
from .errors import ResourceLimitError, ValidationError
from .structures import FinStructure, isomorphisms

_GROUP_BOUND = 1_000_000
_TUPLE_BOUND = 1_000_000
_PAIR_ORBIT_BOUND = 16


@dataclass(frozen=True)
class AutGroup:
    """Automorphisms as permutation tuples.  complete=False means the
    enumeration stopped at the bound and elements is a partial list."""

    structure: FinStructure = field(compare=False)
    elements: tuple[tuple[int, ...], ...]
    complete: bool = True

    def __len__(self) -> int:
        return len(self.elements)


def automorphisms(S: FinStructure, bound: int = _GROUP_BOUND) -> AutGroup:
    """Enumerate Aut(S) by backtracking.  Stops (complete=False) at bound."""
    found = tuple(itertools.islice(isomorphisms(S, S), bound + 1))
    if len(found) > bound:
        return AutGroup(S, found[:bound], complete=False)
    return AutGroup(S, found)


@dataclass(frozen=True)
class OrbitPartition:
    """Orbits of distinct k-tuples under the pointwise stabilizer of fixed."""

    arity: int
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    stabilized_by: frozenset[int]


def _stabilizer(aut: AutGroup, fixed: frozenset[int]) -> list[tuple[int, ...]]:
    if not aut.complete:
        raise ResourceLimitError("orbit computation needs a complete automorphism group")
    return [g for g in aut.elements if all(g[x] == x for x in fixed)]


def orbits(
    S: FinStructure,
    k: int,
    fixed: frozenset[int] | set[int] = frozenset(),
    aut: AutGroup | None = None,
) -> OrbitPartition:
    """Orbit partition of distinct k-tuples; exact, no homogeneity shortcut."""
    if k < 1:
        raise ValidationError(f"k {k} < 1")
    if k > S.size:
        raise ValidationError(f"k {k} exceeds size {S.size}")
    fixed = frozenset(fixed)
    for x in fixed:
        if not (0 <= x < S.size):
            raise ValidationError(f"fixed point {x} out of range")
    count = 1
    for i in range(k):
        count *= S.size - i
    if count > _TUPLE_BOUND:
        raise ResourceLimitError(f"{count} tuples exceed bound {_TUPLE_BOUND}")
    if aut is None:
        aut = automorphisms(S)
    stab = _stabilizer(aut, fixed)
    seen: set[tuple[int, ...]] = set()
    blocks: list[tuple[tuple[int, ...], ...]] = []
    for tup in itertools.permutations(range(S.size), k):
        if tup in seen:
            continue
        orbit = {tuple(g[x] for x in tup) for g in stab}
        seen |= orbit
        blocks.append(tuple(sorted(orbit)))
    blocks.sort()
    return OrbitPartition(arity=k, blocks=tuple(blocks), stabilized_by=fixed)


@dataclass(frozen=True)
class AclProfile:
    """Orbit-of-b growth along a chain, under pointwise stabilizers of A.

    The verdict is a heuristic about the chain, never a claim about the
    infinite limit: 'growing' when the last two orbit sizes strictly
    increase, 'algebraic-over-A' when the orbit is the same set across the
    last two levels, 'undecided' otherwise.
    """

    verdict: str
    orbit_sizes: tuple[int, ...]
    final_orbit: tuple[int, ...]


def acl_profile(chain: StructureChain, A: frozenset[int] | set[int], b: int) -> AclProfile:
    if len(chain.levels) < 2:
        raise ValidationError("acl profile needs a chain of at least 2 levels")
    A = frozenset(A)
    first = chain.levels[0]
    for x in A | {b}:
        if not (0 <= x < first.size):
            raise ValidationError(f"point {x} not in the first level")
    orbit_sets: list[frozenset[int]] = []
    for level in chain.levels:
        aut = automorphisms(level)
        stab = _stabilizer(aut, A)
        orbit_sets.append(frozenset(g[b] for g in stab))
    sizes = tuple(len(o) for o in orbit_sets)
    if sizes[-1] > sizes[-2]:
        verdict = "growing"
    elif orbit_sets[-1] == orbit_sets[-2]:
        verdict = "algebraic-over-A"
    else:
        verdict = "undecided"
    return AclProfile(verdict=verdict, orbit_sizes=sizes, final_orbit=tuple(sorted(orbit_sets[-1])))


def invariant_equivalences(
    S: FinStructure,
    sort: str | None = None,
    max_pair_orbits: int = _PAIR_ORBIT_BOUND,
) -> list[tuple[tuple[int, ...], ...]]:
    """All Aut(S)-invariant equivalence relations on the (sorted) universe.

    Enumerates unions of orbits on ordered distinct pairs, closes each union
    under reflexivity/symmetry/transitivity (the closure of an invariant
    relation is invariant, so nothing is missed), and deduplicates.  Returns
    partitions as sorted block tuples; always contains the two trivial ones
    when the carrier has >= 2 elements.
    """
    if sort is None:
        carrier = list(S.elements)
    else:
        carrier = list(S.elements_of_sort(sort))
    if not carrier:
        raise ValidationError("empty carrier")
    aut = automorphisms(S)
    if not aut.complete:
        raise ResourceLimitError("invariant equivalence search needs the full group")
    pairs = [(a, b) for a in carrier for b in carrier if a != b]
    seen: set[tuple[int, int]] = set()
    orbit_list: list[list[tuple[int, int]]] = []
    for pair in pairs:
        if pair in seen:
            continue
        orbit = {(g[pair[0]], g[pair[1]]) for g in aut.elements}
        seen |= orbit
        orbit_list.append(sorted(orbit))
    if len(orbit_list) > max_pair_orbits:
        raise ResourceLimitError(
            f"{len(orbit_list)} pair orbits exceed bound {max_pair_orbits}"
        )

    index = {x: i for i, x in enumerate(carrier)}
    results: set[tuple[tuple[int, ...], ...]] = set()
    for mask in range(1 << len(orbit_list)):
        parent = list(range(len(carrier)))

        def root(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for bit, orbit in enumerate(orbit_list):
            if mask >> bit & 1:
                for a, b in orbit:
                    ra, rb = root(index[a]), root(index[b])
                    if ra != rb:
                        parent[ra] = rb
        blocks: dict[int, list[int]] = {}
        for x in carrier:
            blocks.setdefault(root(index[x]), []).append(x)
        partition = tuple(sorted(tuple(sorted(block)) for block in blocks.values()))
        results.add(partition)
    return sorted(results, key=lambda p: (-len(p), p))

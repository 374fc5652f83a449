"""Exact consistency systems for invariant random orderings, truncated at a
finite level.

A consistent random ordering of a hereditary class assigns a probability to
every ordered structure (a member together with a linear order on its points),
constant on isomorphism classes, such that

  * for each member, the probabilities of its orders sum to 1, and
  * deleting a point commutes with taking marginals: the probability of an
    order on the smaller structure equals the sum over the point's insertion
    positions of the extended orders' probabilities.

Truncating at level L keeps members of size <= L.  This module builds that
linear system, checks the uniform point (every order of a size-k member gets
1/k!) solves it, measures the solution polytope's dimension at the uniform
point, and searches for deterministic (0/1) solutions.  The dimension tells
ergodic uniqueness apart from a genuine polytope of invariant orderings at
this truncation; 0/1 solutions are the orderings concentrated on a single
rule, which exist for chains (identity and reversal) but are obstructed for
graphs and pure sets by the 2-point swap.

Assembly works over pair masks: a labelled member on k points is an int
with one bit per pair.  The base classes are the orbits of the masks under
the k! permutations, each image read off a per-permutation table, and every
labelled member is a variable, so each variable's code is computed once and
nothing else is.  The restriction rows are read off the masks too: deleting
point 0 keeps a mask's low bits, and inserting it back at each position is
a relabelling by one of k shift permutations, which stays in the class.  A
restriction row is fixed by the mask of the deleted point followed by the
rest, so each variable gives one row, built in the same pass over levels
that numbers the variables (graph level 4 -> 5: 1,024 rows for 4,080
choices of deleted point and order of the rest).
Every coefficient is an integer, and the rows hold them as ints from
assembly through the rank to the report; the uniform point is checked over
the integers, scaled by L!.

The verdicts count pivot columns only.  `integer_echelon`, a fraction-free
forward elimination pivoting at each row's largest column, finds them once
per system, for the nullity and every `projected_dimension` level cut.  Only
`kernel_basis` needs the reduced row echelon form; it runs the Gauss-Jordan
`integer_rref` when called.  A class enumerates through its spec's wiring
(or has no relation at all), so pure sets, linear orders, graphs, K_n-free
graphs and tournaments all go up to level 6, where graph L=6 (33,867
variables, nullity 12,059) assembles in about 0.9 s and ranks in about 4 s
on a 2-core Xeon.

Everything here is exact; no floats."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .builders import FraisseClassSpec, class_by_name
from .errors import ResourceLimitError, ValidationError
from .structures import (
    FinStructure,
    TypeCode,
    _type_code,
    canonical_type,
)

@dataclass(frozen=True)
class OrderedType:
    """One isomorphism class of ordered members.

    code identifies the class (serialization of a member with points listed
    in order position); order_count is how many of the k! orders of the base
    representative land in this class, which equals |Aut(base)| for every
    code of that base."""

    code: TypeCode
    level: int
    base_index: int
    order_count: int


@dataclass(frozen=True)
class CroRow:
    """coeffs maps variable index -> integer coefficient; the row asserts
    sum(coeffs) == rhs.  kind is 'mass' or 'restriction'."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int
    kind: str


@dataclass(frozen=True)
class CroSystem:
    class_name: str
    max_level: int
    base_reps: dict[int, tuple[FinStructure, ...]]
    variables: tuple[OrderedType, ...]
    rows: tuple[CroRow, ...]

    def variables_at(self, level: int) -> tuple[OrderedType, ...]:
        return tuple(v for v in self.variables if v.level == level)

    @cached_property
    def pivots(self) -> frozenset[int]:
        """Pivot columns of the row coefficients' echelon, computed once per
        system; the rank, the nullity and the level cuts read them."""
        return frozenset(integer_echelon(row.coeffs for row in self.rows))

    @property
    def rank(self) -> int:
        return len(self.pivots)


@dataclass(frozen=True)
class CroReport:
    class_name: str
    max_level: int
    num_variables: int
    num_rows: int
    uniform_feasible: bool
    nullspace_dim: int
    dirac_solutions: tuple[frozenset[TypeCode], ...]

    @property
    def dirac_count(self) -> int:
        return len(self.dirac_solutions)

    @property
    def unique_at_truncation(self) -> bool:
        return self.nullspace_dim == 0


# --- member enumeration ------------------------------------------------------

# A member on k points is a mask with one bit per pair a < b, the pairs in
# `itertools.combinations` order and the first pair most significant, so
# ascending masks run in `itertools.product` order.  The bit sets the class's
# one binary relation as its spec's wiring says ("edge" or "arc"); a class
# with no relation has no pairs.  The pairs through point 0 are the top k - 1
# bits, so the low C(k - 1, 2) bits are the mask of the member induced on
# points 1..k-1.
_LEVEL_CAP = 6  # how far the enumeration may run


def _check_level(spec: FraisseClassSpec, k: int) -> str | None:
    """The class's wiring, once k is checked against the level cap."""
    if spec.wiring is None and spec.signature.relations:
        raise ValidationError(f"class {spec.name!r} has no member enumerator")
    if not (1 <= k <= _LEVEL_CAP):
        raise ValidationError(f"level {k} outside [1, {_LEVEL_CAP}] for {spec.name}")
    return spec.wiring


def _pair_count(k: int, wiring: str | None) -> int:
    return k * (k - 1) // 2 if wiring else 0


def _mask_structure(spec: FraisseClassSpec, k: int, mask: int) -> FinStructure:
    """The structure on k points that mask wires; not checked for membership."""
    wiring = spec.wiring
    if wiring is None:
        return FinStructure(spec.signature, k, {})
    ((name, _),) = spec.signature.relations
    bit = _pair_count(k, wiring)
    rel = []
    for a, b in itertools.combinations(range(k), 2):
        bit -= 1
        on = mask >> bit & 1
        if wiring == "arc":
            rel.append((b, a) if on else (a, b))
        elif on:
            rel += [(a, b), (b, a)]
    # the tuples name distinct points below k, so make_structure's checks
    # would have nothing to reject
    return FinStructure(spec.signature, k, {name: frozenset(rel)})


def _mask_action(
    perms: list[tuple[int, ...]], wiring: str | None
) -> tuple[list[int], list[list[int]]]:
    """How each permutation p in perms, all of one range(k), maps a mask to
    the mask of the member listed in p's order.

    The image's bit at pair (i, j) is the source bit at pair (p[i], p[j]),
    flipped when p[i] > p[j] and the bit turns an arc.  Bits land on distinct
    targets, so the image is flips[p] plus, for each set source bit s,
    weights[s][p]: the target bit's value, negated where it flips."""
    pairs = list(itertools.combinations(range(len(perms[0])), 2)) if wiring else []
    bit = {pair: len(pairs) - 1 - i for i, pair in enumerate(pairs)}
    flips = [0] * len(perms)
    weights = [[0] * len(perms) for _ in pairs]
    for pi, p in enumerate(perms):
        for i, j in pairs:
            a, b = p[i], p[j]
            target = 1 << bit[i, j]
            if a < b:
                weights[bit[a, b]][pi] = target
            elif wiring == "edge":
                weights[bit[b, a]][pi] = target
            else:
                weights[bit[b, a]][pi] = -target
                flips[pi] |= target
    return flips, weights


def _mask_images(mask: int, action: tuple[list[int], list[list[int]]]) -> list[int]:
    """mask's image under every permutation of the action, in its order."""
    flips, weights = action
    return list(map(sum, zip(flips, *(w for s, w in enumerate(weights) if mask >> s & 1))))


def _base_classes(
    spec: FraisseClassSpec, k: int
) -> list[tuple[FinStructure, list[int], dict[int, TypeCode]]]:
    """Isomorphism classes of the class's size-k members, in order of their
    least code, each as its representative, the representative's image mask
    under every permutation of range(k) (itertools.permutations order), and
    each distinct image's code.

    Masks are walked in ascending order, and an unvisited mask is the least
    of its orbit, so it stays the representative that the first member in
    product order always was.  Membership does not change under
    isomorphism: one `is_member` call decides the whole orbit.  An image is
    coded once, as the representative under the first permutation giving
    it, which is the identity-order code of the image member."""
    wiring = _check_level(spec, k)
    perms = list(itertools.permutations(range(k)))
    action = _mask_action(perms, wiring)
    visited = bytearray(1 << _pair_count(k, wiring))
    classes: dict[TypeCode, tuple[FinStructure, list[int], dict[int, TypeCode]]] = {}
    for mask in range(len(visited)):
        if visited[mask]:
            continue
        images = _mask_images(mask, action)
        # pairs go in backwards, so each image keeps its first permutation
        first = dict(zip(reversed(images), reversed(perms)))
        for image in first:
            visited[image] = 1
        rep = _mask_structure(spec, k, mask)
        if not spec.is_member(rep):
            continue
        codes = {image: _type_code(rep, p) for image, p in first.items()}
        classes[min(codes.values())] = (rep, images, codes)
    return [classes[c] for c in sorted(classes)]


def enumerate_base_classes(spec: FraisseClassSpec, k: int) -> list[FinStructure]:
    """Isomorphism-class representatives of the class's size-k members."""
    return [S for S, _, _ in _base_classes(spec, k)]


def enumerate_ordered_types(A: FinStructure) -> dict[TypeCode, int]:
    """code -> number of orders of A landing in that class (all equal |Aut(A)|)."""
    counts: dict[TypeCode, int] = {}
    for p in itertools.permutations(A.elements):
        code = canonical_type(A, p)
        counts[code] = counts.get(code, 0) + 1
    return counts


# --- system assembly ----------------------------------------------------------


def build_cro_system(class_name: str, max_level: int) -> CroSystem:
    """Assemble mass and restriction rows for levels 1..max_level.

    Raises if the uniform point fails any row; that would mean the assembly
    itself is wrong, so it is checked on every build."""
    spec = class_by_name(class_name)
    wiring = _check_level(spec, max_level)
    base_reps: dict[int, tuple[FinStructure, ...]] = {}
    variables: list[OrderedType] = []
    below: dict[int, int] = {}  # the level below's {mask: variable index}
    mass: list[CroRow] = []
    restriction: list[CroRow] = []
    seen_rows: set[tuple] = set()

    def push(rows: list[CroRow], coeffs: dict[int, int], rhs: int, kind: str) -> None:
        key = (tuple(sorted(coeffs.items())), rhs)
        if key not in seen_rows:
            seen_rows.add(key)
            rows.append(CroRow(*key, kind))

    # A restriction row at level k is fixed by the mask m of a member listed
    # as (v, *tau): the deleted-point term is the member on positions 1..k-1,
    # the low bits of m, and inserting v back at position pos relabels m by
    # the shift (1, ..., pos, 0, pos + 1, ..., k - 1), which stays in m's
    # class.  So each class builds one row per variable, walking its masks in
    # order of first appearance, as the orders (v, *tau) first meet them.
    for k in range(1, max_level + 1):
        classes = _base_classes(spec, k)
        if not classes:
            raise ValidationError(f"{class_name} has no members of size {k}")
        base_reps[k] = tuple(A for A, _, _ in classes)
        insert = _mask_action(
            [(*range(1, pos + 1), 0, *range(pos + 1, k)) for pos in range(k)], wiring
        )
        low = (1 << _pair_count(k - 1, wiring)) - 1
        level: dict[int, int] = {}
        for bi, (_, images, codes) in enumerate(classes):
            counts = Counter(images)
            for mask in sorted(codes, key=codes.__getitem__):
                level[mask] = len(variables)
                variables.append(OrderedType(codes[mask], k, bi, counts[mask]))
            push(mass, {level[m]: n for m, n in counts.items()}, 1, "mass")
            for m in counts if below else ():
                coeffs = {below[m & low]: 1}
                for j in map(level.__getitem__, _mask_images(m, insert)):
                    coeffs[j] = coeffs.get(j, 0) - 1
                push(restriction, coeffs, 0, "restriction")
        below = level
    rows = (*mass, *restriction)

    bad = _uniform_violations(rows, [v.level for v in variables])
    if bad:
        raise ValidationError(
            f"uniform point violates {len(bad)} rows; assembly is inconsistent"
        )
    return CroSystem(class_name, max_level, base_reps, tuple(variables), rows)


def uniform_point(system: CroSystem) -> list[Fraction]:
    return [Fraction(1, math.factorial(v.level)) for v in system.variables]


def _uniform_violations(rows: Iterable[CroRow], levels: list[int]) -> list[int]:
    """Indices of the rows that the uniform point violates.

    The point scaled by L! (L the top level) is integral, x_i = L!/level_i!,
    so each row is checked exactly as sum(c * x) == rhs * L!; with integer
    coefficients no Fraction is made."""
    scale = math.factorial(max(levels, default=0))
    x = [scale // math.factorial(lv) for lv in levels]
    return [
        r for r, row in enumerate(rows)
        if sum(c * x[i] for i, c in row.coeffs) != row.rhs * scale
    ]


def satisfies(system: CroSystem, x: list[Fraction]) -> bool:
    return all(v >= 0 for v in x) and all(
        sum(c * x[i] for i, c in row.coeffs) == row.rhs for row in system.rows
    )


# --- exact linear algebra ------------------------------------------------------


Row = dict[int, int]
# a row as given: column -> value, as a mapping or as (column, value) pairs
Coeffs = Mapping[int, int] | Iterable[tuple[int, int]]


def integer_echelon(rows: Iterable[Coeffs]) -> dict[int, Row]:
    """Fraction-free forward elimination over the integers, as pivot column
    -> row; the number of pivots is the rank.

    Rows go in shortest first.  Each is cancelled at its largest column
    against the pivot row there, until its largest column holds no pivot
    and becomes its own.  A pivot row holds nothing right of its pivot, so
    every step lowers the row's largest column, and older rows are never
    touched.  Coefficients must be integers; anything else is rejected,
    never truncated."""
    pivots: dict[int, Row] = {}
    for row in sorted(map(_integer_row, rows), key=len):
        while row:
            lead = max(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            row = _cancel(row, pivots[lead], lead)
    return pivots


def integer_rref(rows: Iterable[Coeffs]) -> dict[int, Row]:
    """Fraction-free Gauss-Jordan over the integers, as pivot column -> row.

    Rows go in shortest first.  Each is cleared of the pivot columns so far,
    its least column becomes its pivot, and that column is cleared from the
    older pivot rows.  Every pivot row is primitive, holds nothing left of
    its pivot and nothing at any other pivot column, so dividing it by its
    pivot entry gives the unique reduced row echelon form.  Coefficients must
    be integers; anything else is rejected, never truncated."""
    pivots: dict[int, Row] = {}
    for row in sorted(map(_integer_row, rows), key=len):
        for c in [c for c in row if c in pivots]:
            row = _cancel(row, pivots[c], c)
        if not row:
            continue
        lead = min(row)
        for pc, other in pivots.items():
            if lead in other:
                pivots[pc] = _cancel(other, row, lead)
        pivots[lead] = row
    return pivots


def _integer_row(coeffs: Coeffs) -> Row:
    row = dict(coeffs)
    bad = [v for v in row.values() if getattr(v, "denominator", None) != 1]
    if bad:
        raise ValidationError(f"coefficient {bad[0]!r} is not an integer")
    return _primitive({c: int(v) for c, v in row.items() if v})


def _cancel(row: Row, pivot: Row, c: int) -> Row:
    """pivot[c] * row - row[c] * pivot, divided by the gcd of its entries
    (up to sign); column c cancels.  The two factors are first divided by
    their gcd and signed so that the row's is positive; a row factor of 1,
    the common case, copies the row unscaled."""
    a, b = pivot[c], row[c]
    g = math.gcd(a, b) if a > 0 else -math.gcd(a, b)
    a, b = a // g, b // g
    out = dict(row) if a == 1 else {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        x = out.get(j, 0) - b * v
        if x:
            out[j] = x
        else:
            del out[j]
    return _primitive(out)


def _primitive(row: Row) -> Row:
    g = math.gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def kernel_basis(system: CroSystem) -> list[list[Fraction]]:
    """Basis of the homogeneous solution space of the row coefficient matrix,
    one vector per free column in column order."""
    n = len(system.variables)
    pivots = integer_rref(row.coeffs for row in system.rows)
    zero = Fraction(0)
    basis = {c: [zero] * n for c in range(n) if c not in pivots}
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = Fraction(-v, row[pc])
    for c, vec in basis.items():
        vec[c] = Fraction(1)
    return list(basis.values())


def projected_dimension(system: CroSystem, level: int) -> int:
    """Dimension of the solution polytope's image on the variables at levels
    <= level.

    The polytope has the strictly positive uniform point inside its affine
    hull, so its image's dimension is that of the kernel's projection:
    len(kept) - rank(A) + rank(A cut to the dropped columns).  Variables go
    level by level, so the dropped columns come last, and each echelon row
    ends at its pivot: the rows pivoting at dropped columns, cut to them,
    are a basis of the cut rows.  What is left is the number of kept
    columns holding no pivot."""
    if type(level) is not int or not 1 <= level <= system.max_level:
        raise ValidationError(f"level {level!r} outside [1, {system.max_level}]")
    kept = sum(1 for v in system.variables if v.level <= level)
    return kept - sum(1 for c in system.pivots if c < kept)


# --- deterministic solutions ---------------------------------------------------


_NODE_CAP = 1_000_000  # search nodes before dirac_solutions gives up


def _dirac_candidates(system: CroSystem) -> dict[tuple[int, int], list[int]]:
    """(level, base_index) -> variable indices with order_count == 1.

    A 0/1 solution must pick exactly one such variable per base class: the
    mass row forces one chosen code whose count is 1."""
    cand: dict[tuple[int, int], list[int]] = {}
    for i, v in enumerate(system.variables):
        cand.setdefault((v.level, v.base_index), [])
        if v.order_count == 1:
            cand[(v.level, v.base_index)].append(i)
    return cand


def dirac_solutions(system: CroSystem) -> tuple[frozenset[TypeCode], ...]:
    """All 0/1 solutions, as frozensets of codes assigned probability 1.

    Depth-first over levels, pruning with the restriction rows that only
    mention already-assigned levels, then a full exact re-check."""
    cand = _dirac_candidates(system)
    if any(not lst for lst in cand.values()):
        return ()
    levels = sorted({lvl for lvl, _ in cand})
    per_level: dict[int, list[list[int]]] = {
        lvl: [cand[key] for key in sorted(cand) if key[0] == lvl] for lvl in levels
    }
    rows_by_level: dict[int, list[CroRow]] = {lvl: [] for lvl in levels}
    for row in system.rows:
        top = max(system.variables[i].level for i, _ in row.coeffs)
        rows_by_level[top].append(row)

    solutions: list[frozenset[TypeCode]] = []
    chosen: set[int] = set()
    nodes = 0

    def consistent_through(level: int) -> bool:
        for row in rows_by_level[level]:
            total = sum(c for i, c in row.coeffs if i in chosen)
            if total != row.rhs:
                return False
        return True

    def walk(li: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > _NODE_CAP:
            raise ResourceLimitError(f"0/1 search exceeded {_NODE_CAP} nodes")
        if li == len(levels):
            solutions.append(
                frozenset(system.variables[i].code for i in chosen)
            )
            return
        lvl = levels[li]
        for combo in itertools.product(*per_level[lvl]):
            chosen.update(combo)
            if consistent_through(lvl):
                walk(li + 1)
            chosen.difference_update(combo)

    walk(0)

    verified = []
    for sol in solutions:
        codes = set(sol)
        x = [int(v.code in codes) for v in system.variables]
        if sum(x) != len(codes):
            raise RuntimeError("a Dirac solution names a code outside the system")
        if satisfies(system, x):
            verified.append(sol)
    if len(verified) != len(solutions):
        raise RuntimeError("pruned search admitted a bad solution")
    return tuple(verified)


def uniqueness_report(system: CroSystem) -> CroReport:
    nullity = len(system.variables) - system.rank
    uniform_ok = not _uniform_violations(system.rows, [v.level for v in system.variables])
    diracs = dirac_solutions(system)
    return CroReport(
        class_name=system.class_name,
        max_level=system.max_level,
        num_variables=len(system.variables),
        num_rows=len(system.rows),
        uniform_feasible=uniform_ok,
        nullspace_dim=nullity,
        dirac_solutions=diracs,
    )

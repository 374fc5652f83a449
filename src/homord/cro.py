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
choices of deleted point and order of the rest).  A variable's mask is
the representative's image under a known permutation p, so its insertion
images are the representative's images under p followed by each shift,
already listed with the orbit: a composition table of permutation
indices, built once per level and wiring with the permutation tables,
names them, and no insertion image is computed.
Every coefficient is an integer, and the rows hold them as ints from
assembly to the report; the uniform point is checked over the integers,
scaled by L!.

The verdicts need no elimination: the nullity is a sum of fibre
dimensions in closed form, read off the orbits at assembly.

*Fibres.*  The kernel vectors of the homogeneous rows that vanish below
level k form the level-k fibre.  Cut to its level-k columns, each level-k
restriction row touches one base class B.  So a fibre vector is, for each
B, a function f on the k! orders of B's points, constant on the orbits of
Aut B, whose one-point-deletion marginals (v, tau) -> sum over pos of
f(tau with v inserted at pos) all vanish.  (B's mass row follows: the
marginals of any one point sum to the sum of f.)  Call W_k the space of
such functions on the orders of range(k), without the orbit condition.
The fibre is the direct sum over B of W_k^{Aut B}, whose dimension is
(1/|Aut B|) times the sum over g in Aut B of chi(g), chi the character
of W_k.

*The character.*  Inserting v at pos and at pos + 1 differs by one
transposition, so f -> sign(order) * f turns the marginals into the top
boundary of the complex of injective words on range(k): the words of
length j + 1 in degree j, the empty word in degree -1, and the boundary
deleting the letter at position i with sign (-1)^i.  So sign * W_k is the
top homology.  That complex has reduced homology in its top degree only,
of rank D_k, the number of derangements of k points (Farmer, "Cellular
homology for posets", 1978; Bjorner & Wachs, "On lexicographically
shellable posets", Trans. AMS 1983).  The equivariant Euler characteristic
then gives the top homology's character: g fixes the words over its fix(g)
fixed points, and the alternating sum of their counts fix!/(fix - j)! is
(-1)^(k - fix) D_fix (Reiner & Webb, "The combinatorics of the bar
resolution in group cohomology", JPAA 2004).  Twisting back by the sign of
g, (-1)^(k - cycles(g)), gives chi(g) = (-1)^c2(g) D_fix(g), where c2(g)
counts the cycles of length >= 2.  `_characters(k)` lists it.

*The lift.*  Let y be a kernel vector through level k - 1, k >= 2.  Its
terms give B's level-k rows the right-hand side r(v, tau) = y(B - v, tau).
y's own level-(k - 1) rows make deleting two points in either order
agree, which says that sign * r is a cycle one degree below the top.  The
complex is exact there, so r is a boundary: some f on the orders of B has
the marginals r.  r is constant on the orbits of Aut B and the marginals
commute with Aut B, so f averaged over Aut B is a level-k lift of y.  So
restricting the kernel through level k to the levels below is onto, and
its kernel is the level-k fibre.  By induction the nullity of the level-L
system is the sum of its fibres, and its image on the levels <= j
(`projected_dimension`) has the dimension of the first j: each cut equals
the level-j system's own nullity.

`build_cro_system` reads Aut B off B's orbit, as the permutations whose
image is the representative's own mask, and stores the fibres on the
system.  They are the nullity of the rows as assembled: a system whose rows
are replaced by hand keeps its assembled `fibres`.  `integer_echelon`, a
fraction-free forward elimination pivoting at each row's largest column,
is kept as the oracle the tests compare the fibres against: `CroSystem.rank`
and `pivots` run it, and no verdict reads them.  Only `kernel_basis` needs
the reduced row echelon form; it runs the Gauss-Jordan `integer_rref` when
called.  A class enumerates through its spec's wiring (or has no relation at
all), so pure sets, linear orders, graphs, K_n-free graphs and tournaments
all go up to level 6, where graph L=6 (33,867 variables, nullity 12,059)
assembles in about 0.7 s on a 2-core Xeon and its report takes 0.08 s;
its elimination, which no verdict runs, takes about 3 s.

Everything here is exact; no floats."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    # the dimension of each level's fibre of the kernel, levels 1..max_level
    fibres: tuple[int, ...]

    def variables_at(self, level: int) -> tuple[OrderedType, ...]:
        return tuple(v for v in self.variables if v.level == level)

    @cached_property
    def pivots(self) -> frozenset[int]:
        """Pivot columns of the row coefficients' echelon, computed once per
        system: the elimination oracle for the fibres, which no verdict
        reads."""
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
    if type(k) is not int or not 1 <= k <= _LEVEL_CAP:
        raise ValidationError(f"level {k!r} outside [1, {_LEVEL_CAP}] for {spec.name}")
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


@lru_cache(maxsize=None)
def _perm_tables(
    k: int, wiring: str | None
) -> tuple[list[tuple[int, ...]], tuple[list[int], list[list[int]]], list[list[int]]]:
    """The permutations of range(k) (itertools.permutations order), their
    mask action, and compose: compose[i][pos] is the index of perms[i]
    followed by the shift (1, ..., pos, 0, pos + 1, ..., k - 1), so a mask's
    image under it is the shift's image of the mask's i-th image.  Built
    once per level and wiring."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    shifts = [(*range(1, pos + 1), 0, *range(pos + 1, k)) for pos in range(k)]
    compose = [[index[tuple(p[x] for x in s)] for s in shifts] for p in perms]
    return perms, _mask_action(perms, wiring), compose


@lru_cache(maxsize=None)
def _characters(k: int) -> list[int]:
    """chi(g) = (-1)^c2(g) D_fix(g), the character of W_k (module
    docstring), for each permutation g of range(k) in
    itertools.permutations order; c2(g) counts g's cycles of length >= 2
    and D_n the derangements of n points."""
    derangements = [1, 0]
    for n in range(2, k + 1):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
    chars = []
    for g in itertools.permutations(range(k)):
        fixed = sum(g[x] == x for x in range(k))
        cycles, seen = 0, [False] * k
        for x in range(k):
            cycles += not seen[x]
            while not seen[x]:
                seen[x] = True
                x = g[x]
        chars.append((-1) ** (cycles - fixed) * derangements[fixed])
    return chars


# a base class: representative, its images, each image's code and first index
_BaseClass = tuple[FinStructure, list[int], dict[int, TypeCode], dict[int, int]]


def _base_classes(spec: FraisseClassSpec, k: int) -> list[_BaseClass]:
    """Isomorphism classes of the class's size-k members, in order of their
    least code, each as its representative, the representative's image mask
    under every permutation of `_perm_tables`, each distinct image's code,
    and each distinct image's first permutation index.

    Masks are walked in ascending order, and an unvisited mask is the least
    of its orbit, so it stays the representative that the first member in
    product order always was.  Membership does not change under
    isomorphism: one `is_member` call decides the whole orbit.  An image is
    coded once, as the representative under the first permutation giving
    it, which is the identity-order code of the image member."""
    wiring = _check_level(spec, k)
    perms, action, _ = _perm_tables(k, wiring)
    visited = bytearray(1 << _pair_count(k, wiring))
    classes: dict[TypeCode, _BaseClass] = {}
    for mask in range(len(visited)):
        if visited[mask]:
            continue
        images = _mask_images(mask, action)
        # pairs go in backwards, so each image keeps its first index
        first = dict(zip(reversed(images), range(len(images) - 1, -1, -1)))
        for image in first:
            visited[image] = 1
        rep = _mask_structure(spec, k, mask)
        if not spec.is_member(rep):
            continue
        codes = {image: _type_code(rep, perms[i]) for image, i in first.items()}
        classes[min(codes.values())] = (rep, images, codes, first)
    return [classes[c] for c in sorted(classes)]


def enumerate_base_classes(spec: FraisseClassSpec, k: int) -> list[FinStructure]:
    """Isomorphism-class representatives of the class's size-k members."""
    return [S for S, *_ in _base_classes(spec, k)]


def enumerate_ordered_types(A: FinStructure) -> dict[TypeCode, int]:
    """code -> number of orders of A landing in that class (all equal |Aut(A)|)."""
    counts: dict[TypeCode, int] = {}
    for p in itertools.permutations(A.elements):
        code = canonical_type(A, p)
        counts[code] = counts.get(code, 0) + 1
    return counts


# --- system assembly ----------------------------------------------------------


def build_cro_system(class_name: str, max_level: int) -> CroSystem:
    """Assemble mass and restriction rows for levels 1..max_level, and
    each level's fibre dimension from the automorphism groups of its base
    classes.

    Raises if the uniform point fails any row, or if a character sum is
    not a multiple of its group's order; either would mean the assembly
    itself is wrong, so both are checked on every build."""
    spec = class_by_name(class_name)
    wiring = _check_level(spec, max_level)
    base_reps: dict[int, tuple[FinStructure, ...]] = {}
    variables: list[OrderedType] = []
    fibres: list[int] = []
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
    # class.  m is the representative's image under its first permutation
    # index i, so that relabelling is the image at compose[i][pos].  So each
    # class builds one row per variable, walking its masks in order of first
    # appearance, as the orders (v, *tau) first meet them.
    for k in range(1, max_level + 1):
        classes = _base_classes(spec, k)
        if not classes:
            raise ValidationError(f"{class_name} has no members of size {k}")
        base_reps[k] = tuple(A for A, *_ in classes)
        compose = _perm_tables(k, wiring)[2]
        chars = _characters(k)
        low = (1 << _pair_count(k - 1, wiring)) - 1
        level: dict[int, int] = {}
        fibre = 0
        for bi, (_, images, codes, first) in enumerate(classes):
            counts = Counter(images)
            # Aut B: the permutations fixing the representative's own mask
            aut = counts[images[0]]
            dim, rest = divmod(sum(c for m, c in zip(images, chars) if m == images[0]), aut)
            if rest:
                raise ValidationError(
                    f"{class_name} level {k}: character sum over |Aut| = {aut} is not a dimension"
                )
            fibre += dim
            for mask in sorted(codes, key=codes.__getitem__):
                level[mask] = len(variables)
                variables.append(OrderedType(codes[mask], k, bi, counts[mask]))
            push(mass, {level[m]: n for m, n in counts.items()}, 1, "mass")
            for m in counts if below else ():
                coeffs = {below[m & low]: 1}
                for c in compose[first[m]]:
                    j = level[images[c]]
                    coeffs[j] = coeffs.get(j, 0) - 1
                push(restriction, coeffs, 0, "restriction")
        fibres.append(fibre)
        below = level
    rows = (*mass, *restriction)

    bad = _uniform_violations(rows, [v.level for v in variables])
    if bad:
        raise ValidationError(
            f"uniform point violates {len(bad)} rows; assembly is inconsistent"
        )
    return CroSystem(class_name, max_level, base_reps, tuple(variables), rows, tuple(fibres))


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
    if {*map(type, row.values())} <= {int}:
        # a row of ints, as assembly makes, needs no denominator check
        return _primitive({c: v for c, v in row.items() if v} if 0 in row.values() else row)
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
    hull, so its image's dimension is that of the kernel's projection.
    Every kernel vector through a level lifts to the next (module
    docstring), so that projection's dimension is the sum of the fibres up
    to level."""
    if type(level) is not int or not 1 <= level <= system.max_level:
        raise ValidationError(f"level {level!r} outside [1, {system.max_level}]")
    return sum(system.fibres[:level])


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

    Depth-first over levels, pruning with the rows whose top level is the
    one just chosen, then a full exact re-check.  A row holds once its sum
    over the chosen variables is its rhs; one with rhs 0 that no chosen
    variable touches holds already, so each choice adds up only the terms
    of its own variables, on top of what the levels below left owing."""
    cand = _dirac_candidates(system)
    if any(not lst for lst in cand.values()):
        return ()
    levels = sorted({lvl for lvl, _ in cand})
    per_level: dict[int, list[list[int]]] = {
        lvl: [cand[key] for key in sorted(cand) if key[0] == lvl] for lvl in levels
    }
    # per level, each variable's (row, coefficient) terms in the rows whose
    # top level that is, and those rows' nonzero right-hand sides
    terms: dict[int, dict[int, list[tuple[int, int]]]] = {lvl: {} for lvl in levels}
    rhs: dict[int, dict[int, int]] = {lvl: {} for lvl in levels}
    for r, row in enumerate(system.rows):
        top = max(system.variables[i].level for i, _ in row.coeffs)
        for i, c in row.coeffs:
            terms[top].setdefault(i, []).append((r, c))
        if row.rhs:
            rhs[top][r] = row.rhs

    solutions: list[frozenset[TypeCode]] = []
    chosen: set[int] = set()
    nodes = 0

    def owing(level: int, picked: Iterable[int], start: dict[int, int]) -> dict[int, int]:
        """start plus the terms of the picked variables in the level's rows."""
        out = dict(start)
        for i in picked:
            for r, c in terms[level].get(i, ()):
                out[r] = out.get(r, 0) + c
        return out

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
        # each of the level's rows, summed over the levels below, minus its rhs
        below = owing(lvl, chosen, {r: -b for r, b in rhs[lvl].items()})
        for combo in itertools.product(*per_level[lvl]):
            if not any(owing(lvl, combo, below).values()):
                chosen.update(combo)
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
    """The verdict at the system's truncation: its nullity is the sum of its
    fibres, with no elimination (module docstring).  A row holding a
    coefficient that is not an int is refused if it is not an integer, never
    truncated."""
    for row in system.rows:
        if any(type(c) is not int for _, c in row.coeffs):
            _integer_row(row.coeffs)
    uniform_ok = not _uniform_violations(system.rows, [v.level for v in system.variables])
    diracs = dirac_solutions(system)
    return CroReport(
        class_name=system.class_name,
        max_level=system.max_level,
        num_variables=len(system.variables),
        num_rows=len(system.rows),
        uniform_feasible=uniform_ok,
        nullspace_dim=sum(system.fibres),
        dirac_solutions=diracs,
    )

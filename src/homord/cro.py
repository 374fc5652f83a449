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
with one bit per pair.  The base classes are orbits of the masks under the
k! permutations, each image read off a per-permutation table, and every
labelled member is a variable, whose code is read off its mask by a
per-level table of the ordered pairs' bits (`_mask_coder`), with no
structure built or walked.  The restriction rows are read off the masks
too: deleting point 0 keeps a mask's low bits, and inserting it back at
each position is a relabelling by one of k shift permutations, which stays
in the orbit.  A restriction row is fixed by the mask of the deleted point
followed by the rest, so each variable gives one row (graph level 4 -> 5:
1,024 rows for 4,080 choices of deleted point and order of the rest).  A
variable's mask is the representative's image under a known permutation
p, so its insertion images are the representative's images under p
followed by each shift: a composition table of permutation indices, built
once per level and wiring with the permutation tables, names them, and no
insertion image is computed.

None of that depends on the class, only on the level k and the wiring, so
it is tabulated once per level and wiring in a process (`_level_table`):
each orbit's representative and automorphisms, its masks in code order,
and each distinct restriction row as a template, the deleted point's low
mask and the row's (rank in orbit, coefficient) terms.  The class picks
its orbits, one `is_member` call on each representative, and numbers
them: a variable's index is its orbit's offset plus its rank, and a build
only looks up each template's low mask and shifts its ranks.  An orbit's
codes and templates are filled the first time a member class asks for
them, so one build pays only for the orbits its class admits, and a later
build at that level and wiring, of any class, reads them back.  So does
each orbit's tuple of `OrderedType`s, kept per relation and base index.
Every coefficient is an integer, and the rows hold them as ints from
assembly to the report.

*The uniform point* gives every variable of one level the same value, so
whether it solves a row depends only on the row's shape, which is its
orbit's template: a mass row holds exactly when |masks| * |Aut| = k!, and
a restriction row exactly when its one +1 term is one level down and its
level-k coefficients sum to -k.  The fill checks both, once per orbit and
template (`_orbit_codes`); what a class adds, that every low mask of its
orbits' templates is a member one level down, each build checks once per
distinct low mask.  `uniqueness_report` still checks the point row by row,
over the integers scaled by L!, on the rows as given, since a system's
rows can be replaced by hand.

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
are replaced by hand keeps its assembled `fibres`.  The rank oracle the
tests compare the fibres against lives in tests/helpers.py.  The one
elimination left here is `integer_rref`, fraction-free Gauss-Jordan, run
only by `kernel_basis`, which no verdict calls; both stay while the
benchmark's tracer wraps `kernel_basis` by name (ROADMAP item 1).  A class
enumerates through its spec's wiring (or has no relation at all), so pure
sets, linear orders, graphs, K_n-free graphs and tournaments all go up to
level 6, where graph L=6 (33,867 variables, nullity 12,059) assembles in
0.37-0.45 s on a 2-core Xeon the first time in a process and in 0.10-0.15 s
once its tables are filled, and its report takes 0.06 s.

Everything here is exact; no floats."""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from fractions import Fraction

from .builders import FraisseClassSpec, class_by_name
from .errors import ResourceLimitError, ValidationError
from .structures import FinStructure, TypeCode, canonical_type

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


def _check_level(spec: FraisseClassSpec, k: int) -> tuple[str | None, str | None]:
    """The class's wiring and the name of its relation (None for a class
    with none), once k is checked against the level cap."""
    relations = spec.signature.relations
    if spec.wiring is None and relations:
        raise ValidationError(f"class {spec.name!r} has no member enumerator")
    if type(k) is not int or not 1 <= k <= _LEVEL_CAP:
        raise ValidationError(f"level {k!r} outside [1, {_LEVEL_CAP}] for {spec.name}")
    return spec.wiring, relations[0][0] if relations else None


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
) -> tuple[tuple[list[int], list[list[int]]], list[list[int]]]:
    """The mask action of the permutations of range(k), perms in
    itertools.permutations order, and compose: compose[i][pos] is the index
    of perms[i] followed by the shift (1, ..., pos, 0, pos + 1, ..., k - 1),
    so a mask's image under it is the shift's image of the mask's i-th
    image.  Built once per level and wiring."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    shifts = [(*range(1, pos + 1), 0, *range(pos + 1, k)) for pos in range(k)]
    compose = [[index[tuple(p[x] for x in s)] for s in shifts] for p in perms]
    return _mask_action(perms, wiring), compose


@lru_cache(maxsize=None)
def _mask_coder(k: int, wiring: str | None, relation: str | None) -> Callable[[int], TypeCode]:
    """The type code of the member a mask wires, points in identity order,
    read off the mask: the bytes `structures._type_code` gives the structure
    `_mask_structure` builds.  Built once per level and wiring.

    The table lists each ordered pair (i, j), i != j, in
    `itertools.product` order (which `permutations(range(k), 2)` keeps),
    with its bit and its "i,j" label.  An edge holds when its mask bit is
    set, an arc (i, j) when its bit is set exactly if i > j.  So each pair
    reads one bit of a word holding the mask above a second copy of it,
    complemented for arcs: the upper copy for an edge or i > j, the lower
    one otherwise.  No mask wires a loop, so no pair (i, i) holds; a class
    with no relation codes every member as k{k}."""
    if relation is None:
        code = f"k{k}".encode("ascii")
        return lambda mask: code
    n = _pair_count(k, wiring)
    flip = (1 << n) - 1 if wiring == "arc" else 0
    bit = {pair: n - 1 - b for b, pair in enumerate(itertools.combinations(range(k), 2))}
    table = [
        (1 << (bit[min(i, j), max(i, j)] + (n if wiring == "edge" or i > j else 0)),
         f"{i},{j}".encode("ascii"))
        for i, j in itertools.permutations(range(k), 2)
    ]
    head = f"k{k}|{relation}=".encode("ascii")

    def encode(mask: int) -> TypeCode:
        word = mask << n | (mask ^ flip)
        return head + b";".join([label for b, label in table if word & b])

    return encode


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


@dataclass(eq=False)
class _Orbit:
    """One orbit of a level's masks under the k! permutations, with what
    every class admitting it shares.

    rep is its least mask and fixing the indices of the permutations of
    `_perm_tables` that fix rep, so |Aut| = len(fixing).  The rest is filled
    the first time a member class needs it (`_orbit_codes`).  masks are the
    orbit's distinct masks in code order, a variable's rank in the orbit
    being its place there, and codes maps a relation name to their codes.
    The mass row puts |Aut| on every rank.  rows holds one template per
    distinct restriction row, in order of the first permutation whose image
    gives it: the deleted point's low mask, then the row's level terms in
    rank order, each as a slot past the n masks one level down: n + r for
    the term (r, -1), and n + len(masks) + j for terms[j], a term (r, -c)
    of a rank that one row hits c > 1 times.  lows are the templates'
    distinct low masks, ascending.  variables maps (relation, base index)
    to the orbit's `OrderedType`s in rank order, made by the first build
    that numbers the orbit at that base index."""

    rep: int
    fixing: tuple[int, ...]
    masks: tuple[int, ...] = ()
    codes: dict[str | None, tuple[TypeCode, ...]] = field(default_factory=dict)
    terms: tuple[tuple[int, int], ...] = ()
    rows: tuple[tuple[int, ...], ...] = ()
    lows: tuple[int, ...] = ()
    variables: dict[tuple[str | None, int], tuple[OrderedType, ...]] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _level_table(k: int, wiring: str | None) -> tuple[_Orbit, ...]:
    """The orbits of the masks on k points, in order of their least mask.

    Masks are walked in ascending order, and an unvisited mask is the least
    of its orbit, so it stays the representative that the first member in
    product order always was.  Nothing here depends on a class: a class
    picks its orbits by membership (`_base_classes`), so every class of one
    wiring reads the same table.  Built once per level and wiring; filled
    orbits stay for the life of the process (the edge table at level 6,
    every orbit filled, holds about 11 MB, codes included)."""
    action = _perm_tables(k, wiring)[0]
    visited = bytearray(1 << _pair_count(k, wiring))
    orbits = []
    for mask in range(len(visited)):
        if visited[mask]:
            continue
        images = _mask_images(mask, action)
        for image in set(images):
            visited[image] = 1
        orbits.append(_Orbit(mask, tuple(i for i, m in enumerate(images) if m == mask)))
    return tuple(orbits)


def _orbit_codes(
    orbit: _Orbit, k: int, wiring: str | None, relation: str | None
) -> tuple[TypeCode, ...]:
    """The orbit's codes for the relation, in code order, filling the
    orbit's masks, terms, rows and lows the first time any relation asks.

    Each distinct image is coded once, straight from its mask by the
    level's `_mask_coder`.  Every code of a level starts with the same
    head k{k}|{relation}=, so the code order of the masks is the same for
    every relation: a second relation only codes the masks again.

    A restriction row at level k is fixed by the mask m of a member listed
    as (v, *tau): the deleted-point term is the member on positions
    1..k-1, the low bits of m, and inserting v back at position pos
    relabels m by the shift (1, ..., pos, 0, pos + 1, ..., k - 1), which
    stays in the orbit.  m is the representative's image under some
    permutation index i, so that relabelling is the image at
    compose[i][pos].  So each distinct mask gives one row, taken at the
    first i whose image it is, and rows that repeat are kept once.

    The fill also certifies the uniform point (module docstring) on the
    orbit's rows, for every class that admits it: the mass row holds
    exactly when |masks| * |Aut| = k!, and a restriction row when its
    template has k hits counted with multiplicity, its level-k
    coefficients summing to -k.  The low mask keeps the bits of the pairs
    among points 1..k-1, so it is a mask one level down; whether it is a
    member's is the class's to say, and each build checks that
    (`build_cro_system`).  A failure raises `ValidationError` naming the
    orbit's representative, before anything is stored."""
    codes = orbit.codes.get(relation)
    if codes is not None:
        return codes
    encode = _mask_coder(k, wiring, relation)
    if orbit.masks:
        codes = orbit.codes[relation] = tuple(map(encode, orbit.masks))
        return codes
    action, compose = _perm_tables(k, wiring)
    images = _mask_images(orbit.rep, action)
    # pairs go in backwards, so each image keeps its first index
    first = dict(zip(reversed(images), range(len(images) - 1, -1, -1)))
    coded = dict(zip(first, map(encode, first)))
    masks = sorted(coded, key=coded.__getitem__)
    if len(masks) * len(orbit.fixing) != math.factorial(k):
        raise ValidationError(
            f"level {k} orbit of mask {orbit.rep}: {len(masks)} masks times "
            f"|Aut| = {len(orbit.fixing)} is not {k}!, so its mass row fails the uniform point"
        )
    # the slot of the term (rank of m, -1) in a template, for each image m
    low_count = 1 << _pair_count(k - 1, wiring)
    slot = dict(zip(masks, range(low_count, low_count + len(masks))))
    slots = list(map(slot.__getitem__, images))
    merged: dict[tuple[int, int], int] = {}
    rows: dict[tuple[int, ...], None] = {}
    lows: set[int] = set()
    for m in dict.fromkeys(images):
        hits = sorted(map(slots.__getitem__, compose[first[m]]))
        if len(hits) != k:
            raise ValidationError(
                f"level {k} orbit of mask {orbit.rep}: the row deleting point 0 of mask {m} "
                f"has {len(hits)} level-{k} hits, so it fails the uniform point"
            )
        if len(set(hits)) < k:
            hits = [s if (c := hits.count(s)) == 1 else
                    merged.setdefault((s - low_count, -c), low_count + len(masks) + len(merged))
                    for s in dict.fromkeys(hits)]
        low = m & (low_count - 1)
        rows[(low, *hits)] = None
        lows.add(low)
    orbit.masks, orbit.terms, orbit.rows = tuple(masks), tuple(merged), tuple(rows)
    orbit.lows = tuple(sorted(lows))
    codes = orbit.codes[relation] = tuple(coded[m] for m in masks)
    return codes


# a base class: representative, its orbit and the orbit's codes in code order
_BaseClass = tuple[FinStructure, _Orbit, tuple[TypeCode, ...]]


def _base_classes(spec: FraisseClassSpec, k: int) -> list[_BaseClass]:
    """Isomorphism classes of the class's size-k members, in order of their
    least code, each as its representative, its orbit in the level's
    `_level_table` and the orbit's codes for the class's relation.

    The table fixes the orbits; the class only picks them.  Membership does
    not change under isomorphism, so one `is_member` call on the
    representative decides the whole orbit, and only a member orbit is
    coded (`_orbit_codes`)."""
    wiring, relation = _check_level(spec, k)
    classes = []
    for orbit in _level_table(k, wiring):
        rep = _mask_structure(spec, k, orbit.rep)
        if spec.is_member(rep):
            classes.append((rep, orbit, _orbit_codes(orbit, k, wiring, relation)))
    classes.sort(key=lambda c: c[2][0])
    return classes


def enumerate_base_classes(spec: FraisseClassSpec, k: int) -> list[FinStructure]:
    """Isomorphism-class representatives of the class's size-k members, in
    order of their least code.  Like a build, it fills the member orbits of
    the level's table (`_base_classes`)."""
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

    The uniform point solves every row: each orbit's templates are
    certified once, when it is filled (`_orbit_codes`), and every build
    checks what the class adds, that each low mask of an orbit's templates
    is a member one level down, so its +1 term is a variable there.  A
    class whose deletions leave it raises `ValidationError`, as does a
    character sum that is not a multiple of its group's order; either
    would mean the assembly itself is wrong."""
    spec = class_by_name(class_name)
    wiring, relation = _check_level(spec, max_level)
    base_reps: dict[int, tuple[FinStructure, ...]] = {}
    variables: list[OrderedType] = []
    fibres: list[int] = []
    mass: list[CroRow] = []
    restriction: list[CroRow] = []
    # A variable's index is its orbit's offset plus its rank.  A template
    # is read through a lookup holding, per mask of the level below, the
    # (index, 1) term of its variable, then the orbit's terms shifted to
    # the orbit's offset, so each row is one pass over its template.
    below: list[tuple[int, int] | None] = []
    for k in range(1, max_level + 1):
        classes = _base_classes(spec, k)
        if not classes:
            raise ValidationError(f"{class_name} has no members of size {k}")
        base_reps[k] = tuple(A for A, *_ in classes)
        chars = _characters(k)
        level = [None] * (1 << _pair_count(k, wiring)) if k < max_level else []
        fibre = 0
        for bi, (_, orbit, codes) in enumerate(classes):
            aut = len(orbit.fixing)
            dim, rest = divmod(sum(chars[i] for i in orbit.fixing), aut)
            if rest:
                raise ValidationError(
                    f"{class_name} level {k}: character sum over |Aut| = {aut} is not a dimension"
                )
            fibre += dim
            base = len(variables)
            ordered = orbit.variables.get((relation, bi))
            if ordered is None:
                ordered = orbit.variables[relation, bi] = tuple(
                    OrderedType(code, k, bi, aut) for code in codes)
            variables += ordered
            indices = range(base, len(variables))
            mass.append(CroRow(tuple(zip(indices, itertools.repeat(aut))), 1, "mass"))
            if below:
                if orbit.lows[-1] >= len(below) or not all(map(below.__getitem__, orbit.lows)):
                    raise ValidationError(
                        f"{class_name} level {k}: a row of the orbit of mask {orbit.rep} "
                        f"deletes a point to no member of size {k - 1}"
                    )
                lookup = below + [(i, -1) for i in indices]
                lookup += [(base + r, c) for r, c in orbit.terms]
                restriction += [CroRow(tuple(map(lookup.__getitem__, row)), 0, "restriction")
                                for row in orbit.rows]
            if level:
                for m, i in zip(orbit.masks, indices):
                    level[m] = (i, 1)
        fibres.append(fibre)
        below = level
    rows = (*mass, *restriction)
    return CroSystem(class_name, max_level, base_reps, tuple(variables), rows, tuple(fibres))


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
    """Whether x, one value per variable, is nonnegative and solves every
    row; a point of any other length is refused."""
    if len(x) != len(system.variables):
        raise ValidationError(
            f"point has {len(x)} coordinates; the system has {len(system.variables)} variables"
        )
    return all(v >= 0 for v in x) and all(
        sum(c * x[i] for i, c in row.coeffs) == row.rhs for row in system.rows
    )


# --- exact linear algebra ------------------------------------------------------


Row = dict[int, int]
# a row as given: column -> value, as a mapping or as (column, value) pairs
Coeffs = Mapping[int, int] | Iterable[tuple[int, int]]


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
    fibres, with no elimination (module docstring).  A coefficient that is
    not an integer is refused, never truncated."""
    for row in system.rows:
        for _, c in row.coeffs:
            if getattr(c, "denominator", None) != 1:
                raise ValidationError(f"coefficient {c!r} is not an integer")
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

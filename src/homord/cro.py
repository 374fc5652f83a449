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
linear system with exact rationals, checks the uniform point (every order of
a size-k member gets 1/k!) solves it, measures the solution polytope's
dimension at the uniform point, and searches for deterministic (0/1)
solutions.  The dimension tells ergodic uniqueness apart from a genuine
polytope of invariant orderings at this truncation; 0/1 solutions are the
orderings concentrated on a single rule, which exist for chains (identity and
reversal) but are obstructed for graphs and pure sets by the 2-point swap.

Everything here is exact; no floats."""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from .builders import FraisseClassSpec, class_by_name
from .errors import ResourceLimitError, ValidationError
from .structures import (
    FinStructure,
    Signature,
    TypeCode,
    canonical_type,
    induced_substructure,
    make_structure,
)

# Classes with an exhaustive member enumerator, and how far it may run.
_LEVEL_CAPS = {
    "pure_set": 6,
    "graph": 5,
    "kn_free_graph": 5,
    "tournament": 5,
    "linear_order": 5,
}


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
    """coeffs maps variable index -> rational coefficient; the row asserts
    sum(coeffs) == rhs.  kind is 'mass' or 'restriction'."""

    coeffs: tuple[tuple[int, Fraction], ...]
    rhs: Fraction
    kind: str


@dataclass(frozen=True)
class CroSystem:
    class_name: str
    max_level: int
    base_reps: dict[int, tuple[FinStructure, ...]]
    variables: tuple[OrderedType, ...]
    rows: tuple[CroRow, ...]

    @property
    def var_index(self) -> dict[TypeCode, int]:
        return {v.code: i for i, v in enumerate(self.variables)}

    def variables_at(self, level: int) -> tuple[OrderedType, ...]:
        return tuple(v for v in self.variables if v.level == level)


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


def _graph_structures(sig: Signature, k: int, member) -> list[FinStructure]:
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    for picks in itertools.product((False, True), repeat=len(pairs)):
        edges = set()
        for (a, b), on in zip(pairs, picks):
            if on:
                edges.add((a, b))
                edges.add((b, a))
        S = make_structure(sig, k, {"E": edges})
        if member(S):
            out.append(S)
    return out


def _tournament_structures(sig: Signature, k: int, member) -> list[FinStructure]:
    pairs = list(itertools.combinations(range(k), 2))
    out = []
    for picks in itertools.product((False, True), repeat=len(pairs)):
        arcs = {(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, picks)}
        S = make_structure(sig, k, {"A": arcs})
        if member(S):
            out.append(S)
    return out


def _all_members(spec: FraisseClassSpec, k: int) -> list[FinStructure]:
    base = spec.name.split(":")[0]
    if base == "pure_set":
        return [make_structure(spec.signature, k, {})]
    if base == "linear_order":
        # any two total orders on k points are isomorphic; one rep suffices
        lt = {(i, j) for i in range(k) for j in range(k) if i < j}
        return [make_structure(spec.signature, k, {"lt": lt})]
    if base in ("graph", "kn_free_graph"):
        return _graph_structures(spec.signature, k, spec.is_member)
    if base == "tournament":
        return _tournament_structures(spec.signature, k, spec.is_member)
    raise ValidationError(f"class {spec.name!r} has no member enumerator")


def enumerate_base_classes(spec: FraisseClassSpec, k: int) -> list[FinStructure]:
    """Isomorphism-class representatives of the class's size-k members."""
    base = spec.name.split(":")[0]
    cap = _LEVEL_CAPS.get(base)
    if cap is None:
        raise ValidationError(f"class {spec.name!r} has no member enumerator")
    if not (1 <= k <= cap):
        raise ValidationError(f"level {k} outside [1, {cap}] for {spec.name}")
    # Codes name positions, so a member whose identity-order code is among
    # the codes of an earlier class is isomorphic to it.  Each new class is
    # stored under its least code; its first member stays the representative.
    known: set[TypeCode] = set()
    seen: dict[TypeCode, FinStructure] = {}
    perms = list(itertools.permutations(range(k)))
    for S in _all_members(spec, k):
        if canonical_type(S, perms[0]) in known:
            continue
        codes = {canonical_type(S, p) for p in perms}
        known |= codes
        seen[min(codes)] = S
    return [seen[c] for c in sorted(seen)]


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
    if max_level < 1:
        raise ValidationError(f"max_level {max_level} < 1")
    spec = class_by_name(class_name)
    base_reps: dict[int, tuple[FinStructure, ...]] = {}
    variables: list[OrderedType] = []
    var_index: dict[TypeCode, int] = {}
    level_counts: dict[int, list[dict[TypeCode, int]]] = {}

    for k in range(1, max_level + 1):
        reps = tuple(enumerate_base_classes(spec, k))
        if not reps:
            raise ValidationError(f"{class_name} has no members of size {k}")
        base_reps[k] = reps
        level_counts[k] = []
        for bi, A in enumerate(reps):
            counts = enumerate_ordered_types(A)
            level_counts[k].append(counts)
            for code in sorted(counts):
                var_index[code] = len(variables)
                variables.append(OrderedType(code, k, bi, counts[code]))

    rows: list[CroRow] = []
    seen_rows: set[tuple] = set()

    def push(coeffs: dict[int, Fraction], rhs: Fraction, kind: str) -> None:
        items = tuple(sorted(coeffs.items()))
        key = (items, rhs)
        if key not in seen_rows:
            seen_rows.add(key)
            rows.append(CroRow(items, rhs, kind))

    for k in range(1, max_level + 1):
        for counts in level_counts[k]:
            push(
                {var_index[c]: Fraction(n) for c, n in counts.items()},
                Fraction(1),
                "mass",
            )

    for k in range(1, max_level):
        for B in base_reps[k + 1]:
            for v in B.elements:
                rest = tuple(x for x in B.elements if x != v)
                A = induced_substructure(B, rest)
                for tau in itertools.permutations(range(k)):
                    lhs = var_index[canonical_type(A, tau)]
                    coeffs: dict[int, Fraction] = {lhs: Fraction(1)}
                    tau_b = [rest[i] for i in tau]
                    for pos in range(k + 1):
                        sigma = tuple(tau_b[:pos] + [v] + tau_b[pos:])
                        j = var_index[canonical_type(B, sigma)]
                        coeffs[j] = coeffs.get(j, Fraction(0)) - 1
                    coeffs = {i: c for i, c in coeffs.items() if c != 0}
                    push(coeffs, Fraction(0), "restriction")

    system = CroSystem(class_name, max_level, base_reps, variables, tuple(rows))
    bad = _violated_rows(system, uniform_point(system))
    if bad:
        raise ValidationError(
            f"uniform point violates {len(bad)} rows; assembly is inconsistent"
        )
    return system


def uniform_point(system: CroSystem) -> list[Fraction]:
    fact = {k: Fraction(1) for k in range(0, system.max_level + 1)}
    for k in range(2, system.max_level + 1):
        fact[k] = fact[k - 1] * k
    return [1 / fact[v.level] for v in system.variables]


def _violated_rows(system: CroSystem, x: list[Fraction]) -> list[int]:
    bad = []
    for idx, row in enumerate(system.rows):
        total = sum(c * x[i] for i, c in row.coeffs)
        if total != row.rhs:
            bad.append(idx)
    return bad


def satisfies(system: CroSystem, x: list[Fraction]) -> bool:
    return not _violated_rows(system, x) and all(v >= 0 for v in x)


# --- exact linear algebra ------------------------------------------------------


Row = dict[int, Fraction]


def sparse_rref(rows: Iterable[Row]) -> dict[int, Row]:
    """Reduced row echelon form of sparse rows, as pivot column -> row.

    Gauss-Jordan with rows inserted one at a time: reduce the new row against
    the pivots so far, normalise what is left on its leading column, and
    clear that column from the older pivot rows.  Each pivot row holds 1 at
    its pivot, nothing left of it and nothing at any other pivot column.  The
    RREF of a matrix is unique, so this equals the dense column-by-column
    elimination."""
    pivots: dict[int, Row] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        for c in [c for c in row if c in pivots]:
            _axpy(row, -row[c], pivots[c])
        if not row:
            continue
        lead = min(row)
        inv = Fraction(1) / row[lead]
        row = {c: v * inv for c, v in row.items()}
        for other in pivots.values():
            if lead in other:
                _axpy(other, -other[lead], row)
        pivots[lead] = row
    return pivots


def _axpy(target: Row, factor: Fraction, source: Row) -> None:
    """target += factor * source, dropping entries that cancel."""
    for c, v in source.items():
        x = target.get(c, 0) + factor * v
        if x:
            target[c] = x
        else:
            del target[c]


def kernel_basis(system: CroSystem) -> list[list[Fraction]]:
    """Basis of the homogeneous solution space of the row coefficient matrix,
    one vector per free column in column order."""
    n = len(system.variables)
    pivots = sparse_rref(dict(row.coeffs) for row in system.rows)
    zero = Fraction(0)
    basis = {c: [zero] * n for c in range(n) if c not in pivots}
    for pc, row in pivots.items():
        for c, v in row.items():
            if c != pc:
                basis[c][pc] = -v
    for c, vec in basis.items():
        vec[c] = Fraction(1)
    return list(basis.values())


def projected_dimension(system: CroSystem, keep: set[TypeCode]) -> int:
    """Dimension of the solution polytope's image on the kept coordinates.

    The polytope has the strictly positive uniform point inside its affine
    hull, so its image's dimension is the rank of the kernel basis restricted
    to the kept columns."""
    cols = [i for i, v in enumerate(system.variables) if v.code in keep]
    if not cols:
        raise ValidationError("no kept variables")
    basis = kernel_basis(system)
    return len(sparse_rref(dict(enumerate(vec[c] for c in cols)) for vec in basis))


# --- deterministic solutions ---------------------------------------------------


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


def dirac_solutions(
    system: CroSystem, node_cap: int = 1_000_000
) -> tuple[frozenset[TypeCode], ...]:
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
        if nodes > node_cap:
            raise ResourceLimitError(f"0/1 search exceeded {node_cap} nodes")
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
    n = len(system.variables)
    for sol in solutions:
        codes = set(sol)
        x = [Fraction(1 if v.code in codes else 0) for v in system.variables]
        if sum(1 for v in x if v == 1) != len(codes):
            raise RuntimeError("a Dirac solution names a code outside the system")
        if satisfies(system, x):
            verified.append(sol)
    if len(verified) != len(solutions):
        raise RuntimeError("pruned search admitted a bad solution")
    return tuple(verified)


def uniqueness_report(system: CroSystem) -> CroReport:
    uniform_ok = satisfies(system, uniform_point(system))
    nullity = len(kernel_basis(system))
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

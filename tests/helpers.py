"""Reference helpers shared by the test modules."""

import itertools
import json
import math
import os
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

import homord
from homord.builders import StructureChain, pure_set_class
from homord.cro import _cancel, _class_level, _integer_row, _level_table
from homord.errors import ResourceLimitError, ValidationError
from homord.structures import canonical_type, make_structure, structure_to_json

# The environment of a child process: it runs the same homord these tests import.
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(homord.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}

# How many k-tuples enumerate_types is willing to walk.
_ENUM_CAP = 2_000_000


def clear_cro_caches():
    """Drop every level table and kept class level, so the next CRO build
    is cold."""
    _level_table.cache_clear()
    _class_level.cache_clear()


def order_from_latents(
    latent: dict[int, float],
    tie_rank: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """Deterministic comparator sort: by value, ties by tie_rank then id."""
    ranks = tie_rank or {}
    return tuple(sorted(latent, key=lambda a: (latent[a], ranks.get(a, 0), a)))


def all_members(spec, k):
    """Every labelled member of a CRO class on k points, brute force.

    Each pair a < b, in combinations order, takes one of two wirings of the
    class's binary relation (no edge or the edge; the arc (a, b) or (b, a)),
    every combination is built in itertools.product order, and the members
    are kept; a pure set has the one structure with no relations."""
    base = spec.name.split(":")[0]
    if base == "pure_set":
        return [make_structure(spec.signature, k, {})]
    ((name, _),) = spec.signature.relations
    if base in ("graph", "kn_free_graph"):
        wire = lambda a, b: ((), ((a, b), (b, a)))
    elif base in ("tournament", "linear_order"):
        wire = lambda a, b: (((a, b),), ((b, a),))
    else:
        raise ValueError(f"no member list for {spec.name}")
    choices = [wire(a, b) for a, b in itertools.combinations(range(k), 2)]
    members = []
    for picks in itertools.product(*choices):
        S = make_structure(spec.signature, k, {name: {t for pick in picks for t in pick}})
        if spec.is_member(S):
            members.append(S)
    return members


def plain_bits(S):
    """Each binary relation's (out, into) bitsets, read one ordered pair at a
    time: out[a] has bit b and into[b] has bit a exactly when (a, b) holds."""
    pairs = list(itertools.product(range(S.size), repeat=2))
    bits = {}
    for name, arity in S.signature.relations:
        if arity == 2:
            out, into = [0] * S.size, [0] * S.size
            for a, b in pairs:
                if (a, b) in S.tables[name]:
                    out[a] += 2**b
                    into[b] += 2**a
            bits[name] = tuple(out), tuple(into)
    return bits


# The class checks as they read the tuple tables before the bitset reading
# replaced them, kept as the membership oracle.


def _symmetric_irreflexive(S, rel: str) -> bool:
    for a, b in S.table(rel):
        if a == b or (b, a) not in S.table(rel):
            return False
    return True


def _tournament(S, rel: str) -> bool:
    """Whether rel holds exactly one of (a, b) and (b, a) for each pair a != b:
    no loop, no 2-cycle, and one tuple per pair."""
    arcs = S.table(rel)
    return len(arcs) == S.size * (S.size - 1) // 2 and all(
        a != b and (b, a) not in arcs for a, b in arcs
    )


def _places(S) -> Counter:
    """Each point's number of predecessors in "lt" (0 for an absent point)."""
    return Counter(b for _, b in S.table("lt"))


def _linear_order(S) -> bool:
    """Whether "lt" is a strict linear order: a tournament whose places are
    0..n-1, since a tournament is transitive iff its scores are distinct
    (Landau)."""
    places = _places(S)
    return _tournament(S, "lt") and set(map(places.__getitem__, S.elements)) == set(range(S.size))


def _bipartite_deg2(S) -> bool:
    if S.sorts is None:
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


def _involution_order(S) -> bool:
    if not _linear_order(S):
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


def plain_is_member(spec, S):
    """Membership in a class whose check reads binary relations, from the
    tuple tables; a K_n is looked for among every n points."""
    base, _, arg = spec.name.partition(":")
    if S.signature != spec.signature:
        return False
    if base == "pure_set":
        return True
    if base == "graph":
        return _symmetric_irreflexive(S, "E")
    if base == "kn_free_graph":
        return _symmetric_irreflexive(S, "E") and not any(
            all(pair in S.tables["E"] for pair in itertools.combinations(K, 2))
            for K in itertools.combinations(range(S.size), int(arg)))
    if base == "tournament":
        return _tournament(S, "A")
    if base == "linear_order":
        return _linear_order(S)
    if base == "bipartite_deg2":
        return _bipartite_deg2(S)
    if base == "involution_order":
        return _involution_order(S)
    raise ValueError(f"no membership oracle for {spec.name}")


def plain_open_instances(S, kind, t, lo):
    """Every open instance of a witnessable class, enumerated from the tables.

    The disjoint (A, B) with |A|+|B| <= t and max(A ∪ B) >= lo (the empty
    instance counts as max 0) that are admissible, so that for
    kn_free_graph:n A holds no K_{n-1}, and have no witness: no w outside
    A ∪ B with (w, a) in the relation for every a in A and (w, b) outside it
    for every b in B.  A pure set's witness need only be outside A ∪ B.
    Returns a set of (A, B), each an ascending tuple."""
    base, _, arg = kind.partition(":")
    rel = set().union(*S.tables.values())
    into = [{w for w in range(S.size) if (w, v) in rel} for v in range(S.size)]
    clique = int(arg) - 1 if base == "kn_free_graph" else 0
    found = set()
    for size in range(t + 1):
        for points in itertools.combinations(range(S.size), size):
            if max(points, default=0) < lo:
                continue
            for in_a in itertools.product((True, False), repeat=size):
                A = tuple(p for p, flag in zip(points, in_a) if flag)
                B = tuple(p for p, flag in zip(points, in_a) if not flag)
                if clique and any(all((a, b) in rel for a, b in itertools.combinations(K, 2))
                                  for K in itertools.combinations(A, clique)):
                    continue
                witnesses = set(range(S.size)).difference(points)
                if base != "pure_set":
                    for a in A:
                        witnesses &= into[a]
                    for b in B:
                        witnesses -= into[b]
                if not witnesses:
                    found.add((A, B))
    return found


def plain_tau_index(S):
    """The tau index's (first, second) read one ordered pair at a time.

    Pairs come in permutations order, so codes, and the points under each,
    are keyed by first appearance; each witness set is filled in ascending
    order and kept as the tuple its frozenset iterates in."""
    first, second = {}, {}
    for x, y in itertools.permutations(range(S.size), 2):
        code = canonical_type(S, (x, y))
        first.setdefault(code, {}).setdefault(x, set()).add(y)
        second.setdefault(code, {}).setdefault(y, set()).add(x)
    return tuple({c: {p: tuple(frozenset(v)) for p, v in m.items()} for c, m in side.items()}
                 for side in (first, second))


def reference_tau_path(index, a, b, tau, avoid, state_cap):
    """The breadth-first tau-path search with no reachability check up front.

    Returns the node tuple of the first shortest path, or None; raises
    ResourceLimitError once more than state_cap partial paths are queued,
    whether or not b can be reached at all.
    """
    step_first = index.first[tau]
    step_second = index.second[tau]
    empty = frozenset()
    queue = deque([(a,)])
    states = 0
    while queue:
        path = queue.popleft()
        y = path[-1]
        used = set(path)
        for w in step_first.get(y, empty):
            if w in used or w in avoid:
                continue
            for y2 in step_second.get(w, empty):
                if y2 in used or y2 == w:
                    continue
                if y2 == b:
                    return path + (w, b)
                if y2 in avoid:
                    continue
                states += 1
                if states > state_cap:
                    raise ResourceLimitError(f"path search exceeded {state_cap} states")
                queue.append(path + (w, y2))
    return None


def relabel(S, perm):
    """The copy of S carried along x -> perm[x]."""
    tables = {name: {tuple(perm[x] for x in tup) for tup in table}
              for name, table in S.tables.items()}
    sorts = None
    if S.sorts is not None:
        sorts = [None] * S.size
        for x, y in enumerate(perm):
            sorts[y] = S.sorts[x]
    return make_structure(S.signature, S.size, tables, sorts)


def disjoint_union(S, T):
    """S on 0..|S|-1 beside T moved up by |S|: both unsorted, one signature."""
    return make_structure(S.signature, S.size + T.size, {
        name: S.tables[name] | {tuple(x + S.size for x in tup) for tup in T.tables[name]}
        for name in S.tables})


def carries(S, T, p):
    """Does x -> p[x] carry every tuple and sort label of S onto T?  Unlike
    comparing relabel(S, p) with T it stops at the first miss, which keeps
    720 permutations per pair cheap."""
    if (S.sorts is None) != (T.sorts is None):
        return False
    if S.sorts is not None and any(S.sorts[x] != T.sorts[p[x]] for x in range(S.size)):
        return False
    return all(len(S.tables[name]) == len(T.tables[name]) and all(
        tuple(p[x] for x in tup) in T.tables[name] for tup in S.tables[name])
        for name, _ in S.signature.relations)


def invariants(S):
    """Each element's sort label and incidence count at every relation
    position: the invariant the search seeds its domains with."""
    return [(S.sort_of(x), tuple(sum(tup[i] == x for tup in S.tables[name])
                                 for name, arity in S.signature.relations
                                 for i in range(arity)))
            for x in range(S.size)]


def brute_isomorphisms(S, T):
    """Every isomorphism S -> T, in the search's promised order."""
    if S.size != T.size:
        return []
    inv = invariants(S)
    order = sorted(range(S.size), key=lambda x: inv.count(inv[x]))
    found = [p for p in itertools.permutations(range(S.size)) if carries(S, T, p)]
    return sorted(found, key=lambda p: [p[x] for x in order])


def plain_isomorphisms(S, T):
    """Every isomorphism S -> T from a plain backtracker with no table.

    The elements of S are taken most constrained first (fewest elements
    sharing the invariant, ties by index); each keeps a set of candidates,
    seeded with the elements of T of its invariant, and is sent to them in
    ascending order.  An isomorphism keeps distances, counted in steps
    between two points of one tuple, so mapping x -> y keeps a later z's
    candidates at y's distance from them equal to x's from z, and a branch
    ends when some later element has none left, or at the first tuple
    through x or y whose points are all mapped and that is not carried.
    Each leaf is checked again with `carries`.  Yields image tuples in the
    search's promised order."""
    if S.size != T.size or S.signature != T.signature:
        return
    inv_s, inv_t = invariants(S), invariants(T)
    if sorted(inv_s) != sorted(inv_t):
        return
    order = sorted(range(S.size), key=lambda x: inv_s.count(inv_s[x]))

    def through(U):
        found = [[] for _ in range(U.size)]
        for name, table in U.tables.items():
            for tup in table:
                for x in set(tup):
                    found[x].append((tup, name))
        return found

    def distances(U, at):
        """dist[x][w]: the fewest steps from x to w; None when there are none."""
        dist = []
        for x in range(U.size):
            row, frontier = {x: 0}, deque([x])
            while frontier:
                w = frontier.popleft()
                for tup, _ in at[w]:
                    for v in tup:
                        if v not in row:
                            row[v] = row[w] + 1
                            frontier.append(v)
            dist.append([row.get(w) for w in range(U.size)])
        return dist

    through_s, through_t = through(S), through(T)
    dist_s, dist_t = distances(S, through_s), distances(T, through_t)
    image, inverse = {}, {}

    def fits(x, y):
        for tup, name in through_s[x]:
            if all(w in image for w in tup) and tuple(image[w] for w in tup) not in T.tables[name]:
                return False
        for tup, name in through_t[y]:
            if all(w in inverse for w in tup) and tuple(inverse[w] for w in tup) not in S.tables[name]:
                return False
        return True

    def extend(depth, candidates):
        # candidates[i]: the images left for order[depth + i]
        if depth == S.size:
            p = tuple(image[x] for x in range(S.size))
            if carries(S, T, p):
                yield p
            return
        x = order[depth]
        for y in sorted(candidates[0]):
            image[x], inverse[y] = y, x
            if fits(x, y):
                rest = [{v for v in left if v != y and dist_t[y][v] == dist_s[x][z]}
                        for z, left in zip(order[depth + 1:], candidates[1:])]
                if all(rest):
                    yield from extend(depth + 1, rest)
            del image[x], inverse[y]

    yield from extend(0, [{y for y in range(T.size) if inv_t[y] == inv_s[x]} for x in order])


def deletion_marginal_rows(k):
    """The rows defining W_k, by brute force: the variables are the k! orders
    of range(k), indexed in itertools.permutations order, and each row, one
    per deleted point v and order tau of the rest, sums the k insertions of
    v into tau."""
    index = {p: i for i, p in enumerate(itertools.permutations(range(k)))}
    rows = []
    for v in range(k):
        rest = [x for x in range(k) if x != v]
        for tau in itertools.permutations(rest):
            rows.append({index[(*tau[:pos], v, *tau[pos:])]: 1 for pos in range(k)})
    return index, rows


def cycle_type_representatives(k):
    """One permutation of range(k) per cycle type (partition of k), each cycle
    on consecutive points."""
    def partitions(n, most):
        if n == 0:
            yield ()
        for part in range(min(n, most), 0, -1):
            for tail in partitions(n - part, part):
                yield (part, *tail)

    for parts in partitions(k, k):
        g, start = [0] * k, 0
        for part in parts:
            for x in range(part):
                g[start + x] = start + (x + 1) % part
            start += part
        yield tuple(g)


def enumerate_types(S, k):
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


def structure_dumps(S):
    return json.dumps(structure_to_json(S), sort_keys=True)


def pure_set_chain(sizes):
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes or sizes[0] < 1:
        raise ValidationError("sizes must be strictly increasing and positive")
    spec = pure_set_class()
    levels = tuple(make_structure(spec.signature, n, {}) for n in sizes)
    return StructureChain(spec.name, levels, tuple(0 for _ in levels))


def order_pattern(order, points):
    """Indices of `points` in order of appearance, e.g. (1, 0) when the
    second listed point comes first."""
    pos = {a: i for i, a in enumerate(order)}
    return tuple(sorted(range(len(points)), key=lambda i: pos[points[i]]))


def uniform_point(system):
    """Every order of a size-k member gets 1/k!."""
    return [Fraction(1, math.factorial(v.level)) for v in system.variables]


def integer_echelon(rows):
    """Fraction-free forward elimination over the integers, as pivot column
    -> row; the number of pivots is the rank.

    Rows go in shortest first.  Each is cancelled at its largest column
    against the pivot row there, until its largest column holds no pivot
    and becomes its own.  A pivot row holds nothing right of its pivot, so
    every step lowers the row's largest column, and older rows are never
    touched.  Coefficients must be integers; anything else is rejected,
    never truncated."""
    pivots = {}
    for row in sorted(map(_integer_row, rows), key=len):
        while row:
            lead = max(row)
            if lead not in pivots:
                pivots[lead] = row
                break
            row = _cancel(row, pivots[lead], lead)
    return pivots


def echelon_pivots(system):
    """Pivot columns of a CRO system's row coefficients, by integer_echelon:
    the rank oracle for the fibres, which no verdict runs."""
    return frozenset(integer_echelon(row.coeffs for row in system.rows))

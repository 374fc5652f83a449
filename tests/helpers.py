"""Reference helpers shared by the test modules."""

import itertools
from collections import deque

from homord.errors import ResourceLimitError
from homord.structures import make_structure


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


def brute_isomorphisms(S, T):
    """Every isomorphism S -> T, in the search's promised order."""
    if S.size != T.size:
        return []

    def invariant(x):
        return (S.sort_of(x), tuple(sum(tup[i] == x for tup in S.tables[name])
                                    for name, arity in S.signature.relations
                                    for i in range(arity)))

    inv = [invariant(x) for x in range(S.size)]
    order = sorted(range(S.size), key=lambda x: inv.count(inv[x]))
    found = [p for p in itertools.permutations(range(S.size)) if carries(S, T, p)]
    return sorted(found, key=lambda p: [p[x] for x in order])


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

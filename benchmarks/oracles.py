"""Independent oracles for benchmark operations.

Nothing here imports homord: every expected value comes from a closed form,
brute-force enumeration, or a direct check written against plain tables, so
a fast but wrong result from the package cannot also fool its own check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Estimates must land within this many standard errors of the closed form.
# A 5-sigma band gives each check a false-alarm rate near 6e-7, so thousands
# of checks across many seeds stay quiet when the sampler is right.
Z_BAND = 5.0


class OracleError(AssertionError):
    """An operation returned a value its oracle rejects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def check_frequency(value: float, p: Fraction | float, n: int, label: str) -> None:
    """value is a frequency over n draws; p is the exact event probability."""
    p = float(p)
    if p in (0.0, 1.0):
        require(value == p, f"{label}: estimate {value} but the event has probability {p}")
        return
    se = math.sqrt(p * (1 - p) / n)
    require(
        abs(value - p) <= Z_BAND * se,
        f"{label}: estimate {value:.5f} is {abs(value - p) / se:.1f} se from {p:.5f}",
    )


def check_mean(value: float, expected: float, se: float, label: str) -> None:
    require(
        abs(value - expected) <= Z_BAND * max(se, 1e-12),
        f"{label}: {value:.5g} is more than {Z_BAND} se ({se:.3g}) from {expected:.5g}",
    )


# --- exact order-event probabilities -------------------------------------------


def uniform_order_prob(k: int) -> Fraction:
    return Fraction(1, math.factorial(k))


def atom_order_prob(
    tie_rank: list[int], mass: Fraction, loc: Fraction, forced: set[int] = frozenset()
) -> Fraction:
    """P(points appear in the listed order) under one atom at loc with mass.

    tie_rank[i] is the i-th listed point's position in the atom's tie order;
    forced holds list positions conditioned to hit the atom.  Points off the
    atom are i.i.d. uniform, so a pattern with atom set A is in order iff no
    continuous point sits between two atom points, the continuous points
    before the atom block are sorted below loc and those after sorted above.
    """
    k = len(tie_rank)
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=k):
        if any(not bits[i] for i in forced):
            continue
        atoms = [i for i in range(k) if bits[i]]
        weight = Fraction(1)
        for i in range(k):
            if i in forced:
                continue
            weight *= mass if bits[i] else 1 - mass
        if not atoms:
            total += weight / math.factorial(k)
            continue
        ranks = [tie_rank[i] for i in atoms]
        if ranks != sorted(ranks):
            continue
        first, last = atoms[0], atoms[-1]
        if any(not bits[i] for i in range(first, last + 1)):
            continue
        before, after = first, k - 1 - last
        total += (
            weight
            * loc**before / math.factorial(before)
            * (1 - loc) ** after / math.factorial(after)
        )
    return total


def block_order_prob(blocks: list[int]) -> Fraction:
    """Two-block construction: lower block first, uniform inside each block."""
    if blocks != sorted(blocks):
        return Fraction(0)
    p = Fraction(1)
    for b in set(blocks):
        p /= math.factorial(blocks.count(b))
    return p


def min_field_order_prob(nbrs: list[tuple[int, int]]) -> Fraction:
    """Bipartite min-field: score = min of the two neighbours' uniforms, ties
    broken by fresh uniforms.  Enumerates every ranking of the latents
    involved and every tie-break order within equal scores."""
    latents = sorted({u for pair in nbrs for u in pair})
    k = len(nbrs)
    total = Fraction(0)
    count = 0
    for ranking in itertools.permutations(range(len(latents))):
        rank = dict(zip(latents, ranking))
        score = [min(rank[u], rank[v]) for u, v in nbrs]
        count += 1
        if any(score[i] > score[i + 1] for i in range(k - 1)):
            continue
        p = Fraction(1)
        for s in set(score):
            p /= math.factorial(score.count(s))
        total += p
    return total / count


def involution_order_prob(choices: list[tuple[int, int]]) -> Fraction:
    """Each point shows one of its two ranks with a fair bit; the points are
    in the listed order iff the shown ranks increase."""
    hits = sum(
        1
        for pick in itertools.product((0, 1), repeat=len(choices))
        if all(
            choices[i][pick[i]] < choices[i + 1][pick[i + 1]]
            for i in range(len(choices) - 1)
        )
    )
    return Fraction(hits, 2 ** len(choices))


# --- graphs -----------------------------------------------------------------------


def witness_saturated(n: int, edges, t: int) -> bool:
    """Every disjoint (A, B) with |A|+|B| <= t has a vertex joined to all of
    A and none of B, outside A and B.  Bitset walk, independent of the
    package's own auditor."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
    full = (1 << n) - 1
    for size in range(t + 1):
        for combo in itertools.combinations(range(n), size):
            used = 0
            for x in combo:
                used |= 1 << x
            base = full & ~used
            for in_a in itertools.product((True, False), repeat=size):
                cand = base
                for x, joined in zip(combo, in_a):
                    cand &= adj[x] if joined else ~adj[x]
                    if not cand:
                        return False
    return True


def check_automorphisms(elements, n: int, edges, order: int, label: str) -> None:
    edge_set = set(edges)
    require(len(elements) == order, f"{label}: |Aut| = {len(elements)}, expected {order}")
    require(len(set(elements)) == len(elements), f"{label}: repeated automorphism")
    for g in elements:
        require(sorted(g) == list(range(n)), f"{label}: {g} is not a permutation")
        require(
            all((g[a], g[b]) in edge_set for a, b in edge_set),
            f"{label}: {g} does not preserve edges",
        )


def burnside_count(group, k: int, fixed: frozenset[int]) -> int:
    """Orbits of distinct k-tuples under the pointwise stabilizer of fixed."""
    stab = [g for g in group if all(g[x] == x for x in fixed)]
    total = 0
    for g in stab:
        f = sum(1 for i, gi in enumerate(g) if gi == i)
        total += math.perm(f, k)
    require(total % len(stab) == 0, "Burnside sum is not divisible by the group order")
    return total // len(stab)


def check_tuple_partition(blocks, n: int, k: int, label: str) -> None:
    seen = set()
    for block in blocks:
        for tup in block:
            require(len(tup) == k and len(set(tup)) == k, f"{label}: bad tuple {tup}")
            require(tup not in seen, f"{label}: tuple {tup} in two blocks")
            seen.add(tup)
    require(len(seen) == math.perm(n, k), f"{label}: blocks miss tuples")


def check_invariant_partitions(partitions, n: int, group, expected: int, label: str) -> None:
    require(len(partitions) == expected, f"{label}: {len(partitions)} partitions, expected {expected}")
    singletons = tuple((x,) for x in range(n))
    require(singletons in partitions, f"{label}: discrete partition missing")
    require((tuple(range(n)),) in partitions, f"{label}: full partition missing")
    for part in partitions:
        block_of = {x: i for i, block in enumerate(part) for x in block}
        require(sorted(block_of) == list(range(n)), f"{label}: {part} is not a partition")
        for g in group:
            require(
                all(
                    (block_of[a] == block_of[b]) == (block_of[g[a]] == block_of[g[b]])
                    for a in range(n)
                    for b in range(a + 1, n)
                ),
                f"{label}: partition not invariant under {g}",
            )


def check_alternating_path(nodes, joined, avoid, label: str) -> None:
    """nodes alternate through one pair type: joined(y, w) is the same truth
    value for every even node y and the odd node w beside it."""
    require(len(nodes) >= 3 and len(nodes) % 2 == 1, f"{label}: bad length {len(nodes)}")
    require(len(set(nodes)) == len(nodes), f"{label}: nodes repeat")
    require(not set(nodes[1:-1]) & set(avoid), f"{label}: interior meets the avoid set")
    for i in range(1, len(nodes), 2):
        require(
            joined(nodes[i - 1], nodes[i]) and joined(nodes[i + 1], nodes[i]),
            f"{label}: step {i} breaks the pair type",
        )


# --- exact systems ------------------------------------------------------------------


def labelled_count(class_name: str, k: int) -> int:
    """Ordered members of size k up to isomorphism = labelled members on
    {0..k-1} (the order names every point)."""
    base, _, arg = class_name.partition(":")
    pairs = k * (k - 1) // 2
    if base in ("graph", "tournament"):
        return 2**pairs
    if base == "linear_order":
        return math.factorial(k)
    if base == "kn_free_graph":
        clique = int(arg or 3)
        edges = list(itertools.combinations(range(k), 2))
        count = 0
        for picks in itertools.product((False, True), repeat=pairs):
            on = {e for e, p in zip(edges, picks) if p}
            if not any(
                all(e in on for e in itertools.combinations(c, 2))
                for c in itertools.combinations(range(k), clique)
            ):
                count += 1
        return count
    raise ValueError(f"no closed form for {class_name}")


def check_solution(rows, point, label: str) -> None:
    """Every row (coeffs, rhs) holds exactly at point, which is nonnegative."""
    require(all(v >= 0 for v in point), f"{label}: negative coordinate")
    for coeffs, rhs in rows:
        require(
            sum(c * point[i] for i, c in coeffs) == rhs,
            f"{label}: a row fails at the point",
        )

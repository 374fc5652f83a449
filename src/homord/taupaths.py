"""Alternating same-type path search.

A path here is an odd list of distinct nodes y_0 .. y_2n such that every
odd-position node w = y_{2i+1} realizes the same 2-type tau with both of its
even neighbors, in the fixed argument order tp(y_{2i}, w) = tp(y_{2i+2}, w)
= tau.  The interior (everything but the endpoints) can be forced to avoid a
given node set.  A linear flood fill first checks that b can be reached from
a at all, by a walk that may repeat nodes; if not there is no path.
Otherwise the search is breadth-first over partial paths, so the returned
path has minimal length among valid ones.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import ResourceLimitError, TypeNotRealizedError, ValidationError
from .structures import FinStructure, TypeCode, _members, _pair_blocks, _type_code, canonical_type

_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class TauIndex:
    """Per-node witnesses for every realized 2-type; build once, reuse.
    first[c][x] lists the y with tp(x, y) = c, second[c][y] the x."""

    first: dict[TypeCode, dict[int, tuple[int, ...]]]
    second: dict[TypeCode, dict[int, tuple[int, ...]]]

    def realized(self, tau: TypeCode) -> bool:
        return tau in self.first


def build_tau_index(S: FinStructure) -> TauIndex:
    """Index every ordered pair of distinct points by its 2-type.

    Codes, and the points under each, are keyed in order of first
    appearance along `itertools.permutations`; each witness set is filled in
    ascending order and kept as the tuple its frozenset iterates in (a tuple
    takes a fifth of a frozenset's memory), which fixes the path the search
    returns.
    """
    first: dict[TypeCode, dict[int, set[int]]] = {}
    second: dict[TypeCode, dict[int, set[int]]] = {}
    for x, code, ys in _code_blocks(S):
        first.setdefault(code, {}).setdefault(x, set()).update(ys)
        by_y = second.setdefault(code, {})
        for y in ys:  # setdefault would build a throwaway set per pair
            if y in by_y:
                by_y[y].add(x)
            else:
                by_y[y] = {x}
    return TauIndex(
        first={c: {x: tuple(frozenset(v)) for x, v in m.items()} for c, m in first.items()},
        second={c: {y: tuple(frozenset(v)) for y, v in m.items()} for c, m in second.items()},
    )


def _code_blocks(S: FinStructure) -> Iterator[tuple[int, TypeCode, list[int] | tuple[int]]]:
    """Yield (x, code, ys) for x ascending: the y with tp(x, y) = code, in
    ascending order, each block after every block whose least y is lower.

    With no relation of arity 3 or more, the 2-type of (x, y) is fixed by
    the 1-types of x and y (sort, unary memberships, loops) and the pair
    pattern, so each block of `_pair_blocks` is split by the 1-type of y
    and one representative pair per key is coded.  Otherwise each pair is
    coded by itself.
    """
    if any(arity > 2 for _, arity in S.signature.relations):
        for x, y in itertools.permutations(range(S.size), 2):
            yield x, _type_code(S, (x, y)), (y,)
        return
    one_types = [(S.sort_of(x), tuple((x,) * arity in S.tables[name]
                                      for name, arity in S.signature.relations))
                 for x in range(S.size)]
    by_type: dict[tuple, int] = {}
    for x, t in enumerate(one_types):
        by_type[t] = by_type.get(t, 0) | 1 << x
    codes: dict[tuple, TypeCode] = {}
    _, blocks = _pair_blocks(S)
    for x, row in enumerate(blocks):
        parts = []
        for p, block in row.items():
            for t, members in by_type.items():
                part = block & members
                if part:
                    low, key = part & -part, (one_types[x], t, p)
                    if key not in codes:
                        codes[key] = _type_code(S, (x, low.bit_length() - 1))
                    parts.append((low, codes[key], part))
        parts.sort()
        for _, code, part in parts:
            yield x, code, list(_members(part))


@dataclass(frozen=True)
class TauPath:
    """Validated alternating path.  length = len(nodes) - 1 (always even)."""

    nodes: tuple[int, ...]
    tau: TypeCode

    @property
    def a(self) -> int:
        return self.nodes[0]

    @property
    def b(self) -> int:
        return self.nodes[-1]

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    @property
    def interior(self) -> tuple[int, ...]:
        return self.nodes[1:-1]


def verify_tau_path(S: FinStructure, path: TauPath) -> None:
    """Re-check every path invariant against the structure; raise on any gap."""
    nodes = path.nodes
    if len(nodes) < 3 or len(nodes) % 2 == 0:
        raise ValidationError(f"node list of length {len(nodes)} is not odd and >= 3")
    if len(set(nodes)) != len(nodes):
        raise ValidationError("nodes repeat")
    for i in range(0, len(nodes) - 2, 2):
        y0, w, y1 = nodes[i], nodes[i + 1], nodes[i + 2]
        if canonical_type(S, (y0, w)) != path.tau:
            raise ValidationError(f"tp({y0},{w}) != tau")
        if canonical_type(S, (y1, w)) != path.tau:
            raise ValidationError(f"tp({y1},{w}) != tau")


def _reachable(step_first, step_second, a: int, b: int, avoid: frozenset[int]) -> bool:
    """Whether a walk leads from a to b, ignoring distinctness.

    y links to y2 when some w outside avoid has tp(y, w) = tp(y2, w) = tau,
    and y2 is outside avoid or is b.  Every simple path is such a walk.  Each
    w is expanded only once, since the y2 it leads to do not depend on which
    y reached it.
    """
    seen = {a}
    spent = set(avoid)  # avoided or already expanded middle nodes
    stack = [a]
    while stack:
        for w in step_first.get(stack.pop(), ()):
            if w in spent:
                continue
            spent.add(w)
            for y2 in step_second[w]:
                if y2 == b:
                    return True
                if y2 not in seen and y2 not in avoid:
                    seen.add(y2)
                    stack.append(y2)
    return False


def _check_query(
    S: FinStructure,
    a: int,
    b: int,
    tau: TypeCode,
    avoid: frozenset[int] | set[int],
    index: TauIndex | None,
) -> tuple[frozenset[int], TauIndex]:
    """The avoid set frozen and the index (built when None), once the
    endpoints, the avoid points and tau are checked."""
    if a == b:
        raise ValidationError("endpoints must differ")
    for p in (a, b):
        if not (0 <= p < S.size):
            raise ValidationError(f"endpoint {p} out of range")
    avoid = frozenset(avoid)
    if a in avoid or b in avoid:
        raise ValidationError("endpoints may not be avoided")
    for p in avoid:
        if not (0 <= p < S.size):
            raise ValidationError(f"avoid point {p} out of range")
    if index is None:
        index = build_tau_index(S)
    if not index.realized(tau):
        raise TypeNotRealizedError("tau is not realized in the structure")
    return avoid, index


def find_tau_path(
    S: FinStructure,
    a: int,
    b: int,
    tau: TypeCode,
    avoid: frozenset[int] | set[int] = frozenset(),
    index: TauIndex | None = None,
    state_cap: int = _STATE_CAP,
) -> TauPath | None:
    """Shortest alternating tau-path from a to b, interior missing avoid.

    Returns None when no path exists; raises TypeNotRealizedError when tau
    does not occur in S at all (a different situation than 'no path').
    A linear component check runs first: when no walk, repeated nodes
    allowed, leads from a to b, the answer is None without any BFS, so
    state_cap is spent only when b is reachable.  The BFS raises
    ResourceLimitError once it has queued more than state_cap partial paths.
    """
    avoid, index = _check_query(S, a, b, tau, avoid, index)
    step_first = index.first[tau]
    step_second = index.second[tau]
    if not _reachable(step_first, step_second, a, b, avoid):
        return None

    # queue of partial paths ending at an even node; BFS => shortest result
    queue: deque[tuple[int, ...]] = deque([(a,)])
    states = 0
    while queue:
        path = queue.popleft()
        y = path[-1]
        used = set(path)
        for w in step_first.get(y, ()):
            if w in used or w in avoid:
                continue
            for y2 in step_second.get(w, ()):
                if y2 in used or y2 == w:
                    continue
                if y2 == b:
                    found = TauPath(nodes=path + (w, b), tau=tau)
                    verify_tau_path(S, found)
                    return found
                if y2 in avoid:
                    continue
                states += 1
                if states > state_cap:
                    raise ResourceLimitError(f"path search exceeded {state_cap} states")
                queue.append(path + (w, y2))
    return None


@dataclass(frozen=True)
class DisjointPaths:
    """Greedy interior-disjoint family; shortage=True when count wasn't met."""

    paths: tuple[TauPath, ...]
    requested: int

    @property
    def achieved(self) -> int:
        return len(self.paths)

    @property
    def shortage(self) -> bool:
        return self.achieved < self.requested


def disjoint_tau_paths(
    S: FinStructure,
    a: int,
    b: int,
    tau: TypeCode,
    count: int,
    avoid: frozenset[int] | set[int] = frozenset(),
    index: TauIndex | None = None,
) -> DisjointPaths:
    """Up to count same-length paths with pairwise disjoint interiors.

    Greedy: each found path's interior is added to the avoid set.  Stops when
    no path exists or only strictly longer ones remain.  The arguments are
    checked as find_tau_path checks them, also when count is 0.
    """
    if count < 0:
        raise ValidationError(f"count {count} < 0")
    avoid, index = _check_query(S, a, b, tau, avoid, index)
    blocked = set(avoid)
    paths: list[TauPath] = []
    target_len: int | None = None
    while len(paths) < count:
        found = find_tau_path(S, a, b, tau, blocked, index=index)
        if found is None:
            break
        if target_len is None:
            target_len = found.length
        elif found.length != target_len:
            break
        paths.append(found)
        blocked.update(found.interior)
    return DisjointPaths(paths=tuple(paths), requested=count)

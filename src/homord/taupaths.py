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
from dataclasses import dataclass

from .errors import ResourceLimitError, TypeNotRealizedError, ValidationError
from .structures import FinStructure, TypeCode, canonical_type

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
    first: dict[TypeCode, dict[int, set[int]]] = {}
    second: dict[TypeCode, dict[int, set[int]]] = {}
    for x, y in itertools.permutations(range(S.size), 2):
        code = canonical_type(S, (x, y))
        first.setdefault(code, {}).setdefault(x, set()).add(y)
        second.setdefault(code, {}).setdefault(y, set()).add(x)
    # tuples take a fifth of a frozenset's memory; each keeps the order its
    # frozenset iterates in, which fixes the path the search returns
    return TauIndex(
        first={c: {x: tuple(frozenset(v)) for x, v in m.items()} for c, m in first.items()},
        second={c: {y: tuple(frozenset(v)) for y, v in m.items()} for c, m in second.items()},
    )


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
    no path exists or only strictly longer ones remain.
    """
    if count < 0:
        raise ValidationError(f"count {count} < 0")
    if index is None:
        index = build_tau_index(S)
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

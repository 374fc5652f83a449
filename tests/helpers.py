"""Reference helpers shared by the test modules."""

from collections import deque

from homord.errors import ResourceLimitError


def order_from_latents(
    latent: dict[int, float],
    tie_rank: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """Deterministic comparator sort: by value, ties by tie_rank then id."""
    ranks = tie_rank or {}
    return tuple(sorted(latent, key=lambda a: (latent[a], ranks.get(a, 0), a)))


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

"""Reference helpers shared by the test modules."""


def order_from_latents(
    latent: dict[int, float],
    tie_rank: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """Deterministic comparator sort: by value, ties by tie_rank then id."""
    ranks = tie_rank or {}
    return tuple(sorted(latent, key=lambda a: (latent[a], ranks.get(a, 0), a)))

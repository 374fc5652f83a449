"""Seedable samplers for invariant random linear orders.

Each sampler owns the elements it orders and yields OrderSample objects from
`stream(seed, n)`.  Streams draw in fixed chunks of 4096 samples; chunk c is
seeded by SeedSequence([seed, c]), so any partition of whole chunks across
workers reproduces the identical sample set and estimates merge by counting.
Same seed, same platform or not: the stream is bit-for-bit reproducible.

The constructions:

  uniform     -- i.i.d. 53-bit uniform latent per element; sort by value.
  atoms       -- latent from an atomic+continuous mixture; elements that hit
                 the same atom are tie-broken by that atom's fixed order.
                 Atom membership is decided by branching on mass up front,
                 never by comparing floats.
  pq          -- P-block strictly below Q-block, i.i.d. uniforms inside.
  bimin       -- i.i.d. uniforms on the S1 sort; each S0 element scores the
                 min over its two neighbors; ties broken by a recorded fresh
                 uniform.  Shared neighbors induce positive correlation.
  involution  -- fair bit per M-sort element chooses the element or its
                 partner; compare chosen images in the ambient order.
  dual        -- fair bits on a basis of F2^d extended linearly; yields a
                 0/1 field on the whole space (no order), xor-linear by
                 construction.

Where the latent is an explicit per-element scalar, it is exposed as `eta`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .builders import (
    bipartite_deg2_class,
    bipartite_m_view,
    involution_m_view,
    involution_order_class,
    linear_order_class,
    two_predicate_class,
)
from .errors import ResourceLimitError, ValidationError
from .structures import FinStructure, TypeCode, canonical_type

CHUNK = 4096


def _chunk_rngs(seed: int) -> Iterator[np.random.Generator]:
    if seed < 0:
        raise ValidationError(f"seed {seed} < 0")
    for c in itertools.count():
        yield np.random.default_rng(np.random.SeedSequence([seed, c]))


def derive_seed(seed: int, *tags: int) -> int:
    """Stable derived stream seed for fan-out (independent substreams)."""
    ss = np.random.SeedSequence([seed, *tags])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class OrderSample:
    """order lists the ordered elements least to greatest; latent is the raw
    randomness behind the draw; eta, when present, is the per-element
    statistic the order is built from; tiebreak records auxiliary uniforms."""

    order: tuple[int, ...]
    latent: dict[int, float]
    eta: dict[int, float] | None = None
    tiebreak: dict[int, float] | None = None


@dataclass(frozen=True)
class FieldSample:
    """A 0/1 field on the universe (dual-functional sampler output)."""

    eta: dict[int, int]


@dataclass(frozen=True)
class FixedOrder:
    """Named total order on given elements, listed least to greatest."""

    name: str
    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.ranking)) != len(self.ranking):
            raise ValidationError("ranking repeats elements")

    def position(self, x: int) -> int:
        return self.ranking.index(x)


def structure_order(S: FinStructure, reverse: bool = False) -> FixedOrder:
    """The order a linear_order structure carries, or its reverse."""
    linear_order_class().validate(S)
    lt = S.table("lt")
    ranking = tuple(sorted(S.elements, key=lambda a: sum(1 for t in lt if t[1] == a)))
    if reverse:
        return FixedOrder("reverse", tuple(reversed(ranking)))
    return FixedOrder("identity", ranking)


@dataclass(frozen=True)
class AtomSpec:
    """Atomic locations with masses plus a tie order per atom.

    atoms: ((location, mass), ...) with distinct locations in [0,1], masses
    positive, total <= 1; the remaining mass is continuous uniform.
    tie_break maps each atom location to the FixedOrder used when several
    elements land on that atom.
    """

    atoms: tuple[tuple[float, float], ...]
    tie_break: dict[float, FixedOrder] = field(default_factory=dict)

    def __post_init__(self) -> None:
        locs = [loc for loc, _ in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValidationError("duplicate atom location")
        total = 0.0
        for loc, mass in self.atoms:
            if not (0.0 <= loc <= 1.0):
                raise ValidationError(f"atom location {loc} outside [0,1]")
            if mass <= 0.0:
                raise ValidationError(f"atom mass {mass} <= 0")
            total += mass
        if total > 1.0 + 1e-12:
            raise ValidationError(f"atom masses sum to {total} > 1")
        for loc in self.tie_break:
            if loc not in locs:
                raise ValidationError(f"tie order for non-atom location {loc}")
        for loc in locs:
            if loc not in self.tie_break:
                raise ValidationError(f"atom {loc} lacks a tie order")

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def order_from_latents(
    latent: dict[int, float],
    tie_rank: dict[int, int] | None = None,
) -> tuple[int, ...]:
    """Deterministic comparator sort: by value, ties by tie_rank then id."""
    ranks = tie_rank or {}
    return tuple(sorted(latent, key=lambda a: (latent[a], ranks.get(a, 0), a)))


class OrderSamplerBase:
    """Common stream plumbing; subclasses implement _draw(rng, m)."""

    structure: FinStructure
    elements: tuple[int, ...]

    def _draw(self, rng: np.random.Generator, m: int) -> list:
        raise NotImplementedError

    def stream(self, seed: int, n: int | None = None) -> Iterator:
        """Yield samples; n=None streams forever.

        Chunks always draw the full 4096 internally so that sample i is the
        same object no matter what n was requested; a short final chunk just
        discards the tail.
        """
        remaining = n
        for rng in _chunk_rngs(seed):
            if remaining is not None and remaining <= 0:
                return
            batch = self._draw(rng, CHUNK)
            if remaining is None:
                yield from batch
            else:
                take = min(CHUNK, remaining)
                yield from batch[:take]
                remaining -= take

    def pattern_type(self, points: tuple[int, ...]) -> TypeCode:
        """Type code governing exchangeability comparisons for this sampler."""
        return canonical_type(self.structure, points)


class UniformOrderSampler(OrderSamplerBase):
    """Latent i.i.d. uniform per element; eta equals the latent."""

    def __init__(self, S: FinStructure):
        self.structure = S
        self.elements = tuple(S.elements)
        if not self.elements:
            raise ValidationError("empty structure")

    def _draw(self, rng: np.random.Generator, m: int) -> list[OrderSample]:
        k = len(self.elements)
        z = rng.random((m, k))
        ranks = np.argsort(z, axis=1, kind="stable")
        pick = self.elements.__getitem__
        out = []
        for row, idx in zip(z, ranks):
            latent = dict(zip(self.elements, row.tolist()))
            order = tuple(map(pick, idx.tolist()))
            out.append(OrderSample(order=order, latent=latent, eta=latent))
        return out


class AtomOrderSampler(OrderSamplerBase):
    """Atomic+continuous latent; same-atom collisions use the atom's order."""

    def __init__(self, S: FinStructure, spec: AtomSpec):
        self.structure = S
        self.spec = spec
        self.elements = tuple(S.elements)
        if not self.elements:
            raise ValidationError("empty structure")
        for _, order in spec.tie_break.items():
            missing = set(self.elements) - set(order.ranking)
            if missing:
                raise ValidationError(f"tie order misses elements {sorted(missing)}")
        self._locs = [loc for loc, _ in spec.atoms]
        self._cum = np.cumsum([mass for _, mass in spec.atoms])
        self._tie_pos = [
            {a: r for r, a in enumerate(spec.tie_break[loc].ranking)} for loc in self._locs
        ]

    def _draw_tagged(self, rng: np.random.Generator, m: int):
        """(latent_values, atom_index_per_element) per sample, -1 = continuous.

        One branch uniform per element picks its atom; the continuous hits
        then draw their values in row-major order."""
        k = len(self.elements)
        idx = np.searchsorted(self._cum, rng.random((m, k)), side="right")
        cont = idx == len(self._locs)
        values = np.array([*self._locs, None], dtype=object)[idx]
        values[cont] = rng.random(int(cont.sum()))
        idx[cont] = -1
        return [
            (dict(zip(self.elements, row.tolist())), dict(zip(self.elements, tags.tolist())))
            for row, tags in zip(values, idx)
        ]

    def _order(self, values: dict[int, float], hits: dict[int, int]) -> tuple[int, ...]:
        tie_rank = {a: self._tie_pos[i][a] for a, i in hits.items() if i >= 0}
        return order_from_latents(values, tie_rank)

    def _draw(self, rng: np.random.Generator, m: int) -> list[OrderSample]:
        return [
            OrderSample(order=self._order(values, hits), latent=values, eta=values)
            for values, hits in self._draw_tagged(rng, m)
        ]


class ConditionedAtomSampler(OrderSamplerBase):
    """Rejection wrapper: keep samples whose given points all hit one atom.

    Atom membership is tested on the draw's branch tag, never by float
    comparison.  Tries are counted across the whole stream; exceeding
    max_tries raises with the observed acceptance rate.
    """

    def __init__(
        self,
        base: AtomOrderSampler,
        location: float,
        points: tuple[int, ...],
        max_tries: int = 10_000_000,
    ):
        if location not in base._locs:
            raise ValidationError(f"{location} is not an atom of the base sampler")
        for p in points:
            if p not in base.elements:
                raise ValidationError(f"point {p} not sampled by the base sampler")
        if not points:
            raise ValidationError("no points to condition on")
        self.structure = base.structure
        self.elements = base.elements
        self.base = base
        self.atom_index = base._locs.index(location)
        self.points = tuple(points)
        self.max_tries = max_tries

    def stream(self, seed: int, n: int | None = None) -> Iterator[OrderSample]:
        remaining = n
        tried = 0
        accepted = 0
        for rng in _chunk_rngs(seed):
            for values, hits in self.base._draw_tagged(rng, CHUNK):
                if remaining is not None and remaining <= 0:
                    return
                tried += 1
                if tried > self.max_tries:
                    rate = accepted / tried
                    raise ResourceLimitError(
                        f"rejection sampler exceeded {self.max_tries} tries "
                        f"(observed acceptance rate {rate:.3g})"
                    )
                if all(hits[p] == self.atom_index for p in self.points):
                    accepted += 1
                    if remaining is not None:
                        remaining -= 1
                    yield OrderSample(
                        order=self.base._order(values, hits), latent=values, eta=values
                    )


def condition_on_atom(
    base: AtomOrderSampler,
    location: float,
    points: tuple[int, ...],
    max_tries: int = 10_000_000,
) -> ConditionedAtomSampler:
    return ConditionedAtomSampler(base, location, points, max_tries)


class PQOrderSampler(OrderSamplerBase):
    """P-block below Q-block; i.i.d. uniforms order each block internally."""

    def __init__(self, S: FinStructure):
        two_predicate_class().validate(S)
        p = {t[0] for t in S.table("P")}
        q = {t[0] for t in S.table("Q")}
        if p | q != set(S.elements):
            raise ValidationError("every element must carry P or Q")
        self.structure = S
        self.elements = tuple(S.elements)
        self._block = {a: (0 if a in p else 1) for a in self.elements}

    def _draw(self, rng: np.random.Generator, m: int) -> list[OrderSample]:
        k = len(self.elements)
        z = rng.random((m, k))
        out = []
        for row in z:
            latent = dict(zip(self.elements, row.tolist()))
            order = tuple(
                sorted(self.elements, key=lambda a: (self._block[a], latent[a], a))
            )
            out.append(OrderSample(order=order, latent=latent, eta=latent))
        return out


class BipartiteMinSampler(OrderSamplerBase):
    """Orders the S0 sort by min of i.i.d. uniforms on the two neighbors."""

    def __init__(self, S: FinStructure):
        bipartite_deg2_class().validate(S)
        self.structure = S
        self.elements = S.elements_of_sort("S0")
        self._s1 = S.elements_of_sort("S1")
        self._nbrs = {
            a: tuple(sorted(b for x, b in S.table("R") if x == a)) for a in self.elements
        }
        if any(len(v) != 2 for v in self._nbrs.values()):
            raise ValidationError("every S0 element needs exactly 2 neighbors")
        self._view, carrier = bipartite_m_view(S)
        self._view_index = {a: i for i, a in enumerate(carrier)}

    def pattern_type(self, points: tuple[int, ...]) -> TypeCode:
        mapped = tuple(self._view_index[p] for p in points)
        return canonical_type(self._view, mapped)

    def _draw(self, rng: np.random.Generator, m: int) -> list[OrderSample]:
        out = []
        for _ in range(m):
            eta_row = rng.random(len(self._s1))
            field_vals = dict(zip(self._s1, eta_row.tolist()))
            tie_row = rng.random(len(self.elements))
            ties = dict(zip(self.elements, tie_row.tolist()))
            xi = {
                a: min(field_vals[u], field_vals[v])
                for a, (u, v) in self._nbrs.items()
            }
            order = tuple(sorted(self.elements, key=lambda a: (xi[a], ties[a], a)))
            out.append(OrderSample(order=order, latent=field_vals, eta=xi, tiebreak=ties))
        return out


class InvolutionOrderSampler(OrderSamplerBase):
    """Fair bit per M element picks it or its partner; compare in the
    ambient order.  Images never collide, so the order is always total."""

    def __init__(self, S: FinStructure):
        involution_order_class().validate(S)
        if S.sorts is None:
            raise ValidationError("involution structure lacks sorts")
        self.structure = S
        lt = S.table("lt")
        self._rank = {a: sum(1 for t in lt if t[1] == a) for a in S.elements}
        self.elements = tuple(sorted(S.elements_of_sort("M"), key=self._rank.get))
        self._partner = {a: b for a, b in S.table("f")}
        self._view, carrier = involution_m_view(S)
        self._view_index = {a: i for i, a in enumerate(carrier)}

    def pattern_type(self, points: tuple[int, ...]) -> TypeCode:
        mapped = tuple(self._view_index[p] for p in points)
        return canonical_type(self._view, mapped)

    def _draw(self, rng: np.random.Generator, m: int) -> list[OrderSample]:
        k = len(self.elements)
        bits = rng.integers(0, 2, size=(m, k))
        out = []
        for row in bits:
            latent = dict(zip(self.elements, (int(b) for b in row)))
            image = {
                a: (a if latent[a] == 0 else self._partner[a]) for a in self.elements
            }
            order = tuple(sorted(self.elements, key=lambda a: self._rank[image[a]]))
            out.append(OrderSample(order=order, latent=latent, eta=dict(latent)))
        return out


class DualFunctionalSampler:
    """Fair bits on the bitmask basis of F2^d, extended xor-linearly."""

    def __init__(self, S: FinStructure):
        d = (S.size - 1).bit_length()
        if S.size != 1 << d or ("add", 3) not in S.signature.relations:
            raise ValidationError("expected an F2 vector-space structure")
        self.structure = S
        self.dim = d
        self.elements = tuple(S.elements)

    def stream(self, seed: int, n: int | None = None) -> Iterator[FieldSample]:
        remaining = n
        for rng in _chunk_rngs(seed):
            if remaining is not None and remaining <= 0:
                return
            masks = self._masks(rng, CHUNK)
            take = CHUNK if remaining is None else min(CHUNK, remaining)
            for mask in masks[:take]:
                xi = {v: _parity(v & mask) for v in self.elements}
                yield FieldSample(eta=xi)
            if remaining is not None:
                remaining -= take

    def _masks(self, rng: np.random.Generator, m: int) -> list[int]:
        bits = rng.integers(0, 2, size=(m, self.dim))
        return [int(sum(int(b) << i for i, b in enumerate(row))) for row in bits]

    def field_matrix(self, seed: int, n: int) -> np.ndarray:
        """(n, 2^d) uint8 matrix of field values; same draws as stream()."""
        rows = np.empty((n, len(self.elements)), dtype=np.uint8)
        vals = np.arange(len(self.elements), dtype=np.uint64)
        done = 0
        for rng in _chunk_rngs(seed):
            if done >= n:
                break
            masks = self._masks(rng, CHUNK)
            for mask in masks[: n - done]:
                masked = vals & np.uint64(mask)
                rows[done] = _parity_array(masked)
                done += 1
        return rows


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


def _parity_array(x: np.ndarray) -> np.ndarray:
    out = x.copy()
    shift = 1
    while shift < 64:
        out ^= out >> np.uint64(shift)
        shift *= 2
    return (out & np.uint64(1)).astype(np.uint8)


# --- functional wrappers (one per construction) ------------------------------


def sample_uniform_order(S: FinStructure, seed: int, n: int | None = None):
    return UniformOrderSampler(S).stream(seed, n)


def sample_atom_order(S: FinStructure, spec: AtomSpec, seed: int, n: int | None = None):
    return AtomOrderSampler(S, spec).stream(seed, n)


def sample_pq_order(S: FinStructure, seed: int, n: int | None = None):
    return PQOrderSampler(S).stream(seed, n)


def sample_bipartite_min_field(S: FinStructure, seed: int, n: int | None = None):
    return BipartiteMinSampler(S).stream(seed, n)


def sample_involution_order(S: FinStructure, seed: int, n: int | None = None):
    return InvolutionOrderSampler(S).stream(seed, n)


def sample_dual_functional(S: FinStructure, seed: int, n: int | None = None):
    return DualFunctionalSampler(S).stream(seed, n)

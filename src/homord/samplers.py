"""Seedable samplers for invariant random linear orders.

Each sampler owns the elements it orders and draws one OrderBatch of arrays
per chunk from `batches(seed, n)`; `stream(seed, n)` yields the same draws
row by row as OrderSample (or FieldSample) objects.  A batch carries the
sort keys of its order, not the sorted order: `order` is sorted on first
read, and `ranks(cols)` sorts only the columns a statistic reads.  Draws
come in fixed chunks of 4096 samples; chunk c is seeded by
SeedSequence([seed, c]), so any partition of whole chunks across workers
reproduces the identical sample set and estimates merge by counting.  A
request for n samples draws n rows, not whole chunks: `_draw(rng, m)`
returns exactly the first m rows of `_draw(rng, 4096)`, so row i is the same
whatever n was asked for.  Same seed, same platform or not: the draws are
bit-for-bit reproducible.

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
from functools import cached_property
from typing import Iterator

import numpy as np

from .builders import (
    _places,
    bipartite_m_view,
    involution_m_view,
    linear_order_class,
    two_predicate_class,
)
from .errors import ResourceLimitError, ValidationError
from .structures import FinStructure, TypeCode, _members, canonical_type

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


@dataclass(frozen=True, eq=False)
class OrderBatch:
    """One chunk of draws, one row per sample.

    keys holds the (m, k) sort keys of the order, one column per element, in
    `np.lexsort` order (primary key last), or None for a sampler that draws
    no order (reading `order` or `ranks` then raises); latent is the raw
    randomness, one column per latent key; eta, when present, the
    per-element statistic (often the latent array itself); tiebreak the
    auxiliary uniforms, one column per element.  Keys that tie fall to the
    lower column, as a stable sort leaves them."""

    keys: tuple[np.ndarray, ...] | None
    latent: np.ndarray
    eta: np.ndarray | None
    tiebreak: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.latent)

    def _sort_keys(self) -> tuple[np.ndarray, ...]:
        if self.keys is None:
            raise ValidationError("sampler draws no order")
        return self.keys

    @cached_property
    def order(self) -> np.ndarray:
        """Column indices least to greatest, row by row; sorted on first read."""
        return np.lexsort(self._sort_keys(), axis=1)

    def ranks(self, cols) -> np.ndarray:
        """(m, len(cols)) ranks of the given distinct columns among
        themselves, in the caller's column order.  Only these columns are
        sorted, taken in ascending order so that ties fall to the lower
        column; so the ranks compare exactly as positions in `order` do."""
        cols = np.asarray(cols, dtype=np.intp)
        up = np.argsort(cols)
        sub = np.lexsort([key[:, cols[up]] for key in self._sort_keys()], axis=1)
        pos = np.empty_like(sub)
        np.put_along_axis(pos, up[sub], np.arange(len(cols)), axis=1)
        return pos


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
    ranking = tuple(sorted(S.elements, key=_places(S).__getitem__))
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
            # written so that a NaN mass or total fails too
            if not mass > 0.0:
                raise ValidationError(f"atom mass {mass} is not positive")
            total += mass
        if not total <= 1.0 + 1e-12:
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


def _row(keys: tuple[int, ...], arr: np.ndarray | None, i: int) -> dict | None:
    return None if arr is None else dict(zip(keys, arr[i].tolist()))


class OrderSamplerBase:
    """Common chunk plumbing; subclasses implement _draw(rng, m), which
    returns one OrderBatch of m rows, exactly the first m rows of
    _draw(rng, CHUNK).  A draw that another draw from the same generator
    follows is therefore taken at CHUNK rows and cut; only the last one may
    be taken at m.  A batch's order is a stable sort of its keys, so ties
    fall to the lower column: the lower element id wherever a construction
    can tie."""

    structure: FinStructure
    elements: tuple[int, ...]
    # structure whose element i is column i, for samplers whose pattern
    # types live on a view rather than on the structure itself
    _view: FinStructure | None = None

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        raise NotImplementedError

    @property
    def latent_keys(self) -> tuple[int, ...]:
        """The elements behind a batch's latent columns."""
        return self.elements

    def column(self, p: int) -> int:
        """Column of point p in a batch's order indices and eta."""
        try:
            return self.elements.index(p)
        except ValueError:
            raise ValidationError(f"point {p} is not drawn by this sampler") from None

    def batches(self, seed: int, n: int) -> Iterator[OrderBatch]:
        """Yield n rows as one OrderBatch per chunk.

        The last chunk draws only the rows it returns, the first of that
        chunk's full draw, so row i is the same whatever n was requested.
        """
        for rng in _chunk_rngs(seed):
            m = min(CHUNK, n)
            if m <= 0:
                return
            yield self._draw(rng, m)
            n -= m

    def stream(self, seed: int, n: int) -> Iterator:
        """Yield the rows of `batches(seed, n)` one by one: OrderSample, or
        FieldSample for a sampler that draws no order."""
        pick = self.elements.__getitem__
        for b in self.batches(seed, n):
            for i in range(len(b)):
                eta = _row(self.elements, b.eta, i)
                if b.keys is None:
                    yield FieldSample(eta=eta)
                    continue
                yield OrderSample(
                    order=tuple(map(pick, b.order[i].tolist())),
                    latent=_row(self.latent_keys, b.latent, i),
                    eta=eta,
                    tiebreak=_row(self.elements, b.tiebreak, i),
                )

    def pattern_type(self, points: tuple[int, ...]) -> TypeCode:
        """Type code governing exchangeability comparisons for this sampler."""
        if self._view is None:
            return canonical_type(self.structure, points)
        return canonical_type(self._view, tuple(map(self.column, points)))


class UniformOrderSampler(OrderSamplerBase):
    """Latent i.i.d. uniform per element; eta equals the latent."""

    def __init__(self, S: FinStructure):
        self.structure = S
        self.elements = tuple(S.elements)
        if not self.elements:
            raise ValidationError("empty structure")

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        z = rng.random((m, len(self.elements)))
        return OrderBatch((z,), z, z)


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
        # tie rank of each element on each atom; the last row, read by the
        # continuous tag -1, is all zero
        self._tie_rank = np.array(
            [[spec.tie_break[loc].position(a) for a in self.elements] for loc in self._locs]
            + [[0] * len(self.elements)]
        )

    def _draw_tagged(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(latent values, atom index) as (m, k) arrays, -1 = continuous.

        One branch uniform per element picks its atom; the continuous hits
        then draw their values in row-major order.  The branch matrix is
        drawn for a whole chunk, so the values after it do not depend on m."""
        k = len(self.elements)
        idx = np.searchsorted(self._cum, rng.random((CHUNK, k))[:m], side="right")
        cont = idx == len(self._locs)
        values = np.append(self._locs, 0.0)[idx]
        values[cont] = rng.random(int(cont.sum()))
        idx[cont] = -1
        return values, idx

    def _keys(self, values: np.ndarray, tags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sort keys: by value, then by the tie rank of the atom a tag names
        (continuous draws rank 0), then by element."""
        return self._tie_rank[tags, np.arange(values.shape[1])], values

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        values, tags = self._draw_tagged(rng, m)
        return OrderBatch(self._keys(values, tags), values, values)


class ConditionedAtomSampler(OrderSamplerBase):
    """Rejection wrapper: keep samples whose given points all hit one atom.

    Atom membership is tested on the draw's branch tag, never by float
    comparison.  Tries are counted row by row across the whole stream;
    exceeding max_tries raises with the observed acceptance rate.
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
        if not points:
            raise ValidationError("no points to condition on")
        if max_tries < 0:
            raise ValidationError(f"max_tries {max_tries} < 0")
        self._cols = [base.column(p) for p in points]
        self.structure = base.structure
        self.elements = base.elements
        self.base = base
        self.atom_index = base._locs.index(location)
        self.max_tries = max_tries

    stream = OrderSamplerBase.stream

    def batches(self, seed: int, n: int) -> Iterator[OrderBatch]:
        """The accepted rows of each chunk of base draws, as one batch.

        The budget trips at the same draw, with the same acceptance count,
        as a loop over single rows: rows after the n-th acceptance are not
        tried, and a chunk that would pass max_tries yields its accepted
        rows up to the limit before raising."""
        tried = accepted = 0
        for rng in _chunk_rngs(seed):
            if n <= 0:
                return
            values, tags = self.base._draw_tagged(rng, CHUNK)
            rows = np.flatnonzero((tags[:, self._cols] == self.atom_index).all(axis=1))
            used = CHUNK
            if len(rows) >= n:
                rows = rows[:n]
                used = int(rows[-1]) + 1
            left = self.max_tries - tried
            if used > left:
                rows = rows[rows < left]
            if len(rows):
                kept = values[rows]
                yield OrderBatch(self.base._keys(kept, tags[rows]), kept, kept)
            accepted += len(rows)
            if used > left:
                rate = accepted / (self.max_tries + 1)
                raise ResourceLimitError(
                    f"rejection sampler exceeded {self.max_tries} tries "
                    f"(observed acceptance rate {rate:.3g})"
                )
            tried += used
            n -= len(rows)


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
        self._block = np.array([0 if a in p else 1 for a in self.elements])

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        z = rng.random((m, len(self.elements)))
        block = np.broadcast_to(self._block, z.shape)
        return OrderBatch((z, block), z, z)


class BipartiteMinSampler(OrderSamplerBase):
    """Orders the S0 sort by min of i.i.d. uniforms on the two neighbors."""

    def __init__(self, S: FinStructure):
        self.structure = S
        # the view validates S; its carrier is the S0 sort
        self._view, self.elements = bipartite_m_view(S)
        self._s1 = S.elements_of_sort("S1")
        # the view's class check gives each S0 element exactly 2 neighbors
        out, _ = S.bits["R"]
        self._nbrs = {a: tuple(_members(out[a])) for a in self.elements}
        # (2, k0): latent columns of each S0 element's two neighbors
        self._nbr_cols = np.array([[self._s1.index(u) for u in self._nbrs[a]]
                                   for a in self.elements]).T

    @property
    def latent_keys(self) -> tuple[int, ...]:
        return self._s1

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        # per sample: the S1 field row, then the tie row, as one draw
        k1 = len(self._s1)
        z = rng.random((m, k1 + len(self.elements)))
        field_vals, ties = z[:, :k1], z[:, k1:]
        xi = np.minimum(field_vals[:, self._nbr_cols[0]], field_vals[:, self._nbr_cols[1]])
        return OrderBatch((ties, xi), field_vals, xi, ties)


class InvolutionOrderSampler(OrderSamplerBase):
    """Fair bit per M element picks it or its partner; compare in the
    ambient order.  Images never collide, so the order is always total."""

    def __init__(self, S: FinStructure):
        # the view validates S; its carrier lists M in the ambient order
        self._view, self.elements = involution_m_view(S)
        self.structure = S
        self._rank = _places(S)
        partner = dict(S.table("f"))
        # (2, k): ambient rank of each element's image for bit 0 and bit 1
        self._image_rank = np.array(
            [[self._rank[a] for a in self.elements],
             [self._rank[partner[a]] for a in self.elements]]
        )

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        k = len(self.elements)
        bits = rng.integers(0, 2, size=(m, k))
        ranks = self._image_rank[bits, np.arange(k)]
        return OrderBatch((ranks,), bits, bits)


class DualFunctionalSampler(OrderSamplerBase):
    """Fair bits on the bitmask basis of F2^d, extended xor-linearly."""

    def __init__(self, S: FinStructure):
        d = (S.size - 1).bit_length()
        if S.size != 1 << d or ("add", 3) not in S.signature.relations:
            raise ValidationError("expected an F2 vector-space structure")
        self.structure = S
        self.dim = d
        self.elements = tuple(S.elements)
        # (d, 2^d): bit i of each element
        self._bits = (np.array(self.elements) >> np.arange(d)[:, None]) & 1

    stream = OrderSamplerBase.stream

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        """latent: the functional's d basis bits; eta: its value, the
        parity of (element & mask), on every element; no order."""
        bits = rng.integers(0, 2, size=(m, self.dim))
        return OrderBatch(None, bits, (bits @ self._bits) & 1)

    def field_matrix(self, seed: int, n: int) -> np.ndarray:
        """(n, 2^d) uint8 matrix of field values: the batches, stacked."""
        if n <= 0:
            raise ValidationError("n must be positive")
        return np.vstack([b.eta.astype(np.uint8) for b in self.batches(seed, n)])

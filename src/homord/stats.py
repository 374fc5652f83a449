"""Monte Carlo estimation and hypothesis tests for order samplers.

The tests turn distributional claims into falsifiable checks at fixed n:

  exchangeability   -- two same-type tuples must show the same order-pattern
                       distribution (two-sample chi-square, Bonferroni).
  independence      -- eta values at given points must look like a product
                       (correlation z-test plus a grid chi-square; tuples of
                       three or more get a joint multiway table, which is what
                       catches xor-style dependence that every pair hides).
  monotone coupling -- the order never inverts eta: a before b while
                       eta(a) > eta(b) counts as a violation, and the pass
                       bar is exactly zero violations.
  shift ergodicity  -- across-sample variance of block means against the
                       i.i.d. prediction sigma^2/B; mixtures inflate it.

Alpha defaults to 0.001 with Bonferroni correction inside a suite, so a
failing verdict means a real defect at these sample sizes, not noise.
BiasedEdgeOrderSampler and BrokenCouplingSampler are deliberately defective
samplers used to prove the harness has power against its target failure
modes; their effect sizes have closed forms, derived in the tests.

The three p-value helpers call scipy.special's `ndtr` and `chdtrc`, the two
functions scipy.stats' `norm.sf`, `chi2.sf` and `chi2_contingency` end in, so
every p-value equals scipy.stats' bit for bit without importing scipy.stats
(1.0-1.3 s, and a 99 MB process against numpy's 27 MB, on a 2-vCPU guest).
scipy.special (0.3 s, 26 MB) is imported inside the helpers, so `import
homord` and every suite but exchangeability and independence skip it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .samplers import CHUNK, OrderBatch, OrderSamplerBase, _chunk_rngs, derive_seed
from .structures import FinStructure, _members


@dataclass(frozen=True)
class Estimate:
    value: float
    stderr: float
    n: int
    ci99: tuple[float, float]

    @staticmethod
    def frequency(count: int, n: int) -> "Estimate":
        p = count / n
        se = math.sqrt(p * (1 - p) / n)
        lo = max(0.0, p - 2.576 * se)
        hi = min(1.0, p + 2.576 * se)
        return Estimate(p, se, n, (lo, hi))


@dataclass(frozen=True)
class TestVerdict:
    """comparison 'ge' means pass iff statistic >= threshold; 'le' the
    reverse.  details carries the per-pair numbers behind the headline."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    seed: int
    n: int
    comparison: str
    details: dict = field(default_factory=dict, compare=False)


# --- batch readers: every reducer reads one OrderBatch (one chunk) at a time.
# A suite that compares a few points reads `b.ranks(cols)`, which sorts only
# those columns; only the all-pairs monotone check reads the full `b.order`.


def _check_n(n: int) -> None:
    if n <= 0:
        raise ValidationError("n must be positive")


def _check_alpha(alpha: float) -> None:
    # written so that nan fails too
    if not 0 < alpha < 1:
        raise ValidationError(f"alpha must lie strictly between 0 and 1, got {alpha}")


def _eta(b: OrderBatch) -> np.ndarray:
    if b.eta is None:
        raise ValidationError("sampler does not expose eta")
    return b.eta


def _eta_columns(sampler, points, seed: int, n: int) -> dict[int, np.ndarray]:
    """Eta at each point over the first n samples, one float column each."""
    cols = {p: sampler.column(p) for p in points}
    values = {p: np.empty(n) for p in points}
    done = 0
    for b in sampler.batches(seed, n):
        eta = _eta(b)
        for p, c in cols.items():
            values[p][done:done + len(b)] = eta[:, c]
        done += len(b)
    return values


def estimate_order_event(
    sampler,
    points: tuple[int, ...],
    target_order: tuple[int, ...],
    n: int,
    seed: int,
) -> Estimate:
    """Frequency of the points appearing in exactly target_order.

    Fewer than two points are refused: their order holds in every sample."""
    _check_n(n)
    if len(points) < 2:
        raise ValidationError(f"an order event needs at least two points, got {len(points)}")
    if len(set(points)) != len(points):
        raise ValidationError("points repeat")
    if sorted(target_order) != sorted(points):
        raise ValidationError("target_order is not a permutation of points")
    cols = [sampler.column(p) for p in target_order]
    count = 0
    for b in sampler.batches(seed, n):
        pos = b.ranks(cols)
        count += int((pos[:, :-1] < pos[:, 1:]).all(axis=1).sum())
    return Estimate.frequency(count, n)


# --- exchangeability ----------------------------------------------------------


def _pattern_counts(sampler, points: tuple[int, ...], seed: int, n: int) -> dict:
    """How often each order pattern of the points occurs in n samples.  A
    pattern lists the indices of `points` in order of appearance, e.g.
    (1, 0) when the second listed point comes first."""
    cols = [sampler.column(p) for p in points]
    k = len(cols)
    if k > 15:
        raise ValidationError(f"{k} points: order patterns are coded for at most 15")
    # a pattern's code reads it as base-k digits, most significant first, so
    # codes sort as the patterns do and fit in int64 while k**k does
    place = k ** np.arange(k - 1, -1, -1)
    counts: dict[tuple[int, ...], int] = {}
    for b in sampler.batches(seed, n):
        pats = np.argsort(b.ranks(cols), axis=1)
        _, first, hits = np.unique(pats @ place, return_index=True, return_counts=True)
        for pat, hit in zip(map(tuple, pats[first].tolist()), hits.tolist()):
            counts[pat] = counts.get(pat, 0) + hit
    return counts


def _two_sample_pvalue(ca: dict, cb: dict) -> float:
    """scipy.stats.chi2_contingency(table).pvalue for the 2 x m table of the
    two pattern counts, computed with its operations in its order."""
    from scipy import special

    pats = sorted(set(ca) | set(cb))
    if len(pats) <= 1:
        return 1.0
    observed = np.array([[ca.get(p, 0) for p in pats], [cb.get(p, 0) for p in pats]], dtype=float)
    expected = (observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True)
                / observed.sum())
    dof = len(pats) - 1
    if dof == 1:
        # Yates' continuity correction, never larger than the difference
        diff = expected - observed
        observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((observed - expected) ** 2 / expected).ravel().sum()
    return float(special.chdtrc(dof, stat))


def test_exchangeability(
    sampler,
    tuple_pairs: list[tuple[tuple[int, ...], tuple[int, ...]]],
    seed: int,
    n: int,
    alpha: float = 0.001,
    require_equal_types: bool = True,
) -> TestVerdict:
    """Same-type tuples must induce the same order-pattern law.

    Each pair draws two independent streams (derived seeds) and compares the
    empirical pattern distributions.  Tuples whose types differ are a usage
    error unless require_equal_types=False, the harness-self-test escape
    hatch for demonstrating detection of a real asymmetry."""
    if not tuple_pairs:
        raise ValidationError("no tuple pairs")
    _check_n(n)
    _check_alpha(alpha)
    pvals = []
    details = {}
    for idx, (ta, tb) in enumerate(tuple_pairs):
        if len(ta) != len(tb):
            raise ValidationError(f"pair {idx}: tuple lengths differ")
        if len(ta) < 2:
            raise ValidationError(f"pair {idx}: tuples too short")
        ca, cb = sampler.pattern_type(ta), sampler.pattern_type(tb)
        if require_equal_types and ca != cb:
            raise ValidationError(
                f"pair {idx}: tuples have different types; "
                "exchangeability only binds equal types"
            )
        counts_a = _pattern_counts(sampler, ta, derive_seed(seed, idx, 0), n)
        counts_b = _pattern_counts(sampler, tb, derive_seed(seed, idx, 1), n)
        p = _two_sample_pvalue(counts_a, counts_b)
        pvals.append(p)
        details[f"pair{idx}_pvalue"] = p
        details[f"pair{idx}_same_type"] = bool(ca == cb)
    bar = alpha / len(tuple_pairs)
    worst = min(pvals)
    return TestVerdict(
        name="exchangeability",
        statistic=worst,
        threshold=bar,
        passed=worst >= bar,
        seed=seed,
        n=n,
        comparison="ge",
        details=details,
    )


# --- independence -------------------------------------------------------------


def _bin_column(col: np.ndarray) -> np.ndarray:
    """Integer bin labels: distinct values if few, else quartiles."""
    uniq, labels = np.unique(col, return_inverse=True)
    if len(uniq) <= 4:
        return labels
    edges = np.quantile(col, [0.25, 0.5, 0.75])
    return np.searchsorted(np.unique(edges), col, side="right")


def _joint_chi2_pvalue(cols: list[np.ndarray]) -> float:
    """Chi-square of the joint table against the product of marginals.

    dof = prod(r_i) - 1 - sum(r_i - 1), the multiway mutual-independence
    count; for two columns this is the usual (r-1)(c-1)."""
    from scipy import special

    n = len(cols[0])
    binned = [_bin_column(c) for c in cols]
    sizes = [int(b.max()) + 1 for b in binned]
    marg = [np.bincount(b, minlength=s) / n for b, s in zip(binned, sizes)]
    flat = np.zeros(int(np.prod(sizes)))
    idx = np.ravel_multi_index([b for b in binned], sizes)
    np.add.at(flat, idx, 1.0)
    expected = functools.reduce(np.multiply.outer, marg, np.float64(n)).ravel()
    dof = int(np.prod(sizes)) - 1 - sum(s - 1 for s in sizes)
    if dof <= 0:
        return 1.0
    mask = expected > 0
    stat = float(((flat[mask] - expected[mask]) ** 2 / expected[mask]).sum())
    return float(special.chdtrc(dof, stat))


def _corr_pvalue(x: np.ndarray, y: np.ndarray) -> float:
    from scipy import special

    n = len(x)
    if np.std(x) == 0 or np.std(y) == 0:
        return 1.0
    r = float(np.corrcoef(x, y)[0, 1])
    z = abs(r) * math.sqrt(n)
    return float(2 * special.ndtr(-z))


def test_independence(
    sampler,
    point_tuples: list[tuple[int, ...]],
    seed: int,
    n: int,
    alpha: float = 0.001,
) -> TestVerdict:
    """Are eta values at these points jointly independent?

    Pairs get a correlation z-test plus a grid chi-square; longer tuples get
    the joint multiway chi-square, which detects parity-style dependence
    invisible to every pairwise test."""
    if not point_tuples:
        raise ValidationError("no point tuples")
    _check_n(n)
    _check_alpha(alpha)
    values = _eta_columns(sampler, sorted({p for tup in point_tuples for p in tup}), seed, n)
    pvals = []
    details = {}
    for idx, tup in enumerate(point_tuples):
        if len(tup) < 2:
            raise ValidationError(f"tuple {idx} too short")
        if len(set(tup)) != len(tup):
            raise ValidationError(f"repeated point in {tup}")
        cols = [values[p] for p in tup]
        p_grid = _joint_chi2_pvalue(cols)
        pvals.append(p_grid)
        details[f"tuple{idx}_grid_pvalue"] = p_grid
        if len(tup) == 2:
            p_corr = _corr_pvalue(cols[0], cols[1])
            pvals.append(p_corr)
            details[f"tuple{idx}_corr_pvalue"] = p_corr
    bar = alpha / len(pvals)
    worst = min(pvals)
    return TestVerdict(
        name="independence",
        statistic=worst,
        threshold=bar,
        passed=worst >= bar,
        seed=seed,
        n=n,
        comparison="ge",
        details=details,
    )


# --- monotone coupling ---------------------------------------------------------


def test_monotone_coupling(
    sampler,
    seed: int,
    n: int,
    pairs: list[tuple[int, int]] | None = None,
) -> TestVerdict:
    """Count samples where some pair has a before b but eta(a) > eta(b).

    With no explicit pairs all pairs are covered: a violating pair exists
    exactly when eta ever decreases along the order, so scanning adjacent
    order positions is a complete check."""
    _check_n(n)
    k = len(sampler.elements)
    if pairs is not None and not pairs:
        raise ValidationError("no pairs")
    for idx, pair in enumerate(pairs or ()):
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValidationError(f"pair {idx} is not two distinct points")
    cols = [[sampler.column(p) for p in pair] for pair in pairs or ()]
    a, b = np.array(cols, dtype=int).reshape(-1, 2).T
    # the distinct columns the pairs read, and each pair's two indices into them
    used, ends = np.unique(cols, return_inverse=True)
    ia, ib = ends.reshape(-1, 2).T
    checked = k * (k - 1) // 2 if pairs is None else len(pairs)
    violations = 0
    for batch in sampler.batches(seed, n):
        eta = _eta(batch)
        if pairs is None:
            along = np.take_along_axis(eta, batch.order, axis=1)
            bad = (along[:, :-1] > along[:, 1:]).any(axis=1)
        else:
            # a pair violates when the earlier of its two points has more eta
            pos = batch.ranks(used)
            bad = np.where(pos[:, ia] < pos[:, ib], eta[:, a] > eta[:, b], eta[:, b] > eta[:, a])
            bad = bad.any(axis=1)
        violations += int(bad.sum())
    return TestVerdict(
        name="monotone_coupling",
        statistic=float(violations),
        threshold=0.0,
        passed=violations == 0,
        seed=seed,
        n=n,
        comparison="le",
        details={"violating_samples": violations, "pairs_checked": checked},
    )


# --- shift ergodicity -----------------------------------------------------------


def test_shift_ergodicity(
    source,
    block_size: int,
    seed: int,
    n: int,
) -> TestVerdict:
    """Across-sample variance of block means vs the i.i.d. value sigma^2/B.

    source(seed, n) must return an (n, L) array with L a multiple of
    block_size.  A mixture of components with different means inflates the
    observed variance by the between-component variance, which does not
    shrink with B, so mixtures fail decisively.

    The test overwrites the float array its source returns: once the block
    means are taken, the sample variance is reduced in place, so no second
    (n, L) array is made.  A source array that is read-only, or not float64,
    is copied first."""
    if n < 2:
        raise ValidationError("need at least 2 sequences")
    if block_size <= 0:
        raise ValidationError("degenerate block sizes")
    arr = np.asarray(source(seed, n), dtype=float)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValidationError("source must return an (n, L) array")
    length = arr.shape[1]
    if length % block_size or length // block_size < 1:
        raise ValidationError("degenerate block sizes")
    if not arr.flags.writeable:
        arr = arr.copy()
    blocks = arr.reshape(n, length // block_size, block_size).mean(axis=2)
    observed = float(blocks.var(ddof=1))
    # arr.var(ddof=1) with ndarray.var's own reductions, written into arr
    np.subtract(arr, arr.sum(keepdims=True) / arr.size, out=arr)
    np.multiply(arr, arr, out=arr)
    predicted = float(arr.sum() / (arr.size - 1)) / block_size
    m = blocks.size
    se_null = predicted * math.sqrt(2 / (m - 1))
    z = abs(observed - predicted) / se_null if se_null > 0 else math.inf
    return TestVerdict(
        name="shift_ergodicity",
        statistic=z,
        threshold=3.0,
        passed=z <= 3.0,
        seed=seed,
        n=n,
        comparison="le",
        details={
            "observed_block_var": observed,
            "iid_predicted_var": predicted,
            "blocks": m,
        },
    )


# --- sequence sources ------------------------------------------------------------


def _sequence_source(length: int, fill):
    """source(seed, n): an (n, length) float array whose c-th chunk of rows
    fill(rng, rows) writes in place from chunk c's generator.  Like a
    sampler's _draw, fill draws the first len(rows) rows of a full chunk."""
    if length < 1:
        raise ValidationError(f"sequence length {length} < 1")

    def source(seed: int, n: int) -> np.ndarray:
        out = np.empty((n, length))
        for start, rng in zip(range(0, n, CHUNK), _chunk_rngs(seed)):
            fill(rng, out[start:start + CHUNK])
        return out

    return source


def iid_uniform_sequences(length: int):
    return _sequence_source(length, lambda rng, rows: rng.random(out=rows))


def iid_bernoulli_sequences(p: float, length: int):
    def fill(rng: np.random.Generator, rows: np.ndarray) -> None:
        rng.random(out=rows)
        np.less(rows, p, out=rows)

    return _sequence_source(length, fill)


def mixture_bernoulli_sequences(p_low: float, p_high: float, length: int):
    """Each sequence flips a fair coin for its component, then is i.i.d."""

    def fill(rng: np.random.Generator, rows: np.ndarray) -> None:
        # the coins are drawn for a whole chunk, since the values follow them
        comp = rng.integers(0, 2, size=CHUNK)[:len(rows)]
        rng.random(out=rows)
        np.less(rows, np.where(comp == 0, p_low, p_high)[:, None], out=rows)

    return _sequence_source(length, fill)


def constant_mixture_sequences(length: int):
    """Half the sequences all-zero, half all-one; maximally non-ergodic."""

    def fill(rng: np.random.Generator, rows: np.ndarray) -> None:
        rows[:] = rng.integers(0, 2, size=len(rows))[:, None]

    return _sequence_source(length, fill)


# --- eta covariance ---------------------------------------------------------------


def estimate_eta_covariance(
    sampler, pair: tuple[int, int], seed: int, n: int
) -> Estimate:
    """Sample covariance of eta at two points, with a moment-based stderr."""
    if n < 2:
        raise ValidationError("need n >= 2")
    a, b = pair
    values = _eta_columns(sampler, (a, b), seed, n)
    xs, ys = values[a], values[b]
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    cov = float((dx * dy).sum() / (n - 1))
    m22 = float((dx * dx * dy * dy).mean())
    se = math.sqrt(max(m22 - cov * cov, 0.0) / n)
    return Estimate(cov, se, n, (cov - 2.576 * se, cov + 2.576 * se))


# --- deliberately defective samplers (harness power self-tests) -------------------


class BiasedEdgeOrderSampler(OrderSamplerBase):
    """Scores z(a) + strength * sum over neighbors b of sign(a - b).

    Order-pattern laws then depend on adjacency, so exchangeability across
    an edge/non-edge type mismatch must fail.  The 2-point event has a
    closed form via the triangular law of a difference of uniforms:
    P(score(a) < score(b)) = F(delta) with delta the offset gap."""

    def __init__(self, S: FinStructure, strength: float):
        if not (0 <= strength <= 0.5):
            raise ValidationError("strength must sit in [0, 0.5]")
        self.structure = S
        self.strength = strength
        self.elements = tuple(S.elements)
        if ("E", 2) not in S.signature.relations:
            raise ValidationError("expected a binary relation E")
        out, _ = S.bits["E"]
        self._offset = np.array([
            strength * sum((1 if a > b else -1) for b in _members(out[a]))
            for a in self.elements
        ])

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        z = rng.random((m, len(self.elements)))
        score = z + self._offset
        return OrderBatch((score,), z, score)


class BrokenCouplingSampler(OrderSamplerBase):
    """Order drawn from one latent batch, eta reported from another.

    Exists to prove test_monotone_coupling detects decoupling."""

    def __init__(self, S: FinStructure):
        self.structure = S
        self.elements = tuple(S.elements)

    def _draw(self, rng: np.random.Generator, m: int) -> OrderBatch:
        k = len(self.elements)
        # the eta draw follows the order draw, so that one is a whole chunk
        z_order = rng.random((CHUNK, k))[:m]
        z_eta = rng.random((m, k))
        return OrderBatch((z_order,), z_order, z_eta)

"""Estimators, hypothesis-test verdicts, and the harness power self-tests.

Every detector is exercised in both directions: it must stay quiet on a
sampler that honestly has the property, and it must fire on a planted
defect whose effect size is known in closed form.
"""

import ast
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from homord.errors import ValidationError
from homord.samplers import (
    CHUNK,
    BipartiteMinSampler,
    DualFunctionalSampler,
    OrderBatch,
    OrderSamplerBase,
    UniformOrderSampler,
)
# the verdict functions carry a test_ prefix in the library API, which
# pytest would otherwise try to collect here
from homord.stats import (
    _corr_pvalue,
    _joint_chi2_pvalue,
    _pattern_counts,
    _two_sample_pvalue,
    BiasedEdgeOrderSampler,
    BrokenCouplingSampler,
    Estimate,
    constant_mixture_sequences,
    estimate_eta_covariance,
    estimate_order_event,
    iid_bernoulli_sequences,
    iid_uniform_sequences,
    mixture_bernoulli_sequences,
    test_exchangeability as exchangeability_verdict,
    test_independence as independence_verdict,
    test_monotone_coupling as monotone_verdict,
    test_shift_ergodicity as ergodicity_verdict,
)
from homord.structures import Signature, make_structure

from helpers import order_pattern

GSIG = Signature((("E", 2),))
K3 = make_structure(GSIG, 3, {"E": {(a, b) for a in range(3) for b in range(3) if a != b}})
P3 = make_structure(GSIG, 3, {"E": {(0, 1), (1, 0), (1, 2), (2, 1)}})
EMPTY16 = make_structure(GSIG, 16, {"E": set()})


def tri_cdf(d):
    """CDF of U - V (difference of independent uniforms) at d."""
    if d <= -1:
        return Fraction(0)
    if d <= 0:
        return (1 + d) ** 2 / Fraction(2)
    if d <= 1:
        return 1 - (1 - d) ** 2 / Fraction(2)
    return Fraction(1)


class NoEtaSampler(OrderSamplerBase):
    def __init__(self):
        self.structure = K3
        self.elements = (0, 1, 2)

    def _draw(self, rng, m):
        return OrderBatch(keys=(np.tile([0, 1, 2], (m, 1)),), latent=np.empty((m, 0)), eta=None)


class TestEstimate:
    def test_frequency(self):
        e = Estimate.frequency(25, 100)
        assert e.value == 0.25
        assert abs(e.stderr - math.sqrt(0.25 * 0.75 / 100)) < 1e-15
        lo, hi = e.ci99
        assert 0.0 <= lo < 0.25 < hi <= 1.0

    def test_ci_clamped(self):
        assert Estimate.frequency(0, 10).ci99[0] == 0.0
        assert Estimate.frequency(10, 10).ci99[1] == 1.0


class TestOrderPattern:
    def test_examples(self):
        assert order_pattern((5, 3, 9), (3, 9)) == (0, 1)
        assert order_pattern((5, 3, 9), (9, 3)) == (1, 0)
        assert order_pattern((2, 0, 1), (0, 1, 2)) == (2, 0, 1)


class TestEstimateOrderEvent:
    def test_pq_block_event_is_certain(self, pq22):
        from homord.samplers import PQOrderSampler

        p = sorted(t[0] for t in pq22.table("P"))
        q = sorted(t[0] for t in pq22.table("Q"))
        e = estimate_order_event(
            PQOrderSampler(pq22), (p[0], q[0]), (p[0], q[0]), n=500, seed=3
        )
        assert e.value == 1.0 and e.stderr == 0.0
        e2 = estimate_order_event(
            PQOrderSampler(pq22), (p[0], q[0]), (q[0], p[0]), n=500, seed=3
        )
        assert e2.value == 0.0

    def test_validations(self):
        s = UniformOrderSampler(K3)
        with pytest.raises(ValidationError):
            estimate_order_event(s, (0, 1), (0, 1), n=0, seed=1)
        with pytest.raises(ValidationError):
            estimate_order_event(s, (0, 0), (0, 0), n=10, seed=1)
        with pytest.raises(ValidationError):
            estimate_order_event(s, (0, 1), (0, 2), n=10, seed=1)

    @pytest.mark.parametrize("points", [(), (1,)])
    def test_fewer_than_two_points_rejected(self, points):
        # the order of one point or none holds in every sample
        with pytest.raises(ValidationError, match="at least two points"):
            estimate_order_event(UniformOrderSampler(K3), points, points, n=10, seed=1)


class TestBiasedSamplerOracle:
    """Planted bias with a closed-form two-point law."""

    S = Fraction(1, 5)

    def analytic(self, delta):
        return tri_cdf(delta)

    def test_offsets(self):
        b = BiasedEdgeOrderSampler(P3, float(self.S))
        assert b._offset[0] == -float(self.S)
        assert b._offset[1] == 0.0
        assert b._offset[2] == float(self.S)

    def test_closed_forms(self):
        s = self.S
        assert self.analytic(s) == Fraction(1, 2) + s - s ** 2 / 2
        assert self.analytic(2 * s) == Fraction(1, 2) + 2 * s - 2 * s ** 2
        assert self.analytic(s) == Fraction(17, 25)
        assert self.analytic(2 * s) == Fraction(41, 50)

    def test_empirical_edge_pair(self):
        n = 20000
        b = BiasedEdgeOrderSampler(P3, float(self.S))
        e = estimate_order_event(b, (0, 1), (0, 1), n=n, seed=5)
        want = float(self.analytic(self.S))
        assert abs(e.value - want) < 4 * math.sqrt(want * (1 - want) / n)

    def test_empirical_far_pair(self):
        n = 20000
        b = BiasedEdgeOrderSampler(P3, float(self.S))
        e = estimate_order_event(b, (0, 2), (0, 2), n=n, seed=7)
        want = float(self.analytic(2 * self.S))
        assert abs(e.value - want) < 4 * math.sqrt(want * (1 - want) / n)

    def test_strength_bounds(self):
        with pytest.raises(ValidationError):
            BiasedEdgeOrderSampler(P3, 0.7)


class TestExchangeability:
    def test_uniform_passes(self):
        v = exchangeability_verdict(
            UniformOrderSampler(K3), [((0, 1), (1, 2)), ((0, 2), (2, 1))], seed=11, n=4000
        )
        assert v.passed
        assert v.details["pair0_same_type"]

    def test_type_mismatch_raises(self):
        b = BiasedEdgeOrderSampler(P3, 0.2)
        with pytest.raises(ValidationError, match="different types"):
            exchangeability_verdict(b, [((0, 1), (0, 2))], seed=13, n=100)

    def test_escape_hatch_detects_bias(self):
        # harness power: across the type mismatch the laws really differ
        b = BiasedEdgeOrderSampler(P3, 0.2)
        v = exchangeability_verdict(
            b, [((0, 1), (0, 2))], seed=13, n=4000, require_equal_types=False
        )
        assert not v.passed
        assert v.statistic < 1e-10

    def test_no_pairs_rejected(self):
        with pytest.raises(ValidationError):
            exchangeability_verdict(UniformOrderSampler(K3), [], seed=1, n=10)

    @pytest.mark.parametrize("pair", [((0,), (1,)), ((), ())])
    def test_short_tuples_rejected(self, pair):
        # one point, or none, has a single order pattern: p would always be 1
        with pytest.raises(ValidationError, match="too short"):
            exchangeability_verdict(UniformOrderSampler(K3), [pair], seed=1, n=10)

    @pytest.mark.parametrize("points", [(3,), (9, 2), (4, 0, 7), tuple(range(15, 0, -1))])
    def test_pattern_counts_match_rows(self, points):
        # counted per chunk by integer code, across the chunk edge, against
        # order_pattern on every row of the stream; 15 points is the widest code
        sampler = UniformOrderSampler(EMPTY16)
        want = Counter(order_pattern(s.order, points) for s in sampler.stream(5, 4100))
        assert _pattern_counts(sampler, points, 5, 4100) == dict(want)

    def test_sixteen_points_rejected(self):
        with pytest.raises(ValidationError, match="at most 15"):
            _pattern_counts(UniformOrderSampler(EMPTY16), tuple(range(16)), 1, 10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_rejected(self, n):
        # zero samples would otherwise pass vacuously
        with pytest.raises(ValidationError, match="n must be positive"):
            exchangeability_verdict(UniformOrderSampler(K3), [((0, 1), (1, 2))], seed=1, n=n)

    @pytest.mark.parametrize("alpha", [0, 1, 2, -1, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        # alpha 2 would fail every run and alpha -1 pass every run; the CLI
        # cases in test_cli check the independence suite
        with pytest.raises(ValidationError, match="alpha"):
            exchangeability_verdict(UniformOrderSampler(K3), [((0, 1), (1, 2))], seed=1, n=10,
                                    alpha=alpha)

    def test_verdict_reproducible(self):
        args = (UniformOrderSampler(K3), [((0, 1), (1, 2))])
        a = exchangeability_verdict(*args, seed=17, n=2000)
        b = exchangeability_verdict(*args, seed=17, n=2000)
        assert a == b and a.statistic == b.statistic

    def test_false_positive_calibration(self):
        # at alpha 0.001 per verdict, 20 honest runs should essentially
        # never fail; allow one for luck
        fails = 0
        for seed in range(20):
            v = exchangeability_verdict(
                UniformOrderSampler(K3), [((0, 1), (1, 2))], seed=seed, n=2500
            )
            fails += 0 if v.passed else 1
        assert fails <= 1


class TestIndependence:
    def test_uniform_passes(self):
        v = independence_verdict(
            UniformOrderSampler(K3), [(0, 1), (1, 2), (0, 1, 2)], seed=19, n=4000
        )
        assert v.passed

    def test_shared_neighbor_pair_fails(self, bip5):
        samp = BipartiteMinSampler(bip5)
        share = None
        for a in samp.elements:
            for b in samp.elements:
                if a < b and len(set(samp._nbrs[a]) & set(samp._nbrs[b])) == 1:
                    share = (a, b)
                    break
            if share:
                break
        assert share is not None
        v = independence_verdict(samp, [share], seed=23, n=4000)
        assert not v.passed

    def test_xor_triple_fails_pairs_pass(self, f2d3):
        samp = DualFunctionalSampler(f2d3)
        pairs = independence_verdict(samp, [(1, 2), (1, 3), (2, 3)], seed=29, n=4000)
        assert pairs.passed
        triple = independence_verdict(samp, [(1, 2, 3)], seed=29, n=4000)
        assert not triple.passed
        assert triple.details["tuple0_grid_pvalue"] < 1e-10

    def test_missing_eta_raises(self):
        with pytest.raises(ValidationError, match="eta"):
            independence_verdict(NoEtaSampler(), [(0, 1)], seed=1, n=50)

    def test_short_tuple_rejected(self):
        with pytest.raises(ValidationError):
            independence_verdict(UniformOrderSampler(K3), [(0,)], seed=1, n=50)

    def test_repeated_point_rejected(self):
        # a point against itself is a usage error, not a dependence to report
        with pytest.raises(ValidationError, match=r"repeated point in \(1, 1\)"):
            independence_verdict(UniformOrderSampler(K3), [(0, 2), (1, 1)], seed=1, n=50)


class TestPValueOracles:
    """The p-value helpers call scipy.special, not scipy.stats; each must
    equal its scipy.stats counterpart bit for bit, or a pinned verdict moves."""

    @staticmethod
    def counts(rng, m):
        """Two pattern-count dicts over m patterns, zero counts left out as
        _pattern_counts leaves them; every third pair shares one law."""
        n = int(rng.integers(1, 5000))
        law = rng.dirichlet(np.ones(m))
        other = law if m % 3 == 0 else rng.dirichlet(np.ones(m))
        a, b = rng.multinomial(n, law), rng.multinomial(int(rng.integers(1, 5000)), other)
        return ({(j,): int(c) for j, c in enumerate(a) if c},
                {(j,): int(c) for j, c in enumerate(b) if c})

    @pytest.mark.parametrize("m", range(2, 25))
    def test_two_sample_matches_chi2_contingency(self, m):
        # m = 2 is dof 1, where chi2_contingency applies Yates' correction
        rng = np.random.default_rng(m)
        for _ in range(15):
            ca, cb = self.counts(rng, m)
            pats = sorted(set(ca) | set(cb))
            table = np.array([[ca.get(p, 0) for p in pats], [cb.get(p, 0) for p in pats]])
            want = 1.0 if len(pats) == 1 else float(sps.chi2_contingency(table).pvalue)
            assert _two_sample_pvalue(ca, cb) == want, table

    @pytest.mark.parametrize("table", [
        [[3, 4], [4, 3]],  # every Yates step capped at the difference, 0.5
        [[5, 5], [5, 5]],  # observed equals expected: no correction at all
        [[0, 9], [9, 0]],
        [[1, 0], [0, 1]],
        [[4000, 1], [3990, 11]],
    ])
    def test_two_sample_dof_one_edges(self, table):
        ca = {(0, 1): table[0][0], (1, 0): table[0][1]}
        cb = {(0, 1): table[1][0], (1, 0): table[1][1]}
        ca, cb = ({k: v for k, v in c.items() if v} for c in (ca, cb))
        assert _two_sample_pvalue(ca, cb) == float(sps.chi2_contingency(np.array(table)).pvalue)

    def test_one_column_table(self):
        # one pattern seen on both sides: dof 0, and chi2_contingency says 1.0
        assert _two_sample_pvalue({(0, 1): 5}, {(0, 1): 7}) == 1.0
        assert float(sps.chi2_contingency(np.array([[5], [7]])).pvalue) == 1.0

    def test_no_module_imports_scipy_stats(self):
        # in any spelling: import scipy.stats, from scipy.stats import x,
        # from scipy import stats
        found = []
        for path in sorted((Path(__file__).parents[1] / "src" / "homord").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [f"{node.module}.{a.name}" for a in node.names] + [node.module]
                else:
                    continue
                if any(n == "scipy.stats" or n.startswith("scipy.stats.") for n in names):
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []

    def test_joint_chi2_matches_chi2_sf(self, calls):
        rng = np.random.default_rng(7)
        for i in range(60):
            k, n = 2 + i % 3, int(rng.integers(20, 3000))
            cols = list(rng.random((k, n)) + 0.3 * rng.random(n))
            if i % 4 == 0:
                cols[0] = rng.integers(0, 3, n).astype(float)  # few distinct values
            calls.clear()
            p = _joint_chi2_pvalue(cols)
            (name, (dof, stat)), = calls
            assert name == "chdtrc" and p == float(sps.chi2.sf(stat, dof))

    def test_joint_chi2_zero_statistic(self, calls):
        # each of the four cells holds exactly its expected count
        x, y = np.array([0.0, 0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0, 1.0])
        assert _joint_chi2_pvalue([x, y]) == 1.0
        assert calls == [("chdtrc", (1, 0.0))]
        assert float(sps.chi2.sf(0.0, 1)) == 1.0

    def test_corr_matches_norm_sf(self, calls):
        rng = np.random.default_rng(11)
        for i in range(60):
            n = int(rng.integers(3, 3000))
            x = rng.random(n)
            y = rng.random(n) + (i % 5) * 0.02 * x
            calls.clear()
            p = _corr_pvalue(x, y)
            (name, (minus_z,)), = calls
            assert name == "ndtr" and p == float(2 * sps.norm.sf(-minus_z))

    def test_corr_zero_z(self, calls):
        # centred x and y are orthogonal, so r and z are exactly 0
        x, y = np.array([0.0, 1.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0, 1.0])
        assert _corr_pvalue(x, y) == 1.0
        assert calls == [("ndtr", (-0.0,))]
        assert float(2 * sps.norm.sf(0.0)) == 1.0


class TestMonotoneCoupling:
    def test_uniform_passes(self):
        v = monotone_verdict(UniformOrderSampler(K3), seed=31, n=2000)
        assert v.passed and v.statistic == 0.0

    def test_bipartite_passes(self, bip5):
        v = monotone_verdict(BipartiteMinSampler(bip5), seed=37, n=2000)
        assert v.passed

    def test_broken_sampler_fails(self):
        v = monotone_verdict(BrokenCouplingSampler(K3), seed=41, n=2000)
        assert not v.passed
        assert v.details["violating_samples"] > 1000  # most samples violate

    def test_explicit_pairs(self):
        good = monotone_verdict(
            UniformOrderSampler(K3), seed=43, n=1000, pairs=[(0, 1), (1, 2)]
        )
        assert good.passed
        bad = monotone_verdict(
            BrokenCouplingSampler(K3), seed=43, n=1000, pairs=[(0, 1)]
        )
        assert not bad.passed

    def test_missing_eta_raises(self):
        with pytest.raises(ValidationError):
            monotone_verdict(NoEtaSampler(), seed=1, n=10)

    def test_no_pairs_rejected(self):
        # an empty pair list would pass with nothing checked
        with pytest.raises(ValidationError, match="no pairs"):
            monotone_verdict(UniformOrderSampler(K3), seed=1, n=10, pairs=[])

    @pytest.mark.parametrize("pairs", [[(0, 1), (2, 2)], [(0, 1, 2)], [(1,)]])
    def test_pair_of_one_point_rejected(self, pairs):
        # a point never comes before itself, so (2, 2) could never fail
        with pytest.raises(ValidationError, match="pair [01] is not two distinct points"):
            monotone_verdict(UniformOrderSampler(K3), seed=1, n=10, pairs=pairs)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_samples_rejected(self, n):
        # zero samples would otherwise pass vacuously
        with pytest.raises(ValidationError, match="n must be positive"):
            monotone_verdict(UniformOrderSampler(K3), seed=1, n=n)


# Each suite over two batches of the uniform sampler on K3.
SORT_READERS = {
    "estimate": lambda s, n: estimate_order_event(s, (0, 2), (2, 0), n, 1),
    "exchangeability": lambda s, n: exchangeability_verdict(s, [((0, 1), (1, 2))], 1, n),
    "independence": lambda s, n: independence_verdict(s, [(0, 1)], 1, n),
    "covariance": lambda s, n: estimate_eta_covariance(s, (0, 1), 1, n),
    "monotone_pairs": lambda s, n: monotone_verdict(s, 1, n, pairs=[(0, 1), (2, 1)]),
}


class TestFullSorts:
    """Only the all-pairs monotone check sorts whole batches; every other
    suite reads eta alone or ranks the few columns it compares."""

    N = CHUNK + 100

    @pytest.fixture
    def reads(self, monkeypatch):
        count = []
        sort = OrderBatch.order.func
        monkeypatch.setattr(OrderBatch, "order", property(lambda b: count.append(1) or sort(b)))
        return count

    @pytest.mark.parametrize("suite", sorted(SORT_READERS))
    def test_suite_reads_no_full_order(self, reads, suite):
        SORT_READERS[suite](UniformOrderSampler(K3), self.N)
        assert reads == []

    def test_all_pairs_monotone_sorts_each_batch_once(self, reads):
        assert monotone_verdict(UniformOrderSampler(K3), 1, self.N).passed
        assert len(reads) == 2


class TestShiftErgodicity:
    def test_iid_uniform_passes(self):
        v = ergodicity_verdict(iid_uniform_sequences(256), 32, seed=47, n=400)
        assert v.passed

    def test_iid_bernoulli_passes(self):
        v = ergodicity_verdict(iid_bernoulli_sequences(0.3, 256), 32, seed=53, n=400)
        assert v.passed

    def test_mixture_fails_at_predicted_level(self):
        v = ergodicity_verdict(
            mixture_bernoulli_sequences(0.25, 0.75, 256), 64, seed=59, n=400
        )
        assert not v.passed
        # between-component variance 1/16 plus within-block noise 0.1875/64
        want = 0.25 ** 2 + 0.25 * 0.75 / 64
        assert abs(v.details["observed_block_var"] - want) < 0.01
        assert v.details["iid_predicted_var"] < 0.006

    def test_constant_sequences_fail_harder(self):
        z_const = ergodicity_verdict(
            constant_mixture_sequences(256), 64, seed=61, n=400
        )
        z_mix = ergodicity_verdict(
            mixture_bernoulli_sequences(0.25, 0.75, 256), 64, seed=61, n=400
        )
        assert not z_const.passed
        assert z_const.statistic > z_mix.statistic

    def test_degenerate_inputs(self):
        src = iid_uniform_sequences(256)
        with pytest.raises(ValidationError):
            ergodicity_verdict(src, 0, seed=1, n=10)
        with pytest.raises(ValidationError):
            ergodicity_verdict(src, 100, seed=1, n=10)  # 256 % 100 != 0
        with pytest.raises(ValidationError):
            ergodicity_verdict(src, 32, seed=1, n=1)

    def test_source_deterministic(self):
        src = iid_uniform_sequences(16)
        assert (src(7, 5) == src(7, 5)).all()
        assert src(7, 5).shape == (5, 16)

    def test_peak_memory_is_one_array(self):
        """The variance is reduced in the source's own array: the peak stays
        near the 8 MB (4000, 256) float array, where a second array would
        double it."""
        src = iid_bernoulli_sequences(0.5, 256)
        tracemalloc.start()
        try:
            ergodicity_verdict(src, 64, seed=5, n=4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 4000 * 256 * 8

    def test_read_only_source_is_copied(self):
        data = mixture_bernoulli_sequences(0.25, 0.75, 256)(9, 300)
        frozen = data.copy()
        frozen.flags.writeable = False
        v_frozen = ergodicity_verdict(lambda seed, n: frozen, 64, seed=9, n=300)
        v_fresh = ergodicity_verdict(lambda seed, n: data.copy(), 64, seed=9, n=300)
        assert repr(v_frozen) == repr(v_fresh)
        assert (frozen == data).all()


class TestEtaCovariance:
    def test_independent_points_near_zero(self):
        e = estimate_eta_covariance(UniformOrderSampler(K3), (0, 1), seed=67, n=8000)
        assert abs(e.value) < 4 * e.stderr + 1e-9

    def test_identical_points_give_variance(self, bip5):
        samp = BipartiteMinSampler(bip5)
        a = samp.elements[0]
        e = estimate_eta_covariance(samp, (a, a), seed=71, n=8000)
        # var of min(U, V) is 1/18
        assert abs(e.value - 1 / 18) < 6 * e.stderr

    def test_n_too_small(self):
        with pytest.raises(ValidationError):
            estimate_eta_covariance(UniformOrderSampler(K3), (0, 1), seed=1, n=1)

"""Order samplers.

The layout inside each test class is deliberate: an exact oracle (Fraction
arithmetic or a quadrature cross-check) is computed first and frozen by
assertion, and only then is the sampler's empirical frequency compared
against it, at 4 sigma of the binomial standard error.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from homord.errors import ResourceLimitError, ValidationError
from homord.samplers import (
    AtomOrderSampler,
    AtomSpec,
    BipartiteMinSampler,
    ConditionedAtomSampler,
    DualFunctionalSampler,
    FixedOrder,
    InvolutionOrderSampler,
    PQOrderSampler,
    UniformOrderSampler,
    derive_seed,
)
from homord.structures import Signature, make_structure

from helpers import order_from_latents

GSIG = Signature((("E", 2),))
K3 = make_structure(GSIG, 3, {"E": {(a, b) for a in range(3) for b in range(3) if a != b}})

ASC = FixedOrder("asc", (0, 1, 2))
HALF_ATOM = AtomSpec(atoms=((0.5, 0.5),), tie_break={0.5: ASC})


def four_sigma(p, n):
    return 4.0 * math.sqrt(p * (1.0 - p) / n)


def freq_before(sampler, seed, n, a, b):
    hit = 0
    for s in sampler.stream(seed, n):
        if s.order.index(a) < s.order.index(b):
            hit += 1
    return hit / n


class TestPlumbing:
    def test_rerun_identical(self):
        s = UniformOrderSampler(K3)
        assert list(s.stream(7, 20)) == list(s.stream(7, 20))

    def test_seeds_differ(self):
        s = UniformOrderSampler(K3)
        assert list(s.stream(7, 5)) != list(s.stream(8, 5))

    def test_prefix_stable(self):
        s = UniformOrderSampler(K3)
        long = list(s.stream(3, 40))
        assert list(s.stream(3, 5)) == long[:5]

    def test_prefix_stable_across_chunk_boundary(self):
        # chunk size is 4096; sample 4095 must not depend on n
        s = UniformOrderSampler(K3)
        a = list(s.stream(1, 4100))
        b = list(s.stream(1, 4096 - 1))
        assert a[: len(b)] == b

    def test_atom_prefix_stable(self):
        # lazy continuous draws inside one chunk must not shift with n
        s = AtomOrderSampler(K3, HALF_ATOM)
        long = list(s.stream(5, 30))
        assert list(s.stream(5, 4)) == long[:4]

    def test_derive_seed(self):
        assert derive_seed(9, 1, 2) == derive_seed(9, 1, 2)
        assert derive_seed(9, 1, 2) != derive_seed(9, 2, 1)
        assert derive_seed(9, 0) >= 0

    def test_derive_seed_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed -1 < 0"):
            derive_seed(-1)

    def test_negative_seed_rejected(self):
        s = UniformOrderSampler(K3)
        with pytest.raises(ValidationError):
            next(s.stream(-1, 1))

    def test_empty_structure_rejected(self):
        empty = make_structure(GSIG, 0, {})
        with pytest.raises(ValidationError):
            UniformOrderSampler(empty)


class TestUniform:
    def test_two_point_half(self):
        n = 20000
        got = freq_before(UniformOrderSampler(K3), 11, n, 0, 1)
        assert abs(got - 0.5) < four_sigma(0.5, n)

    def test_order_matches_latents(self):
        for s in UniformOrderSampler(K3).stream(2, 50):
            assert s.order == order_from_latents(s.latent)
            assert s.eta == s.latent

    def test_all_six_orders_occur(self):
        seen = {s.order for s in UniformOrderSampler(K3).stream(4, 200)}
        assert len(seen) == 6


class TestFixedOrder:
    def test_position(self):
        assert ASC.position(2) == 2

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError):
            FixedOrder("bad", (0, 1, 1))


class TestAtomSpecValidation:
    def test_good(self):
        assert sum(m for _, m in HALF_ATOM.atoms) == 0.5

    def test_bad_specs(self):
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, 0.5), (0.5, 0.2)), tie_break={0.5: ASC})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, 0.0),), tie_break={0.5: ASC})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, 0.7), (0.6, 0.7)), tie_break={0.5: ASC, 0.6: ASC})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((1.5, 0.5),), tie_break={1.5: ASC})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, 0.5),), tie_break={})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, 0.5),), tie_break={0.5: ASC, 0.25: ASC})

    @pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, mass):
        # a NaN mass compares false both ways, so neither check may be a
        # plain "mass <= 0" or "total > 1"
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.5, mass),), tie_break={0.5: ASC})
        with pytest.raises(ValidationError):
            AtomSpec(atoms=((0.25, 0.5), (0.5, mass)), tie_break={0.25: ASC, 0.5: ASC})

    def test_tie_order_must_cover_elements(self):
        short = AtomSpec(atoms=((0.5, 0.5),), tie_break={0.5: FixedOrder("s", (0, 1))})
        with pytest.raises(ValidationError):
            AtomOrderSampler(K3, short)


class TestAtomSampler:
    def oracle(self):
        """P(0 before 1), one atom at 1/2 with mass 1/2, ties ascending.

        Four equally likely branch combinations; within each, the
        conditional probability is exact.
        """
        m = Fraction(1, 2)
        loc = Fraction(1, 2)
        c = 1 - m
        p = (
            m * m * 1  # both on the atom: tie order puts 0 first
            + m * c * (1 - loc)  # 0 on atom, 1 continuous above it
            + c * m * loc  # 0 continuous below the atom
            + c * c * Fraction(1, 2)
        )
        return p

    def test_oracle_value(self):
        assert self.oracle() == Fraction(5, 8)

    def test_empirical_matches_oracle(self):
        n = 20000
        got = freq_before(AtomOrderSampler(K3, HALF_ATOM), 13, n, 0, 1)
        assert abs(got - 5 / 8) < four_sigma(5 / 8, n)

    def test_collision_uses_tie_order(self):
        desc = FixedOrder("desc", (2, 1, 0))
        spec = AtomSpec(atoms=((0.5, 1.0),), tie_break={0.5: desc})
        for s in AtomOrderSampler(K3, spec).stream(0, 20):
            assert s.order == (2, 1, 0)  # everything lands on the atom

    def test_latents_are_atom_or_continuous(self):
        hits = 0
        for s in AtomOrderSampler(K3, HALF_ATOM).stream(21, 300):
            for v in s.latent.values():
                if v == 0.5:
                    hits += 1
                else:
                    assert 0.0 <= v < 1.0
        assert hits > 0

    def test_ties_ranked_by_branch_tag(self):
        # A continuous draw that equals an atom's location is not on the
        # atom: only the tagged hit takes the atom's tie rank.
        desc = FixedOrder("desc", (2, 1, 0))
        sampler = AtomOrderSampler(K3, AtomSpec(atoms=((0.5, 0.5),), tie_break={0.5: desc}))
        values = np.full((2, 3), 0.5)
        tags = np.array([[0, -1, 0], [0, 0, 0]])
        assert np.lexsort(sampler._keys(values, tags), axis=1).tolist() == [[1, 2, 0], [2, 1, 0]]

    def test_two_atoms_ordered_by_location(self):
        spec = AtomSpec(
            atoms=((0.2, 0.5), (0.9, 0.5)),
            tie_break={0.2: ASC, 0.9: ASC},
        )
        for s in AtomOrderSampler(K3, spec).stream(3, 50):
            lows = [a for a in s.order if s.latent[a] == 0.2]
            highs = [a for a in s.order if s.latent[a] == 0.9]
            assert s.order == tuple(lows + highs)


class TestConditioning:
    def test_kept_samples_hit_the_atom(self):
        base = AtomOrderSampler(K3, HALF_ATOM)
        cond = ConditionedAtomSampler(base, 0.5, (0, 1))
        for s in cond.stream(17, 60):
            assert s.latent[0] == 0.5 and s.latent[1] == 0.5
            assert s.order.index(0) < s.order.index(1)  # ascending ties

    def test_acceptance_rate_quarter(self):
        # P(two fixed points both hit a mass-1/2 atom) = 1/4; check the
        # conditioned stream consumes about 4x the base draws indirectly by
        # the conditional law: point 2 stays uniform-ish, P(atom) = 1/2
        base = AtomOrderSampler(K3, HALF_ATOM)
        cond = ConditionedAtomSampler(base, 0.5, (0, 1))
        n = 4000
        third_on_atom = sum(1 for s in cond.stream(19, n) if s.latent[2] == 0.5) / n
        assert abs(third_on_atom - 0.5) < four_sigma(0.5, n)

    def test_try_budget_exhausted(self):
        base = AtomOrderSampler(K3, HALF_ATOM)
        cond = ConditionedAtomSampler(base, 0.5, (0, 1, 2), max_tries=40)
        with pytest.raises(ResourceLimitError, match="acceptance rate"):
            list(cond.stream(23, 1000))

    def test_bad_arguments(self):
        base = AtomOrderSampler(K3, HALF_ATOM)
        with pytest.raises(ValidationError):
            ConditionedAtomSampler(base, 0.25, (0,))
        with pytest.raises(ValidationError):
            ConditionedAtomSampler(base, 0.5, (9,))
        with pytest.raises(ValidationError):
            ConditionedAtomSampler(base, 0.5, ())


class TestPQ:
    def test_blocks_never_interleave(self, pq22):
        p = {t[0] for t in pq22.table("P")}
        for s in PQOrderSampler(pq22).stream(29, 300):
            k = len(p)
            assert set(s.order[:k]) == p

    def test_within_block_uniform(self, pq22):
        p = sorted(t[0] for t in pq22.table("P"))
        n = 20000
        got = freq_before(PQOrderSampler(pq22), 31, n, p[0], p[1])
        assert abs(got - 0.5) < four_sigma(0.5, n)


class TestBipartiteMin:
    def test_min_law_oracle(self):
        # E[min(U,V)] for independent uniforms, analytically and by quadrature
        exact = Fraction(1, 3)
        num, err = integrate.dblquad(min, 0, 1, 0, 1)
        # the kink along the diagonal limits the quadrature accuracy
        assert abs(num - float(exact)) < 1e-7

    def test_eta_recomputable(self, bip5):
        s0 = BipartiteMinSampler(bip5)
        for s in s0.stream(37, 200):
            for a, (u, v) in s0._nbrs.items():
                assert s.eta[a] == min(s.latent[u], s.latent[v])
            assert set(s.tiebreak) == set(s0.elements)
            want = tuple(
                sorted(s0.elements, key=lambda a: (s.eta[a], s.tiebreak[a], a))
            )
            assert s.order == want

    def test_mean_third(self, bip5):
        n = 20000
        a0 = BipartiteMinSampler(bip5).elements[0]
        total = sum(s.eta[a0] for s in BipartiteMinSampler(bip5).stream(41, n))
        # var of min(U,V) is 1/18
        assert abs(total / n - 1 / 3) < 4 * math.sqrt(1 / 18 / n)


class TestInvolution:
    def oracle(self, S, a, b):
        """Enumerate the four equally likely image pairs."""
        f = dict(S.table("f"))
        lt = S.table("lt")
        rank = {x: sum(1 for t in lt if t[1] == x) for x in S.elements}
        hits = sum(
            1 for ia in (a, f[a]) for ib in (b, f[b]) if rank[ia] < rank[ib]
        )
        return Fraction(hits, 4)

    def test_nested_pattern_gives_three_quarters(self, inv6):
        from homord.builders import find_involution_pattern_pair

        a, b = find_involution_pattern_pair(inv6, "fa<fb<a<b")
        assert self.oracle(inv6, a, b) == Fraction(3, 4)
        n = 20000
        got = freq_before(InvolutionOrderSampler(inv6), 43, n, a, b)
        assert abs(got - 0.75) < four_sigma(0.75, n)

    def test_order_recomputable_from_bits(self, inv6):
        samp = InvolutionOrderSampler(inv6)
        f = dict(inv6.table("f"))
        for s in samp.stream(47, 200):
            image = {a: (a if s.latent[a] == 0 else f[a]) for a in samp.elements}
            want = tuple(sorted(samp.elements, key=lambda a: samp._rank[image[a]]))
            assert s.order == want
            assert set(s.latent.values()) <= {0, 1}

    def test_images_never_collide(self, inv6):
        # partners are never both in M, so the image map is injective
        samp = InvolutionOrderSampler(inv6)
        f = dict(inv6.table("f"))
        for s in samp.stream(53, 100):
            image = {a: (a if s.latent[a] == 0 else f[a]) for a in samp.elements}
            assert len(set(image.values())) == len(samp.elements)


class TestDualFunctional:
    def test_xor_law_exact(self, f2d3):
        samp = DualFunctionalSampler(f2d3)
        pairs = list(itertools.product(range(8), repeat=2))
        for s in samp.stream(59, 300):
            for v, w in pairs:
                assert s.eta[v ^ w] == s.eta[v] ^ s.eta[w]
            assert s.eta[0] == 0

    def test_field_matrix_matches_stream(self, f2d3):
        samp = DualFunctionalSampler(f2d3)
        M = samp.field_matrix(61, 300)
        for i, s in enumerate(samp.stream(61, 300)):
            assert M[i].tolist() == [s.eta[v] for v in samp.elements]

    def test_field_matrix_across_chunks(self, f2d2):
        samp = DualFunctionalSampler(f2d2)
        M = samp.field_matrix(67, 4100)
        assert M.shape == (4100, 4)
        short = samp.field_matrix(67, 10)
        assert (M[:10] == short).all()

    def test_nonzero_vector_balanced(self, f2d3):
        # a fixed nonzero vector reads 1 under exactly half the functionals
        n = 20000
        M = DualFunctionalSampler(f2d3).field_matrix(71, n)
        got = M[:, 5].mean()
        assert abs(got - 0.5) < four_sigma(0.5, n)

    def test_rejects_non_f2(self):
        with pytest.raises(ValidationError):
            DualFunctionalSampler(K3)


class TestOrderFromLatents:
    def test_tie_rank_breaks_ties(self):
        latent = {0: 0.5, 1: 0.2, 2: 0.5}
        assert order_from_latents(latent, {0: 1, 2: 0}) == (1, 2, 0)

    def test_id_is_last_resort(self):
        assert order_from_latents({0: 0.5, 1: 0.2, 2: 0.5}) == (1, 0, 2)

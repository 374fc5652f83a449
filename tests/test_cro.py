"""Exact-rational consistency system for invariant random orders.

Counts in the regression block were computed once by this code and then
checked by hand against independent identities (labeled-structure counts,
orbit-stabilizer, the uniform point), so they are frozen here on purpose:
any drift is a bug.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from homord.cro import (
    build_cro_system,
    dirac_solutions,
    enumerate_base_classes,
    enumerate_ordered_types,
    kernel_basis,
    projected_dimension,
    satisfies,
    sparse_rref,
    uniform_point,
    uniqueness_report,
)
from homord.errors import ValidationError
from homord.groups import automorphisms
from homord.builders import class_by_name
from homord.structures import find_isomorphism


def dense_rref(matrix):
    """Reference: dense column-by-column Gauss-Jordan over Fractions.

    Returns (reduced rows, pivot columns); the matrix is reduced in place."""
    if not matrix:
        return matrix, []
    ncols = len(matrix[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == len(matrix):
            break
    return matrix, pivots


def dense_kernel(system):
    """Reference kernel basis, one vector per free column of the dense RREF."""
    n = len(system.variables)
    dense = []
    for row in system.rows:
        vec = [Fraction(0)] * n
        for i, c in row.coeffs:
            vec[i] = c
        dense.append(vec)
    reduced, pivots = dense_rref(dense)
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][fc]
        basis.append(vec)
    return basis


class TestBaseClasses:
    def test_graph_counts(self):
        spec = class_by_name("graph")
        assert [len(enumerate_base_classes(spec, k)) for k in (1, 2, 3, 4)] == [
            1,
            2,
            4,
            11,
        ]

    def test_tournament_counts(self):
        spec = class_by_name("tournament")
        assert [len(enumerate_base_classes(spec, k)) for k in (1, 2, 3, 4)] == [
            1,
            1,
            2,
            4,
        ]

    def test_triangle_free_drops_triangle(self):
        assert len(enumerate_base_classes(class_by_name("kn_free_graph:3"), 3)) == 3

    def test_single_class_families(self):
        for name in ("pure_set", "linear_order"):
            spec = class_by_name(name)
            for k in (1, 2, 3):
                assert len(enumerate_base_classes(spec, k)) == 1

    def test_reps_pairwise_nonisomorphic(self):
        reps = enumerate_base_classes(class_by_name("graph"), 4)
        for A, B in itertools.combinations(reps, 2):
            assert find_isomorphism(A, B) is None


class TestOrderedTypes:
    def test_counts_are_stabilizer_orders(self):
        for A in enumerate_base_classes(class_by_name("graph"), 3):
            counts = enumerate_ordered_types(A)
            aut = len(automorphisms(A))
            assert set(counts.values()) == {aut}
            assert sum(counts.values()) == 6  # 3!

    def test_total_codes_count_labeled_structures(self):
        # sum over base classes of k!/|Aut| = number of labeled graphs
        total = 0
        for A in enumerate_base_classes(class_by_name("graph"), 4):
            total += len(enumerate_ordered_types(A))
        assert total == 2 ** 6  # 2^(4 choose 2)


class TestSystemShape:
    def test_graph_l3(self, cro_graph3):
        assert len(cro_graph3.variables) == 11
        assert len(cro_graph3.rows) == 17
        assert len(cro_graph3.variables_at(3)) == 8

    def test_graph_l4(self, cro_graph4):
        assert len(cro_graph4.variables) == 75
        assert len(cro_graph4.rows) == 92
        assert len(cro_graph4.variables_at(4)) == 64

    def test_row_kinds(self, cro_graph3):
        kinds = {r.kind for r in cro_graph3.rows}
        assert kinds == {"mass", "restriction"}

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            build_cro_system("frobnicator", 3)

    def test_level_cap(self):
        with pytest.raises(ValidationError):
            build_cro_system("graph", 6)
        with pytest.raises(ValidationError):
            build_cro_system("graph", 0)


class TestUniformPoint:
    def test_values(self, cro_graph3):
        x = uniform_point(cro_graph3)
        for var, xi in zip(cro_graph3.variables, x):
            assert xi == Fraction(1, math.factorial(var.level))

    def test_satisfies(self, cro_graph3):
        assert satisfies(cro_graph3, uniform_point(cro_graph3))

    def test_perturbation_fails(self, cro_graph3):
        x = uniform_point(cro_graph3)
        x[0] += Fraction(1, 1000)
        assert not satisfies(cro_graph3, x)

    def test_negative_fails(self, cro_graph3):
        x = uniform_point(cro_graph3)
        x[-1] = Fraction(-1, 6)
        assert not satisfies(cro_graph3, x)


class TestKernel:
    def test_vectors_solve_homogeneous_rows(self, cro_graph3):
        basis = kernel_basis(cro_graph3)
        assert len(basis) == 2
        for v in basis:
            for row in cro_graph3.rows:
                assert sum(c * v[i] for i, c in row.coeffs) == 0

    def test_independent(self, cro_graph3):
        basis = kernel_basis(cro_graph3)
        mat, pivots = dense_rref([list(v) for v in basis])
        assert len(pivots) == len(basis)

    def test_kernel_directions_stay_feasible(self, cro_graph3):
        # the uniform point is strictly positive, so a small step along any
        # kernel vector keeps all rows satisfied
        x = uniform_point(cro_graph3)
        for v in kernel_basis(cro_graph3):
            eps = Fraction(1, 10 ** 6)
            moved = [a + eps * b for a, b in zip(x, v)]
            assert satisfies(cro_graph3, moved)


    @pytest.mark.parametrize("cls,level", [
        *((c, lv) for c in ("graph", "tournament", "kn_free_graph:3", "linear_order", "pure_set")
          for lv in (2, 3, 4)),
        ("linear_order", 5),
    ])
    def test_matches_dense_reference(self, cls, level):
        system = build_cro_system(cls, level)
        assert kernel_basis(system) == dense_kernel(system)


class TestRref:
    def test_hand_case(self):
        R = sparse_rref([
            {0: Fraction(2), 1: Fraction(4), 2: Fraction(2)},
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        ])
        assert sorted(R) == [0, 2]
        assert R[0] == {0: Fraction(1), 1: Fraction(2)}
        assert R[2] == {2: Fraction(1)}

    def test_matches_dense_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            M = [[Fraction(rng.choice((0, 0, 0, 1, -1, 2, -3))) for _ in range(cols)]
                 for _ in range(rows)]
            R = sparse_rref(dict(enumerate(row)) for row in M)
            reduced, pivots = dense_rref([row[:] for row in M])
            assert sorted(R) == pivots
            for r, pc in enumerate(pivots):
                assert R[pc] == {c: v for c, v in enumerate(reduced[r]) if v}


class TestRegressionBaselines:
    def test_pure_set_unique(self):
        for L in (2, 3, 4, 5):
            rep = uniqueness_report(build_cro_system("pure_set", L))
            assert rep.nullspace_dim == 0
            assert rep.dirac_count == 0
            assert rep.unique_at_truncation

    def test_linear_order_two_diracs(self):
        dims = {}
        for L in (2, 3, 4):
            sys = build_cro_system("linear_order", L)
            rep = uniqueness_report(sys)
            assert rep.dirac_count == 2
            assert not rep.unique_at_truncation
            dims[L] = rep.nullspace_dim
            # the two 0/1 solutions are one-code-per-level and distinct
            for sol in rep.dirac_solutions:
                per_level = {}
                for code in sol:
                    var = sys.variables[sys.var_index[code]]
                    per_level.setdefault(var.level, []).append(code)
                assert all(len(v) == 1 for v in per_level.values())
                assert sorted(per_level) == list(range(1, L + 1))
            a, b = rep.dirac_solutions
            assert a != b
        assert dims == {2: 1, 3: 3, 4: 12}

    def test_graph_dimensions(self, cro_graph3, cro_graph4):
        r3 = uniqueness_report(cro_graph3)
        r4 = uniqueness_report(cro_graph4)
        assert (r3.nullspace_dim, r3.dirac_count) == (2, 0)
        assert (r4.nullspace_dim, r4.dirac_count) == (23, 0)
        assert r3.uniform_feasible and r4.uniform_feasible

    def test_triangle_free_dimension(self):
        rep = uniqueness_report(build_cro_system("kn_free_graph:3", 4))
        assert rep.nullspace_dim == 16

    def test_tournament_dimension(self):
        rep = uniqueness_report(build_cro_system("tournament", 4))
        assert rep.nullspace_dim == 27

    def test_graph_level5(self):
        rep = uniqueness_report(build_cro_system("graph", 5))
        assert (rep.num_variables, rep.num_rows) == (1099, 1150)
        assert (rep.nullspace_dim, rep.dirac_count) == (375, 0)
        assert rep.uniform_feasible


class TestProjection:
    def test_level3_shadow_of_level4(self, cro_graph3, cro_graph4):
        keep = {v.code for v in cro_graph4.variables if v.level <= 3}
        proj = projected_dimension(cro_graph4, keep)
        standalone = uniqueness_report(cro_graph3).nullspace_dim
        # deeper consistency can only cut the visible freedom down
        assert proj <= standalone
        assert proj == 2

    def test_keep_all_is_kernel_dim(self, cro_graph3):
        keep = {v.code for v in cro_graph3.variables}
        assert projected_dimension(cro_graph3, keep) == 2

    def test_empty_keep_rejected(self, cro_graph3):
        with pytest.raises(ValidationError):
            projected_dimension(cro_graph3, set())

    def test_unknown_code_rejected(self, cro_graph3):
        with pytest.raises(ValidationError):
            projected_dimension(cro_graph3, {("nonsense",)})


class TestDirac:
    def test_linear_order_solutions_satisfy_system(self):
        sys = build_cro_system("linear_order", 3)
        sols = dirac_solutions(sys)
        assert len(sols) == 2
        for sol in sols:
            x = [Fraction(1 if v.code in sol else 0) for v in sys.variables]
            assert satisfies(sys, x)

    def test_graph_has_none(self, cro_graph3):
        assert dirac_solutions(cro_graph3) == ()

    def test_failed_recheck_raises(self, monkeypatch):
        # the exact re-check is a runtime error, not an assert `python -O` drops
        import homord.cro

        sys = build_cro_system("linear_order", 3)
        monkeypatch.setattr(homord.cro, "satisfies", lambda system, x: False)
        with pytest.raises(RuntimeError, match="admitted a bad solution"):
            dirac_solutions(sys)

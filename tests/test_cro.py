"""Exact-rational consistency system for invariant random orders.

Counts in the regression block were computed once by this code and then
checked by hand against independent identities (labeled-structure counts,
orbit-stabilizer, the uniform point), so they are frozen here on purpose:
any drift is a bug.
"""

import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import homord.cro
from homord.cro import (
    CroRow,
    OrderedType,
    _base_classes,
    _characters,
    _class_level,
    _dirac_candidates,
    _level_table,
    _mask_action,
    _mask_coder,
    _mask_images,
    _mask_structure,
    _Orbit,
    _orbit_fill,
    _pair_count,
    _perm_tables,
    _uniform_violations,
    build_cro_system,
    dirac_solutions,
    enumerate_base_classes,
    enumerate_ordered_types,
    integer_rref,
    kernel_basis,
    projected_dimension,
    satisfies,
    uniqueness_report,
)
from homord.errors import ResourceLimitError, ValidationError
from homord.groups import automorphisms
from homord.builders import class_by_name, graph_class
from homord.structures import _type_code, canonical_type, find_isomorphism, induced_substructure

import helpers
from helpers import (
    all_members,
    clear_cro_caches,
    cycle_type_representatives,
    deletion_marginal_rows,
    echelon_pivots,
    integer_echelon,
    uniform_point,
)
from test_golden import CRO_SYSTEMS, cro_digest


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
            vec[i] = Fraction(c)
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


def reference_system(class_name, max_level):
    """Reference assembler: base classes keyed by their least code, ordered
    types counted per representative, and each restriction row from the
    induced substructure with one canonical_type per insertion, all with
    int coefficients.  Returns (base_reps, variables, rows)."""
    spec = class_by_name(class_name)
    base_reps, variables, var_index = {}, [], {}
    for k in range(1, max_level + 1):
        first = {}
        for S in all_members(spec, k):
            first.setdefault(min(canonical_type(S, p) for p in itertools.permutations(range(k))), S)
        base_reps[k] = tuple(first[c] for c in sorted(first))
        for bi, A in enumerate(base_reps[k]):
            counts = Counter(canonical_type(A, p) for p in itertools.permutations(A.elements))
            for code in sorted(counts):
                var_index[code] = len(variables)
                variables.append(OrderedType(code, k, bi, counts[code]))

    rows, seen = [], set()

    def push(coeffs, rhs, kind):
        items = tuple(sorted(coeffs.items()))
        if (items, rhs) not in seen:
            seen.add((items, rhs))
            rows.append(CroRow(items, rhs, kind))

    for k in range(1, max_level + 1):
        for A in base_reps[k]:
            counts = Counter(canonical_type(A, p) for p in itertools.permutations(A.elements))
            push({var_index[c]: n for c, n in counts.items()}, 1, "mass")
    for k in range(1, max_level):
        for B in base_reps[k + 1]:
            for v in B.elements:
                rest = tuple(x for x in B.elements if x != v)
                A = induced_substructure(B, rest)
                for tau in itertools.permutations(range(k)):
                    coeffs = {var_index[canonical_type(A, tau)]: 1}
                    tau_b = [rest[i] for i in tau]
                    for pos in range(k + 1):
                        j = var_index[canonical_type(B, tuple(tau_b[:pos] + [v] + tau_b[pos:]))]
                        coeffs[j] = coeffs.get(j, 0) - 1
                    push({i: c for i, c in coeffs.items() if c != 0}, 0, "restriction")
    return base_reps, tuple(variables), tuple(rows)


class TestAssemblyOracle:
    @pytest.mark.parametrize("cls,level", [
        *((c, lv) for c in ("graph", "tournament", "kn_free_graph:3", "kn_free_graph:4",
                            "linear_order", "pure_set") for lv in (1, 2, 3, 4)),
        *((c, 5) for c in ("graph", "tournament", "kn_free_graph:3", "linear_order", "pure_set")),
        ("pure_set", 6),
    ])
    def test_matches_reference(self, cls, level):
        system = build_cro_system(cls, level)
        base_reps, variables, rows = reference_system(cls, level)
        assert system.base_reps == base_reps
        assert system.variables == variables
        # repr too: the coefficients and rhs must be ints, not equal Fractions
        assert system.rows == rows and repr(system.rows) == repr(rows)


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

    @pytest.mark.parametrize("name", ["two_predicate_PQ", "bipartite_deg2", "involution_order",
                                      "f2_vector_space:3"])
    def test_no_enumerator(self, name):
        # a class with relations but no wiring has no masks to walk
        with pytest.raises(ValidationError, match="has no member enumerator"):
            build_cro_system(name, 2)

    def test_reps_pairwise_nonisomorphic(self):
        reps = enumerate_base_classes(class_by_name("graph"), 4)
        for A, B in itertools.combinations(reps, 2):
            assert find_isomorphism(A, B) is None


class TestMaskAction:
    @pytest.mark.parametrize("name", ["graph", "kn_free_graph:3", "tournament", "linear_order",
                                      "pure_set"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_ascending_masks_list_the_members(self, name, k):
        spec = class_by_name(name)
        bits = k * (k - 1) // 2 if name != "pure_set" else 0
        wired = (_mask_structure(spec, k, mask) for mask in range(1 << bits))
        assert [S for S in wired if spec.is_member(S)] == all_members(spec, k)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("graph", "tournament", "linear_order")), st.integers(1, 6), st.data())
    def test_image_and_deleted_point(self, name, k, data):
        spec = class_by_name(name)
        mask = data.draw(st.integers(0, (1 << k * (k - 1) // 2) - 1), label="mask")
        p = tuple(data.draw(st.permutations(range(k)), label="p"))
        S = _mask_structure(spec, k, mask)
        # the image under p is the member listed in p's order
        (image,) = _mask_images(mask, _mask_action([p], spec.wiring))
        assert canonical_type(S, p) == canonical_type(_mask_structure(spec, k, image), range(k))
        # the low bits are the member induced on positions 1..k-1
        low = (1 << (k - 1) * (k - 2) // 2) - 1
        assert _mask_structure(spec, k - 1, mask & low) == induced_substructure(S, range(1, k))


class TestPermTables:
    @pytest.mark.parametrize("wiring", ["edge", "arc", None])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_compose_indexes_the_shifted_permutation(self, k, wiring):
        perms = list(itertools.permutations(range(k)))
        compose = _perm_tables(k, wiring)[1]
        assert len(compose) == len(perms)
        for p, row in zip(perms, compose):
            for pos, c in enumerate(row):
                # p followed by the shift: point x goes where p sends s(x)
                s = [*range(1, pos + 1), 0, *range(pos + 1, k)]
                assert perms[c] == tuple(p[s[x]] for x in range(k))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(("edge", "arc", None)), st.integers(1, 6), st.data())
    def test_compose_matches_the_shift_action(self, wiring, k, data):
        # the image at compose[i][pos] is the i-th image relabelled by the
        # shift alone, as its own one-permutation action computes it
        action, compose = _perm_tables(k, wiring)
        bits = k * (k - 1) // 2 if wiring else 0
        images = _mask_images(data.draw(st.integers(0, (1 << bits) - 1), label="mask"), action)
        shifts = [_mask_action([(*range(1, pos + 1), 0, *range(pos + 1, k))], wiring)
                  for pos in range(k)]
        for image, row in zip(images, compose):
            assert [images[c] for c in row] == [_mask_images(image, a)[0] for a in shifts]


# (variables, rows, nullity) of each class's level-6 system, in the order
# TestLevelTables builds them in one process: the K_n-free classes read the
# edge tables graph filled, and tournament fills its own.  None has a 0/1
# solution and each admits the uniform point.  tests/slow_checks.py runs
# `homord cro --n 6` in a fresh process per class against the same numbers.
LEVEL6 = {
    "graph": (33867, 34074, 12059),
    "kn_free_graph:3": (6228, 6292, 2198),
    "kn_free_graph:4": (28658, 28823, 10251),
    "tournament": (33867, 33941, 12447),
}

MASK_CLASSES = ("pure_set", "graph", "kn_free_graph:3", "kn_free_graph:4", "tournament",
                "linear_order")


def coder_for(spec, k):
    relations = spec.signature.relations
    return _mask_coder(k, spec.wiring, relations[0][0] if relations else None)


class TestMaskCoder:
    """The per-level coder against `_type_code` on the structure the mask
    wires, member or not."""

    @pytest.mark.parametrize("name", MASK_CLASSES)
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_every_mask_matches_type_code(self, name, k):
        spec = class_by_name(name)
        encode = coder_for(spec, k)
        for mask in range(1 << _pair_count(k, spec.wiring)):
            want = _type_code(_mask_structure(spec, k, mask), tuple(range(k)))
            assert encode(mask) == want, mask

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(MASK_CLASSES), st.integers(0, (1 << 15) - 1))
    def test_level6_masks_match_type_code(self, name, mask):
        spec = class_by_name(name)
        mask &= (1 << _pair_count(6, spec.wiring)) - 1
        want = _type_code(_mask_structure(spec, 6, mask), tuple(range(6)))
        assert coder_for(spec, 6)(mask) == want

    @pytest.mark.parametrize("name", ["graph", "tournament"])
    def test_every_level6_mask_matches_type_code(self, name):
        # all 2^15 masks, for the edge wiring and the arc wiring
        spec = class_by_name(name)
        points, masks = tuple(range(6)), range(1 << 15)
        want = [_type_code(_mask_structure(spec, 6, mask), points) for mask in masks]
        assert list(map(coder_for(spec, 6), masks)) == want


class TestLevelTables:
    """The orbits of a level and wiring are tabulated once and never
    changed; each class level is assembled once and kept, and nothing a
    build reads may depend on which class was built before it."""

    @pytest.mark.parametrize("name", MASK_CLASSES)
    def test_warm_tables_build_the_cold_system(self, name):
        for level in range(1, 6):
            clear_cro_caches()
            cold = cro_digest(build_cro_system(name, level))
            clear_cro_caches()
            for other in MASK_CLASSES:
                if other != name:
                    build_cro_system(other, level)
            assert cro_digest(build_cro_system(name, level)) == cold, level

    def test_level6_warm_tables(self):
        clear_cro_caches()
        for cls, dims in LEVEL6.items():
            report = uniqueness_report(build_cro_system(cls, 6))
            assert (report.num_variables, report.num_rows, report.nullspace_dim) == dims, cls
            assert report.dirac_count == 0 and report.uniform_feasible, cls

    def test_edge_classes_share_one_table(self):
        for k in range(1, 6):
            graph = {id(orbit) for _, orbit, _ in _base_classes(class_by_name("graph"), k)}
            k3_free = {id(orbit) for _, orbit, _ in _base_classes(class_by_name("kn_free_graph:3"), k)}
            # every orbit is a graph; the K3-free ones are the same objects,
            # all of them below the triangle's level
            assert graph == {id(orbit) for orbit in _level_table(k, "edge")}
            assert k3_free < graph if k >= 3 else k3_free == graph

    def test_cold_build_codes_each_member_mask_once(self, monkeypatch):
        coded = []
        real = homord.cro._mask_coder

        def counting(k, wiring, relation):
            encode = real(k, wiring, relation)
            return lambda mask: coded.append((k, mask)) or encode(mask)

        monkeypatch.setattr(homord.cro, "_mask_coder", counting)
        clear_cro_caches()
        spec = class_by_name("kn_free_graph:3")
        build_cro_system("kn_free_graph:3", 5)
        members = [(k, mask) for k in range(1, 6) for mask in range(1 << _pair_count(k, "edge"))
                   if spec.is_member(_mask_structure(spec, k, mask))]
        # one call per labelled triangle-free graph on 1..5 points: 1 + 2 + 7 + 41 + 388
        assert len(members) == sum(len(all_members(spec, k)) for k in range(1, 6)) == 439
        assert sorted(coded) == members
        coded.clear()
        build_cro_system("kn_free_graph:3", 5)
        assert coded == []

    def test_warm_build_reuses_ordered_types(self):
        clear_cro_caches()
        cold = build_cro_system("graph", 4)
        warm = build_cro_system("graph", 4)
        assert len(cold.variables) == len(warm.variables) == 75
        assert all(a is b for a, b in zip(cold.variables, warm.variables))

    def test_shared_orbits_keep_each_class_base_index(self):
        # graph and K3-free number some shared level-4 orbits differently;
        # built in turn, cold and warm, each keeps its own base indices
        clear_cro_caches()
        names = ("graph", "kn_free_graph:3")
        cold = {name: build_cro_system(name, 4) for name in names}
        numbering = {}
        for name in names:
            warm = build_cro_system(name, 4)
            assert cro_digest(warm) == cro_digest(cold[name]), name
            classes = _base_classes(class_by_name(name), 4)
            numbering[name] = {id(orbit): bi for bi, (_, orbit, _) in enumerate(classes)}
            want = [bi for bi, (_, _, fill) in enumerate(classes) for _ in fill.codes]
            assert [v.base_index for v in warm.variables if v.level == 4] == want, name
        shared = numbering["kn_free_graph:3"].items()
        assert any(numbering["graph"][orbit] != bi for orbit, bi in shared)

    def test_warm_build_makes_no_structure_membership_call_or_row(self, monkeypatch):
        # a warm build joins kept class levels: no representative is built,
        # no membership asked and no row made; a cold build does all three
        calls = []
        spec = class_by_name("graph")
        spied = replace(spec, is_member=lambda S: calls.append("is_member") or spec.is_member(S))
        monkeypatch.setattr(homord.cro, "class_by_name", lambda name: spied)
        for name in ("_mask_structure", "CroRow"):
            real = getattr(homord.cro, name)
            monkeypatch.setattr(homord.cro, name,
                                lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        clear_cro_caches()
        assert cro_digest(build_cro_system("graph", 5)) == CRO_SYSTEMS["graph", 5]
        assert set(calls) == {"is_member", "_mask_structure", "CroRow"}
        calls.clear()
        assert cro_digest(build_cro_system("graph", 5)) == CRO_SYSTEMS["graph", 5]
        assert calls == []

    @pytest.mark.parametrize("name", MASK_CLASSES)
    def test_ascending_and_descending_builds_match_pins(self, name):
        # ascending, each level is assembled on kept levels below it;
        # descending, the first build assembles them all and the rest join
        digests = {}
        for order in (range(1, 6), range(5, 0, -1)):
            clear_cro_caches()
            for level in order:
                digests.setdefault(level, set()).add(cro_digest(build_cro_system(name, level)))
        for level, got in digests.items():
            assert len(got) == 1, level
            assert got == {CRO_SYSTEMS.get((name, level), *got)}, level

    def test_higher_build_reuses_lower_levels(self):
        clear_cro_caches()
        four = build_cro_system("graph", 4)
        five = build_cro_system("graph", 5)
        assert cro_digest(five) == CRO_SYSTEMS["graph", 5]
        assert all(four.base_reps[k] is five.base_reps[k] for k in range(1, 5))
        assert all(a is b for a, b in zip(four.variables, five.variables))
        # both list every mass row, then every restriction row, in level order
        mass4, mass5 = (sum(r.kind == "mass" for r in s.rows) for s in (four, five))
        assert all(a is b for a, b in zip(four.rows[:mass4], five.rows))
        assert all(a is b for a, b in zip(four.rows[mass4:], five.rows[mass5:]))

    def test_cache_clear_makes_the_next_build_cold(self, monkeypatch):
        picked = []
        real = homord.cro._base_classes
        monkeypatch.setattr(homord.cro, "_base_classes",
                            lambda spec, k: picked.append(k) or real(spec, k))
        clear_cro_caches()
        first = build_cro_system("graph", 4)
        assert picked == [1, 2, 3, 4]
        picked.clear()
        build_cro_system("graph", 4)
        assert picked == []
        clear_cro_caches()
        again = build_cro_system("graph", 4)
        assert picked == [1, 2, 3, 4]
        assert cro_digest(again) == cro_digest(first)
        assert not any(a is b for a, b in zip(first.rows, again.rows))

    def test_builds_leave_tables_as_made_and_keep_each_level_once(self):
        # every class, cold then warm: no build changes an orbit of a
        # table, and each (class, level) is kept once, both K3-free
        # spellings under one key
        clear_cro_caches()
        names = (*MASK_CLASSES, "kn_free_graph:03")
        cold = {(name, level): cro_digest(build_cro_system(name, level))
                for name in names for level in range(1, 6)}
        assert {key: cro_digest(build_cro_system(*key)) for key in cold} == cold
        for k in range(1, 6):
            for wiring in (None, "edge", "arc"):
                assert _level_table(k, wiring) == _level_table.__wrapped__(k, wiring), (k, wiring)
        assert _class_level.cache_info().currsize == len(MASK_CLASSES) * 5

    def test_spellings_share_one_class_level(self):
        clear_cro_caches()
        padded = build_cro_system("kn_free_graph:03", 4)
        plain = build_cro_system("kn_free_graph:3", 4)
        assert (padded.class_name, plain.class_name) == ("kn_free_graph:03", "kn_free_graph:3")
        assert _class_level.cache_info().currsize == 4
        assert len(padded.rows) == len(plain.rows)
        assert all(a is b for a, b in zip(padded.rows, plain.rows))
        assert cro_digest(padded) == cro_digest(plain) == CRO_SYSTEMS["kn_free_graph:3", 4]


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
        assert sum(v.level == 3 for v in cro_graph3.variables) == 8

    def test_graph_l4(self, cro_graph4):
        assert len(cro_graph4.variables) == 75
        assert len(cro_graph4.rows) == 92
        assert sum(v.level == 4 for v in cro_graph4.variables) == 64

    def test_row_kinds(self, cro_graph3):
        kinds = {r.kind for r in cro_graph3.rows}
        assert kinds == {"mass", "restriction"}

    def test_unknown_class(self):
        with pytest.raises(ValidationError):
            build_cro_system("frobnicator", 3)

    def test_level_cap(self):
        with pytest.raises(ValidationError):
            build_cro_system("graph", 7)
        with pytest.raises(ValidationError):
            build_cro_system("graph", 0)

    def test_non_int_level_rejected(self):
        spec = class_by_name("graph")
        for level in (2.0, "3", True, None):
            with pytest.raises(ValidationError, match="outside"):
                build_cro_system("graph", level)
            with pytest.raises(ValidationError, match="outside"):
                enumerate_base_classes(spec, level)


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

    def test_long_point_refused(self, cro_graph3):
        with pytest.raises(ValidationError, match="coordinates"):
            satisfies(cro_graph3, uniform_point(cro_graph3) + [Fraction(5)])

    def test_short_point_refused(self, cro_graph3):
        with pytest.raises(ValidationError, match="coordinates"):
            satisfies(cro_graph3, uniform_point(cro_graph3)[:-1])

    @pytest.mark.parametrize("kind,field", [
        ("restriction", "coeff"), ("restriction", "rhs"), ("mass", "coeff"), ("mass", "rhs"),
    ])
    def test_integer_check_rejects_tampered_row(self, cro_graph4, kind, field):
        rows = list(cro_graph4.rows)
        r = max(i for i, row in enumerate(rows) if row.kind == kind)
        row = rows[r]
        if field == "coeff":
            (i, c), *rest = row.coeffs
            rows[r] = replace(row, coeffs=((i, c + 1), *rest))
        else:
            rows[r] = replace(row, rhs=row.rhs + Fraction(1, 2))
        tampered = replace(cro_graph4, rows=tuple(rows))
        levels = [v.level for v in tampered.variables]
        assert _uniform_violations(cro_graph4.rows, levels) == []
        assert _uniform_violations(tampered.rows, levels) == [r]
        assert not uniqueness_report(tampered).uniform_feasible
        assert not satisfies(tampered, uniform_point(tampered))

    def test_report_rejects_non_integer_coefficient(self, cro_graph3):
        # the report checks every coefficient's denominator itself, so a
        # coefficient that is not an integer is refused, never truncated
        (i, c), *rest = cro_graph3.rows[-1].coeffs
        row = replace(cro_graph3.rows[-1], coeffs=((i, c + Fraction(1, 2)), *rest))
        tampered = replace(cro_graph3, rows=(*cro_graph3.rows[:-1], row))
        with pytest.raises(ValidationError, match="not an integer"):
            uniqueness_report(tampered)


@pytest.fixture
def fresh_tables():
    """No level table or kept class level, before or after, so nothing a
    doctored build made stays."""
    clear_cro_caches()
    yield
    clear_cro_caches()


class TestUniformCertificate:
    """A build no longer checks the uniform point row by row: the fill
    certifies each orbit's templates, and the build checks that every low
    mask resolves one level down.  The row check stays the oracle."""

    @pytest.mark.parametrize("cls,level", sorted(CRO_SYSTEMS), ids=str)
    def test_golden_systems_admit_the_uniform_point(self, cls, level, fresh_tables):
        for system in (build_cro_system(cls, level), build_cro_system(cls, level)):
            assert _uniform_violations(system.rows, [v.level for v in system.variables]) == []

    @pytest.mark.parametrize("wiring,relation", [("edge", "E"), ("arc", "A")])
    def test_dropped_hit_rejected(self, monkeypatch, fresh_tables, wiring, relation):
        real = homord.cro._perm_tables

        def short(k, wiring):
            action, compose = real(k, wiring)
            return action, [row[:-1] for row in compose]

        monkeypatch.setattr(homord.cro, "_perm_tables", short)
        for orbit in _level_table(4, wiring):
            with pytest.raises(ValidationError, match=f"orbit of mask {orbit.rep}: .* 3 level-4 hits"):
                _orbit_fill(orbit, 4, wiring, relation)
        assert _level_table(4, wiring) == _level_table.__wrapped__(4, wiring)

    @pytest.mark.parametrize("wiring,relation", [("edge", "E"), ("arc", "A")])
    def test_wrong_aut_rejected(self, fresh_tables, wiring, relation):
        for orbit in _level_table(4, wiring):
            for fixing in (orbit.fixing[1:], (*orbit.fixing, orbit.fixing[0])):
                tampered = _Orbit(orbit.rep, fixing)
                with pytest.raises(ValidationError, match=f"orbit of mask {orbit.rep}: .* not 4!"):
                    _orbit_fill(tampered, 4, wiring, relation)
            assert _orbit_fill(orbit, 4, wiring, relation)

    def test_low_mask_from_wrong_level_rejected(self, monkeypatch, fresh_tables):
        # a template whose deleted-point term reads a level-4 mask, with the
        # orbit's lows taken from its templates as the fill takes them,
        # fails the build
        real = homord.cro._orbit_fill
        tampered = 0
        for orbit in _level_table(4, "edge"):
            fill = real(orbit, 4, "edge", "E")
            wrong = max(fill.masks)
            if wrong < 1 << _pair_count(3, "edge"):
                continue
            rows = ((wrong, *fill.rows[0][1:]), *fill.rows[1:])
            bad = fill._replace(rows=rows, lows=tuple(sorted({row[0] for row in rows})))
            with monkeypatch.context() as m:
                m.setattr(homord.cro, "_orbit_fill", lambda o, k, *a, _o=orbit, _bad=bad:
                          _bad if (o, k) == (_o, 4) else real(o, k, *a))
                # the check runs when a class level is assembled, so drop the kept ones
                clear_cro_caches()
                with pytest.raises(ValidationError, match=f"orbit of mask {orbit.rep} deletes"):
                    build_cro_system("graph", 4)
            tampered += 1
        assert tampered == 10  # every orbit but the empty graph's
        clear_cro_caches()
        assert cro_digest(build_cro_system("graph", 4)) == CRO_SYSTEMS["graph", 4]

    def test_non_hereditary_class_rejected(self, monkeypatch, fresh_tables):
        # a "graph" class without the 3-point graphs with two edges: some
        # 4-point member deletes a point to one of them
        spec = graph_class()
        member = replace(spec, is_member=lambda S: spec.is_member(S)
                         and not (S.size == 3 and len(S.table("E")) == 4))
        monkeypatch.setattr(homord.cro, "class_by_name", lambda name: member)
        with pytest.raises(ValidationError, match="no member of size 3") as err:
            build_cro_system("graph", 4)
        rep = int(err.value.args[0].split("orbit of mask ")[1].split()[0])
        S = _mask_structure(spec, 4, rep)
        assert member.is_member(S)
        assert not all(member.is_member(induced_substructure(S, tuple(p for p in range(4) if p != v)))
                       for v in range(4))


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


def assert_rref_matches_dense(M):
    """integer_rref's rows divided by their pivot entries are the dense RREF."""
    R = integer_rref(dict(enumerate(row)) for row in M)
    reduced, pivots = dense_rref([[Fraction(v) for v in row] for row in M])
    assert sorted(R) == pivots
    for r, pc in enumerate(pivots):
        assert all(isinstance(v, int) for v in R[pc].values())
        assert math.gcd(*R[pc].values()) == 1
        assert {c: Fraction(v, R[pc][pc]) for c, v in R[pc].items()} == {
            c: v for c, v in enumerate(reduced[r]) if v}


class TestRref:
    def test_hand_case(self):
        R = integer_rref([
            {0: Fraction(2), 1: Fraction(4), 2: Fraction(2)},
            {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        ])
        assert sorted(R) == [0, 2]
        assert R[0] in ({0: 1, 1: 2}, {0: -1, 1: -2})
        assert R[2] in ({2: 1}, {2: -1})
        assert_rref_matches_dense([[2, 4, 2], [1, 2, 3]])

    def test_matches_dense_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(200):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            assert_rref_matches_dense(
                [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(cols)]
                 for _ in range(rows)])

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6)),
                 min_size=cols, max_size=cols),
        min_size=1, max_size=7)))
    def test_matches_dense_on_large_entries(self, M):
        # entries this large make the cross-multiplied rows grow unless each
        # step divides out the gcd
        assert_rref_matches_dense(M)

    def test_non_integer_coefficient_rejected(self):
        # int(Fraction(3, 2)) would silently give 1
        with pytest.raises(ValidationError, match="not an integer"):
            integer_rref([{0: Fraction(1), 1: Fraction(3, 2)}])
        with pytest.raises(ValidationError, match="not an integer"):
            integer_rref([{0: 1}, {0: 0.5}])


def dense_rank(M):
    return len(dense_rref([[Fraction(v) for v in row] for row in M])[1])


ECHELON_SYSTEMS = [
    (c, lv) for c in ("graph", "tournament", "kn_free_graph:3", "linear_order", "pure_set")
    for lv in (1, 2, 3, 4, 5)]
CUT_SYSTEMS = ECHELON_SYSTEMS + [("kn_free_graph:4", lv) for lv in (1, 2, 3, 4, 5)]


class TestEchelon:
    @pytest.mark.parametrize("cls,level", ECHELON_SYSTEMS)
    def test_rank_matches_gauss_jordan(self, cls, level):
        system = build_cro_system(cls, level)
        assert len(echelon_pivots(system)) == len(integer_rref(dict(r.coeffs) for r in system.rows))

    @pytest.mark.parametrize("cls,level", CUT_SYSTEMS)
    def test_level_cuts_match_gauss_jordan(self, cls, level):
        # the cut formula len(kept) - rank(A) + rank(A on the dropped columns),
        # with the cut rank from the Gauss-Jordan elimination
        system = build_cro_system(cls, level)
        rank = len(echelon_pivots(system))
        for j in range(1, level + 1):
            kept = sum(1 for v in system.variables if v.level <= j)
            cut = integer_rref({i: c for i, c in r.coeffs if i >= kept} for r in system.rows)
            assert projected_dimension(system, j) == kept - rank + len(cut)
            # every level-j solution extends to level `level`: the cut equals
            # the level-j system's own nullity.  The lift in the cro module
            # docstring proves it; this checks the proof against elimination.
            below = build_cro_system(cls, j)
            assert projected_dimension(system, j) == len(below.variables) - len(echelon_pivots(below))
        assert projected_dimension(system, level) == uniqueness_report(system).nullspace_dim

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3, 10 ** 6)), min_size=cols, max_size=cols),
        min_size=1, max_size=7)))
    def test_rank_matches_dense(self, M):
        pivots = integer_echelon(dict(enumerate(row)) for row in M)
        assert len(pivots) == dense_rank(M)
        # primitive integer rows, each ending at its pivot, inside the row space
        for lead, row in pivots.items():
            assert max(row) == lead and math.gcd(*row.values()) == 1
            assert all(isinstance(v, int) for v in row.values())
        ncols = len(M[0])
        echelon = [[row.get(c, 0) for c in range(ncols)] for row in pivots.values()]
        assert dense_rank(M + echelon) == dense_rank(M)

    def test_integral_values_become_ints(self):
        # a Fraction with denominator 1 is accepted as its int, and a zero
        # entry in a row of ints is dropped
        pivots = integer_echelon([{0: Fraction(2), 1: Fraction(-4)}, {0: 1, 2: 0}])
        assert pivots == {0: {0: 1}, 1: {0: 1, 1: -2}}
        assert all(type(v) is int for row in pivots.values() for v in row.values())

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(ValidationError, match="not an integer"):
            integer_echelon([{0: Fraction(1), 1: Fraction(3, 2)}])
        with pytest.raises(ValidationError, match="not an integer"):
            integer_echelon([{0: 1}, {0: 0.5}])


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
            level_of = {v.code: v.level for v in sys.variables}
            for sol in rep.dirac_solutions:
                per_level = {}
                for code in sol:
                    per_level.setdefault(level_of[code], []).append(code)
                assert all(len(v) == 1 for v in per_level.values())
                assert sorted(per_level) == list(range(1, L + 1))
            a, b = rep.dirac_solutions
            assert a != b
        assert dims == {2: 1, 3: 3, 4: 12}

    def test_linear_order_level6(self):
        system = build_cro_system("linear_order", 6)
        rep = uniqueness_report(system)
        assert (rep.num_variables, rep.num_rows) == (873, 877)
        assert (rep.nullspace_dim, rep.dirac_count) == (321, 2)
        assert rep.uniform_feasible
        assert [projected_dimension(system, j) for j in range(1, 6)] == [0, 1, 3, 12, 56]

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

    def test_tournament_level5(self):
        rep = uniqueness_report(build_cro_system("tournament", 5))
        assert (rep.nullspace_dim, rep.dirac_count) == (399, 0)
        assert rep.uniform_feasible

    def test_triangle_free_level5(self):
        rep = uniqueness_report(build_cro_system("kn_free_graph:3", 5))
        assert (rep.nullspace_dim, rep.dirac_count) == (149, 0)
        assert rep.uniform_feasible

    def test_triangle_free_level6(self):
        # the sizes and the verdict are LEVEL6's, checked in TestLevelTables;
        # each cut is the level-5 system's nullity list, [..., 16, 149]
        system = build_cro_system("kn_free_graph:3", 6)
        assert [projected_dimension(system, j) for j in range(1, 6)] == [0, 0, 2, 16, 149]

    @pytest.mark.parametrize("cls,fibres", [
        ("kn_free_graph:3", (0, 0, 2, 14, 133, 2049)),
        ("kn_free_graph:4", (0, 0, 2, 21, 332, 9896)),
    ])
    def test_kn_free_level6_fibres(self, cls, fibres):
        system = build_cro_system(cls, 6)
        assert system.fibres == fibres
        assert uniqueness_report(system).nullspace_dim == sum(fibres) == LEVEL6[cls][2]


class TestFibres:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_character_gives_fixed_space_dimensions(self, k):
        # dim W_k^<g> by elimination, W_k's rows with x_s - x_(g s) added for
        # every order s, against the mean of the character over <g>
        index, rows = deletion_marginal_rows(k)
        chars = _characters(k)
        for g in cycle_type_representatives(k):
            moved = ((index[s], index[tuple(g[x] for x in s)]) for s in index)
            fixing = [{i: 1, j: -1} for i, j in moved if i != j]
            dim = len(index) - len(integer_echelon(rows + fixing))
            group, h = [], tuple(range(k))
            while not group or h != group[0]:
                group.append(h)
                h = tuple(g[x] for x in h)
            assert dim == Fraction(sum(chars[index[h]] for h in group), len(group)), g

    def test_inexact_character_sum_rejected(self, monkeypatch, fresh_tables):
        # a character summing to 1 over the edge's Aut of order 2 is no dimension
        monkeypatch.setattr(homord.cro, "_characters",
                            lambda k: [1] + [0] * (math.factorial(k) - 1))
        with pytest.raises(ValidationError, match="not a dimension"):
            build_cro_system("graph", 2)

    def test_tampered_rows_keep_assembled_fibres(self, cro_graph3):
        # the fibres are the nullity of the rows as assembled
        tampered = replace(cro_graph3, rows=cro_graph3.rows[:-1])
        assert uniqueness_report(tampered).nullspace_dim == 2


class TestProjection:
    def test_level3_shadow_of_level4(self, cro_graph3, cro_graph4):
        proj = projected_dimension(cro_graph4, 3)
        standalone = uniqueness_report(cro_graph3).nullspace_dim
        # deeper consistency can only cut the visible freedom down
        assert proj <= standalone
        assert proj == 2

    def test_keep_all_is_kernel_dim(self, cro_graph3):
        assert projected_dimension(cro_graph3, 3) == 2

    # dimension of the image on the levels <= j, for j = 1 .. L-1
    @pytest.mark.parametrize("cls,level,dims", [
        ("graph", 4, [0, 0, 2]),
        ("graph", 5, [0, 0, 2, 23]),
        ("tournament", 4, [0, 1, 3]),
        ("kn_free_graph:3", 4, [0, 0, 2]),
        ("kn_free_graph:3", 5, [0, 0, 2, 16]),
        ("linear_order", 5, [0, 1, 3, 12]),
    ])
    def test_level_cuts(self, cls, level, dims):
        system = build_cro_system(cls, level)
        assert [projected_dimension(system, j) for j in range(1, level)] == dims
        if level <= 4:
            basis = dense_kernel(system)
            for j, dim in enumerate(dims, 1):
                cols = [i for i, v in enumerate(system.variables) if v.level <= j]
                _, pivots = dense_rref([[vec[c] for c in cols] for vec in basis])
                assert len(pivots) == dim

    def test_verdict_runs_no_elimination(self, monkeypatch):
        calls = []
        real = homord.cro.integer_rref
        monkeypatch.setattr(homord.cro, "integer_rref", lambda rows: calls.append(1) or real(rows))
        oracle = helpers.integer_echelon
        monkeypatch.setattr(helpers, "integer_echelon", lambda rows: calls.append(1) or oracle(rows))
        system = build_cro_system("graph", 4)
        assert [projected_dimension(system, j) for j in (1, 2, 3, 4)] == [0, 0, 2, 23]
        assert uniqueness_report(system).nullspace_dim == 23
        assert calls == []  # the cuts and the report read the fibres
        assert len(system.variables) - len(echelon_pivots(system)) == 23
        assert len(calls) == 1  # the oracle's one elimination

    def test_level_zero_rejected(self, cro_graph3):
        with pytest.raises(ValidationError, match=r"level 0 outside \[1, 3\]"):
            projected_dimension(cro_graph3, 0)

    def test_level_past_max_rejected(self, cro_graph3):
        with pytest.raises(ValidationError, match="level 4 outside"):
            projected_dimension(cro_graph3, 4)

    def test_non_int_level_rejected(self, cro_graph3):
        for level in (2.0, "2", True, None):
            with pytest.raises(ValidationError, match="outside"):
                projected_dimension(cro_graph3, level)


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

    @pytest.mark.parametrize("cls,level", [
        (c, lv) for c in ("linear_order", "tournament", "pure_set") for lv in (1, 2, 3, 4)])
    def test_matches_unpruned_product(self, cls, level):
        # every choice of one candidate per base class, kept when it solves
        # the whole system
        system = build_cro_system(cls, level)
        cand = _dirac_candidates(system)
        found = []
        for combo in itertools.product(*(cand[key] for key in sorted(cand))):
            x = [0] * len(system.variables)
            for i in combo:
                x[i] = 1
            if satisfies(system, x):
                found.append(frozenset(system.variables[i].code for i in combo))
        assert dirac_solutions(system) == tuple(found)

    def test_node_cap(self, monkeypatch):
        # linear_order L=3 walks 1 + 1 + 2 + 2 nodes to its two solutions
        monkeypatch.setattr(homord.cro, "_NODE_CAP", 5)
        with pytest.raises(ResourceLimitError, match="exceeded 5 nodes"):
            dirac_solutions(build_cro_system("linear_order", 3))

"""Checks too slow for the default run, about 70 s in all.

    python3 -m pytest -q tests/slow_checks.py

pytest collects this module only when it is named on the command line: its
name does not match test_*.py.  The checks here pin the same kind of facts
as the default run at a larger scale: level 6 of the exact layer in fresh
processes, built again in one process, on kept lower levels and against the rank
oracle, every level of two depth-3 witness chains against the plain
enumeration, the p-value helpers on 5,000 tables, and automorphism search
on structures of up to 101 points.
"""

import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from helpers import ENV, clear_cro_caches, echelon_pivots, plain_open_instances
from homord.builders import (
    _forbid,
    _open_instances,
    audit_saturation,
    build_generic,
    class_by_name,
    hypercube_graph,
    paley_graph,
)
from homord.cro import build_cro_system, projected_dimension
from homord.groups import automorphisms
from homord.stats import _corr_pvalue, _joint_chi2_pvalue, _two_sample_pvalue
from homord.structures import find_isomorphism, make_structure
from test_cro import LEVEL6
from test_golden import CRO_SYSTEMS, cro_digest
import test_stats


@pytest.mark.parametrize("cls", LEVEL6)
def test_cold_cro_level6(cls):
    """`homord cro --n 6` in a fresh process: the level tables start empty."""
    r = subprocess.run([sys.executable, "-m", "homord", "cro", "--class", cls, "--n", "6"],
                       capture_output=True, text=True, env=ENV, timeout=600)
    assert r.returncode == 0, r.stderr
    d = json.loads(r.stdout)
    got = (len(d["variables"]), d["equalityCount"], d["nullspaceDim"], d["diracSolutions"],
           d["uniformFeasible"])
    assert got == (*LEVEL6[cls], [], True)


def test_level6_digests_on_warm_tables():
    """Each pinned level-6 system built twice in one process, K4-free (an
    edge class pinned at no level-6 digest) built in between: the second
    build joins the class's kept levels, and both match the pinned digest
    byte for byte."""
    clear_cro_caches()
    for cls, level in sorted(CRO_SYSTEMS):
        if level == 6:
            first = cro_digest(build_cro_system(cls, 6))
            build_cro_system("kn_free_graph:4", 6)
            assert (first, cro_digest(build_cro_system(cls, 6))) == (CRO_SYSTEMS[cls, 6],) * 2, cls


@pytest.mark.parametrize("cls", ["graph", "tournament"])
def test_level6_on_kept_level5(cls):
    """Level 6 assembled on top of the class's kept levels 1-5 in one
    process: the lower levels' variables and rows are the level-5 build's
    own objects, and the system matches the pinned level-6 digest."""
    clear_cro_caches()
    five = build_cro_system(cls, 5)
    six = build_cro_system(cls, 6)
    assert all(a is b for a, b in zip(five.variables, six.variables))
    mass5, mass6 = (sum(r.kind == "mass" for r in s.rows) for s in (five, six))
    assert all(a is b for a, b in zip(five.rows[:mass5], six.rows))
    assert all(a is b for a, b in zip(five.rows[mass5:], six.rows[mass6:]))
    assert cro_digest(six) == CRO_SYSTEMS[cls, 6]


@pytest.mark.parametrize("cls,cuts", [
    ("graph", [0, 0, 2, 23, 375]),
    ("tournament", [0, 1, 3, 27, 399]),
])
def test_level6_fibres_and_cuts_by_elimination(cls, cuts):
    # the verdicts read the closed-form fibres; the elimination in helpers
    # stays the oracle: the nullity from the rank, and each level cut from
    # the pivots (the kept columns less the pivots among them)
    system = build_cro_system(cls, 6)
    pivots = echelon_pivots(system)
    assert len(system.variables) - len(pivots) == sum(system.fibres)
    by_pivots = []
    for j in range(1, 6):
        kept = sum(1 for v in system.variables if v.level <= j)
        by_pivots.append(kept - sum(1 for c in pivots if c < kept))
    assert by_pivots == [projected_dimension(system, j) for j in range(1, 6)] == cuts


@pytest.mark.parametrize("cls,cap,seed", [("graph", 200, 2), ("tournament", 400, 1)])
def test_witness_walk_matches_plain_enumeration(cls, cap, seed):
    """Every level of a t=3 chain: the saturation the build stored against the
    audit, and the open instances from lo = 0 and from the size of the level
    below against the plain enumeration."""
    spec = class_by_name(cls)
    below = 0
    chain = build_generic(spec, 3, cap, seed)
    for S, stored in zip(chain.levels, chain.saturation):
        assert stored == audit_saturation(S, spec, 3), S.size
        ((_, into),) = S.bits.values()
        for lo in (0, below):
            got = _open_instances(into, 3, lo, _forbid(spec), spec.wiring)
            want = plain_open_instances(S, cls, 3, lo)
            assert len(got) == len(set(got)) and set(got) == want, (S.size, lo)
        below = S.size


def test_pvalues_match_scipy_stats_on_5000_tables(calls):
    """The three helpers against scipy.stats on 5,000 seeded 2 x m pattern
    tables drawn by the default run's generator.  scipy.stats ends in the
    same scipy.special calls, so the spy's record of the (dof, stat) and the
    (-z) each helper passed gives the scipy.stats value to compare."""
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(5000):
        ca, cb = test_stats.TestPValueOracles.counts(rng, int(rng.integers(2, 25)))
        pats = sorted(set(ca) | set(cb))
        table = np.array([[ca.get(p, 0) for p in pats], [cb.get(p, 0) for p in pats]])
        want = 1.0 if len(pats) == 1 else float(sps.chi2_contingency(table).pvalue)
        mismatches += _two_sample_pvalue(ca, cb) != want
        # the table as observations: pattern index and sample label
        x = np.repeat(np.tile(np.arange(len(pats), dtype=float), 2), table.ravel())
        y = np.repeat([0.0, 1.0], table.sum(axis=1))
        # a helper that returns early makes no call and must give 1.0
        calls.clear()
        p, want = _joint_chi2_pvalue([x, y]), 1.0
        if calls:
            _, (dof, stat) = calls[0]
            want = float(sps.chi2.sf(stat, dof))
        mismatches += p != want
        calls.clear()
        p, want = _corr_pvalue(x, y), 1.0
        if calls:
            _, (minus_z,) = calls[0]
            want = float(2 * sps.norm.sf(-minus_z))
        mismatches += p != want
    assert mismatches == 0


# closed-form orders: q(q-1)/2 for Paley q, 2^d d! for the d-cube
AT_SCALE = {
    "paley53": (lambda: paley_graph(53), 53 * 52 // 2),
    "paley61": (lambda: paley_graph(61), 61 * 60 // 2),
    "paley89": (lambda: paley_graph(89), 89 * 88 // 2),
    "paley101": (lambda: paley_graph(101), 101 * 100 // 2),
    "cube6": (lambda: hypercube_graph(6), 2**6 * math.factorial(6)),
}


@pytest.mark.parametrize("name", AT_SCALE)
def test_automorphism_groups_at_scale(name):
    """Every element a distinct permutation that maps E onto E; then
    find_isomorphism onto a seeded relabelling, whose map must carry E onto
    the relabelled E."""
    build, order = AT_SCALE[name]
    S = build()
    group = automorphisms(S)
    E, points = S.table("E"), list(range(S.size))
    assert group.complete and len(group) == order and len(set(group.elements)) == order
    assert all(sorted(g) == points and {(g[a], g[b]) for a, b in E} == E
               for g in group.elements)
    perm = random.Random(S.size).sample(points, S.size)
    T = make_structure(S.signature, S.size, {"E": {(perm[a], perm[b]) for a, b in E}})
    h = find_isomorphism(S, T)
    assert h is not None and sorted(h) == points
    assert {(h[a], h[b]) for a, b in E} == T.table("E")

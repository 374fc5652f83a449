"""Golden digests: witness completion, automorphism search, the exact
layer's output, the sampler streams and the stats results, pinned.

Any change to the builders' RNG draw order, the chain JSON layout, the
audited saturation depths, the infeasibility message, the order in which
the backtracker lists automorphisms, the type-code bytes, the CRO systems,
their kernel bases, the dichotomy demo's output, the tau-paths found and the
tau-path demo's output, the sampler streams, the sequence sources or the
stats results shows up here as a digest mismatch.
"""

import contextlib
import hashlib
import io
import itertools
import random
import runpy
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import disjoint_union, enumerate_types, structure_dumps
from homord.builders import (
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    chain_dumps,
    class_by_name,
    graph_class,
    hypercube_graph,
    paley_graph,
)
from homord.cli import main
from homord.cro import build_cro_system, kernel_basis
from homord.errors import ResourceLimitError, SaturationInfeasibleError
from homord.groups import automorphisms, invariant_equivalences, orbits
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
)
from homord.stats import (
    BiasedEdgeOrderSampler,
    BrokenCouplingSampler,
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
from homord.structures import (
    canonical_type,
    find_isomorphism,
    isomorphisms,
    make_structure,
)
from homord.taupaths import build_tau_index, find_tau_path


DEMOS = Path(__file__).parents[1] / "demos"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CHAINS = [
    ("graph", 2, 24, 0, (0, 1, 1, 1, 2),
     "ffd887e169f42958ab1f87d41f366dab0f6a3d003025ff5a7c89374833e7f067"),
    ("graph", 3, 200, 2, (0, 1, 2, 2, 2, 2, 3),
     "9380c42c8e21fc1799147330ca9461447b4725867deac6039c951a4bbdb615ba"),
    ("tournament", 3, 400, 1, (0, 1, 2, 2, 2, 3),
     "a74dbd5aa9941c921f15c9d19ca0f43e9b9abb441cd97e1459d146c28eac2e1d"),
    ("kn_free_graph:4", 2, 200, 0, (0, 1, 1, 1, 1, 2),
     "7987fe9eb36055bec30b532c3b1ed4f1487088c8fa662f02c06e30db8d742fba"),
    # a K5-free chain (19 vertices) and a second K4-free seed
    ("kn_free_graph:5", 2, 200, 0, (0, 1, 1, 1, 2),
     "cc1d22a43fbbd3059292842656f78e1e8534b5e2b2e5da651d1e2c260c83f430"),
    ("kn_free_graph:4", 2, 200, 1, (0, 1, 1, 1, 2),
     "1b04153f9aecdbad323feb414a32df28030d976f5572a48ce937c70dd43b4e27"),
]


@pytest.mark.parametrize("cls,t,cap,seed,saturation,digest", CHAINS,
                         ids=[f"{c[0]}-t{c[1]}-cap{c[2]}-seed{c[3]}" for c in CHAINS])
def test_chain_digest(cls, t, cap, seed, saturation, digest):
    chain = build_generic(class_by_name(cls), t, cap, seed)
    assert chain.saturation == saturation
    assert sha256(chain_dumps(chain)) == digest


def test_infeasible_message():
    with pytest.raises(SaturationInfeasibleError) as info:
        build_generic(class_by_name("kn_free_graph:3"), 2, 200, 1)
    assert str(info.value) == "saturation infeasible at cap 200 (depth 2, size 200)"


# The chain file `homord build --class C --seed 1` writes at default flags, for
# every class with a builder (and two explicit parameters).
BUILDS = {
    "pure_set": "45608505a272eec8fb6f96e4a4136e1d9171b6e6e6be3f2c28bc863923118db3",
    "graph": "da070e323cf493b8f9df97b440c24afcf11b5fbf8736f48358ecceab3bce9f1d",
    "kn_free_graph": "be6075188fc51a281145e3891c5fd577fa69b3d834fefa263af242c3a171980f",
    "kn_free_graph:4": "dd4f3835e2d9d4ccb53ebb0a413f071d57d99b01aa1d60991354b41e49614e73",
    "tournament": "87cbeeddfef0ac497e735f2a4182ea66e55d9aa14f3b978842a8f255ba6de4ac",
    "two_predicate_PQ": "42a2b8bdd4d66a7ba704e02de69769a5f23936dd697a1cdd440ca106743f2cae",
    "bipartite_deg2": "a25008024f5aa7b4fba644cfccc6acaa2ff4a56b4d2d7ff5df70fa4b03a66074",
    "involution_order": "aa27a22a4859817d4a41e8f82e2018d2679062ca659c0561a79e32f9dbe56723",
    "f2_vector_space": "05af470153d6889ea11b1ab6c80a5a6d501c5181a17a3c230509f54dc8623fd1",
    "f2_vector_space:2": "fa09a468e30f154d6fc8024fd9f3bdf5e36f7d7c5012a333192cb57805b8e70e",
}


@pytest.mark.parametrize("klass", sorted(BUILDS))
def test_cli_build_digest(klass, tmp_path, capsys):
    out = tmp_path / "chain.json"
    assert main(["build", "--class", klass, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == BUILDS[klass]


# `homord [SUBCOMMAND] --help` at 80 columns: each option, its order, metavar,
# choices and help string, as argparse 3.10-3.12 lays them out (3.13 words
# some of its help differently).
HELP = {
    "": "a8e90e9ae81d77484ec108eab9b63a3fab75918d5651858fab2abc31ad1f948a",
    "build": "8e2df21ba01868f63a35cfefcc35e1af053cf6f2e59e25e9b68dac6d68676351",
    "orbits": "63b56ea9be4f0a96b8dbf1319d8769993368b4036964c0517abcd6677cd0c871",
    "acl": "4fcd12e48e2d29211d38b81848c6dc1e521399e9dfc54be8f93da04800aeee3f",
    "tau-path": "baf0d8ff5af80a07c5fc491ebbd8387591768ff30cdbaa99cc32f07bfb4b8d47",
    "sample": "bdaa41587edec9e936df01c249aa55ea46ddc3632afc431cf401683c2c747951",
    "estimate": "0144e5328d91ea29208de915879d26ba00cb1750d4840d9da15ecac0e1c977af",
    "test": "3dcfbbd19920ad4aee554b5dac427016dfb5d11a83505deda6decacd7e44e828",
    "cro": "4af963b41cc35fe480a3d52259b001d4080f89ee3bd836360a67a1b7cad60bf1",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "root")
def test_cli_help_digest(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    assert sha256(capsys.readouterr().out) == HELP[command]


GROUPS = {
    "paley13": (lambda: paley_graph(13), 78,
                "4d27c5aeb18a82ef69c8f4aa1ba1800d6e4178d73b55e14a50fa5e7704e17d79"),
    "paley17": (lambda: paley_graph(17), 136,
                "7d604984e1b08c8f11d1861c9457a51bd097cd21c850f3ad7bbe8e2465eb518b"),
    "cube4": (lambda: hypercube_graph(4), 384,
              "a31cf730e4bc0f697a761f326386a7e1feb1792c9fbdd7003d8e122bffdc8f8c"),
    "cube5": (lambda: hypercube_graph(5), 3840,
              "cfb125e9a17cb2c6010bcd034e38059cbe6afbe6d42aef078524581463ee8904"),
    "f2_3": (lambda: build_f2_vector_space(3), 168,
             "fd6a60f80274d562c33c7bffa026665d2ae98b9b6bc1078becb45ab7f6b811da"),
    "involution4": (lambda: build_involution_order(4, 1), 1,
                    "70bb5bc3e90221cdf38783c4d1ae601495e3c1bb812244f94aa6c8e8b0116dd1"),
}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_automorphism_digest(name):
    make, order, digest = GROUPS[name]
    group = automorphisms(make())
    assert group.complete and len(group) == order
    assert sha256(repr(group.elements)) == digest


# Orbit blocks of k-tuples for k = 1, 2, 3, under the whole group and under
# the stabiliser of the point 1, then the invariant equivalence relations.
ORBITS = {
    "paley13": ("51dc6bdc64807d2634bff69fef154c9150527c4a262dc02650e69e1bf678f8f7",
                "09d98b91ebb59848c169fd51ef53af2d81a555a9af6bc0c3f551a9d97f170554"),
    "paley17": ("6e02145c80a5dec03c16fc08ae31dfcedfc0c85e8d6e1b95e492e9930bdd4fcf",
                "22a201825bd80e033b9b4be9617287601b3c453c1a100680023777161d51bbb3"),
    "cube4": ("82aa13d8d6db20e07fb06c5908f4200d8bad1e1f2c02fed7d1a2c70cd1206ba4",
              "920fa19f4ebb67ea5fac55293e033f0db4ec0f2e04d4b0fa3a5cefd61e6a5c46"),
}


@pytest.mark.parametrize("name", sorted(ORBITS))
def test_orbit_digest(name):
    S = GROUPS[name][0]()
    aut = automorphisms(S)
    blocks = [orbits(S, k, fixed, aut=aut).blocks
              for k in (1, 2, 3) for fixed in (frozenset(), frozenset({1}))]
    orbit_digest, equivalence_digest = ORBITS[name]
    assert sha256(repr(blocks)) == orbit_digest
    assert sha256(repr(invariant_equivalences(S, aut=aut))) == equivalence_digest


# Paley 29 is the slowest fixture the search has faced (|Aut| = 406); the
# truncated Paley 17 run pins which elements come first, not just the set.
PALEY29 = "7f3e67162c56376e9a460d951c45f565dd764b824bccecbd0465dce23cf51278"
PALEY17_FIRST50 = "b28f6a14c607691811e0c991b8226403ed47f829d7f982c8a6db573f9e0b04c7"
# The first 5,000 of the 40,320 automorphisms of the empty graph on 8 points:
# every level of the search has more than one image, and the bound cuts the
# list inside the third.
EMPTY8_FIRST5000 = "545d0c130ff4bbf21503a4bb431143d34b8d90bbe8720c873ffb9d82aba23f9b"


# Paley 41 (|Aut| = 820) in full and its first 100 elements; two disjoint
# Paley 13 copies (|Aut| = 2 x 78^2), the non-transitive case, where an
# automorphism swapping the copies reaches points of the first from the second.
PALEY41 = "cc828276a407057047d3222bb7c1312bd5aaf01c20337cd51770ebbc4fa9cac4"
PALEY41_FIRST100 = "a3fedf52046c02c51d6a9102e8c93fea079becdc812d3366e7fbfd74a55de863"
TWICE13 = "a51f340024373666245329cfab20cf5ba269eb46c2c9b401d77840803ef48b06"
TWICE13_FIRST1000 = "9231f97461eb6967713abebd1439cd49ef951a84f06a158410510cdeffb126f6"


def twice_paley13():
    return disjoint_union(paley_graph(13), paley_graph(13))


@pytest.mark.parametrize("make,order,bound,digest", [
    (lambda: paley_graph(41), 820, None, PALEY41),
    (lambda: paley_graph(41), 820, 100, PALEY41_FIRST100),
    (twice_paley13, 12168, None, TWICE13),
    (twice_paley13, 12168, 1000, TWICE13_FIRST1000),
], ids=["paley41", "paley41-first100", "twice13", "twice13-first1000"])
def test_large_automorphism_digest(make, order, bound, digest):
    group = automorphisms(make()) if bound is None else automorphisms(make(), bound=bound)
    assert group.complete == (bound is None)
    assert len(group) == (order if bound is None else bound)
    assert sha256(repr(group.elements)) == digest


def test_paley29_automorphism_digest():
    group = automorphisms(paley_graph(29))
    assert group.complete and len(group) == 406
    assert sha256(repr(group.elements)) == PALEY29


def test_paley17_truncated_digest():
    group = automorphisms(paley_graph(17), bound=50)
    assert not group.complete and len(group) == 50
    assert sha256(repr(group.elements)) == PALEY17_FIRST50


def test_empty8_truncated_digest():
    S = make_structure(graph_class().signature, 8, {})
    group = automorphisms(S, bound=5000)
    assert not group.complete and len(group) == 5000
    assert sha256(repr(group.elements)) == EMPTY8_FIRST5000


# find_isomorphism returns the first isomorphism in search order; pinned
# from Paley 17 to a fixed relabelling of it.
RELABEL17 = (2, 14, 3, 16, 10, 1, 9, 5, 11, 15, 6, 7, 8, 4, 0, 13, 12)


def test_find_isomorphism_pinned():
    S = paley_graph(17)
    T = make_structure(S.signature, S.size,
                       {"E": {(RELABEL17[a], RELABEL17[b]) for a, b in S.tables["E"]}})
    assert find_isomorphism(S, T) == [0, 1, 4, 10, 8, 16, 7, 3, 6, 14, 15, 2, 11, 12, 5, 13, 9]


# Every isomorphism from the 4-cube to a fixed relabelling of it, in order.
RELABEL16 = (10, 8, 12, 1, 2, 5, 9, 15, 0, 13, 3, 6, 4, 14, 7, 11)
CUBE4_ISOMORPHISMS = "e5ba5c6d34f54c3865f06f6e094c6248a71c843cc139f4891cde220a67f311d5"


def test_cube4_isomorphisms_digest():
    S = hypercube_graph(4)
    T = make_structure(S.signature, S.size,
                       {"E": {(RELABEL16[a], RELABEL16[b]) for a, b in S.tables["E"]}})
    found = list(isomorphisms(S, T))
    assert len(found) == 384
    assert sha256(repr(found)) == CUBE4_ISOMORPHISMS


# --- exact layer: type codes, CRO systems, kernel bases -------------------------
#
# Any change to the type-code bytes, the order of base representatives,
# variables or rows, or the exact kernel vectors shows up here.


def cro_digest(system) -> str:
    parts = [structure_dumps(A) for k in sorted(system.base_reps) for A in system.base_reps[k]]
    parts += [repr((v.code, v.level, v.base_index, v.order_count)) for v in system.variables]
    # rows hold ints; rendering them as Fractions keeps the pinned bytes
    parts += [repr((tuple((i, Fraction(c)) for i, c in r.coeffs), Fraction(r.rhs), r.kind))
              for r in system.rows]
    return sha256("\n".join(parts))


CRO_SYSTEMS = {
    ("graph", 1): "92256c20c5c793052a3f5a693c96cfcac1a56ae87bb5ee02fdfae6b6daa7be65",
    ("graph", 2): "ddef4b3c999cc72ded7671d68700fe1be319f4d4478dc2affb6313a9352cd5b9",
    ("graph", 3): "8dde70eec68c9bfff464dbd3a84d9f15e0aea2527f681b7019ffc36ed8c14980",
    ("graph", 4): "072c584be145add2f8d893f16b0eee725fdac75a003cbc54347397c3fb06936b",
    ("graph", 5): "ab239ee942fb115cea8732837a1b086b7bd74c856cbb0236c858d60982abe446",
    ("graph", 6): "efcf8391da7721aee182e2d86e99ece26ea8b1fff12ebaf614a753f0993192a8",
    ("tournament", 1): "8129ecc33de6408bc4e03bad7342615964d025ccc9c3f4520163d5e2e80a0261",
    ("tournament", 2): "92f4a4ee656ef3e2e3b441760f66c70998570114298f1381f50f3d74b74da54c",
    ("tournament", 3): "d1108f386c8180bfba602ec384963df26273dfff2177f9d30b882b1a56b431ee",
    ("tournament", 4): "a6d4aae0f94a3e227ebea4dffa9871ca3af2c88b875cd21ef880116c3b54e8bb",
    ("tournament", 5): "ac64a2941da62b900729644103535cbb0f332a1a5d4e0a8552143f85a4a96e64",
    ("tournament", 6): "8f23cca3d4c85b8fc6c4a7fefcde0c74362a22699f89383606123458699a2289",
    ("kn_free_graph:3", 1): "92256c20c5c793052a3f5a693c96cfcac1a56ae87bb5ee02fdfae6b6daa7be65",
    ("kn_free_graph:3", 2): "ddef4b3c999cc72ded7671d68700fe1be319f4d4478dc2affb6313a9352cd5b9",
    ("kn_free_graph:3", 3): "db738cc77e08d1ece24ec5763b52bb577de6c404eb922027714670695a8b8d2f",
    ("kn_free_graph:3", 4): "65a5132d56e3a6d2b81ecb861ea72983e4f9eb9ab39f07d4d1ab5a5d0774ed36",
    ("kn_free_graph:3", 5): "5e7be3e17224f665ee6f37492e2930697b14b8bd175cd9278aeca14eb6cd8747",
    ("kn_free_graph:3", 6): "e60313576159988686a2da8669a610d8ffd2d35235b020856757dd153c03a837",
    ("kn_free_graph:4", 5): "d19354a2e4877c78d7bd89b837eecac5be907166829fed988a30b1357d59e38d",
    ("linear_order", 1): "0492ebb0b8ae3298ffd306ba30756555ab10fec706afdf8092edf50438a3a483",
    ("linear_order", 2): "ba3d5436305f84f304d0c0c27f25ea4bf279c31c5456d90f862c7f5f1391b4a3",
    ("linear_order", 3): "5d5f879a05b29ac6997b659d993c4cf20e895f85392a1632e9c0eaa74af68cd9",
    ("linear_order", 4): "1bcf6d65227770f75f798b6a8aaf1b8f29517d9f541a6dc6ea8d8e9b7fb1d264",
    ("linear_order", 5): "5560cfe208396f358cd76a451f3a372691938e5dd02bafd17b68970d595dac0f",
    ("pure_set", 1): "00707216322c0f12ee5ca5874e5fe0e286e737ccb98907dad9585beb3ce765bb",
    ("pure_set", 2): "d8cffb8ed3477636dcdffc0865010c629e1705987dabab7a90c3cd2e3b8c1319",
    ("pure_set", 3): "3d8a15eefa5fa108abfa5aa1b5aa83f1de3f64b955a856f5f9c112dca12f871b",
    ("pure_set", 4): "9cd1a614087f20308f98011cca2d5631c2c3b1add9f62b95e6df9d2d2620f1ff",
    ("pure_set", 5): "05cf9ee89347f27bd08779013b9f8d45346429fd872e76cb02f64908803fbe9b",
    ("pure_set", 6): "cf1f8b8981361235badc8422537a417d586b3c0b7814692aca4629f6b28a121c",
}


@pytest.mark.parametrize("cls,level", sorted(CRO_SYSTEMS), ids=lambda v: str(v))
def test_cro_system_digest(cls, level):
    assert cro_digest(build_cro_system(cls, level)) == CRO_SYSTEMS[cls, level]


TYPE_SOURCES = {
    "f2_3": lambda: build_f2_vector_space(3),
    "involution4": lambda: build_involution_order(4, 1),
}
TYPE_CODES = {
    ("f2_3", 0): "71c913535fae343dcc5c95ab119c6844d1562774284fc14d0945517326e4d4d3",
    ("f2_3", 1): "b0505b76d2fe2920c8212e48743a322b3dbf1f69d4aa0bb20a696e18c99a448b",
    ("f2_3", 2): "7d512590434f393ba98a4779665f21f43ce93c1b0c6b5c3b435cf8499ecc6912",
    ("f2_3", 3): "41246edb5969092ee13f383568d036f1a74b8cb1aacfa25f9b5dcd09433919e8",
    ("involution4", 0): "6daa3c0dba57ea8fc9d3047e73ba4e973fe01491320be7f4fcbe8a88c28b6491",
    ("involution4", 1): "8257614b8ce13a17617adc3aeba8ef49020ae991a0632e0a2264593183c8c8cc",
    ("involution4", 2): "945ffe5051d1363e23095d5cd0f67d8673dd483deb02d7c429b852b4b46d65d5",
    ("involution4", 3): "37d3fdd1bafd273075f80a34e04d828c125628678ed5b7bfbf2ab05a415da3a8",
}


@pytest.mark.parametrize("name,k", sorted(TYPE_CODES), ids=lambda v: str(v))
def test_type_code_digest(name, k):
    codes = sorted(enumerate_types(TYPE_SOURCES[name](), k))
    assert sha256(repr(codes)) == TYPE_CODES[name, k]


KERNELS = {
    ("graph", 4): "0dccf276ef928daa79d1e01f3e448cf375647e4316ed8e7fa9c188ab87ff0811",
    ("tournament", 4): "169a2a158a77a8a8c6a51f9d1cc3e5bbb4aef1f421ff75bd041a18f9f247eba8",
    ("kn_free_graph:3", 4): "6723135c7572d9656be4ba79aae9d9637ddf3b32aea211c4e4fa0272ad43baf1",
    ("linear_order", 5): "bc023dd2447ea3284fa7f6db93de4aaf0f3d4984313f03de5265b26f7dcc01de",
}


@pytest.mark.parametrize("cls,level", sorted(KERNELS), ids=lambda v: str(v))
def test_kernel_basis_digest(cls, level):
    basis = kernel_basis(build_cro_system(cls, level))
    assert sha256(repr(basis)) == KERNELS[cls, level]


def _demo_stdout(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    return out.getvalue()


# The dichotomy demo prints nullities, Dirac solutions and one projected
# dimension; its whole stdout is pinned.
DEMO_06 = "2f1bf74b3d8f1a1b5feaecf7a56ca6b181521d8dcfc8dfabd0af90c519ef1af3"


def test_cro_demo_stdout_digest():
    assert sha256(_demo_stdout("06_cro_dichotomy.py")) == DEMO_06


# --- tau-paths ------------------------------------------------------------------
#
# Every ordered pair of the 4-cube under the edge type (half of them parity-
# blocked, so None), then seeded endpoints, types and avoid sets on the graph
# t=2 seed-0 chain top.  Each result is its node tuple, or None.
TAU_PATHS = "824bc4dca6ebbe4baf8382a1308f2a056b77922bef910e4aef4bc4118d40200f"
DEMO_03 = "8358ad0931e5046dcc01e2cffabcc4d6fdcde344ce9fcd70d2ff0fe1c4abf5e1"


def test_tau_path_digest():
    cube = hypercube_graph(4)
    edge = canonical_type(cube, (0, 1))
    index = build_tau_index(cube)
    found = [find_tau_path(cube, a, b, edge, index=index)
             for a, b in itertools.permutations(range(16), 2)]
    top = _graph_top()
    index = build_tau_index(top)
    taus = sorted(index.first)
    rng = random.Random(0)
    for _ in range(60):
        a, b = rng.sample(range(top.size), 2)
        tau = taus[rng.randrange(len(taus))]
        others = [v for v in range(top.size) if v not in (a, b)]
        avoid = frozenset(rng.sample(others, rng.randrange(0, 15)))
        found.append(find_tau_path(top, a, b, tau, avoid, index=index))
    assert sha256(repr([p if p is None else p.nodes for p in found])) == TAU_PATHS


# The whole tau index, codes and witness tuples in their stored order, of
# the 4-cube and of the graph t=2 seed-0 chain top.
TAU_INDEXES = {
    "cube4": "3b364f86f6cfd50f3976fddc446c87a8823e0fcb4dda28fa9ef9e682ddfb172d",
    "graph_top": "ba8a55c89a693f079c117207da8fb27bb8a28200dce94c9ee95489197e8c7018",
}


@pytest.mark.parametrize("name", sorted(TAU_INDEXES))
def test_tau_index_digest(name):
    S = hypercube_graph(4) if name == "cube4" else _graph_top()
    index = build_tau_index(S)
    assert sha256(repr((index.first, index.second))) == TAU_INDEXES[name]


def test_tau_path_demo_stdout_digest():
    assert sha256(_demo_stdout("03_tau_paths.py")) == DEMO_03


# --- sampler streams and the CLI sample output ----------------------------------
#
# Any change to a sampler's RNG draw order, its per-sample values, the tie
# rule, the chunking or the CSV written by `homord sample` shows up here.
# 5000 samples cross the 4096-sample chunk edge.

def _graph_top():
    return build_generic(graph_class(), 2, 24, 0).top


def _asc(S):
    return FixedOrder("asc", tuple(S.elements))


def _desc(S):
    return FixedOrder("desc", tuple(reversed(S.elements)))


def _one_atom():
    S = _graph_top()
    return AtomOrderSampler(S, AtomSpec(((0.5, 0.5),), {0.5: _asc(S)}))


def _two_atoms():
    S = _graph_top()
    spec = AtomSpec(((0.75, 0.3), (0.25, 0.2)), {0.75: _asc(S), 0.25: _desc(S)})
    return AtomOrderSampler(S, spec)


SAMPLERS = {
    "uniform": lambda: UniformOrderSampler(_graph_top()),
    "atoms1": _one_atom,
    "atoms2": _two_atoms,
    "conditioned": lambda: ConditionedAtomSampler(_one_atom(), 0.5, (3, 11)),
    "pq": lambda: PQOrderSampler(build_two_predicate_PQ(3, 4)),
    "bimin": lambda: BipartiteMinSampler(build_bipartite_deg2(5, seed=0)),
    "involution": lambda: InvolutionOrderSampler(build_involution_order(6, seed=2)),
    "dual": lambda: DualFunctionalSampler(build_f2_vector_space(3)),
}

STREAMS = {
    ("uniform", 0): "bd5d3b366fd0c4eda4dcee622b6549407c05f1ee14697ebb9da6ef69181897d3",
    ("uniform", 3): "f447686c4b6449b9856fab87f57bd31f7dfa4cb83ebe522bcf622d9c9786d015",
    ("atoms1", 0): "53f4c5d6111ba25f22bfbbb09e170fc1fd8f1e223e35419bdc0764619718a2b8",
    ("atoms1", 3): "b0fb17f40428ca5689a32d7316b158506043314fbcf6ea4e8f41c83a6090dac4",
    ("atoms2", 0): "899b9c2fd43e19ba49b53e88c2fc77f7df1a3411273e386035e99b63e5124aa7",
    ("atoms2", 3): "b7c67130022277a26378c813b641d9b1a42f210ce87ed99fbad6c1fe03ac8a4c",
    ("conditioned", 0): "237be378cf77583b978ab0e1e4cd65961ef6dacdb11b1a22e53467370bd9b23c",
    ("conditioned", 3): "a402684200bb35072dd104ec406755fb2a1e49333330bbc8278b41647834f2f7",
    ("pq", 0): "4f41b037dd56b491670cdecd86a3036d5b6102a1c6229c10cc8a91270af4b41f",
    ("pq", 3): "f0dd58eac501886f998b68c005a6a7dcc5926b35f19f4a8d22e6dedadc005667",
    ("bimin", 0): "9a4fe5c01106cccf6e4918eaa84241b0495635929b84ecd99ee892f554d2a73d",
    ("bimin", 3): "296daf8fed92f670316bec77df1345d502e3476a81193a006afd4b6f70b3c189",
    ("involution", 0): "2be168a9745c37eb5d2ad013b0c431d25a898dfff8651c2424c3a6dff70c40d6",
    ("involution", 3): "3b35edf722c298cb4c78f17e3176c7f0f435d4aa0e2130b3655333a38417a873",
    ("dual", 0): "af3430fc335aeab8c3cc04c11aa4d72e6bbe6b298b1ba4c2173439d62bea8564",
    ("dual", 3): "bae7619d94470b8e9fa54d67b2021f26660e9b7f210314a559d1817256b687c7",
}


@pytest.mark.parametrize("name,seed", sorted(STREAMS), ids=lambda v: str(v))
def test_stream_digest(name, seed):
    samples = list(SAMPLERS[name]().stream(seed, 5000))
    assert len(samples) == 5000
    assert sha256(repr(samples)) == STREAMS[name, seed]


CLI_SAMPLES = {
    (): "3e4ccaa1c6711cdb3dcabb307f2655479fef81945b7d7f6f5a703b520d671e3f",
    (5, 2, 11): "b08f82589844fd946bb41877e6a2b88b87a57ce6c36da1547e36dcba412b5304",
}


@pytest.mark.parametrize("points", sorted(CLI_SAMPLES), ids=lambda v: ",".join(map(str, v)) or "all")
def test_cli_sample_digest(points, tmp_path):
    chain, out = tmp_path / "chain.json", tmp_path / "samples.csv"
    chain.write_text(chain_dumps(build_generic(graph_class(), 2, 24, 0)))
    argv = ["sample", "--sampler", "uniform", "--in", str(chain), "--n", "5000",
            "--seed", "0", "--out", str(out)]
    if points:
        argv += ["--points", ",".join(map(str, points))]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_SAMPLES[points]


# --- stats verdicts and estimates -----------------------------------------------
#
# Any change to what a reducer counts, the samples it reads, the p-values or
# the `details` it reports shows up here.  Every sampler runs at n=5000, so
# each reduction crosses the 4096-sample chunk edge.

STATS_SAMPLERS = {
    **SAMPLERS,
    "biased": lambda: BiasedEdgeOrderSampler(_graph_top(), 0.2),
    "broken": lambda: BrokenCouplingSampler(_graph_top()),
}


def _stats_runs(sampler):
    el = sampler.elements
    pts, target = (el[1], el[3], el[0]), (el[3], el[0], el[1])
    pairs = [(el[0], el[1]), (el[2], el[3])]
    runs = {
        "independence_pair": lambda: independence_verdict(sampler, [(el[1], el[2])], 21, 5000),
        "independence_triple": lambda: independence_verdict(sampler, [el[1:4]], 22, 5000),
        "covariance": lambda: estimate_eta_covariance(sampler, (el[1], el[2]), 23, 5000),
    }
    if not isinstance(sampler, DualFunctionalSampler):
        runs.update({
            "estimate": lambda: estimate_order_event(sampler, pts, target, 5000, 24),
            "monotone_all": lambda: monotone_verdict(sampler, 25, 5000),
            "monotone_pairs": lambda: monotone_verdict(sampler, 26, 5000, pairs=pairs),
            "exchangeability": lambda: exchangeability_verdict(
                sampler, [tuple(pairs)], 27, 5000, require_equal_types=False),
        })
    return runs


STATS = {
    ("atoms1", "covariance"): "649fda1d93e9cc0aacb8e4e88571330316d721f09692ee2140f63313b8e8f4d5",
    ("atoms1", "estimate"): "5883b58e786b3154e6ab933119ac007c5d8a999aefd3bc44e2609f6f086b559d",
    ("atoms1", "exchangeability"): "2bb6555865bbecaf89d0634d377599dd7534d7df9ea14d87e6f2153e1dac1bec",
    ("atoms1", "independence_pair"): "2a52172d90350ebff282b4c2fa364870b5c3a742812933ca85987ad0427bb6b3",
    ("atoms1", "independence_triple"): "e58d0f84750f4c631bc943bd8b10498c2b3089862aa8dfd13af194f790ed72fe",
    ("atoms1", "monotone_all"): "22a0bd11f5f737c4c93b7b7c85b2cf0ec89f9897b50304e4b6a6fc7a5abf8a0f",
    ("atoms1", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
    ("atoms2", "covariance"): "8b72f9941c9702467f43f2a856d274032c5b37159728dffe57531f3e4d2bc7ff",
    ("atoms2", "estimate"): "4adfb61b72eafbacfdc7e93d7babbfc15304e7d233fe82f9e90cc283b7de225f",
    ("atoms2", "exchangeability"): "923412efc24b2f5ab403eadbcaa0c8e3aafc8204c5145475bb99cf806f85c0e6",
    ("atoms2", "independence_pair"): "94852e934dc7530a9258bc8f354fb22d5cd3e22e7e9ad4f1742eca6ceb73d7ee",
    ("atoms2", "independence_triple"): "8d0ffb83d332854e1a5bda08840ec93570ccb89a4bdd956d4f18559623e6d851",
    ("atoms2", "monotone_all"): "22a0bd11f5f737c4c93b7b7c85b2cf0ec89f9897b50304e4b6a6fc7a5abf8a0f",
    ("atoms2", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
    ("biased", "covariance"): "5fed8ed56de6a299c069cef5dfa5bd7c10c94bdbd1f9e2d8a3ba0d000910059b",
    ("biased", "estimate"): "be8bc67c8664bb1a8235b2346f359d1a0ff00424d38fb35a702435e42bab0280",
    ("biased", "exchangeability"): "a3204380f0863c3a9bb63fddad663bdcd68e2ae638f4f48444ed4db5ee2f6c3f",
    ("biased", "independence_pair"): "6eda0e47852b968979e6b3f572963931caac8811e9ad0f1c1c1906839a8b20f3",
    ("biased", "independence_triple"): "ed30aecee7ca066cf038e4791c66436515aae99fc39bbc9fe1dcaa8e954a1a5e",
    ("biased", "monotone_all"): "22a0bd11f5f737c4c93b7b7c85b2cf0ec89f9897b50304e4b6a6fc7a5abf8a0f",
    ("biased", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
    ("bimin", "covariance"): "2dbdf46b769b374c6b310fe24a6545c016f20d73de70654c95c80fa6cb2376f5",
    ("bimin", "estimate"): "08fefc27140cb85b430667e892aba2250d8d0cba7025ba55dbf1a640e8ae7bba",
    ("bimin", "exchangeability"): "af96685fc262b4432e7a774547dd80c21591e2624ec435ade4e1aef46ae4e729",
    ("bimin", "independence_pair"): "dea64e1fcaffe8add871a1ef82fc49c90270813161496f0d2dd2344ec3fd6791",
    ("bimin", "independence_triple"): "987796e2803b5dd143ac80857998eee5138bbdaffbc24729684a6a1443a05eb6",
    ("bimin", "monotone_all"): "710fdffd48f49dcb83b28221d68ea2aef2c0bcb0a465023638584b2e17719635",
    ("bimin", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
    ("broken", "covariance"): "ffa4bd71ec0219489a3c09ffd2baff9d97581cfacc0d75730e4369ce44123694",
    ("broken", "estimate"): "97cd80bb7698714f431e2c787037b0be9075927badd3be95c9ba7da70d812ca0",
    ("broken", "exchangeability"): "a1c2817b84afbf10955d49809ed909b309dfb7201ae9925276d38fd2dadd6515",
    ("broken", "independence_pair"): "c494cf9c7e4dc92cb4499bdbd99f512fd177e7be7547c9ea5a3b37c55c437712",
    ("broken", "independence_triple"): "85654b9a6032c19e4c4db52498b97920c428b8660705aeed9aa11a2da3f5af24",
    ("broken", "monotone_all"): "3370fe29b0364aac8ef98283759bea677803770ca4f787929e2032d9ff3ccb21",
    ("broken", "monotone_pairs"): "79101304a9931271a7016648b475c49cc42b81b93b3f99c9872fca53e4990bc0",
    ("conditioned", "covariance"): "757b586980d14dfb13afe946489bcabcd498c213cc81ff07700fbc9e323a0ba6",
    ("conditioned", "estimate"): "6a24fc29ec0dc6588d47e1e7293da1cfad5b13965b0eca78c618ece9d15888ec",
    ("conditioned", "exchangeability"): "e0d6316e7c3ce01b4a801c4c55c7ce76cf7985b98f84f3734de507464dea1f5b",
    ("conditioned", "independence_pair"): "8429cdc20f5a43386f62dc5d7fa34a3c04884dda0aefecc70c4ac1f5943150d9",
    ("conditioned", "independence_triple"): "d41fb5df34164ac9fea02ea684751e20e6fb2bf98a8a9221b0518d02b9414c09",
    ("conditioned", "monotone_all"): "22a0bd11f5f737c4c93b7b7c85b2cf0ec89f9897b50304e4b6a6fc7a5abf8a0f",
    ("conditioned", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
    ("dual", "covariance"): "c88c8d84694682cfa6fbeff1a3065ad4e983d2a4d4bc285e0d30818df9d3a00f",
    ("dual", "independence_pair"): "3e40fbc1ffd8c3221be946d954c1ba660dc100771fef7fb2c80ee424363ac467",
    ("dual", "independence_triple"): "987796e2803b5dd143ac80857998eee5138bbdaffbc24729684a6a1443a05eb6",
    ("involution", "covariance"): "67b0b2289c90fc0fb1964b43c7da6ed8d24faaeb777503a231f0af85207de9ad",
    ("involution", "estimate"): "fb4b30276d571db3d7b50a465d0158c5c6ca8707833a33a2367e1fd9ccfe7ad9",
    ("involution", "exchangeability"): "a3204380f0863c3a9bb63fddad663bdcd68e2ae638f4f48444ed4db5ee2f6c3f",
    ("involution", "independence_pair"): "0c872c4cb7263437b6538ae17230670dc1df1632f1cc658cf761e5a38b86657b",
    ("involution", "independence_triple"): "68f6dfc6d1104a60c4853b8ecd17b8bfe37ff04593d2364995a55aace2d0ec18",
    ("involution", "monotone_all"): "5c028dd1cea418f2be2df68578c5eeb873083a6250e0b6f4d997581a0c660b18",
    ("involution", "monotone_pairs"): "ae17b0c157651e26901cddc8c8405671760aaa43841742be006bca90e22bf4fb",
    ("pq", "covariance"): "f220f28c0b22e382a13f98230f45ead4496d25f9533d131b292351ce96c7bfe1",
    ("pq", "estimate"): "be8bc67c8664bb1a8235b2346f359d1a0ff00424d38fb35a702435e42bab0280",
    ("pq", "exchangeability"): "a3204380f0863c3a9bb63fddad663bdcd68e2ae638f4f48444ed4db5ee2f6c3f",
    ("pq", "independence_pair"): "250b7f963cc45f269a072fd644dae50fd8ebf6e2d948b795076849eed186d94a",
    ("pq", "independence_triple"): "416cc4f961420724886c02a1f12d6f70f52dbcd865132a118e4a436bf94be12b",
    ("pq", "monotone_all"): "deee277762c1676a3a8c9f2f412cbb6c8fc4e803c081f6b5264bc2fed2bc0694",
    ("pq", "monotone_pairs"): "c0d72de7ff5f575b51eca09c9148aeace67d7c5e72129843db358e5e6f0a9977",
    ("uniform", "covariance"): "0b2874994f19f0d0c3911dba60ec75f7159f457e3b77a4b6cc6d130e873189b3",
    ("uniform", "estimate"): "97cd80bb7698714f431e2c787037b0be9075927badd3be95c9ba7da70d812ca0",
    ("uniform", "exchangeability"): "a1c2817b84afbf10955d49809ed909b309dfb7201ae9925276d38fd2dadd6515",
    ("uniform", "independence_pair"): "1e5de367cbb9dcc1431a760accc4fa82949930b69605d2c5bacbd32cb3ff8666",
    ("uniform", "independence_triple"): "ed30aecee7ca066cf038e4791c66436515aae99fc39bbc9fe1dcaa8e954a1a5e",
    ("uniform", "monotone_all"): "22a0bd11f5f737c4c93b7b7c85b2cf0ec89f9897b50304e4b6a6fc7a5abf8a0f",
    ("uniform", "monotone_pairs"): "5c63968c815840270c726d6fec55cd4bd7be40ee33e86385abfd7dc9ef0e620f",
}


@pytest.mark.parametrize("name,run", sorted(STATS), ids=lambda v: str(v))
def test_stats_digest(name, run):
    result = _stats_runs(STATS_SAMPLERS[name]())[run]()
    assert sha256(repr(result) + repr(getattr(result, "details", None))) == STATS[name, run]


# Seed 2 accepts 1035 of the first chunk's 4096 draws, the last one at row
# 4095; so n=1035 needs exactly 4096 tries and n=1036 needs more.
CONDITIONED_BUDGET = {
    (1034, 40): "rejection sampler exceeded 40 tries (observed acceptance rate 0.39)",
    (1034, 4095): "963891b3dbf30a00b548e091c81a8a8dccfd97d20edc4b889a3466aef5e8af36",
    (1034, 4096): "963891b3dbf30a00b548e091c81a8a8dccfd97d20edc4b889a3466aef5e8af36",
    (1034, 4097): "963891b3dbf30a00b548e091c81a8a8dccfd97d20edc4b889a3466aef5e8af36",
    (1035, 40): "rejection sampler exceeded 40 tries (observed acceptance rate 0.39)",
    (1035, 4095): "rejection sampler exceeded 4095 tries (observed acceptance rate 0.252)",
    (1035, 4096): "3aeac60f216f22667b75bf61b5b26eb77baf57947e7f304fb815d23e12d6fb26",
    (1035, 4097): "3aeac60f216f22667b75bf61b5b26eb77baf57947e7f304fb815d23e12d6fb26",
    (1036, 40): "rejection sampler exceeded 40 tries (observed acceptance rate 0.39)",
    (1036, 4095): "rejection sampler exceeded 4095 tries (observed acceptance rate 0.252)",
    (1036, 4096): "rejection sampler exceeded 4096 tries (observed acceptance rate 0.253)",
    (1036, 4097): "rejection sampler exceeded 4097 tries (observed acceptance rate 0.253)",
}


@pytest.mark.parametrize("n,max_tries", sorted(CONDITIONED_BUDGET), ids=lambda v: str(v))
def test_conditioned_try_budget(n, max_tries):
    cond = ConditionedAtomSampler(_one_atom(), 0.5, (3, 11), max_tries=max_tries)
    try:
        outcome = sha256(repr(list(cond.stream(2, n))))
    except ResourceLimitError as exc:
        outcome = str(exc)
    assert outcome == CONDITIONED_BUDGET[n, max_tries]


# --- stream edges and sequence sources ------------------------------------------
#
# One sample, and one past the chunk edge, from every sampler: a stream's
# first rows must not depend on how many were asked for.  The sequence
# sources behind the shift-ergodicity suite are pinned array by array at
# n=5000, with the verdict each one gives.

EDGE_STREAMS = {
    ("atoms1", 1): "b9b2acb5e7b67370a9c122789d21b64ffb4d7a8946d890e2994501795c7c1798",
    ("atoms1", 4097): "4dda75ab4cc89db8c0820f51170d9e1e7faaf518ae4c36618b8545f70c5124b6",
    ("atoms2", 1): "113989cd54c89c692c65d242b20be4412c970f9000d8ee4a249d09c8a3470c87",
    ("atoms2", 4097): "d59eb5a8273b28e3e8f81eca9b378e12e4683b5910f92efdb8c06632786fde5e",
    ("biased", 1): "f4d9731dd670ea400d5c74c5701af1b53d0ef2705c94fe5c824a1860bcfe0e5d",
    ("biased", 4097): "665468ea86f2432b302c65324d95baceae46b68f7856c99ccaef1a6e22d63ad1",
    ("bimin", 1): "1acdd0f1da3860f37e32b8602d7ddf674e14b361d2ab414d7942fb28831bc1cb",
    ("bimin", 4097): "6ec2aa6deaccdb0d82bbb50e79a3a85e384aced18399d435f1e35122bac44ea9",
    ("broken", 1): "03d75696b97642193229bff0b5f1424d6f43b568838f87baa569ef917d6c8cfc",
    ("broken", 4097): "26c3edefba90d7ae87369bc2e6ca514e2a5f1540bd114716686eb1ee3217f2b3",
    ("conditioned", 1): "b9b2acb5e7b67370a9c122789d21b64ffb4d7a8946d890e2994501795c7c1798",
    ("conditioned", 4097): "b7310e66629e663e65a9d49701dbc4bf8941b9c15fcfc6f700490cef0af49ede",
    ("dual", 1): "d70eb2108998dbe11b14e5ee41982d5c34159672963186dd23235bbdc49315a6",
    ("dual", 4097): "9b3adf293ef5dfa465aa32cc5ef19d1694c2e6318277b438a5f9f2559f07090e",
    ("involution", 1): "a8bc0194f0eda6a28eda1b9c2624473b59b5603badf52db01e79f0367356fdc7",
    ("involution", 4097): "6bd7dc5741f7a6783a24ea0cceadd003bcd45b525a5ff12bb86d5d53b080e5c4",
    ("pq", 1): "056ed23cc9cfd00ebca95639558edebd7ccced3f08eabc8aafaaa24142e9c0a6",
    ("pq", 4097): "5e8c86ffadb24e92167393fbb137ae1fd0cca0da85c66084dbc7a764221b0f36",
    ("uniform", 1): "7dff1c02143e1e46fa4453e88f1c37f57ce5944deef466227e551caeb5f3950a",
    ("uniform", 4097): "313cc435594d76cdbeb5e4bd74898bcb93964f395bc343ff2b707204c5fc1205",
}


@pytest.mark.parametrize("name,n", sorted(EDGE_STREAMS), ids=lambda v: str(v))
def test_edge_stream_digest(name, n):
    samples = list(STATS_SAMPLERS[name]().stream(5, n))
    assert len(samples) == n
    assert sha256(repr(samples)) == EDGE_STREAMS[name, n]


def array_digest(arr) -> str:
    head = repr((arr.dtype.str, arr.shape)).encode()
    return hashlib.sha256(head + np.ascontiguousarray(arr).tobytes()).hexdigest()


SOURCES = {
    "iid_uniform": (lambda: iid_uniform_sequences(256), 31),
    "iid_bernoulli": (lambda: iid_bernoulli_sequences(0.3, 256), 32),
    "mixture": (lambda: mixture_bernoulli_sequences(0.25, 0.75, 256), 33),
    "constant": (lambda: constant_mixture_sequences(256), 34),
}

SOURCE_ARRAYS = {
    "constant": "ac781061dd628d0fb89e9340db9f588660b1bafd8d2417cbc0aebc2fbe2d4695",
    "iid_bernoulli": "541709f56a37ead59a386251b2749e1d21c9361591b2ee5fa8f12c0af6d41eda",
    "iid_uniform": "37b011a09c7767fddbb75676774182ddecfad38c5d26cf35a1e70362b7a4302a",
    "mixture": "f4e53d8f66d4a6ea55d0ce17471e28f5709b0f8468aa3d8fa7184bcd246f2f4c",
}

ERGODICITY = {
    "constant": "d04204cc0f1486c9644c6f0bcf3964c0e957188a8aaf8c37cb4d5db07595667e",
    "iid_bernoulli": "d2e216f4e2325e3c629b17622af1c1fa605dd04b52af35c67f1a353a0c16b2f9",
    "iid_uniform": "8c6bfbbbe00af626f1c7da3491f17655158a21edc394c93690780a02ec6af392",
    "mixture": "292868fff9dc0e4bc33b0c70f00d760887243ba268bd7b9658642cd17b3d1509",
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_sequence_source_digest(name):
    make, seed = SOURCES[name]
    assert array_digest(make()(seed, 5000)) == SOURCE_ARRAYS[name]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_shift_ergodicity_digest(name):
    make, seed = SOURCES[name]
    v = ergodicity_verdict(make(), 64, seed, 5000)
    assert sha256(repr(v) + repr(v.details)) == ERGODICITY[name]

"""Golden digests: witness completion, automorphism search and the exact
layer's output, pinned.

Any change to the builders' RNG draw order, the chain JSON layout, the
audited saturation depths, the infeasibility message, the order in which
the backtracker lists automorphisms, the type-code bytes, the CRO systems or
their kernel bases shows up here as a digest mismatch.
"""

import hashlib

import pytest

from homord.builders import (
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    chain_dumps,
    class_by_name,
    hypercube_graph,
    paley_graph,
)
from homord.cro import build_cro_system, kernel_basis
from homord.errors import SaturationInfeasibleError
from homord.groups import automorphisms
from homord.structures import enumerate_types, structure_dumps


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


GROUPS = {
    "paley13": (lambda: paley_graph(13), 78,
                "4d27c5aeb18a82ef69c8f4aa1ba1800d6e4178d73b55e14a50fa5e7704e17d79"),
    "paley17": (lambda: paley_graph(17), 136,
                "7d604984e1b08c8f11d1861c9457a51bd097cd21c850f3ad7bbe8e2465eb518b"),
    "cube4": (lambda: hypercube_graph(4), 384,
              "a31cf730e4bc0f697a761f326386a7e1feb1792c9fbdd7003d8e122bffdc8f8c"),
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


# --- exact layer: type codes, CRO systems, kernel bases -------------------------
#
# Any change to the type-code bytes, the order of base representatives,
# variables or rows, or the exact kernel vectors shows up here.


def cro_digest(system) -> str:
    parts = [structure_dumps(A) for k in sorted(system.base_reps) for A in system.base_reps[k]]
    parts += [repr((v.code, v.level, v.base_index, v.order_count)) for v in system.variables]
    parts += [repr((r.coeffs, r.rhs, r.kind)) for r in system.rows]
    return sha256("\n".join(parts))


CRO_SYSTEMS = {
    ("graph", 1): "92256c20c5c793052a3f5a693c96cfcac1a56ae87bb5ee02fdfae6b6daa7be65",
    ("graph", 2): "ddef4b3c999cc72ded7671d68700fe1be319f4d4478dc2affb6313a9352cd5b9",
    ("graph", 3): "8dde70eec68c9bfff464dbd3a84d9f15e0aea2527f681b7019ffc36ed8c14980",
    ("graph", 4): "072c584be145add2f8d893f16b0eee725fdac75a003cbc54347397c3fb06936b",
    ("graph", 5): "ab239ee942fb115cea8732837a1b086b7bd74c856cbb0236c858d60982abe446",
    ("tournament", 1): "8129ecc33de6408bc4e03bad7342615964d025ccc9c3f4520163d5e2e80a0261",
    ("tournament", 2): "92f4a4ee656ef3e2e3b441760f66c70998570114298f1381f50f3d74b74da54c",
    ("tournament", 3): "d1108f386c8180bfba602ec384963df26273dfff2177f9d30b882b1a56b431ee",
    ("tournament", 4): "a6d4aae0f94a3e227ebea4dffa9871ca3af2c88b875cd21ef880116c3b54e8bb",
    ("tournament", 5): "ac64a2941da62b900729644103535cbb0f332a1a5d4e0a8552143f85a4a96e64",
    ("kn_free_graph:3", 1): "92256c20c5c793052a3f5a693c96cfcac1a56ae87bb5ee02fdfae6b6daa7be65",
    ("kn_free_graph:3", 2): "ddef4b3c999cc72ded7671d68700fe1be319f4d4478dc2affb6313a9352cd5b9",
    ("kn_free_graph:3", 3): "db738cc77e08d1ece24ec5763b52bb577de6c404eb922027714670695a8b8d2f",
    ("kn_free_graph:3", 4): "65a5132d56e3a6d2b81ecb861ea72983e4f9eb9ab39f07d4d1ab5a5d0774ed36",
    ("kn_free_graph:3", 5): "5e7be3e17224f665ee6f37492e2930697b14b8bd175cd9278aeca14eb6cd8747",
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

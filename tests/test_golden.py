"""Golden digests: witness completion and automorphism search output, pinned.

Any change to the builders' RNG draw order, the chain JSON layout, the
audited saturation depths, the infeasibility message or the order in which
the backtracker lists automorphisms shows up here as a digest mismatch.
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
from homord.errors import SaturationInfeasibleError
from homord.groups import automorphisms


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

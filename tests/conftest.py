import pytest

from homord.builders import (
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    graph_class,
    paley_graph,
)


@pytest.fixture(scope="session")
def graph_chain():
    """Witness-saturated generic graph, depth 2, the workhorse structure."""
    return build_generic(graph_class(), t=2, cap=24, seed=0)


@pytest.fixture(scope="session")
def graph_chain_t3():
    """Depth-3 generic graph, build seed 2: 83 vertices over 7 levels."""
    return build_generic(graph_class(), t=3, cap=200, seed=2)


@pytest.fixture(scope="session")
def graph_top(graph_chain):
    return graph_chain.top


@pytest.fixture(scope="session")
def paley13():
    return paley_graph(13)


@pytest.fixture(scope="session")
def pq22():
    return build_two_predicate_PQ(2, 2)


@pytest.fixture(scope="session")
def bip5():
    return build_bipartite_deg2(5, seed=0)


@pytest.fixture(scope="session")
def inv6():
    # seed 2 realizes the fa<fb<a<b interleaving needed by the order tests
    return build_involution_order(6, seed=2)


@pytest.fixture(scope="session")
def cro_graph3():
    from homord.cro import build_cro_system

    return build_cro_system("graph", 3)


@pytest.fixture(scope="session")
def cro_graph4():
    from homord.cro import build_cro_system

    return build_cro_system("graph", 4)


@pytest.fixture(scope="session")
def f2d2():
    return build_f2_vector_space(2)


@pytest.fixture(scope="session")
def f2d3():
    return build_f2_vector_space(3)


@pytest.fixture
def calls(monkeypatch):
    """The (name, args) of each scipy.special call made since the list was
    last cleared; scipy.stats' own calls land here too."""
    from scipy import special

    seen = []
    for name in ("chdtrc", "ndtr"):
        real = getattr(special, name)
        monkeypatch.setattr(special, name,
                            lambda *a, _n=name, _f=real: seen.append((_n, a)) or _f(*a))
    return seen

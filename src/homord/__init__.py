"""homord: a laboratory for invariant random linear orders on finite
approximations of homogeneous structures.

Build finite approximations of amalgamation classes, compute quantifier-free
types and automorphism orbits, sample from the invariant order constructions,
search alternating 2-type paths, and certify ordering-consistency systems
with exact rational arithmetic.

`import homord` loads no submodule: each public name below is imported from
its module on first use (PEP 562), so a command pays only for the layers it
touches, and numpy only where a layer draws random numbers with it: the
samplers, the stats suites and two direct builders.  Witness completion
draws its coin flips in pure Python."""

import importlib

__version__ = "0.1.0"

# public names, grouped by the submodule that defines them
_MODULES = {
    "builders": """
        CLASSES FraisseClassSpec StructureChain audit_saturation bipartite_deg2_class
        bipartite_m_view build_bipartite_deg2 build_f2_vector_space
        build_generic build_involution_order build_two_predicate_PQ chain_dumps
        chain_from_json chain_loads chain_to_json class_by_name
        f2_vector_space_class find_involution_pattern_pair graph_class
        hypercube_chain hypercube_graph involution_m_view involution_order_chain
        involution_order_class kn_free_graph_class linear_order_class
        paley_graph pure_set_class tournament_class two_predicate_class
    """,
    "cro": """
        CroReport CroSystem OrderedType build_cro_system dirac_solutions
        enumerate_base_classes enumerate_ordered_types kernel_basis
        projected_dimension uniqueness_report
    """,
    "errors": """
        ResourceLimitError SaturationInfeasibleError TypeNotRealizedError
        ValidationError
    """,
    "groups": """
        AclProfile AutGroup OrbitPartition acl_profile automorphisms
        invariant_equivalences orbits
    """,
    "samplers": """
        AtomOrderSampler AtomSpec BipartiteMinSampler ConditionedAtomSampler
        DualFunctionalSampler FieldSample FixedOrder InvolutionOrderSampler
        OrderBatch OrderSample PQOrderSampler UniformOrderSampler derive_seed
    """,
    "stats": """
        BiasedEdgeOrderSampler BrokenCouplingSampler Estimate TestVerdict
        constant_mixture_sequences estimate_eta_covariance estimate_order_event
        iid_bernoulli_sequences iid_uniform_sequences
        mixture_bernoulli_sequences test_exchangeability
        test_independence test_monotone_coupling test_shift_ergodicity
    """,
    "structures": """
        FinStructure Signature TypeCode canonical_type find_isomorphism
        induced_substructure make_structure structure_from_json
        structure_to_json
    """,
    "taupaths": """
        DisjointPaths TauIndex TauPath build_tau_index disjoint_tau_paths
        find_tau_path verify_tau_path
    """,
}
_EXPORTS = {name: mod for mod, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        # the import binds the submodule as a package attribute
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_EXPORTS})

"""homord: a laboratory for invariant random linear orders on finite
approximations of homogeneous structures.

Build finite approximations of amalgamation classes, compute quantifier-free
types and automorphism orbits, sample from the invariant order constructions,
search alternating 2-type paths, and certify ordering-consistency systems
with exact rational arithmetic."""

from .builders import (
    FraisseClassSpec,
    StructureChain,
    audit_saturation,
    bipartite_deg2_class,
    bipartite_m_view,
    build_bipartite_deg2,
    build_f2_vector_space,
    build_generic,
    build_involution_order,
    build_two_predicate_PQ,
    chain_dumps,
    chain_from_json,
    chain_loads,
    chain_to_json,
    class_by_name,
    f2_vector_space_class,
    find_involution_pattern_pair,
    graph_class,
    hypercube_chain,
    hypercube_graph,
    involution_m_view,
    involution_order_chain,
    involution_order_class,
    involution_pair_pattern,
    kn_free_graph_class,
    linear_order_class,
    paley_graph,
    pure_set_chain,
    pure_set_class,
    tournament_class,
    two_predicate_class,
)
from .cro import (
    CroReport,
    CroSystem,
    OrderedType,
    build_cro_system,
    dirac_solutions,
    enumerate_base_classes,
    enumerate_ordered_types,
    kernel_basis,
    projected_dimension,
    uniform_point,
    uniqueness_report,
)
from .errors import (
    ResourceLimitError,
    SaturationInfeasibleError,
    TypeNotRealizedError,
    ValidationError,
)
from .groups import (
    AclProfile,
    AutGroup,
    OrbitPartition,
    acl_profile,
    automorphisms,
    invariant_equivalences,
    orbits,
)
from .samplers import (
    AtomOrderSampler,
    AtomSpec,
    BipartiteMinSampler,
    ConditionedAtomSampler,
    DualFunctionalSampler,
    FieldSample,
    FixedOrder,
    InvolutionOrderSampler,
    OrderBatch,
    OrderSample,
    PQOrderSampler,
    UniformOrderSampler,
    derive_seed,
    structure_order,
)
from .stats import (
    BiasedEdgeOrderSampler,
    BrokenCouplingSampler,
    Estimate,
    TestVerdict,
    constant_mixture_sequences,
    estimate_eta_covariance,
    estimate_order_event,
    iid_bernoulli_sequences,
    iid_uniform_sequences,
    mixture_bernoulli_sequences,
    order_pattern,
    test_exchangeability,
    test_independence,
    test_monotone_coupling,
    test_shift_ergodicity,
)
from .structures import (
    FinStructure,
    Signature,
    TypeCode,
    canonical_type,
    enumerate_types,
    find_isomorphism,
    induced_substructure,
    make_structure,
    structure_dumps,
    structure_from_json,
    structure_to_json,
    type_code_str,
)
from .taupaths import (
    DisjointPaths,
    TauIndex,
    TauPath,
    build_tau_index,
    disjoint_tau_paths,
    find_tau_path,
    verify_tau_path,
)

__version__ = "0.1.0"

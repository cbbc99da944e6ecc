"""Exact-integer toolkit for discrete polymatroids.

Construction and validation of discrete polymatroids, exchange-property
checks, the sorting operator, symmetric-exchange fiber graphs, and
Hilbert/h*-vector computations with Gorenstein criteria, all over plain
Python integers.
"""

__version__ = "0.1.0"

from .algebra import (
    FacetDescription,
    GenericGorensteinParams,
    GradedGenerators,
    HilbertData,
    base_ring_generators,
    base_ring_gorenstein,
    closed_inseparable_subsets,
    ehrhart_generators,
    ehrhart_gorenstein,
    generic_gorenstein_rank,
    graded_generators,
    h_star,
    hilbert_function,
    hilbert_values,
    is_generic,
    is_gorenstein_hstar,
    normality_check,
)
from .constructions import (
    Sublattice,
    TransversalPresentation,
    borel_gorenstein,
    is_strongly_stable,
    is_transversal,
    principal_borel,
    sublattice,
    sublattice_polymatroid,
    transversal,
    transversal_presentation,
    veronese,
)
from .core import (
    SizeCapExceeded,
    Vector,
    Verdict,
    as_vector,
    distance,
    exchange_step,
    join,
    max_points,
    meet,
    modulus,
    subset_elements,
    subset_mask,
    subsets,
    unit,
    zero,
)
from .exchange import (
    ExchangeMode,
    exchange_property,
    is_sortable,
    is_sorted,
    rewrite_balanced,
    sign_sequence,
    sort_pair,
    symmetric_exchange_witness,
)
from .sampling import random_polymatroid, random_rank_function
from .polymatroid import (
    BaseSet,
    DiscretePolymatroid,
    RankFunction,
    VectorSet,
    base_set,
    base_set_rank,
    bases,
    contract,
    count_bases,
    discrete_polymatroid,
    downward_closure,
    greedy_vertex,
    hull_consistency,
    is_base_set,
    is_discrete_polymatroid,
    lift,
    membership,
    polymatroid_from_rank,
    polymatroid_sum,
    rank_function,
    rank_function_from_values,
    truncate,
    validate_rank_function,
    vector_set,
    vertices,
)
from .toric import (
    ExchangeRelation,
    Fiber,
    FiberGraph,
    fiber_graph,
    fibers,
    symmetric_exchange_relations,
    white_check,
)

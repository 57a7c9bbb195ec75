"""Computing and certifying minimum induced saturated families of posets.

Desk-scale tooling for the induced saturation number of a poset (or family
of posets) over the Boolean lattice 2^[n]: explicit constructions, exact
branch-and-bound search, legs- and digraph-based lower-bound certificates,
the blow-up lift, and a transitive-cycle Turan oracle.
"""

from .digraph import (
    Digraph,
    auxiliary_digraph,
    contract_cycle,
    find_induced_oriented_cycle,
    has_transitive_cycle,
    is_tc_free,
    max_tc_free_edges_bruteforce,
    turan_bipartite,
)
from .family import (
    SetFamily,
    addable_sets,
    blow_up,
    complement_family,
    contains_induced_copy,
    inclusion_poset,
    is_induced_saturated,
    unique_pair_family,
    wedge_upper_family,
    x_upper_family,
    xell_upper_family,
    y_upper_family,
)
from .poset import (
    EmbeddingWitness,
    LegsWitness,
    Poset,
    catalog,
    catalog_small,
    dot_extension,
    dual,
    from_cover_relations,
    has_legs,
    is_induced_subposet,
    isomorphic,
    isomorphism_classes,
)
from .search import (
    SatStarResult,
    SearchConfig,
    SearchStats,
    boundedness_witness_check,
    certified_bounds,
    digraph_lower_bound_check,
    exact_sat_star,
    greedy_saturate,
    legs_lower_bound,
    legs_witness_map,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Size-Ramsey numbers of k-uniform hypergraphs at desk scale:
constructions, exact arrow decisions, colorings and experiment plumbing.
"""

__version__ = "0.1.0"

from .errors import (
    Budget,
    BudgetExceededError,
    CapsTooSmallError,
    ExhaustedPermutationsError,
    InvalidBaseColoringError,
    UnreachableOrderError,
)
from .hypergraph import (
    BLUE,
    RED,
    EdgeColoring,
    KUniformHypergraph,
    are_isomorphic,
    automorphism_count,
    find_isomorphism,
    independence_number,
    opposite,
)
from .constructions import (
    GadgetSpec,
    SteinerParams,
    SteinerResult,
    binary_three_tree,
    binary_tree_leaves,
    blowup_path_host,
    clique,
    clique_hypergraph,
    disjoint_union,
    ell_path,
    enumerate_cliques,
    find_ell_tree_order,
    gadget,
    gadget_family,
    greedy_partial_steiner,
    random_ell_tree,
    star_tree,
    verify_ell_tree,
)
from .embedding import (
    EmbedFailure,
    Embedding,
    PeelResult,
    copy_edge_masks,
    enumerate_copies,
    find_copy,
    greedy_tree_embed,
    peel_to_min_degree,
)
from .arrow import (
    ArrowResult,
    ArrowVerdict,
    ContractResult,
    LiftPartition,
    LiftResult,
    VhighVlowReport,
    arrows,
    clique_lift_coloring,
    contract_pair,
    degree_threshold_coloring,
    vhigh_vlow_coloring,
)
from .search import (
    SizeRamseyBound,
    enumerate_hosts,
    ramsey_number_small,
    size_ramsey_exact_tiny,
    size_ramsey_upper,
)
from .randomlab import (
    AccountingReport,
    CliqueStatsReport,
    GnpParams,
    ProcedureState,
    PropertyCheckReport,
    clique_stats,
    gnp,
    grow_monochromatic_tight_path,
    iterated_procedure,
    property_check,
)

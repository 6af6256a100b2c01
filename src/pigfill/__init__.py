"""Minimum proper-interval completions for threshold graphs and caterpillars,
plus minimum co-bipartite completions for quasi-threshold graphs, with
recognizers, brute-force oracles, instance generators and a CLI."""

from .caterpillar import (
    PlacementTables,
    build_placement_tables,
    caterpillar_pig_completion,
    materialize_fill_edges,
    placement_from_tables,
)
from .errors import ClassMembershipError, GraphInputError, OracleBudgetError
from .generators import (
    GadgetResult,
    caterpillar_from_buckets,
    enumerate_rooted_forests,
    enumerate_threshold,
    gen_caterpillar,
    gen_quasi_threshold,
    gen_split,
    gen_threshold,
    split_pig_reduction_gadget,
)
from .graph import (
    Graph,
    apply_fill,
    build_graph,
    complement,
    connected_components,
    edge,
    induced_subgraph,
    non_edges_within,
)
from .graphio import load_graph, parse_graph, save_graph, serialize_graph
from .oracle import (
    brute_max_cut,
    brute_min_cobipartite,
    brute_min_pig,
    forbidden_subgraph_scan,
    forbidden_subgraph_scans,
)
from .quasithreshold import DpTables, build_dp_tables, qt_cobipartite_completion
from .recognition import (
    DOMINATING,
    ISOLATED,
    CaterpillarDecomposition,
    CreationSequence,
    PigVerdict,
    QtForest,
    SplitPartition,
    caterpillar_decomposition,
    caterpillar_graph,
    forest_from_parents,
    is_proper_interval,
    is_umbrella_order,
    qt_forest_graph,
    quasi_threshold_forest,
    replay_creation_sequence,
    split_partition,
    threshold_creation_sequence,
)
from .results import CliqueBipartition, CompletionResult, PointPlacement, validate_completion
from .threshold import ThresholdRun, threshold_pig_completion, threshold_run

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

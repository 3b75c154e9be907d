"""anonspread: source-obfuscating spreading protocols, the adversaries that
attack them, and a Monte Carlo harness that checks both against closed-form
predictions."""

from .graph import (
    ContactNetwork,
    DegreeDistribution,
    ExplicitGraph,
    GaltonWatsonTree,
    Grid,
    RegularTree,
    degree_distribution,
    from_edges,
    galton_watson_tree,
    grid,
    grid_decode,
    grid_encode,
    hop_distance,
    load_edge_list,
    prune_min_degree,
    regular_tree,
)
from .spread import (
    InfectionSnapshot,
    LineTrace,
    ProtocolParams,
    SpyObservation,
    alpha_grid,
    alpha_regular,
    assign_spies,
    observations_for,
    spread_adaptive,
    spread_diffusion,
    spread_grid,
    spread_paad,
    spread_polya_line,
    spread_tree_protocol,
)
from .adversary import (
    Estimate,
    estimate_first_spy,
    estimate_irregular_ml,
    estimate_line_ml,
    estimate_map_leaf,
    estimate_multiple_snapshots,
    estimate_paad_map,
    estimate_snapshot_regular,
    estimate_spy_irregular,
    estimate_spy_ml,
    estimate_spy_snapshot,
)
from . import analysis
from .harness import (
    ExperimentConfig,
    ExperimentSummary,
    compare_with_theory,
    gw_map_detection_mc,
    run_experiment,
    spy_tree_detection_mc,
    sweep,
    write_summary_csv,
)

__version__ = "0.1.0"

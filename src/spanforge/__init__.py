"""spanforge: low-round graph spanner constructions with verification oracles."""

from .graph import (
    DomainError,
    EdgeListError,
    WeightedGraph,
    build_graph,
    component_labels,
    gen_complete,
    gen_cycle,
    gen_gnp,
    gen_grid,
    gen_path,
    gen_star,
    load_edge_list,
    parse_generator_spec,
    write_edge_list,
)
from .clustering import (
    Clustering,
    QuotientGraph,
    RadiusCertificate,
    check_radius,
    compose,
    contract,
    grow_clusters,
    identity_quotient,
    sample_clusters,
    singleton_clustering,
)
from .spanner import (
    CostModel,
    SpannerBuild,
    baswana_sen,
    cluster_merge_spanner,
    cost_model,
    epoch_count,
    epoch_schedule,
    general_spanner,
    stretch_bound,
    stretch_exponent,
    two_phase_spanner,
)
from .oracles import (
    RepetitionResult,
    SizeStats,
    StretchAudit,
    apsp_matrix,
    audit_stretch,
    bellman_ford,
    dijkstra,
    parallel_repetition,
    size_study,
)
from .apsp import (
    ApspReport,
    apsp_experiment,
    coordinator_budget,
)

__version__ = "0.1.0"

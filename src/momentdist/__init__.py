"""Graph similarity via spectral moment matrices.

Represents each graph by the Hankel moment matrix of its adjacency spectrum
in the uniform vector state, and measures graph distance as a distance
between these positive semidefinite matrices. Includes exact spectral-measure
oracles, competing baseline methods, and clustering/classification harnesses.
"""

__version__ = "0.1.0"

from .baselines import (
    EigensolverError,
    FeatureVector,
    GRAPHLET3_TYPES,
    GRAPHLET4_TYPES,
    bhattacharyya_dist,
    cov_descriptor,
    graphlet3_distribution,
    graphlet4_distribution,
    nclm_vector,
    top_k_eigenvalues,
)
from .experiments import (
    METHODS,
    CorpusSpecError,
    bench_moment_scaling,
    classify_experiment,
    cluster_experiment,
    make_rewired_corpus,
    method_distance_matrix,
)
from .graphs import (
    ConfigError,
    EdgeListError,
    Graph,
    NAMED_GRAPH_CATALOG,
    Permutation,
    SelfLoopError,
    UnknownGraphNameError,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    diameter,
    disjoint_union,
    empty_graph,
    generate_rewired,
    load_edge_list,
    named_graph,
    parse_edge_list,
    path_graph,
    permute,
    star_graph,
    walk_count,
    write_edge_list,
)
from .hankel import MomentMatrix, build_moment_matrix, hankel_rank, mix
from .learn import clustering_accuracy, kernel_from_distances, kernel_kmeans, knn_classify
from .measures import (
    DiscreteMeasure,
    graph_spectral_measure,
    measure_moment,
    spectral_measure,
)
from .metrics import (
    METRICS,
    DistanceConfig,
    DistanceMatrix,
    NonFiniteDistanceError,
    SingularMatrixError,
    affine_invariant_dist,
    cholesky_frobenius_dist,
    frobenius_dist,
    graph_distance,
    log_frobenius_dist,
    moment_matrix_of_graph,
    pairwise_distance_matrix,
)
from .moments import (
    DensityParams,
    EmptyGraphError,
    MomentSequence,
    NonFiniteMomentError,
    density_state_moments,
    trace_moments,
    vector_state_moments,
    xi_state_moments,
)

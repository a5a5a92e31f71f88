"""widthlab: exact graph width measures and seeded randomized experiments.

Computes rankwidth, booleanwidth, and the f-width of any user-supplied
symmetric cut function exactly at desk scale, on top of bit-packed GF(2)
linear algebra.  A seeded experiment harness samples random matrices and
random graphs, minimizes submatrix ranks, tracks width growth with n, and
audits the subspace-count chain linking booleanwidth to rankwidth, writing
byte-reproducible reports.

Quick start::

    from widthlab import cycle_graph, rankwidth, booleanwidth
    rankwidth(cycle_graph(5)).value      # 2.0
    booleanwidth(cycle_graph(5)).value   # 2.0: log2 of 4 unions, the empty one included

Command line: ``widthlab gen | width | lb | exp | oracle | check``.
"""

from ._version import __version__
from .boolspace import (
    BooleanSpaceSize,
    bell,
    boolean_row_space_size,
    cut_bool,
    galois_number,
    gaussian_binomial,
    log2_int,
)
from .errors import (
    BooleanSpaceOverflow,
    CapExceeded,
    ContractError,
    ParseError,
    StructureError,
    WidthlabError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    Table,
    bell_asymptotic_check,
    boolw_vs_rw_experiment,
    envelope_curve,
    lemma1_experiment,
    render_summary,
    render_table,
    scaling_experiment,
    write_report,
    write_table,
)
from .gf2 import (
    BitMatrix,
    format_matrix_text,
    min_submatrix_rank_exhaustive,
    min_submatrix_rank_sampled,
    parse_matrix_text,
    rank,
    rank_distribution_oracle,
    sample_matrix,
    submatrix,
)
from .graphs import (
    Cut,
    Graph,
    all_cuts,
    complete_graph,
    cut_matrix,
    cut_rank,
    cycle_graph,
    emit_edge_list,
    emit_graph6,
    empty_graph,
    parse_edge_list,
    parse_graph6,
    path_graph,
    sample_gnp_half,
)
from .rng import GENERATOR_NAME, SplitMix64, mix_seed
from .widths import (
    CUT_BOOL_FUNCTION,
    CUT_RANK_FUNCTION,
    CutFunction,
    DecompositionTree,
    WidthResult,
    balanced_cut_lower_bound,
    booleanwidth,
    brute_force_f_width,
    emit_tree,
    exact_f_width,
    parse_tree,
    rankwidth,
    tree_cuts,
    tree_width_under,
)

__all__ = [
    "__version__",
    "GENERATOR_NAME",
    "SplitMix64",
    "mix_seed",
    "BitMatrix",
    "rank",
    "submatrix",
    "sample_matrix",
    "rank_distribution_oracle",
    "min_submatrix_rank_exhaustive",
    "min_submatrix_rank_sampled",
    "parse_matrix_text",
    "format_matrix_text",
    "BooleanSpaceSize",
    "boolean_row_space_size",
    "cut_bool",
    "bell",
    "gaussian_binomial",
    "galois_number",
    "log2_int",
    "Graph",
    "Cut",
    "all_cuts",
    "sample_gnp_half",
    "cut_matrix",
    "cut_rank",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "empty_graph",
    "parse_graph6",
    "emit_graph6",
    "parse_edge_list",
    "emit_edge_list",
    "CutFunction",
    "CUT_RANK_FUNCTION",
    "CUT_BOOL_FUNCTION",
    "DecompositionTree",
    "WidthResult",
    "tree_width_under",
    "exact_f_width",
    "brute_force_f_width",
    "balanced_cut_lower_bound",
    "rankwidth",
    "booleanwidth",
    "tree_cuts",
    "emit_tree",
    "parse_tree",
    "ExperimentConfig",
    "ExperimentReport",
    "Table",
    "lemma1_experiment",
    "scaling_experiment",
    "boolw_vs_rw_experiment",
    "envelope_curve",
    "bell_asymptotic_check",
    "write_report",
    "write_table",
    "render_summary",
    "render_table",
    "WidthlabError",
    "CapExceeded",
    "BooleanSpaceOverflow",
    "ParseError",
    "ContractError",
    "StructureError",
]

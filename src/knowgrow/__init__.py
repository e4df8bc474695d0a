"""knowgrow: growth-law fitting and knowledge-graph analysis at desk scale.

The package fits closed-form growth laws (logarithmic-integral and related
quasi-linear families) to monthly corpus series, computes structural metrics
on directed snapshot graphs, generates preferential-attachment baselines,
traverses category hierarchies, and scores citation graphs with the
disruption index.  Everything is deterministic given inputs and seeds.
"""

__version__ = "0.1.0"

from .growth import (  # noqa: F401
    GrowthModel,
    DomainError,
    STANDARD_FAMILIES,
    QUASI_LINEAR_FAMILIES,
    family_spec,
    li_three_term,
    log_integral,
    model_catalog,
)
from .fitting import (  # noqa: F401
    FitError,
    FitResult,
    TimeSeries,
    fit,
    fit_points,
    forecast,
    mape,
    ratio_series,
    segment_break,
    select,
    select_points,
)
from .graph_metrics import (  # noqa: F401
    SnapshotGraph,
    avg_shortest_path,
    clustering_coefficient,
    degree_entropy,
    density,
    effective_diameter,
    entropy_reference_curve,
    lognormal_fit,
    mean_degree,
    normalized_structural_entropy,
    powerlaw_fit,
)
from .ba import BAParams, compare, generate, theory  # noqa: F401
from .taxonomy import (  # noqa: F401
    CategoryGraph,
    count_members,
    count_members_by_level,
    descendants,
    detect_cycles,
    wag_root_presets,
)
from .disruption import (  # noqa: F401
    CitationGraph,
    DScore,
    d_index,
    d_index_all,
    inclusion_lag,
    intersect_analysis,
    rank,
)

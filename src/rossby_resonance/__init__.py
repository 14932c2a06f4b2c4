"""Exact search, clustering and verification of resonant Rossby-wave triads.

Everything verdict-bearing runs in exact integer or rational arithmetic;
floating point appears only in presentation-layer statistics.
"""

from .cluster_graph import (
    NO_SCALING_DETECTED,
    SCALING_FAMILY_DETECTED,
    Cluster,
    build_components,
    flag_scaling,
    order_clusters,
)
from .exact_core import (
    QuarticPoly,
    ReducedFraction,
    ResonantTriad,
    TrivialInteractionError,
    Wavenumber,
    canonical_triad,
    integer_roots,
    is_resonant,
    quartic_coeffs,
    residual,
    sigma,
    sign_class,
)
from .partner_search import (
    AngularHistogram,
    EnumerationReport,
    enumerate_lambda,
    find_partners,
    histogram_to_csv,
    naive_partner_oracle,
    search_radius,
    stats_anisotropy,
)
from .verification import (
    VerificationReport,
    check_proof_identity,
    generate_family,
    verify_axis_theorem,
    verify_diophantine_lemma,
)

__version__ = "0.1.0"

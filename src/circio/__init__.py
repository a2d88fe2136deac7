"""circio: isomorphism tooling for circulant graphs.

Connection-set arithmetic, multiplier (Type-1) orbits, the block-shift
(Type-2) transform, an independent canonical-labeling oracle, family
enumeration at order 54, exhaustive small-order scans, construction
generators, and golden-row verification.
"""

from .classify import (
    NON_ISOMORPHIC,
    TYPE1,
    TYPE2,
    UNKNOWN,
    Classification,
    TupleRecord,
    classify_pair,
    classify_tuple,
)
from .constructions import generate_a17c, generate_c1
from .core import (
    CirculantGraph,
    ConnectionSet,
    adjacency_spectrum,
    first_spectral_gap,
    reflexive_reduce,
)
from .enumeration import (
    DEFAULT_SCAN_BUDGET,
    ScanReport,
    enumerate_family,
    full_scan,
    worker_count,
)
from .errors import (
    BudgetExceeded,
    CircioError,
    DegeneratePair,
    Intractable,
    InvalidIndex,
    InvalidParams,
    NotAUnit,
    OrderMismatch,
    WitnessMismatch,
    ZeroJump,
)
from .goldens import GoldenReport, GoldenRow, load_golden_rows, verify_goldens
from .multipliers import (
    adam_orbit,
    is_adam_equivalent,
)
from .oracle import (
    DEFAULT_BUDGET,
    CanonicalForm,
    IsoVerdict,
    canonical_edges_of,
    canonical_form,
    isomorphic,
    verify_permutation,
)
from .probes import ProbeEntry, ProbeReport, probe_open_problems
from .theta import (
    ThetaParams,
    theta_image,
    theta_scan,
    theta_vertex_map,
    theta_witness,
    valid_block_moduli,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "CanonicalForm",
    "CircioError",
    "CirculantGraph",
    "Classification",
    "ConnectionSet",
    "DEFAULT_BUDGET",
    "DEFAULT_SCAN_BUDGET",
    "DegeneratePair",
    "GoldenReport",
    "GoldenRow",
    "Intractable",
    "InvalidIndex",
    "InvalidParams",
    "IsoVerdict",
    "NON_ISOMORPHIC",
    "NotAUnit",
    "OrderMismatch",
    "ProbeEntry",
    "ProbeReport",
    "ScanReport",
    "ThetaParams",
    "TupleRecord",
    "TYPE1",
    "TYPE2",
    "UNKNOWN",
    "WitnessMismatch",
    "ZeroJump",
    "adam_orbit",
    "adjacency_spectrum",
    "canonical_edges_of",
    "canonical_form",
    "classify_pair",
    "classify_tuple",
    "enumerate_family",
    "first_spectral_gap",
    "full_scan",
    "generate_a17c",
    "generate_c1",
    "is_adam_equivalent",
    "isomorphic",
    "load_golden_rows",
    "probe_open_problems",
    "reflexive_reduce",
    "theta_image",
    "theta_scan",
    "theta_vertex_map",
    "theta_witness",
    "valid_block_moduli",
    "verify_goldens",
    "verify_permutation",
    "worker_count",
]

"""capax: certified two-sided analytic capacity bounds for the sublevel sets
{|R(z)| >= 1} of rational maps in partial-fraction form."""

from .boundary import BoundaryCurve, BoundarySampling, emit_csv, emit_svg, quad_inner, trace
from .capacity import (
    Ahlfors,
    AhlforsVerdict,
    BasisSpec,
    CapacityBounds,
    GramSystem,
    assemble_gram,
    bounds_sequence,
    enumerate_basis,
    verdict,
)
from .cli import format_map, parse_map
from .closedform import (
    FamilyVerdict,
    IntervalSet,
    degree2_classify,
    interval_ahlfors,
    interval_capacity,
    positive_residue_path,
    real_family_classify,
    rotational_amplitude_bound,
    rotational_map,
)
from .errors import (
    AmplitudeOutOfRange,
    CapaxError,
    ComponentCountMismatch,
    DuplicatePole,
    EmptyBasis,
    IllConditioned,
    InvalidMap,
    NonConvergence,
    OnSlit,
    ParseError,
    PoleCollision,
    PoleHit,
    TrackingAmbiguity,
)
from .ratmap import (
    CriticalData,
    Goodness,
    GoodnessVerdict,
    RationalMapPF,
    affine_conjugate,
    critical_data,
    evaluate,
    is_n_good,
    perturbed,
    preimages,
)

__version__ = "0.1.0"

# name of the one root-solving path (numerics); benchmark reports record it
BACKEND = "numpy"

__all__ = [name for name in dir() if not name.startswith("_")]

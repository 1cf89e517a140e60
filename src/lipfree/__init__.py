"""Free-space norms over finite pointed metric spaces, with the explicit
annulus, extension, and retraction operators and their measured constants."""

__version__ = "0.1.0"

from .errors import (
    BadFamily,
    BadParameter,
    BadSubset,
    BadSuite,
    CoverageGap,
    DuplicatePoint,
    InternalInvariantBroken,
    LipfreeError,
    Mismatch,
    NotSigmaClosed,
    PoleInDomain,
    SizeLimit,
    SupportMismatch,
    TooLarge,
    TooSmall,
)
from .metric import (
    IntervalSpec,
    PointedMetricSpace,
    build_space,
    doubling_constant_upper,
    line_space,
    maximal_separated_net,
    snowflake,
    space_from_matrix,
    validate_p_metric,
)
from .freenorm import (
    FreeNormResult,
    Molecule,
    free_norm_exact_small,
    free_norm_p1,
    free_norm_upper,
    measure_lipschitz,
    norm_rows,
    norm_value,
)
from .decomposition import (
    AnnulusFamily,
    LinearMapMatrix,
    WeightSystem,
    annulus_family,
    build_hat_partition,
    commuting_approximants,
    norm_bound_T,
    operator_P,
    operator_T,
    separated_family_bound,
    two_band_cores,
    unit_interval_cores,
    verify_etp_identity,
    verify_pst_identity,
    verify_separated_inverse,
)
from .extension import (
    ExtensionMap,
    WhitneySystem,
    amenability_defect,
    doubling_extension_map,
    extension_constant,
    linearization_residual,
    point_removal_map,
    weight_variation_check,
    whitney_cover,
)
from .geometry import (
    SphereSample,
    eta,
    mirror_band_residual,
    outward_amenability_map,
    radial_clamp_builder,
    radial_retraction,
    stereographic,
    xi,
)
from .generators import generate
from .suites import SuiteConfig, report_diff, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]

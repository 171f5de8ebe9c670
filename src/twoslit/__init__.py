"""Two-slit matter-wave interference with an attempted which-path
detection behind one slit, on a 1D free-kernel propagation model.

Atomic units everywhere: hbar = electron mass = bohr = 1.
"""

from .analysis import (
    SweepRow,
    fraunhofer_oracle,
    fringe_spacing,
    intensity,
    local_visibility_profile,
    onset_metrics,
    visibility,
)
from .apparatus import (
    Apparatus,
    DetectorConfig,
    Geometry,
    GridSpec,
    cm_to_bohr,
    make_detector,
    make_particle,
    validate,
)
from .config import AnalysisSettings, load_config, parse_config
from .errors import (
    ConfigError,
    InvalidArgumentError,
    InvalidStateError,
    NoFringesError,
    NumericalError,
)
from .paths import (
    Path,
    PathBundle,
    SpacetimeEvent,
    crossing_count,
    mc_kernel_estimate,
    path_action,
    sample_bundle,
    truncate_bundle,
)
from .propagator import (
    PlaneField,
    free_kernel,
    point_source_field,
    propagate,
    transmitted_power,
)
from .scenario import (
    ChannelSet,
    crossing_window,
    detection_probability,
    kick_visibility_factor,
    stub_source,
    sweep_interslit,
)
from .uncertainty import packet_uncertainties

__version__ = "0.1.0"

__all__ = [
    "AnalysisSettings",
    "Apparatus",
    "ChannelSet",
    "ConfigError",
    "DetectorConfig",
    "Geometry",
    "GridSpec",
    "InvalidArgumentError",
    "InvalidStateError",
    "NoFringesError",
    "NumericalError",
    "Path",
    "PathBundle",
    "PlaneField",
    "SpacetimeEvent",
    "SweepRow",
    "cm_to_bohr",
    "crossing_count",
    "crossing_window",
    "detection_probability",
    "fraunhofer_oracle",
    "free_kernel",
    "fringe_spacing",
    "intensity",
    "kick_visibility_factor",
    "load_config",
    "local_visibility_profile",
    "make_detector",
    "make_particle",
    "mc_kernel_estimate",
    "onset_metrics",
    "packet_uncertainties",
    "parse_config",
    "path_action",
    "point_source_field",
    "propagate",
    "sample_bundle",
    "stub_source",
    "sweep_interslit",
    "transmitted_power",
    "truncate_bundle",
    "validate",
    "visibility",
    "__version__",
]

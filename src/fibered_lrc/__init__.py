"""Locally recoverable codes with availability two from fibered surfaces."""

from .construction import (EvaluationSet, NiceOrbit, SurfaceParams,
                           build_evaluation_set, find_nice_orbits,
                           recovery_indices, surface_params)
from .gf import FieldSpec, make_field, parse_field_label
from .lrc_code import (CodeProfile, DistanceResult, GeneratorMatrix, basis,
                       code_profile, distance_b1, distance_lower_bound, encode,
                       f_min_message, generator_matrix, min_distance,
                       singleton_availability_upper)
from .recovery import RepairResult, recover_horizontal, recover_vertical, repair
from .simulate import SimReport, StorageScenario, run_simulation, storage_scenario

__version__ = "0.1.0"

__all__ = [
    "CodeProfile",
    "DistanceResult",
    "EvaluationSet",
    "FieldSpec",
    "GeneratorMatrix",
    "NiceOrbit",
    "RepairResult",
    "SimReport",
    "StorageScenario",
    "SurfaceParams",
    "basis",
    "build_evaluation_set",
    "code_profile",
    "distance_b1",
    "distance_lower_bound",
    "encode",
    "f_min_message",
    "find_nice_orbits",
    "generator_matrix",
    "make_field",
    "min_distance",
    "parse_field_label",
    "recover_horizontal",
    "recover_vertical",
    "recovery_indices",
    "repair",
    "run_simulation",
    "singleton_availability_upper",
    "storage_scenario",
    "surface_params",
    "__version__",
]

"""Adaptive randomized range approximation of PDE transfer operators,
with a GFEM driver for localized model order reduction."""

from .fem import PdeSpec, RectMesh, build_rect_mesh
from .gfem import (build_gfem_problem, build_patches, gfem_run, local_space,
                   partition_of_unity, tolerance_cascade)
from .linalg import InnerProductSpace, NearSingularError, RangeBasis, factorize
from .oracle import weighted_svd
from .problems import build_gfem_mesh, build_interface_transfer, gfem_field
from .rangefinder import (RngStream, a_priori_bound, adaptive_randomized_range,
                          c_eff, c_est, fixed_rank_range, norm_estimate,
                          projection_error)
from .transfer import ResidualOperator, TransferOperator

__version__ = "0.1.0"

__all__ = [
    "InnerProductSpace",
    "NearSingularError",
    "PdeSpec",
    "RangeBasis",
    "RectMesh",
    "ResidualOperator",
    "RngStream",
    "TransferOperator",
    "a_priori_bound",
    "adaptive_randomized_range",
    "build_gfem_mesh",
    "build_gfem_problem",
    "build_interface_transfer",
    "build_patches",
    "build_rect_mesh",
    "c_eff",
    "c_est",
    "factorize",
    "fixed_rank_range",
    "gfem_field",
    "gfem_run",
    "local_space",
    "norm_estimate",
    "partition_of_unity",
    "projection_error",
    "tolerance_cascade",
    "weighted_svd",
    "__version__",
]

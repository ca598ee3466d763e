"""Ready-made model problems: the straight-channel interface transfer
operator (Laplace or Helmholtz) and the unit-square diffusion setup the
GFEM experiments run on."""

import numpy as np
import scipy.sparse as sp

from .fem import (GAMMA_OUT, GEOM_TOL, SIGMA_D, SIGMA_N, PdeSpec,
                  assemble_interface_l2, assemble_system, box_indicator,
                  build_rect_mesh, constrain_system)
from .linalg import InnerProductSpace, factorize
from .transfer import TransferOperator


def build_interface_transfer(h_inv, length=1.0, width=1.0, kappa=0.0):
    """Transfer map of a channel (-L, L) x (0, W).

    Boundary data lives on the two far edges x = +-L, the response is
    read on the mid line x = 0; the long sides carry natural boundary
    conditions.  Traces are measured in the L2 products of their lines.
    """
    mesh = build_rect_mesh(
        (-length, length, 0.0, width), 1.0 / h_inv, "q1",
        lambda x, y: np.where(np.abs(np.abs(x) - length) <= GEOM_TOL,
                              GAMMA_OUT, SIGMA_N))
    factorization = factorize(
        constrain_system(mesh, assemble_system(mesh, PdeSpec(kappa=kappa))))

    gram_l, ids_l = assemble_interface_l2(mesh,
                                          mesh.nodes_on_line("x", -length))
    gram_r, ids_r = assemble_interface_l2(mesh,
                                          mesh.nodes_on_line("x", length))
    source_ids = np.concatenate([ids_l, ids_r])
    source = InnerProductSpace(sp.block_diag([gram_l, gram_r],
                                             format="csr"))

    gram_m, ids_m = assemble_interface_l2(mesh, mesh.nodes_on_line("x", 0.0))
    range_space = InnerProductSpace(gram_m)

    return TransferOperator(factorization, source_ids, ids_m, source,
                            range_space)


# high-contrast conductor loops and source strips of the heat-sink setup
_CHANNEL_BOXES = [
    (0.02, 0.10, 0.02, 0.98, 1e5),
    (0.90, 0.98, 0.02, 0.98, 1e5),
    (0.11, 0.89, 0.475, 0.485, 1e5),
    (0.10, 0.90, 0.495, 0.505, 1e5),
    (0.11, 0.89, 0.515, 0.525, 1e5),
]

_SOURCE_BOXES = [
    (0.90, 0.98, 0.02, 0.98, 1.0),
    (0.02, 0.10, 0.02, 0.98, -1.0),
]


def gfem_field(name):
    """PDE and source term for the two GFEM model fields.

    'uniform': unit diffusion, unit load.
    'channels': contrast-1e5 conductor loops with a heating and a cooling
    strip.
    """
    if name == "uniform":
        return PdeSpec(), box_indicator(1.0, [])
    if name == "channels":
        return (PdeSpec(boxes=list(_CHANNEL_BOXES)),
                box_indicator(0.0, list(_SOURCE_BOXES)))
    raise ValueError(f"unknown GFEM field {name!r}")


def build_gfem_mesh(n_cells):
    """Crisscross mesh on the unit square, clamped on the whole boundary."""
    return build_rect_mesh((0.0, 1.0, 0.0, 1.0), 1.0 / n_cells, "p1x",
                           lambda x, y: SIGMA_D)

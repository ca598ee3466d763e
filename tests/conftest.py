import os

# One BLAS thread: the suite makes many tiny dense calls, and each pays a
# thread wake-up under default threading.  Only effective before numpy is
# first imported, which happens below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from locmor.gfem import build_gfem_problem
from locmor.oracle import weighted_svd
from locmor.problems import build_gfem_mesh, build_interface_transfer, \
    gfem_field


class InterfaceCase:
    """Shared dense form and spectrum of one interface problem."""

    def __init__(self, h_inv, **kwargs):
        self.h_inv = h_inv
        self.op = build_interface_transfer(h_inv, **kwargs)
        self.dense = self.op.assemble_dense()
        self.data = weighted_svd(self.dense)
        self.s_lo, self.s_hi = self.op.source.extremal_eigenvalues()
        self.r_lo, self.r_hi = self.op.range_space.extremal_eigenvalues()

    @property
    def sigmas(self):
        return self.data.sigmas


@pytest.fixture(scope="session")
def interface40():
    return InterfaceCase(40)


@pytest.fixture(scope="session")
def interface160():
    return InterfaceCase(160)


def _desk_problem(field):
    pde, source = gfem_field(field)
    return build_gfem_problem(build_gfem_mesh(100), pde, source)


@pytest.fixture(scope="session")
def desk_uniform():
    return _desk_problem("uniform")


@pytest.fixture(scope="session")
def desk_channels():
    return _desk_problem("channels")


@pytest.fixture(scope="session")
def rng_spd():
    """Deterministic generator for random SPD/test instances."""
    return np.random.Generator(np.random.Philox(key=20240917))


def random_spd(rng, n, cond=None):
    """Random symmetric positive definite matrix of size n."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if cond is None:
        eig = rng.uniform(0.5, 2.0, size=n)
    else:
        eig = np.geomspace(1.0, cond, n)
    return (q * eig) @ q.T

import os
from pathlib import Path

# One BLAS thread: the suite makes many tiny dense calls, and each pays a
# thread wake-up under default threading.  Only effective before numpy is
# first imported, which happens below.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
# the CLI tests run locmor in subprocesses, which import it from this
# checkout as the suite itself does
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

import numpy as np
import pytest

from locmor.gfem import (_core_trace_split, _harmonic_extension,
                         build_gfem_problem)
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


def core_extension(patch):
    """The harmonic extension E of a GFEM patch's core, rebuilt from the
    core energy Gram as the core build makes it: bitwise the E that the
    core's frame and constant row were read off, which the core does not
    keep."""
    local = patch.problem
    gamma, inner = _core_trace_split(patch.mesh, local.range_ids,
                                     patch.core_box)
    return _harmonic_extension(local.core.range_space.gram, gamma, inner)[0]

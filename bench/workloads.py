"""The three benchmark workloads.

Each workload builds its problem in `setup()`, which returns it, and runs
one operation on it per `operation(problem, i, seed)` call.  locmor is
called only through the attributes of the `locmor` package, so that a
traced run sees every call.  An operation returns its operator
evaluations and whether its output met the contract checked here.  Sizes
come from `params`; `TINY` sizes make the smoke tests fast and are not
benchmark inputs.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

import locmor


@dataclass
class Outcome:
    evaluations: int
    ok: bool
    gauges: dict = field(default_factory=dict)


class InterfaceMatfree:
    """Certified basis for the sparse channel transfer operator.

    Almost all time goes to SuperLU solves, so this is the workload that
    moves with solve, fill, ordering and block-apply changes; it never
    touches gfem or oracle.
    """

    name = "interface-matfree"
    PARAMS = {"h_inv": 50, "length": 1.0, "width": 8.0, "tol": 1e-4,
              "n_t": 20, "eps_algofail": 1e-15}
    TINY = {**PARAMS, "h_inv": 10, "width": 2.0}
    setups = 5
    min_ops = 11
    period = 1

    def __init__(self, params=None):
        self.p = dict(params or self.PARAMS)

    def setup(self):
        p = self.p
        op = locmor.build_interface_transfer(p["h_inv"], p["length"],
                                             p["width"])
        # the estimator constant needs lambda_min; it is cached on first use
        op.source.extremal_eigenvalues()
        return op

    def operation(self, op, i, seed):
        p = self.p
        basis = locmor.adaptive_randomized_range(
            op, p["tol"], p["n_t"], p["eps_algofail"], locmor.RngStream(seed))
        estimate = basis.diagnostics[-1]["estimate"]
        ok = not basis.exhausted and estimate <= p["tol"]
        return Outcome(basis.evaluations, ok, {"estimate": estimate})


class InterfaceMonteCarlo:
    """The paper's statistics path on the dense 41 x 82 channel operator.

    Operations cycle round-robin through the inner loops of the
    fixed-rank, adaptive and effectivity studies: small SVDs, the random
    stream, basis extension and tiny sparse Gram products, with no sparse
    solve after set-up.
    """

    name = "interface-montecarlo"
    PARAMS = {"h_inv": 40, "n_values": list(range(13)),
              "tols": [1e-2, 1e-4, 1e-6, 1e-8], "n_t": 10,
              "eps_algofail": 1e-15, "effectivity_n": 4,
              "n_t_values": [5, 10, 20, 40, 80], "eps_testfail": 1e-10}
    TINY = {**PARAMS, "h_inv": 10}
    setups = 9
    # one full cycle of all parameter combinations: 3 * lcm(13, 4, 5)
    min_ops = 780
    period = 780
    # tolerance of the optimality floor, as in acceptance criterion 3
    FLOOR_SLACK = 1e-9

    def __init__(self, params=None):
        self.p = dict(params or self.PARAMS)

    def setup(self):
        """The dense operator and its singular values."""
        op = locmor.build_interface_transfer(self.p["h_inv"])
        dense = op.assemble_dense()
        dense.source.extremal_eigenvalues()
        dense.source.cholesky()
        dense.range_space.cholesky()
        return dense, locmor.weighted_svd(dense).sigmas

    def operation(self, problem, i, seed):
        p = self.p
        dense, sigmas = problem
        rng = locmor.RngStream(seed)
        kind, j = i % 3, i // 3
        if kind == 0:
            n = p["n_values"][j % len(p["n_values"])]
            basis = locmor.fixed_rank_range(dense, n, rng)
            err = locmor.projection_error(dense, basis)
            # no n-dimensional space beats the (n+1)-st singular value
            floor = sigmas[n] if n < sigmas.size else 0.0
            ok = err >= floor - self.FLOOR_SLACK
            return Outcome(basis.evaluations, ok)
        if kind == 1:
            tol = p["tols"][j % len(p["tols"])]
            basis = locmor.adaptive_randomized_range(
                dense, tol, p["n_t"], p["eps_algofail"], rng)
            err = locmor.projection_error(dense, basis)
            return Outcome(basis.evaluations, err <= tol)
        n_t = p["n_t_values"][j % len(p["n_t_values"])]
        basis = locmor.fixed_rank_range(dense, p["effectivity_n"], rng)
        err = locmor.projection_error(dense, basis)
        residual = locmor.ResidualOperator(dense, basis)
        delta = locmor.norm_estimate(residual, n_t, p["eps_testfail"], rng)
        # the estimate bounds the error with probability 1 - eps_testfail
        return Outcome(basis.evaluations + n_t, delta >= err)


class GfemChannels:
    """One GFEM solve of the contrast-1e5 channels field per operation.

    Set-up builds every patch (mesh, assembly, 82 factorizations, 81
    dense patch operators); an operation runs the rangefinder on the dense
    patch operators and the reduced global solve.
    """

    name = "gfem-channels"
    PARAMS = {"field": "channels", "n_cells": 100, "tol": 1e-4, "n_t": 20,
              "eps_algofail": 1e-15}
    TINY = {**PARAMS, "n_cells": 20, "tol": 1e-2, "n_t": 8}
    setups = 3
    min_ops = 11
    period = 1

    def __init__(self, params=None):
        self.p = dict(params or self.PARAMS)

    def setup(self):
        p = self.p
        pde, source = locmor.gfem_field(p["field"])
        mesh = locmor.build_gfem_mesh(p["n_cells"])
        problem = locmor.build_gfem_problem(mesh, pde, source)
        # every run's estimator reads the patch source-Gram eigenvalues,
        # which locmor computes lazily and caches
        for patch in problem.patches:
            patch.source.extremal_eigenvalues()
        return problem

    def operation(self, problem, i, seed):
        p = self.p
        result, spaces = locmor.gfem_run(problem, p["tol"], p["n_t"],
                                         p["eps_algofail"], seed, threads=1)
        gauges = {
            "reduced_dim": sum(s.combined.shape[1] for s in spaces),
            "dropped_columns": result.dropped_columns,
            "error_to_tol": result.global_error / p["tol"],
        }
        return Outcome(sum(s.evaluations for s in spaces),
                       result.global_error <= p["tol"], gauges)

    @staticmethod
    def distinct_patch_share(problem):
        """Distinct local transfer problems as a share of all patches.

        Two patches pose the same problem when their local meshes, core
        offsets, boundary tags and element coefficients agree.
        """
        pde = problem.pde
        keys = set()
        for patch in problem.patches:
            mesh = patch.mesh
            x0, _, y0, _ = patch.over_box
            offsets = (np.array(patch.core_box) - [x0, x0, y0, y0]) / mesh.h
            centroids = mesh.element_centroids()
            digest = hashlib.sha256()
            digest.update(np.array([mesh.nx, mesh.ny]).tobytes())
            digest.update(np.rint(offsets).astype(np.int64).tobytes())
            digest.update(np.asarray(mesh.node_tags).tobytes())
            digest.update(pde.coefficient(centroids[:, 0],
                                          centroids[:, 1]).tobytes())
            keys.add(digest.hexdigest())
        return len(keys) / len(problem.patches)


WORKLOADS = {w.name: w for w in (InterfaceMatfree, InterfaceMonteCarlo,
                                 GfemChannels)}

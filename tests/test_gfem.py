import dataclasses
import types
import weakref

import numpy as np
import pytest

import locmor.gfem
import locmor.linalg
from locmor.fem import (PdeSpec, assemble_system, build_rect_mesh,
                        centroid_values)
from locmor.gfem import (LocalReducedSpace, _build_patch, _core_trace_split,
                         _pou_weights, assemble_gfem_and_solve,
                         build_gfem_problem, build_patches,
                         cover_overlap_bound, gfem_run, local_space,
                         partition_of_unity, tolerance_cascade)
from locmor.linalg import RangeBasis, factorize
from locmor.oracle import weighted_svd
from locmor.problems import build_gfem_mesh, gfem_field
from locmor.rangefinder import RngStream
from locmor.transfer import DenseOperator, TransferOperator


def _centroid_fields(mesh, pde, source):
    """The coefficient and source term at the global element centroids,
    as build_patches hands them to _build_patch."""
    return (centroid_values(mesh, pde.coefficient),
            centroid_values(mesh, source))


@pytest.fixture(scope="module")
def toy_problem():
    pde, source = gfem_field("uniform")
    mesh = build_gfem_mesh(20)
    return build_gfem_problem(mesh, pde, source)


def test_patch_grid_geometry(toy_problem):
    patches = toy_problem.patches
    assert len(patches) == 81
    corner = patches[0]
    x0, x1, y0, y1 = corner.over_box
    assert (round(x1 - x0, 12), round(y1 - y0, 12)) == (0.3, 0.3)
    interior = next(p for p in patches if p.grid_pos == (4, 4))
    x0, x1, y0, y1 = interior.over_box
    assert (round(x1 - x0, 12), round(y1 - y0, 12)) == (0.4, 0.4)
    assert interior.touches_dirichlet is False
    assert corner.touches_dirichlet is True


def test_interior_trace_count_fine_mesh():
    # interior oversampled patch at h = 1/200: an 80 x 80 cell square
    # whose boundary loop carries 320 corner nodes
    mesh = build_gfem_mesh(200)
    assert mesh.n_nodes == 80_401
    assert mesh.constrained_nodes.size == 800
    pde, source = gfem_field("uniform")
    patch = _build_patch(mesh, pde, *_centroid_fields(mesh, pde, source),
                         np.zeros(mesh.n_nodes), (0.4, 0.6, 0.4, 0.6),
                         (4, 4), (9, 9), {})
    assert np.allclose(patch.over_box, (0.3, 0.7, 0.3, 0.7))
    assert patch.source.dim == patch.source_ids.size == 320


def test_nonconforming_patch_grid_raises():
    # cores of side 0.2 on a 0.1 grid cannot tile a side of 1.05
    mesh = build_rect_mesh((0.0, 1.05, 0.0, 1.05), 0.05, "p1x",
                           lambda x, y: "sigma_D")
    pde, source = gfem_field("uniform")
    with pytest.raises(ValueError, match="does not tile"):
        build_patches(mesh, pde, source, np.zeros(mesh.n_nodes))


def test_partition_of_unity(toy_problem):
    mesh = toy_problem.mesh
    patches = toy_problem.patches
    total = partition_of_unity(patches, mesh)
    assert np.abs(total - 1.0).max() <= 1e-12
    for patch in patches:
        assert (patch.pou_weights >= 0.0).all()
        assert (patch.pou_weights <= 1.0).all()
    assert cover_overlap_bound(patches, mesh) == 4
    assert toy_problem.c_pou == 4

    # an uncovered strip must be detected
    with pytest.raises(ValueError):
        partition_of_unity(patches[1:], mesh)


def test_pou_pointwise_cases(toy_problem):
    mesh = toy_problem.mesh
    patches = toy_problem.patches

    def weights_at(node):
        out = []
        for p in patches:
            gids = p.local_to_global[p.range_ids]
            hit = np.nonzero(gids == node)[0]
            if hit.size and p.pou_weights[hit[0]] > 0.0:
                out.append(p.pou_weights[hit[0]])
        return out

    # node 0 is the mesh corner (0, 0), deep inside the core of the
    # corner patch: only one weight survives
    assert weights_at(0) == [1.0]
    # a node inside an overlap band crossing is covered by four patches
    crossing = np.abs(mesh.coords - [0.425, 0.425]).sum(axis=1).argmin()
    w = weights_at(int(crossing))
    assert len(w) == 4
    assert all(0.0 < x < 1.0 for x in w)
    assert abs(sum(w) - 1.0) < 1e-12


def test_single_patch_cover():
    mesh = build_gfem_mesh(10)
    pde, source = gfem_field("uniform")
    whole = (0.0, 1.0, 0.0, 1.0)
    # a patch swallowing the domain has no free boundary left for its
    # transfer operator, so the patch builder refuses it
    with pytest.raises(ValueError, match="free boundary"):
        _build_patch(mesh, pde, *_centroid_fields(mesh, pde, source),
                     np.zeros(mesh.n_nodes), whole, (0, 0), (1, 1), {})
    # the weight construction itself degenerates to rho == 1
    weights = _pou_weights(mesh.coords, whole, (0, 0), (1, 1))
    assert np.array_equal(weights, np.ones(mesh.n_nodes))
    patch = types.SimpleNamespace(local_to_global=np.arange(mesh.n_nodes),
                                  range_ids=np.arange(mesh.n_nodes),
                                  pou_weights=weights)
    assert np.abs(partition_of_unity([patch], mesh) - 1.0).max() == 0.0
    # no recombination loss: the relative local target equals the global
    target = tolerance_cascade(1e-3, [2.5], c_pou=1)
    assert target.shape == (1,)
    assert abs(target[0] / 2.5 - 1e-3) < 1e-18


def test_patches_hold_one_factorization_at_a_time(monkeypatch):
    # each patch is built whole and drops its local factorization before
    # the next one is made; every patch keeps only a dense operator
    factorize = locmor.gfem.factorize
    alive = []
    counts = []

    def tracked(matrix):
        factorization = factorize(matrix)
        alive.append(weakref.ref(factorization))
        counts.append(sum(ref() is not None for ref in alive))
        return factorization

    monkeypatch.setattr(locmor.gfem, "factorize", tracked)
    pde, source = gfem_field("uniform")
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    # the truth solve, then one per distinct local problem
    assert len(counts) == 1 + 25
    assert max(counts) == 1
    assert all(type(p.operator) is DenseOperator for p in problem.patches)


def test_extension_factorization_follows_patch_factorization(monkeypatch):
    # the core factorization behind each harmonic extension is made only
    # after the patch factorization is freed, so counting both kinds,
    # one factorization is alive at a time
    alive = []
    counts = []

    def tracked(factorize):
        def wrapper(matrix):
            factorization = factorize(matrix)
            alive.append(weakref.ref(factorization))
            counts.append(sum(ref() is not None for ref in alive))
            return factorization
        return wrapper

    monkeypatch.setattr(locmor.gfem, "factorize",
                        tracked(locmor.gfem.factorize))
    monkeypatch.setattr(locmor.linalg, "factorize",
                        tracked(locmor.linalg.factorize))
    pde, source = gfem_field("uniform")
    build_gfem_problem(build_gfem_mesh(20), pde, source)
    # the truth solve, then a patch and a core one per distinct problem
    assert len(counts) == 1 + 2 * 25
    assert max(counts) == 1


def _same_bits(a, b):
    a, b = (np.asarray(x.toarray() if hasattr(x, "toarray") else x)
            for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field, distinct", [("uniform", 25),
                                             ("channels", 55)])
def test_patch_cache_is_exact(monkeypatch, field, distinct):
    # patches posing the same local problem share one solve, and every
    # shared array is bitwise what a build of that patch alone gives
    factorize = locmor.gfem.factorize
    calls = []

    def counted(matrix):
        calls.append(matrix.shape)
        return factorize(matrix)

    monkeypatch.setattr(locmor.gfem, "factorize", counted)
    pde, source = gfem_field(field)
    mesh = build_gfem_mesh(20)
    truth = np.random.default_rng(7).standard_normal(mesh.n_nodes)
    patches = build_patches(mesh, pde, source, truth)
    assert len(patches) == 81
    assert len(calls) == distinct
    fields = _centroid_fields(mesh, pde, source)
    for patch in patches:
        alone = _build_patch(mesh, pde, *fields, truth, patch.core_box,
                             patch.grid_pos, (9, 9), cache={})
        assert _same_bits(patch.operator.matrix, alone.operator.matrix)
        assert _same_bits(patch.operator.range_space.gram,
                          alone.operator.range_space.gram)
        assert _same_bits(patch.extension, alone.extension)
        assert _same_bits(patch.u_f, alone.u_f)
        assert _same_bits(patch.range_space.gram, alone.range_space.gram)
        assert _same_bits(patch.core_l2.gram, alone.core_l2.gram)
        assert patch.truth_energy == alone.truth_energy
        assert patch.trace_norm == alone.trace_norm
        assert np.array_equal(patch.pou_weights, alone.pou_weights)
        # shared arrays refuse in-place writes
        for shared in (patch.operator.matrix, patch.extension,
                       patch.operator.range_space.gram, patch.u_f):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0.0
    assert len(calls) == distinct + len(patches)


@pytest.mark.parametrize("field", ["uniform", "channels"])
def test_trace_operator_lifts_to_nodal_operator(field):
    # interior, edge and corner patch of the 20-cell mesh: Γ has 16, 11
    # and 7 free core-boundary nodes.  Measured worst cases over both
    # fields: |E 1 - 1| 6.7e-16, |M_I E| 1.1e-16 |M| |E|, lifted operator
    # 2.6e-13 and norms 5.1e-15 relative
    pde, source = gfem_field(field)
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    rng = np.random.default_rng(17)
    for grid_pos, n_gamma in (((4, 4), 16), ((0, 4), 11), ((0, 0), 7)):
        patch = next(p for p in problem.patches if p.grid_pos == grid_pos)
        ext = patch.extension
        trace = patch.operator.matrix
        gamma, inner = _core_trace_split(patch.mesh, patch.range_ids,
                                         patch.core_box)
        clamped = np.setdiff1d(np.arange(patch.n_range),
                               np.concatenate([gamma, inner]))
        assert gamma.size == n_gamma == ext.shape[1] == trace.shape[0]
        assert clamped.size == (0 if grid_pos == (4, 4) else
                                5 if grid_pos == (0, 4) else 9)
        # identity on Γ, zero at clamped nodes, harmonic inside
        assert np.array_equal(ext[gamma], np.eye(n_gamma))
        assert not ext[clamped].any()
        gram = patch.range_space.gram
        assert np.abs(gram[inner] @ ext).max() \
            <= 1e-14 * abs(gram).max() * np.abs(ext).max()
        if not patch.touches_dirichlet:
            assert np.abs(ext @ np.ones(n_gamma) - 1.0).max() <= 1e-14

        # the lifted trace operator is the nodal transfer operator with
        # the core-L2 constant projected out on interior patches
        nodal = TransferOperator(
            factorize(assemble_system(patch.mesh, pde)), patch.source_ids,
            patch.range_ids, patch.source,
            patch.range_space).apply_block(np.eye(patch.source.dim))
        if not patch.touches_dirichlet:
            ones = np.ones(patch.n_range)
            mass = patch.core_l2.gram
            nodal -= np.outer(ones, (ones @ (mass @ nodal))
                              / (ones @ (mass @ ones)))
        assert np.abs(ext @ trace - nodal).max() \
            <= 1e-12 * np.abs(nodal).max()

        # the trace Gram is the core energy of the extension
        images = trace @ rng.standard_normal((patch.source.dim, 8))
        trace_norms = patch.operator.range_space.norms(images)
        core_norms = patch.range_space.norms(ext @ images)
        assert np.abs(trace_norms - core_norms).max() \
            <= 1e-13 * core_norms.max()


def test_patches_refuse_helmholtz():
    mesh = build_gfem_mesh(10)
    _, source = gfem_field("uniform")
    with pytest.raises(ValueError, match="laplace or diffusion"):
        build_patches(mesh, PdeSpec("helmholtz", kappa=1.0), source,
                      np.zeros(mesh.n_nodes))


def test_tolerance_cascade_scalings():
    energies = np.ones(81)
    t = tolerance_cascade(1e-2, energies, c_pou=4)
    assert np.allclose(t, 1e-2 / 36.0)
    assert t[0] < 1e-2 / 36.0 + 1e-15
    half = tolerance_cascade(5e-3, energies, c_pou=4)
    assert np.allclose(half, 0.5 * t)
    with pytest.raises(ValueError):
        tolerance_cascade(0.0, energies, c_pou=4)


def test_local_mesh_reuses_global_coords():
    # each patch mesh is cut from the global one: its lattice is bitwise
    # the global one, and its elements are the global elements in the
    # oversampling box in the same order, so slicing the global centroid
    # fields gives the patch's own
    mesh = build_gfem_mesh(20)
    for field in ("uniform", "channels"):
        pde, source = gfem_field(field)
        patches = build_patches(mesh, pde, source, np.zeros(mesh.n_nodes))
        assert len(patches) == 81
        for patch in patches:
            assert np.array_equal(patch.mesh.coords,
                                  mesh.coords[patch.local_to_global])
            assert np.array_equal(
                patch.local_to_global[patch.mesh.elements],
                mesh.elements[mesh.elements_in_box(patch.over_box)])


def test_local_space_augmentation(toy_problem):
    interior = next(p for p in toy_problem.patches if p.grid_pos == (4, 4))
    # random basis, source response and constant
    space = local_space(interior, 1e-3, 8, 1e-10, RngStream(3))
    assert space.combined.shape[1] == space.n_random + 2

    # zero source: the data function is dropped as dependent (zero)
    silent = local_space(
        dataclasses.replace(interior, u_f=np.zeros(interior.n_range)),
        1e-3, 8, 1e-10, RngStream(3))
    assert silent.combined.shape[1] == silent.n_random + 1

    # a patch on the clamped boundary gets no constant
    corner = toy_problem.patches[0]
    edge_space = local_space(corner, 1e-3, 8, 1e-10, RngStream(4))
    assert edge_space.combined.shape[1] == edge_space.n_random + 1


def test_patch_spectra_decay(desk_uniform):
    # the coarse 20-cell toy mesh cannot show this: its oversampling band
    # is only two elements wide, so run at the desk mesh.  measured decay
    # per patch kind: every spectrum crosses 1e-3 * sigma_1 between index
    # 13 (corners) and 29 (interior); by index 40 the worst ratio is 2e-5
    for patch in desk_uniform.patches:
        data = weighted_svd(patch.operator)
        assert data.sigma(20) <= 0.05 * data.sigma(1)
        assert data.sigma(40) <= 1e-3 * data.sigma(1)


def test_gfem_reproduces_fe_with_full_spaces(toy_problem):
    spaces = []
    for patch in toy_problem.patches:
        spaces.append(LocalReducedSpace(
            patch=patch, random_basis=RangeBasis(patch.range_space),
            combined=np.eye(patch.range_ids.size)))
    result = assemble_gfem_and_solve(toy_problem, spaces)
    assert result.dropped_columns > 0
    assert result.global_error <= 1e-10


def test_galerkin_orthogonality_on_singular_system():
    # neighbouring weighted patch spaces overlap on the 20-cell channels
    # mesh, so the raw reduced system is singular; the residual must
    # still be orthogonal to every unscaled weighted column
    pde, source = gfem_field("channels")
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    result, spaces = gfem_run(problem, 1e-4, 8, 1e-12, seed=3)
    assert result.dropped_columns > 0
    assert result.global_error <= 1e-10

    a = problem.stiffness_raw
    u = result.solution
    resid = a @ u - problem.load
    u_norm = np.sqrt(u @ (a @ u))
    worst = 0.0
    for s in spaces:
        phi = np.zeros((problem.mesh.n_nodes, s.combined.shape[1]))
        gids = s.patch.local_to_global[s.patch.range_ids]
        phi[gids] = s.patch.pou_weights[:, None] * s.combined
        phi[problem.mesh.constrained_nodes] = 0.0
        phi_norms = np.sqrt(np.einsum("ij,ij->j", phi, a @ phi))
        worst = max(worst, np.max(np.abs(phi.T @ resid)
                                  / (phi_norms * u_norm)))
    assert worst <= 1e-12


def test_banded_assembly_matches_dense_reference(desk_uniform):
    # the dense reference solves the raw Galerkin system, which needs
    # independent columns: use the desk mesh, where no patch drops any
    problem = desk_uniform
    mesh = problem.mesh
    result, spaces = gfem_run(problem, 1e-2, 8, 1e-12, seed=11)
    assert result.dropped_columns == 0

    ncols = sum(s.combined.shape[1] for s in spaces)
    phi = np.zeros((mesh.n_nodes, ncols))
    ofs = 0
    for s in spaces:
        gids = s.patch.local_to_global[s.patch.range_ids]
        w = s.patch.pou_weights[:, None] * s.combined
        phi[gids, ofs:ofs + w.shape[1]] += w
        ofs += w.shape[1]
    phi[mesh.constrained_nodes, :] = 0.0
    k = phi.T @ (problem.stiffness_raw @ phi)
    rhs = phi.T @ problem.load
    coeff = np.linalg.solve(k, rhs)
    u_ref = phi @ coeff

    assert np.abs(result.solution - u_ref).max() < 1e-9 * \
        max(np.abs(u_ref).max(), 1e-300)
    diff = problem.truth - u_ref
    err_ref = np.sqrt(diff @ (problem.stiffness_raw @ diff)) \
        / problem.truth_energy
    assert abs(result.global_error - err_ref) < 1e-9


def test_gfem_run_monotone_in_tolerance(toy_problem):
    errs = []
    for tol in (1e-1, 1e-3, 1e-5):
        result, _ = gfem_run(toy_problem, tol, 8, 1e-12, seed=21)
        assert result.global_error <= tol
        errs.append(result.global_error)
    assert errs[1] <= errs[0] + 1e-12
    assert errs[2] <= errs[1] + 1e-12


@pytest.mark.parametrize("field, bound", [("uniform", 1e-12),
                                          ("channels", 5e-8)])
def test_local_error_matches_least_squares(field, bound):
    # reference: least squares on F^T with Gram = F F^T.  Measured worst
    # deviations: 1.6e-14 (uniform) and 8.7e-9 (channels)
    pde, source = gfem_field(field)
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    worst = 0.0
    for tol in (1e-2, 1e-4):
        for seed in range(4):
            result, spaces = gfem_run(problem, tol, 8, 1e-12, seed=seed)
            for s, local in zip(spaces, result.local_errors):
                patch = s.patch
                f = patch.range_space.factor()
                u = problem.truth[patch.local_to_global[patch.range_ids]]
                a, b = f.T @ s.combined, f.T @ u
                coeff, *_ = np.linalg.lstsq(a, b, rcond=None)
                ref = np.linalg.norm(b - a @ coeff) / patch.truth_energy
                worst = max(worst, abs(local - ref))
    assert worst <= bound


def test_gfem_run_builds_patches_serially(toy_problem):
    with pytest.raises(ValueError, match="threads must be 1"):
        gfem_run(toy_problem, 1e-3, 8, 1e-12, seed=33, threads=2)


def test_local_errors_bounded_by_one(toy_problem):
    result, spaces = gfem_run(toy_problem, 1e-2, 8, 1e-12, seed=5)
    assert result.local_errors.shape == (81,)
    assert (result.local_errors >= 0.0).all()
    assert (result.local_errors < 1.0).all()
    assert all(s.evaluations == s.n_random + 8 for s in spaces)

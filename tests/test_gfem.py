import csv
import types
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import locmor.gfem
import locmor.linalg
from locmor.experiments import ExperimentConfig, run_experiment
from locmor.fem import (SIGMA_D, PdeSpec, assemble_system, build_rect_mesh,
                        centroid_values, constrain_rhs, constrain_system,
                        load_vector)
from locmor.gfem import (REDUCED_RTOL, SHIFT_RETRIES, LocalReducedSpace,
                         _build_patch, _core_trace_split,
                         _pou_weights, _upper_band_view, _write_band_block,
                         assemble_gfem_and_solve,
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


def _source_response(patch, pde, source):
    """The nodal source response u_f on the core nodes: the patch
    problem with zero data on the whole local boundary, solved on
    patch.mesh."""
    mesh = patch.mesh
    stiffness = constrain_system(mesh, assemble_system(mesh, pde))
    load = constrain_rhs(mesh, load_vector(mesh, source))
    return factorize(stiffness).solve(load)[patch.problem.range_ids]


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
    assert interior.problem.touches_dirichlet is False
    assert corner.problem.touches_dirichlet is True


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
    assert patch.source.dim == patch.problem.source_ids.size == 320


def test_nonconforming_patch_grid_raises():
    # cores of side 0.2 on a 0.1 grid cannot tile a side of 1.05 or,
    # with x tiled, one of 0.95
    pde, source = gfem_field("uniform")
    for bounds in ((0.0, 1.05, 0.0, 1.05), (0.0, 1.0, 0.0, 0.95)):
        mesh = build_rect_mesh(bounds, 0.05, "p1x", lambda x, y: SIGMA_D)
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
            gids = p.local_to_global[p.problem.range_ids]
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
    whole_problem = types.SimpleNamespace(range_ids=np.arange(mesh.n_nodes))
    patch = types.SimpleNamespace(local_to_global=np.arange(mesh.n_nodes),
                                  problem=whole_problem, pou_weights=weights)
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
    assert all(type(p.problem.operator) is DenseOperator
               for p in problem.patches)


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
    # the truth solve, a patch one per distinct problem and a core one
    # per distinct core
    assert len(counts) == 1 + 25 + 9
    assert max(counts) == 1


def _same_bits(a, b):
    a, b = (np.asarray(x.toarray() if hasattr(x, "toarray") else x)
            for x in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("field, distinct", [("uniform", 25),
                                             ("channels", 55)])
def test_patch_cache_is_exact(monkeypatch, field, distinct):
    # patches posing the same local problem share one solve, patches on
    # equal cores share one core, and every shared array is bitwise what
    # a build of that patch alone gives
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
    # patches posing one local problem share one record, and so one
    # operator
    problems = {}
    for patch in patches:
        local = patch.problem
        key = b"".join(np.ascontiguousarray(a).tobytes() for a in (
            local.operator.matrix, local.u_f_coords, local.range_ids))
        first = problems.setdefault(key, patch)
        assert local.operator is first.problem.operator
    assert len(problems) == len({p.problem for p in patches}) == distinct
    # patches on equal cores share one core, and so one E object
    cores = {"uniform": 9, "channels": 24}[field]
    by_bytes = {}
    for patch in patches:
        core = patch.problem.core
        key = b"".join(np.ascontiguousarray(a).tobytes() for a in (
            core.extension, core.range_space.gram.toarray(),
            core.core_l2.gram.toarray()))
        first = by_bytes.setdefault(key, patch)
        assert core.extension is first.problem.core.extension
        # the frame is a full basis of span E
        assert core.frame.shape == core.extension.shape
    assert len(by_bytes) == cores
    fields = _centroid_fields(mesh, pde, source)
    for patch in patches:
        alone = _build_patch(mesh, pde, *fields, truth, patch.core_box,
                             patch.grid_pos, (9, 9), cache={})
        mine, ref = patch.problem, alone.problem
        assert _same_bits(mine.operator.matrix, ref.operator.matrix)
        assert _same_bits(mine.operator.range_space.gram,
                          ref.operator.range_space.gram)
        assert _same_bits(mine.source_ids, ref.source_ids)
        assert _same_bits(mine.range_ids, ref.range_ids)
        assert mine.touches_dirichlet == ref.touches_dirichlet
        assert _same_bits(mine.core.extension, ref.core.extension)
        assert _same_bits(mine.u_f_coords, ref.u_f_coords)
        assert _same_bits(mine.u_f_residual, ref.u_f_residual)
        assert _same_bits(mine.core.frame, ref.core.frame)
        assert _same_bits(mine.core.range_space.gram,
                          ref.core.range_space.gram)
        assert _same_bits(mine.core.core_l2.gram, ref.core.core_l2.gram)
        assert patch.truth_energy == alone.truth_energy
        assert patch.trace_norm == alone.trace_norm
        assert np.array_equal(patch.pou_weights, alone.pou_weights)
        # shared arrays refuse in-place writes
        for shared in (mine.operator.matrix, mine.core.extension,
                       mine.operator.range_space.gram, mine.u_f_coords,
                       mine.core.frame, mine.u_f_residual, mine.range_ids):
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
        local = patch.problem
        ext = local.core.extension
        trace = local.operator.matrix
        gamma, inner = _core_trace_split(patch.mesh, local.range_ids,
                                         patch.core_box)
        clamped = np.setdiff1d(np.arange(local.range_ids.size),
                               np.concatenate([gamma, inner]))
        assert gamma.size == n_gamma == ext.shape[1] == trace.shape[0]
        assert clamped.size == (0 if grid_pos == (4, 4) else
                                5 if grid_pos == (0, 4) else 9)
        # identity on Γ, zero at clamped nodes, harmonic inside
        assert np.array_equal(ext[gamma], np.eye(n_gamma))
        assert not ext[clamped].any()
        gram = local.core.range_space.gram
        assert np.abs(gram[inner] @ ext).max() \
            <= 1e-14 * abs(gram).max() * np.abs(ext).max()
        if not local.touches_dirichlet:
            assert np.abs(ext @ np.ones(n_gamma) - 1.0).max() <= 1e-14

        # the lifted trace operator is the nodal transfer operator with
        # the core-L2 constant projected out on interior patches
        nodal = TransferOperator(
            factorize(constrain_system(patch.mesh,
                                       assemble_system(patch.mesh, pde))),
            local.source_ids, local.range_ids, patch.source,
            local.core.range_space).apply_block(np.eye(patch.source.dim))
        if not local.touches_dirichlet:
            ones = np.ones(local.range_ids.size)
            mass = local.core.core_l2.gram
            nodal -= np.outer(ones, (ones @ (mass @ nodal))
                              / (ones @ (mass @ ones)))
        assert np.abs(ext @ trace - nodal).max() \
            <= 1e-12 * np.abs(nodal).max()

        # the trace Gram is the core energy of the extension
        images = trace @ rng.standard_normal((patch.source.dim, 8))
        trace_norms = local.operator.range_space.norms(images)
        core_norms = local.core.range_space.norms(ext @ images)
        assert np.abs(trace_norms - core_norms).max() \
            <= 1e-13 * core_norms.max()


@pytest.mark.parametrize("field", ["uniform", "channels"])
def test_combined_basis_matches_nodal_gram_schmidt(field):
    # local_space orthonormalizes in frame coordinates and lifts once;
    # the result is core-L2 orthonormal and spans what Gram-Schmidt on
    # the core nodes gives: E B, then u_f, then the constant.  The
    # constant is compared by residual, not by projector: on channels
    # patches whose u_f lies in span E, the nodal residual of 1 is only
    # 2e-7 of its norm, and the nodal basis leaves span E by 3e-9 there,
    # against 1e-15 for the frame basis.  Measured worst cases over both
    # fields: orthonormality 4.5e-15, projector 5.7e-14, residual 6.6e-15
    pde, source = gfem_field(field)
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    responses = {p.pid: _source_response(p, pde, source)
                 for p in problem.patches}
    worst_orth = worst_proj = worst_resid = 0.0
    for tol in (1e-2, 1e-4):
        for seed in range(2):
            _, spaces = gfem_run(problem, tol, 8, 1e-12, seed=seed)
            for s in spaces:
                patch = s.patch
                core_l2 = patch.problem.core.core_l2
                v = s.combined
                worst_orth = max(worst_orth, np.abs(
                    v.T @ (core_l2.gram @ v) - np.eye(v.shape[1])).max())
                u_f = responses[patch.pid]
                inputs = [patch.problem.core.extension @ s.random_basis.matrix,
                          u_f[:, None]]
                ref = RangeBasis(core_l2)
                ref.extend_block(inputs[0])
                ref.extend(u_f)
                k = len(ref)
                if not patch.problem.touches_dirichlet:
                    inputs.append(np.ones((patch.problem.range_ids.size, 1)))
                    ref.extend(inputs[-1][:, 0])
                assert len(ref) == v.shape[1]
                # core-L2 projectors V V^T C against W W^T C, C = F F^T
                f = core_l2.cholesky()
                w = ref.matrix[:, :k]
                worst_proj = max(worst_proj, np.linalg.norm(
                    f.T @ (v[:, :k] @ v[:, :k].T - w @ w.T) @ f, 2))
                x = np.hstack(inputs)
                resid = x - v @ (v.T @ (core_l2.gram @ x))
                worst_resid = max(worst_resid, (
                    core_l2.norms(resid)
                    / np.maximum(core_l2.norms(x), 1e-300)).max())
    assert worst_orth <= 1e-13
    assert worst_proj <= 1e-10
    assert worst_resid <= 1e-12


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
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            tolerance_cascade(tol, energies, c_pou=4)


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
    pde, _ = gfem_field("uniform")
    mesh = toy_problem.mesh
    quiet = _build_patch(mesh, pde, centroid_values(mesh, pde.coefficient),
                         np.zeros(len(mesh.elements)), toy_problem.truth,
                         interior.core_box, interior.grid_pos, (9, 9), {})
    assert not quiet.problem.u_f_coords.any()
    silent = local_space(quiet, 1e-3, 8, 1e-10, RngStream(3))
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
        data = weighted_svd(patch.problem.operator)
        assert data.sigma(20) <= 0.05 * data.sigma(1)
        assert data.sigma(40) <= 1e-3 * data.sigma(1)


def test_gfem_reproduces_fe_with_full_spaces(toy_problem):
    # frame-complete spaces, coords = I: on each core the truth is the
    # harmonic extension of its trace plus the source response, which
    # the frame Q and u_f's residual span, so the partition of unity
    # reproduces it
    spaces = []
    for patch in toy_problem.patches:
        core = patch.problem.core
        spaces.append(LocalReducedSpace(
            patch=patch, random_basis=RangeBasis(core.range_space),
            coords=np.eye(core.frame.shape[1] + 1), evaluations=0))
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
        gids = s.patch.local_to_global[s.patch.problem.range_ids]
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

    # phi is sparse: each column lives on one patch's range nodes and is
    # zero on the constrained ones
    free = np.ones(mesh.n_nodes, dtype=bool)
    free[mesh.constrained_nodes] = False
    blocks, rows, cols = [], [], []
    ofs = 0
    for s in spaces:
        gids = s.patch.local_to_global[s.patch.problem.range_ids]
        w = (free[gids] * s.patch.pou_weights)[:, None] * s.combined
        blocks.append((gids, slice(ofs, ofs + w.shape[1]), w))
        rows.append(np.repeat(gids, w.shape[1]))
        cols.append(np.tile(np.arange(ofs, ofs + w.shape[1]), gids.size))
        ofs += w.shape[1]
    vals = np.concatenate([w.ravel() for _, _, w in blocks])
    phi = scipy.sparse.csr_array(
        (vals, (np.concatenate(rows), np.concatenate(cols))),
        shape=(mesh.n_nodes, ofs))
    # phi^T A phi by one patch's rows at a time: a sparse product spends
    # most of its time building the 1.7M-entry result
    a_phi = (problem.stiffness_raw @ phi).tocsr()
    k = np.empty((ofs, ofs))
    for gids, span, w in blocks:
        k[span] = (a_phi[gids].T @ w).T
    rhs = phi.T @ problem.load
    coeff = np.linalg.solve(k, rhs)
    u_ref = phi @ coeff

    assert np.abs(result.solution - u_ref).max() < 1e-9 * \
        max(np.abs(u_ref).max(), 1e-300)
    diff = problem.truth - u_ref
    err_ref = np.sqrt(diff @ (problem.stiffness_raw @ diff)) \
        / problem.truth_energy
    assert abs(result.global_error - err_ref) < 1e-9


@pytest.mark.parametrize("field", ["uniform", "channels"])
def test_frame_blocks_match_nodal_galerkin_blocks(field):
    # the reduced system reads only frame blocks: in each patch's energy
    # coordinates c, c_i^T P_ij c_j must be the Galerkin block
    # w_i^T A_ij w_j of the weighted lifted bases w = W combined on the
    # kept nodes, relative to sqrt(|K_ii| |K_jj|), and c_i^T f_i the load
    # w_i^T b, entrywise relative to |w_i column| |b|.  Measured worst:
    # blocks 4.8e-15 (uniform) and 6.4e-13 (channels, where an
    # extended-precision reference puts the nodal blocks at 9e-16: the
    # frame products carry the coefficient contrast into their
    # rounding), loads 7.5e-15.  The blocks after the eigen-scaling to
    # unit energy are not compared: its 1/sqrt(lambda) magnifies the
    # rounding of both sides alike (1.8e-11 uniform, 2.1e-9 channels)
    pde, source = gfem_field(field)
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    coupling = problem.coupling
    a = problem.stiffness_raw.tocsr()
    worst_block = worst_load = 0.0
    for tol in (1e-2, 1e-4):
        for seed in range(2):
            _, spaces = gfem_run(problem, tol, 8, 1e-12, seed=seed)
            coords, nodal = [], []
            for i, s in enumerate(spaces):
                coords.append(coupling.energy_coords(i, s.coords))
                nodal.append(coupling.kept_weights[i][:, None]
                             * s.combined[coupling.keep_masks[i]])
                b = problem.load[coupling.kept_gids[i]]
                ref = nodal[i].T @ b
                worst_load = max(worst_load, (
                    np.abs(coords[i].T @ coupling.loads[i] - ref)
                    / (np.linalg.norm(nodal[i], axis=0) * np.linalg.norm(b)
                       + 1e-300)).max())
            grams = [w.T @ (a[g][:, g] @ w)
                     for w, g in zip(nodal, coupling.kept_gids)]
            for (i, j), p_ij in coupling.pairs.items():
                ref = nodal[i].T @ (a[coupling.kept_gids[i]]
                                    [:, coupling.kept_gids[j]] @ nodal[j])
                got = coords[i].T @ (p_ij @ coords[j])
                worst_block = max(worst_block, np.linalg.norm(got - ref, 2)
                                  / np.sqrt(np.linalg.norm(grams[i], 2)
                                            * np.linalg.norm(grams[j], 2)))
    assert worst_block <= 1e-12
    assert worst_load <= 1e-12


def test_band_writer_matches_masked_fill():
    # each block goes into the banded storage as one strided copy (the
    # upper triangle row by row on the diagonal); the band must be
    # bitwise what a masked fill gives, and nothing outside the upper
    # band may be written: the band sits inside a sentinel-filled
    # buffer, and the band entries that hold no matrix entry (its
    # top-left corner and the pairs that do not couple) keep the sentinel
    pde, source = gfem_field("channels")
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    coupling = problem.coupling
    _, spaces = gfem_run(problem, 1e-4, 8, 1e-12, seed=3)
    coords = [coupling.energy_coords(i, s.coords)
              for i, s in enumerate(spaces)]
    sizes = np.array([c.shape[1] for c in coords])
    assert sizes.min() > 0
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ncols = int(offsets[-1])
    bw = max(int(offsets[j + 1] - 1 - offsets[i]) for i, j in coupling.pairs)
    sentinel, pad = -7.25, 3
    buf = np.full((bw + 1 + 2 * pad, ncols + 2 * pad), sentinel)
    band = buf[pad:pad + bw + 1, pad:pad + ncols]
    ref = np.full((bw + 1, ncols), sentinel)
    view = _upper_band_view(band)
    for (i, j), p_ij in coupling.pairs.items():
        block = coords[i].T @ (p_ij @ coords[j])
        _write_band_block(view, offsets[i], offsets[j], block)
        rr = np.broadcast_to(offsets[i] + np.arange(sizes[i])[:, None],
                             block.shape)
        cc = np.broadcast_to(offsets[j] + np.arange(sizes[j])[None, :],
                             block.shape)
        upper = rr <= cc
        ref[bw + rr[upper] - cc[upper], cc[upper]] = block[upper]
    assert np.array_equal(band, ref)
    outside = np.ones(buf.shape, dtype=bool)
    outside[pad:pad + bw + 1, pad:pad + ncols] = False
    assert (buf[outside] == sentinel).all()
    # band[k, c] holds row c - bw + k, which is negative in the corner
    corner = np.arange(ncols)[None, :] < bw - np.arange(bw + 1)[:, None]
    assert corner.any() and (band[corner] == sentinel).all()


def test_gfem_run_monotone_in_tolerance():
    # on 40 cells the bases grow strictly as tol falls (seed 21, sum of
    # n_random: uniform 2,079 / 2,157 / 2,159, channels 1,807 / 2,106 /
    # 2,148); on 20 cells most of them fill their trace space at every
    # tol.  The uniform errors fall (1.75e-8, 2.56e-10, 2.21e-10); the
    # channels ones do not (2.79e-11 at 1e-3, 3.18e-11 at 1e-5), since
    # the reduced solve's near-null space sets them, so only their bound
    # is asserted
    for field in ("uniform", "channels"):
        pde, source = gfem_field(field)
        problem = build_gfem_problem(build_gfem_mesh(40), pde, source)
        errs, sizes = [], []
        for tol in (1e-1, 1e-3, 1e-5):
            result, spaces = gfem_run(problem, tol, 8, 1e-12, seed=21)
            assert result.global_error <= tol
            errs.append(result.global_error)
            sizes.append(sum(s.n_random for s in spaces))
        assert sizes[0] < sizes[1] < sizes[2]
        if field == "uniform":
            assert errs[0] > errs[1] > errs[2]


def test_near_singular_band_is_solved_with_a_larger_shift():
    # on 30 channels cells the shifted band is indefinite at REDUCED_RTOL
    # (smallest eigenvalue -7.7e-14 at seed 3, tol 1e-4) at every seed
    pde, source = gfem_field("channels")
    problem = build_gfem_problem(build_gfem_mesh(30), pde, source)
    for tol in (1e-2, 1e-4):
        for seed in range(0, 25, 6):
            result, _ = gfem_run(problem, tol, 8, 1e-12, seed=seed)
            assert result.global_error <= tol


def test_reduced_solve_raises_the_shift_tenfold_then_gives_up(
        monkeypatch, toy_problem):
    diagonals = []

    def failing(band, rhs):
        diagonals.append(band[-1].copy())
        raise np.linalg.LinAlgError("leading minor not positive definite")

    monkeypatch.setattr(scipy.linalg, "solveh_banded", failing)
    with pytest.raises(np.linalg.LinAlgError):
        gfem_run(toy_problem, 1e-2, 8, 1e-12, seed=0)
    assert len(diagonals) == SHIFT_RETRIES + 1
    steps = np.diff(diagonals, axis=0)
    expected = 9.0 * REDUCED_RTOL * 10.0 ** np.arange(SHIFT_RETRIES)
    assert np.allclose(steps, expected[:, None], rtol=1e-2, atol=0.0)


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
                f = patch.problem.core.range_space.factor()
                gids = patch.local_to_global[patch.problem.range_ids]
                u = problem.truth[gids]
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
    # the space that ran the loop, on the first patch posing its
    # problem, spent n + n_t, the ones reusing it none
    seen = set()
    for s in spaces:
        ran = s.patch.problem not in seen
        seen.add(s.patch.problem)
        assert s.evaluations == (s.n_random + 8 if ran else 0)


@pytest.mark.parametrize("field, distinct", [("uniform", 25),
                                             ("channels", 55)])
def test_one_adaptive_loop_per_local_problem(monkeypatch, field, distinct):
    # patches that pose one local problem share the space that one
    # adaptive loop builds on the first of them, at the smallest of
    # their operator tolerances, and only that loop counts evaluations
    pde, source = gfem_field(field)
    problem = build_gfem_problem(build_gfem_mesh(20), pde, source)
    patches = problem.patches
    run_loop = locmor.gfem.local_space
    loops = {}

    def counted(patch, tol, *args):
        loops[patch.pid] = tol
        return run_loop(patch, tol, *args)

    monkeypatch.setattr(locmor.gfem, "local_space", counted)
    tol_gfem, n_t, eps, seed = 1e-4, 8, 1e-12, 9
    result, spaces = gfem_run(problem, tol_gfem, n_t, eps, seed)
    assert result.global_error <= tol_gfem
    groups = {}
    for patch in patches:
        groups.setdefault(patch.problem, []).append(patch)
    assert len(groups) == distinct
    assert list(loops) == [members[0].pid for members in groups.values()]
    fields = _centroid_fields(problem.mesh, pde, source)

    targets = tolerance_cascade(tol_gfem, [p.truth_energy for p in patches],
                                problem.c_pou)
    op_tols = [float(t) / p.trace_norm for p, t in zip(patches, targets)]
    spent = 0
    for members in groups.values():
        first = members[0]
        pid = first.pid
        assert loops[pid] == min(op_tols[m.pid] for m in members)
        ref = run_loop(first, loops[pid], n_t, eps,
                       RngStream((seed << 32) + pid))
        space = spaces[pid]
        assert _same_bits(space.random_basis.matrix, ref.random_basis.matrix)
        assert _same_bits(space.coords, ref.coords)
        assert space.evaluations == ref.evaluations
        spent += space.n_random + n_t
        assert not space.random_basis.exhausted
        estimate = space.random_basis.diagnostics[-1]["estimate"]
        gram = first.source.gram.toarray()
        for member in members:
            mine = spaces[member.pid]
            assert mine.patch is member
            assert mine.random_basis is space.random_basis
            assert mine.coords is space.coords
            assert mine.evaluations == (space.evaluations if member is first
                                        else 0)
            assert estimate <= op_tols[member.pid]
            # the loop ran on the first patch's source Gram; the one a
            # member builds alone differs from it only in roundoff, and
            # its certified lambda_min, which c_est divides by, bounds
            # that Gram's eigenvalues from below
            alone = _build_patch(problem.mesh, pde, *fields, problem.truth,
                                 member.core_box, member.grid_pos, (9, 9),
                                 cache={})
            other = alone.source.gram.toarray()
            assert np.abs(other - gram).max() <= 1e-13 * np.abs(gram).max()
            assert first.source.lambda_min <= np.linalg.eigvalsh(other)[0]
    assert sum(s.evaluations for s in spaces) == spent


def test_gfem_csv_evaluations_add_up(tmp_path):
    # the patch rows of a run sum to its global operator_evaluations, and
    # patches that reuse a space read 0
    cfg = ExperimentConfig("example4-gfem", seed=4, out=str(tmp_path),
                           params={"n_cells": 20, "tols": [1e-2, 1e-4],
                                   "runs": 2})
    global_csv, patch_csv = run_experiment(cfg)
    totals = {}
    reused = 0
    for row in csv.DictReader(patch_csv.open(encoding="utf-8")):
        run = row["field"], row["tol_gfem"], row["seed"]
        totals[run] = totals.get(run, 0) + int(row["evaluations"])
        reused += row["evaluations"] == "0"
    rows = list(csv.DictReader(global_csv.open(encoding="utf-8")))
    assert len(rows) == len(totals) == 8
    for row in rows:
        run = row["field"], row["tol_gfem"], row["seed"]
        assert int(row["operator_evaluations"]) == totals[run]
    # 56 and 26 patches per run reuse a space on uniform and channels
    assert reused == 4 * (56 + 26)

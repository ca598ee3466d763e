"""Generalized FEM driver: overlapping patches with flat-top hat
partition-of-unity weights, per-patch reduced spaces built by the
adaptive rangefinder, and the coupled global Galerkin solve."""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem, linalg
from .fem import (GAMMA_OUT, GEOM_TOL, SIGMA_D, build_rect_mesh,
                  centroid_values, on_box_edge, path_l2_gram)
from .linalg import InnerProductSpace, RangeBasis, factorize
from .rangefinder import RngStream, adaptive_randomized_range
from .transfer import DenseOperator, TransferOperator

# patch cover: cores of side CORE on a grid of spacing STRIDE, each
# oversampled by OVERLAP in every interior direction
CORE = 0.2
STRIDE = 0.1
OVERLAP = 0.1
# accepted deviation of the summed partition-of-unity weights from one
POU_TOL = 1e-12
# reduced solve: per-patch energy eigenvalues below REDUCED_RTOL times
# the patch's largest are dropped, and REDUCED_RTOL is the diagonal shift
# that makes the overlapping unit-energy patch spaces definite; where the
# banded Cholesky still fails, the shift grows tenfold up to SHIFT_RETRIES
# times (Cholesky with an added multiple of the identity, Nocedal &
# Wright, Numerical Optimization, Alg. 3.3)
REDUCED_RTOL = 1e-13
SHIFT_RETRIES = 3


@dataclass(frozen=True, eq=False)
class _Core:
    """What a patch core alone fixes, built once per distinct core of a
    cover and shared by every patch on it: the nodal core energy space
    (Gram M), the core-L2 space (Gram C), and, read off the harmonic
    extension E from Γ, which is not kept, the trace space of its Schur
    complement S = E^T M E, the constant row 1^T C E / 1^T C 1 and a
    frame: a core-L2-orthonormal basis Q of span E.  Frame coordinates,
    in the Euclidean coord_space, refer to the columns of Q and then to
    one more direction, a patch's source-response residual:
    frame_coords holds R = Q^T C E and frame_ones Q^T C 1, each with a
    zero last row.  The arrays are read-only."""

    range_space: InnerProductSpace
    core_l2: InnerProductSpace
    trace_space: InnerProductSpace
    constant_row: np.ndarray
    frame: np.ndarray
    frame_coords: np.ndarray
    frame_ones: np.ndarray
    coord_space: InnerProductSpace


@dataclass(frozen=True, eq=False)
class _LocalProblem:
    """The part of a patch that does not depend on where it sits, built
    once for the first patch, in pid order, that poses it and shared by
    every patch that poses the same: source and range index maps, the
    shared core, whether the core touches the clamped boundary, the dense
    transfer operator, and the source response in frame coordinates.

    Every transfer image is discrete-harmonic inside the core, so the
    operator maps the first patch's trace space onto the trace on Γ, the
    free nodes of the core-box boundary, normed by the Schur complement
    of the core energy Gram; the harmonic extension E, whose span the
    core frame Q holds, lifts a trace to the range_ids nodes (harmonic
    inside, zero at clamped nodes) without changing its energy norm.
    u_f_coords and u_f_residual are what the source response u_f adds
    to Q: u_f = Q u_f_coords[:-1] + u_f_coords[-1] u_f_residual up to
    roundoff, with u_f_residual the core-L2 unit residual of u_f against
    Q, or zero where u_f lies in span E.  The arrays are read-only."""

    source_ids: np.ndarray
    range_ids: np.ndarray
    core: _Core
    touches_dirichlet: bool
    operator: DenseOperator
    u_f_coords: np.ndarray
    u_f_residual: np.ndarray


@dataclass(frozen=True, eq=False)
class GfemPatch:
    """One overlapping patch: core and oversampled boxes, local mesh and
    its node map into the global mesh, partition-of-unity weights on the
    range_ids nodes, the reference solution's energy on the oversampled
    patch and its norm in the patch's own trace space, and the local
    problem the patch poses."""

    pid: int
    grid_pos: tuple
    core_box: tuple
    over_box: tuple
    mesh: object
    local_to_global: np.ndarray
    pou_weights: np.ndarray
    truth_energy: float
    trace_norm: float
    problem: _LocalProblem

    @property
    def source(self):
        """The trace space the shared operator maps from (bench/workloads.py
        reads it)."""
        return self.problem.operator.source


def _hat_profile(x, lo, hi, ramp, is_first, is_last):
    """1D flat-top hat: 1 on the core, linear over the overlap band."""
    up = np.ones_like(x) if is_first else (x - lo) / ramp
    down = np.ones_like(x) if is_last else (hi - x) / ramp
    return np.clip(np.minimum(up, down), 0.0, 1.0)


def _pou_weights(coords, core_box, grid_pos, grid_shape):
    """Flat-top hat weights of the patch at grid_pos on a grid of
    grid_shape patches, at the given node coordinates.  They ramp over
    the band where neighbouring cores overlap and stay flat towards the
    outer edges of the grid."""
    ramp = CORE - STRIDE
    (ix, jy), (n_steps, m_steps) = grid_pos, grid_shape
    cx0, cx1, cy0, cy1 = core_box
    wx = _hat_profile(coords[:, 0], cx0, cx1, ramp,
                      ix == 0, ix == n_steps - 1)
    wy = _hat_profile(coords[:, 1], cy0, cy1, ramp,
                      jy == 0, jy == m_steps - 1)
    return wx * wy


def _boundary_loop(mesh):
    """Corner nodes around the mesh rectangle, counterclockwise order."""
    x0, x1, y0, y1 = mesh.bounds
    bottom = mesh.nodes_on_line("y", y0)
    right = mesh.nodes_on_line("x", x1)
    top = mesh.nodes_on_line("y", y1)[::-1]
    left = mesh.nodes_on_line("x", x0)[::-1]
    return np.concatenate([bottom, right[1:], top[1:], left[1:-1]])


def build_patches(global_mesh, pde, source_fn, truth):
    """Cover the global rectangle with overlapping square patches.

    Cores of side CORE placed on a grid of spacing STRIDE; oversampling
    extends each core by OVERLAP in every interior direction.  Each patch
    is built whole, one after the other, against the PDE coefficient and
    source term at the global element centroids, evaluated once per
    cover, and the reference solution truth.  Patches that pose the same
    local problem share it, and local problems on equal cores share
    their core: each is built once per distinct key and the cache is
    dropped on return.
    """
    if pde.kappa != 0.0:
        # the core trace view needs images harmonic in the energy product
        raise ValueError("GFEM patches need kappa = 0")
    x0, x1, y0, y1 = global_mesh.bounds
    grid_shape = []
    for side in (x1 - x0, y1 - y0):
        grid_shape.append(int(round((side - CORE) / STRIDE)) + 1)
        if abs((grid_shape[-1] - 1) * STRIDE + CORE - side) > GEOM_TOL:
            raise ValueError("patch grid does not tile the domain")
    n_steps, m_steps = grid_shape

    coefficient = centroid_values(global_mesh, pde.coefficient)
    load = centroid_values(global_mesh, source_fn)
    cache = {}
    patches = []
    for jy in range(m_steps):
        for ix in range(n_steps):
            cx0 = x0 + ix * STRIDE
            cy0 = y0 + jy * STRIDE
            core_box = (cx0, cx0 + CORE, cy0, cy0 + CORE)
            patches.append(_build_patch(global_mesh, pde, coefficient, load,
                                        truth, core_box, (ix, jy),
                                        (n_steps, m_steps), cache))
    return patches


def _problem_key(mesh, core_box, over_box, coefficient, load):
    """Exact bytes of everything a local problem depends on within one
    cover: cell counts, core offsets in cells (which tell whether the
    core touches the clamped boundary), boundary tags, and the
    coefficient and source term at the element centroids.  The element
    matrices read h and coefficient, never coordinates."""
    ox0, _, oy0, _ = over_box
    offsets = np.rint((np.array(core_box) - [ox0, ox0, oy0, oy0]) / mesh.h)
    return (mesh.nx, mesh.ny, offsets.astype(np.int64).tobytes(),
            mesh.node_tags.tobytes(), coefficient.tobytes(), load.tobytes())


def _core_trace_split(mesh, range_ids, core_box):
    """Positions in range_ids of Γ, the free nodes on the core-box
    boundary, and of the nodes inside the core; clamped nodes, which
    lie on the boundary, are in neither."""
    x, y = mesh.coords[range_ids].T
    on_boundary = on_box_edge(x, y, core_box)
    clamped = np.isin(range_ids, mesh.constrained_nodes)
    return (np.nonzero(on_boundary & ~clamped)[0],
            np.nonzero(~on_boundary)[0])


def _trace_transfer(mesh, stiffness, load, source_ids, source, range_ids,
                    gamma_ids, trace_space):
    """Dense transfer operator onto the nodes gamma_ids, normed in
    trace_space, and the source response at range_ids, from one
    factorization of the constrained local stiffness that is freed on
    return, so a cover holds one factorization at a time."""
    factorization = factorize(fem.constrain_system(mesh, stiffness))
    # local source response with zero data on the whole local boundary
    u_f = factorization.solve(
        fem.constrain_rhs(mesh, fem.load_vector(mesh, load)))[range_ids]
    # Monte Carlo studies rerun every patch many times; the dense form
    # amortizes the local solves across runs
    operator = TransferOperator(factorization, source_ids, gamma_ids, source,
                                trace_space).assemble_dense()
    return operator, u_f


def _harmonic_extension(m, gamma, inner):
    """Extension E from Γ to all core nodes, the identity on Γ, zero at
    clamped nodes and discrete-harmonic inside, and the Schur-complement
    Gram S = E^T M E on Γ of the core energy Gram M (CSR)."""
    m_inner = m[inner]
    extension = np.zeros((m.shape[0], gamma.size))
    extension[gamma, np.arange(gamma.size)] = 1.0
    extension[inner] = -linalg.factorize(m_inner[:, inner]).solve(
        m_inner[:, gamma].toarray())
    schur = extension.T @ (m @ extension)
    return extension, 0.5 * (schur + schur.T)


def _build_core(mesh, pde, coefficient, core_box, gamma, inner):
    """Core spaces, constant row and frame of one core, read off its
    harmonic extension E, which is freed on return; the frame takes the
    two-pass Cholesky QR path of extend_block, as E is well conditioned
    in the core L2 product."""
    energy_gram, _ = fem.assemble_energy_product(mesh, pde, core_box,
                                                 coefficient)
    core_mass, _ = fem.assemble_mass_subdomain(mesh, core_box)
    core_l2 = InnerProductSpace(core_mass)
    extension, schur = _harmonic_extension(energy_gram, gamma, inner)
    mass_ones = core_l2.gram @ np.ones(core_l2.dim)
    constant_row = (mass_ones @ extension) / mass_ones.sum()
    basis = RangeBasis(core_l2)
    basis.extend_block(extension)
    frame = basis.matrix.copy()
    mass_frame = core_mass @ frame
    frame_coords = np.vstack([mass_frame.T @ extension,
                              np.zeros(gamma.size)])
    frame_ones = np.append(mass_frame.sum(axis=0), 0.0)
    for array in (schur, constant_row, frame, frame_coords, frame_ones):
        array.setflags(write=False)
    return _Core(range_space=InnerProductSpace(energy_gram), core_l2=core_l2,
                 trace_space=InnerProductSpace(schur),
                 constant_row=constant_row, frame=frame,
                 frame_coords=frame_coords, frame_ones=frame_ones,
                 coord_space=InnerProductSpace.euclidean(frame.shape[1] + 1))


def _source_split(core, u_f):
    """Frame coordinates of u_f and its core-L2 unit residual, from one
    extend of the frame, whose drop test decides whether u_f adds a
    direction; without one the residual and its coordinate are zero."""
    basis = RangeBasis.from_orthonormal(core.core_l2, core.frame)
    coords = np.append(core.frame.T @ (core.core_l2.gram @ u_f), 0.0)
    residual = np.zeros(u_f.size)
    if basis.extend(u_f):
        residual = basis.matrix[:, -1].copy()
        coords[-1] = residual @ (core.core_l2.gram @ u_f)
    return coords, residual


def _solve_local_problem(mesh, pde, coefficient, load, core_box,
                         source_ids, source, touches_dirichlet, cache):
    """Assemble, factorize and solve one local problem on the trace Γ of
    its core; return it with the patch stiffness, its oversampled energy
    Gram.  Its core is looked up first, in cache by the core's cell
    counts, Γ and interior positions and element coefficients, which fix
    every core array bitwise, and built there on a miss, so the core's
    factorization is freed before the patch system is factored."""
    core_elements = mesh.elements_in_box(core_box)
    range_ids = np.unique(mesh.elements[core_elements])
    gamma, inner = _core_trace_split(mesh, range_ids, core_box)
    cx0, cx1, cy0, cy1 = core_box
    core_key = ("core", round((cx1 - cx0) / mesh.h),
                round((cy1 - cy0) / mesh.h), gamma.tobytes(),
                inner.tobytes(), coefficient[core_elements].tobytes())
    core = cache.get(core_key)
    if core is None:
        core = cache[core_key] = _build_core(mesh, pde, coefficient,
                                             core_box, gamma, inner)
    # the patch mesh is the oversampling box, so this is its energy Gram
    stiffness = fem.assemble_system(mesh, pde, coefficient=coefficient)
    operator, u_f = _trace_transfer(mesh, stiffness, load, source_ids,
                                    source, range_ids, range_ids[gamma],
                                    core.trace_space)
    if not touches_dirichlet:
        # constants are flat in the energy product, so the operator maps
        # into the range modulo constants: each image loses its core-L2
        # projection onto the constant, in Γ coordinates as E 1 = 1 here
        matrix = operator.matrix
        operator = DenseOperator(matrix - core.constant_row @ matrix,
                                 operator.source, operator.range_space)
    u_f_coords, u_f_residual = _source_split(core, u_f)
    for array in (source_ids, range_ids, u_f_coords, u_f_residual):
        array.setflags(write=False)
    return _LocalProblem(
        source_ids=source_ids, range_ids=range_ids, core=core,
        touches_dirichlet=touches_dirichlet, operator=operator,
        u_f_coords=u_f_coords, u_f_residual=u_f_residual), stiffness


def _build_patch(global_mesh, pde, coefficient, load, truth, core_box,
                 grid_pos, grid_shape, cache):
    """Build one complete patch around core_box.

    The patch is cut from the global mesh and slices coefficient and
    load, the global centroid values.  The local problem with its
    stiffness, and within it the core, is looked up in cache, a dict
    shared by the patches of one cover, and built and stored there on a
    miss; the mesh, weights and truth norms are the patch's own.
    """
    gx0, gx1, gy0, gy1 = global_mesh.bounds
    cx0, cx1, cy0, cy1 = core_box
    over_box = (max(gx0, cx0 - OVERLAP), min(gx1, cx1 + OVERLAP),
                max(gy0, cy0 - OVERLAP), min(gy1, cy1 + OVERLAP))
    pid = grid_pos[1] * grid_shape[0] + grid_pos[0]

    # the box boundary is clamped on the global boundary and free
    # (gamma_out) elsewhere; the lattice gives the patch bitwise the
    # global node positions
    mesh = build_rect_mesh(
        over_box, global_mesh.h, global_mesh.kind,
        lambda x, y: np.where(on_box_edge(x, y, global_mesh.bounds),
                              SIGMA_D, GAMMA_OUT))
    # both meshes number nodes (corners, then centres) and elements in
    # lattice order, so sorted global ids follow the local numbering
    elements = global_mesh.elements_in_box(over_box)
    in_patch = np.zeros(global_mesh.n_nodes, dtype=bool)
    in_patch[global_mesh.elements[elements]] = True
    local_to_global = np.flatnonzero(in_patch)

    # trace space on the non-global part of the local boundary; the
    # closed-loop Gram restricted to the free nodes accounts for the
    # ramp segments into the clamped ones.  Patches posing one problem
    # differ in it by roundoff, so the truth's trace is normed in this
    # patch's own
    loop = _boundary_loop(mesh)
    loop_gram = path_l2_gram(mesh.coords[loop], closed=True)
    free = np.flatnonzero(mesh.node_tags[loop] == GAMMA_OUT)
    if free.size == 0:
        raise ValueError(f"patch {pid} has no free boundary")
    source_ids = loop[free]
    source = InnerProductSpace(loop_gram[np.ix_(free, free)])

    coefficient = coefficient[elements]
    load = load[elements]
    key = _problem_key(mesh, core_box, over_box, coefficient, load)
    if key not in cache:
        # the oversampling box is clipped only at the global boundary
        touches_dirichlet = min(abs(c - o) for c, o in
                                zip(core_box, over_box)) <= GEOM_TOL
        cache[key] = _solve_local_problem(
            mesh, pde, coefficient, load, core_box, source_ids, source,
            touches_dirichlet, cache)
    problem, stiffness = cache[key]

    u_loc = truth[local_to_global]
    return GfemPatch(
        pid=pid, grid_pos=grid_pos, core_box=core_box, over_box=over_box,
        mesh=mesh, local_to_global=local_to_global,
        pou_weights=_pou_weights(mesh.coords[problem.range_ids], core_box,
                                 grid_pos, grid_shape),
        truth_energy=float(np.sqrt(max(u_loc @ (stiffness @ u_loc), 0.0))),
        trace_norm=source.norm(truth[local_to_global[source_ids]]),
        problem=problem)


def partition_of_unity(patches, global_mesh):
    """Accumulate the patch weights globally and verify they sum to one.

    Returns the (n_nodes,) sum vector.
    """
    total = np.zeros(global_mesh.n_nodes)
    for patch in patches:
        gids = patch.local_to_global[patch.problem.range_ids]
        np.add.at(total, gids, patch.pou_weights)
    defect = np.abs(total - 1.0).max()
    if defect > POU_TOL:
        raise ValueError(f"partition of unity defect {defect:.3e}; "
                         "the cover leaves gaps")
    return total


def cover_overlap_bound(patches, global_mesh):
    """Max number of patches whose weight is nonzero at any single node.

    Nodes on a core edge carry weight exactly zero there and do not
    count, so the uniform cover used here yields 4, not 9.
    """
    counts = np.zeros(global_mesh.n_nodes, dtype=np.int64)
    for patch in patches:
        gids = patch.local_to_global[patch.problem.range_ids]
        counts[gids] += patch.pou_weights > 0.0
    return int(counts.max())


def tolerance_cascade(tol_gfem, patch_energies, c_pou):
    """Split a global relative energy target into per-patch absolute
    local energy targets.

    tau_i = tol_gfem * E_i / (c_pou * sqrt(m)) with E_i the reference
    solution energy on the oversampled patch and m the patch count.
    Heuristic by construction; the contract is the empirical one (global
    error below tol_gfem).
    """
    if not tol_gfem > 0.0:
        raise ValueError("tolerance must be positive")
    energies = np.asarray(patch_energies, dtype=float)
    m = energies.size
    return tol_gfem * energies / (c_pou * np.sqrt(m))


@dataclass
class LocalReducedSpace:
    """Combined per-patch basis: randomized range space plus the local
    source-term response plus (away from the global boundary) the
    constant kernel representative.

    coords, of shape (|Γ| + 1, n), is the basis in the coordinates of the
    frame Z = [core.frame, u_f_residual] of patch.problem: its first |Γ|
    rows refer to the columns of the core frame Q, its last row to the
    unit residual of u_f.  combined = Z coords, the basis on the
    range_ids nodes, is lifted on each read; the reduced solve and the
    local error read only coords.

    Patches that pose one local problem share one random_basis and one
    coords array (see gfem_run); evaluations counts the operator
    evaluations this space spent, len(random_basis) + n_t (plus any
    rejected draws) on the patch whose adaptive loop built them and 0 on
    every patch that reuses them, so their sum over a run is the work
    done."""

    patch: GfemPatch
    random_basis: RangeBasis
    coords: np.ndarray
    evaluations: int

    @property
    def combined(self):
        return _lift(self.patch.problem, self.coords)

    @property
    def n_random(self):
        return len(self.random_basis)


def local_space(patch, tol, n_t, eps_algofail, rng):
    """Run the adaptive rangefinder on one patch and augment the basis.

    tol is the absolute operator-norm tolerance for the patch transfer
    map.  The random basis B lives on the core trace Γ; its harmonic
    extensions E B, the source response u_f and the constant make
    the combined basis, orthonormalized in core L2 (the energy
    seminorm cannot normalize the constant), dropping dependent vectors.
    That runs in the coordinates of the core frame Q plus u_f's residual
    direction, which are core-L2 orthonormal, so Euclidean Gram-Schmidt
    on R B, the coordinates of u_f and those of the constant, in that
    order, is the core-L2 one; the space keeps these coordinates and
    lifts them once.
    """
    problem = patch.problem
    basis = adaptive_randomized_range(problem.operator, tol, n_t,
                                      eps_algofail, rng)
    core = problem.core
    coords = RangeBasis(core.coord_space)
    coords.extend_block(core.frame_coords @ basis.matrix)
    coords.extend(problem.u_f_coords)
    if not problem.touches_dirichlet:
        coords.extend(core.frame_ones)
    return LocalReducedSpace(patch=patch, random_basis=basis,
                             coords=coords.matrix,
                             evaluations=basis.evaluations)


@dataclass
class GfemProblem:
    """Global data shared by every run of a GFEM experiment."""

    mesh: object
    pde: object
    patches: list
    stiffness_raw: object
    truth: np.ndarray
    truth_energy: float
    c_pou: int
    coupling: object


def _lift(problem, coords):
    """Z coords = Q coords[:-1] + u_f_residual coords[-1] on the range_ids
    nodes, for frame coordinates given as a vector or as columns."""
    return (problem.core.frame @ coords[:-1]
            + np.multiply.outer(problem.u_f_residual, coords[-1]))


def _energy_drop(gram):
    """Eigenpairs (lam, vecs) of the symmetric part of gram, keeping the
    eigenvalues above REDUCED_RTOL times the largest."""
    lam, vecs = np.linalg.eigh(0.5 * (gram + gram.T))
    kept = lam > REDUCED_RTOL * np.max(lam, initial=0.0)
    return lam[kept], vecs[:, kept]


class _Coupling:
    """The reduced Galerkin system and the local errors in frame
    coordinates, built once per problem.

    Every combined basis is Z c, with Z = [core.frame, u_f_residual]
    of the patch's problem and c its coords.  With W the partition-of-unity
    weight on a patch's kept (unconstrained) core nodes and A the
    unconstrained stiffness, each W Z is made energy-orthonormal,
    Psi = W Z T with T = V L^(-1/2) over the eigenpairs (L, V) of
    (W Z)^T A (W Z) above REDUCED_RTOL of the largest, and coords map to
    Psi coordinates L^(1/2) V^T c (energy_coords).  A unit-energy
    combination can have frame coordinates far above one, and rounding
    the blocks in them made the shifted band indefinite; Psi coordinates
    stay of order one.  Stored:
    - per patch: the kept nodes (keep_masks, kept_gids) and weights
      (kept_weights), V and L^(1/2) (energy_vecs, energy_scales) and the
      load Psi^T b (loads);
    - per neighbour pair i <= j, the dense read-only block
      P_ij = Psi_i^T A_ij Psi_j (pairs).  Cores two strides apart share
      at most a zero-weight edge, which the crisscross elements never
      bridge, so only grid neighbours couple.  The blocks are built
      pair by pair, holding Psi only for the patches a pending pair
      still needs, never for all;
    - what _local_error reads: the column means z of Z (frame_means),
      G = Zc^T M Zc of the centred Zc = Z - z in the core energy Gram M
      (error_grams), the centred truth u on the range_ids nodes
      (centred_truth) and Zc^T M u (error_rhs).
    """

    def __init__(self, mesh, stiffness_raw, load, truth, patches):
        constrained = np.zeros(mesh.n_nodes, dtype=bool)
        constrained[mesh.constrained_nodes] = True
        self.keep_masks, self.kept_gids, self.kept_weights = [], [], []
        self.frame_means, self.error_grams = [], []
        self.centred_truth, self.error_rhs = [], []
        # patches on one core share the frame Q, so its centred Gram;
        # those on one local problem share u_f's residual, so all of G
        core_grams, frame_grams = {}, {}
        for patch in patches:
            local = patch.problem
            gids = patch.local_to_global[local.range_ids]
            keep = ~constrained[gids]
            self.keep_masks.append(keep)
            self.kept_gids.append(gids[keep])
            self.kept_weights.append(patch.pou_weights[keep])

            core = local.core
            m = core.range_space.gram
            if core not in core_grams:
                q = core.frame - core.frame.mean(axis=0)
                core_grams[core] = (q, q.T @ (m @ q))
            q, q_gram = core_grams[core]
            if local not in frame_grams:
                r = local.u_f_residual - local.u_f_residual.mean()
                m_r = m @ r
                cross = q.T @ m_r
                frame_grams[local] = (
                    np.append(core.frame.mean(axis=0),
                              local.u_f_residual.mean()),
                    np.column_stack([q, r]),
                    np.block([[q_gram, cross[:, None]],
                              [cross[None, :], r @ m_r]]))
            mean, centred, gram = frame_grams[local]
            u = truth[gids] - truth[gids].mean()
            self.frame_means.append(mean)
            self.error_grams.append(gram)
            self.centred_truth.append(u)
            self.error_rhs.append(centred.T @ (m @ u))

        n = len(patches)
        self.energy_vecs, self.energy_scales = [None] * n, [None] * n
        self.loads = [None] * n
        a_csr = sp.csr_matrix(stiffness_raw)
        # position[g] is the row of node g in A Psi_i, -1 off near_i
        position = np.full(mesh.n_nodes, -1)
        pending = {}
        self.pairs = {}
        for i, pi in enumerate(patches):
            if i not in pending:
                pending[i] = self._energy_frame(i, pi, a_csr, load)
            psi_i, near_i, columns_i = pending.pop(i)
            a_psi_i = columns_i @ psi_i
            position[near_i] = np.arange(near_i.size)
            for j in range(i, n):
                pj = patches[j]
                if (abs(pi.grid_pos[0] - pj.grid_pos[0]) > 1
                        or abs(pi.grid_pos[1] - pj.grid_pos[1]) > 1):
                    continue
                if j == i:
                    psi_j = psi_i
                else:
                    if j not in pending:
                        pending[j] = self._energy_frame(j, pj, a_csr, load)
                    psi_j = pending[j][0]
                rows = position[self.kept_gids[j]]
                shared = np.flatnonzero(rows >= 0)
                block = a_psi_i[rows[shared]].T @ psi_j[shared]
                if i == j:
                    block = 0.5 * (block + block.T)
                block.setflags(write=False)
                self.pairs[(i, j)] = block
            position[near_i] = -1

    def _energy_frame(self, k, patch, a_csr, load):
        """Make W Z of patch k energy-orthonormal: store T_k = V L^(-1/2)
        and the load f_k, and return Psi_k on the kept nodes, the sorted
        nodes near_k that the stiffness columns of the kept nodes reach,
        and those columns of A on near_k (sparse)."""
        gids = self.kept_gids[k]
        z = np.column_stack([patch.problem.core.frame,
                             patch.problem.u_f_residual])
        weighted = self.kept_weights[k][:, None] * z[self.keep_masks[k]]
        # A is symmetric: its columns at gids are its rows there, with
        # the column indices renumbered within near
        rows = a_csr[gids]
        near, local = np.unique(rows.indices, return_inverse=True)
        columns = sp.csr_matrix((rows.data, local, rows.indptr),
                                shape=(gids.size, near.size)).T
        # A has a nonzero diagonal, so near holds every kept node
        kept_rows = np.searchsorted(near, gids)
        lam, self.energy_vecs[k] = _energy_drop(
            weighted.T @ (columns @ weighted)[kept_rows])
        self.energy_scales[k] = np.sqrt(lam)
        psi = weighted @ (self.energy_vecs[k] / self.energy_scales[k])
        self.loads[k] = psi.T @ load[gids]
        return psi, near, columns

    def energy_coords(self, i, coords):
        """Psi_i coordinates of frame coordinates of patch i."""
        return self.energy_scales[i][:, None] * (self.energy_vecs[i].T
                                                 @ coords)

    def frame_coords(self, i, x):
        """Frame coordinates T_i x of Psi_i coordinates x."""
        return self.energy_vecs[i] @ (x / self.energy_scales[i])


def build_gfem_problem(mesh, pde, source_fn):
    """Assemble the global problem, the truth solve, and all patches."""
    stiffness_raw = fem.assemble_system(mesh, pde)
    load = fem.constrain_rhs(mesh, fem.load_vector(mesh, source_fn))
    truth = factorize(fem.constrain_system(mesh, stiffness_raw)).solve(load)
    truth_energy = float(np.sqrt(truth @ (stiffness_raw @ truth)))

    patches = build_patches(mesh, pde, source_fn, truth)
    partition_of_unity(patches, mesh)
    c_pou = cover_overlap_bound(patches, mesh)
    coupling = _Coupling(mesh, stiffness_raw, load, truth, patches)
    return GfemProblem(mesh=mesh, pde=pde, patches=patches,
                       stiffness_raw=stiffness_raw, truth=truth,
                       truth_energy=truth_energy, c_pou=c_pou,
                       coupling=coupling)


def gfem_run(problem, tol_gfem, n_t, eps_algofail, seed, threads=1):
    """One seeded GFEM solve at a global tolerance.

    The adaptive rangefinder runs once per distinct local problem, on the
    patch that first posed it, with that patch's stream (seed << 32) + pid
    and the smallest operator tolerance target / trace_norm among the
    patches that pose it, so its space meets every one of their
    tolerances.  Each of those patches gets its own
    LocalReducedSpace holding the shared random basis and coords; the
    reusing ones record 0 evaluations.

    Returns (GfemResult, list[LocalReducedSpace]) in patch order.
    """
    # threads=1 is accepted only because the benchmark harness still
    # passes it; the next change to bench/workloads.py removes it
    if threads != 1:
        raise ValueError("gfem_run builds patches serially; threads must be 1")
    patches = problem.patches
    energies = [p.truth_energy for p in patches]
    targets = tolerance_cascade(tol_gfem, energies, problem.c_pou)
    tols = {}
    for patch, target in zip(patches, targets):
        tol = float(target) / max(patch.trace_norm, 1e-300)
        tols[patch.problem] = min(tols.get(patch.problem, tol), tol)
    first_spaces = {}
    spaces = []
    for patch in patches:
        first = first_spaces.get(patch.problem)
        if first is None:
            # patches come in pid order, so this patch posed the problem
            first = first_spaces[patch.problem] = local_space(
                patch, tols[patch.problem], n_t, eps_algofail,
                RngStream((seed << 32) + patch.pid))
            spaces.append(first)
        else:
            spaces.append(replace(first, patch=patch, evaluations=0))
    result = assemble_gfem_and_solve(problem, spaces)
    return result, spaces


@dataclass
class GfemResult:
    solution: np.ndarray
    global_error: float
    local_errors: np.ndarray
    dropped_columns: int


def _upper_band_view(band):
    """The square matrix that band stores in the upper banded layout of
    solveh_banded, as a strided view: view[r, c] is band[bw + r - c, c]
    with bw + 1 = band.shape[0].  Only entries with 0 <= c - r <= bw lie
    in band; index no others."""
    bw = band.shape[0] - 1
    s0, s1 = band.strides
    return np.lib.stride_tricks.as_strided(
        band[bw:], shape=(band.shape[1], band.shape[1]),
        strides=(s0, s1 - s0))


def _write_band_block(view, r0, c0, block):
    """Copy block, whose first entry is at row r0 and column c0 of the
    banded matrix, through the view of _upper_band_view: one strided copy
    for a block above the diagonal, the upper triangle row by row for a
    diagonal block (r0 == c0)."""
    n, m = block.shape
    if r0 != c0:
        view[r0:r0 + n, c0:c0 + m] = block
        return
    for r in range(n):
        view[r0 + r, r0 + r:r0 + m] = block[r, r:]


def assemble_gfem_and_solve(problem, spaces):
    """Couple the patch spaces through the partition of unity and solve
    the reduced Galerkin system, in frame coordinates only.

    Each patch's coords are mapped to coordinates c of its
    energy-orthonormal frame Psi (see _Coupling).  K_ii = c^T P_ii c is
    eigendecomposed, directions below REDUCED_RTOL of its largest
    eigenvalue are dropped, and the rest are scaled to unit energy,
    giving c~ (Babuska & Banerjee, Stable GFEM, 2012).  The blocks
    K_ij = c~_i^T P_ij c~_j over the precomputed neighbour pairs are
    written straight into banded storage, shifted by REDUCED_RTOL on the
    diagonal, since neighbouring patch spaces overlap, and solved by
    banded Cholesky against the rhs c~_i^T f_i; a failed factorization
    is retried with the shift raised tenfold in place (SHIFT_RETRIES).
    Each patch's share of the nodal solution is one lift W Z x of its
    frame coefficients x.
    """
    mesh = problem.mesh
    coupling = problem.coupling

    scaled = []
    dropped = 0
    for i, space in enumerate(spaces):
        c = coupling.energy_coords(i, space.coords)
        lam, vecs = _energy_drop(c.T @ (coupling.pairs[(i, i)] @ c))
        dropped += c.shape[1] - lam.size
        scaled.append(c @ (vecs / np.sqrt(lam)))
    sizes = np.array([c.shape[1] for c in scaled], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ncols = int(offsets[-1])

    bandwidth = 0
    for i, j in coupling.pairs:
        if sizes[i] and sizes[j]:
            bandwidth = max(bandwidth, int(offsets[j + 1] - 1 - offsets[i]))
    band = np.zeros((bandwidth + 1, ncols))
    view = _upper_band_view(band)
    for (i, j), p_ij in coupling.pairs.items():
        k_ij = scaled[i].T @ (p_ij @ scaled[j])
        if i == j:
            k_ij = 0.5 * (k_ij + k_ij.T)
        _write_band_block(view, offsets[i], offsets[j], k_ij)
    band[bandwidth] += REDUCED_RTOL

    rhs = np.concatenate([c.T @ f for c, f in zip(scaled, coupling.loads)])
    for retry in range(SHIFT_RETRIES + 1):
        try:
            coeff = scipy.linalg.solveh_banded(band, rhs)
            break
        except np.linalg.LinAlgError:
            if retry == SHIFT_RETRIES:
                raise
            # solveh_banded leaves band intact: shift to 10**(retry + 1)
            # times REDUCED_RTOL in place
            band[bandwidth] += 9.0 * REDUCED_RTOL * 10.0 ** retry

    u_gfem = np.zeros(mesh.n_nodes)
    for i, (space, c, lo, hi) in enumerate(zip(spaces, scaled, offsets[:-1],
                                               offsets[1:])):
        x = coupling.frame_coords(i, c @ coeff[lo:hi])
        keep, gids = coupling.keep_masks[i], coupling.kept_gids[i]
        u = _lift(space.patch.problem, x)
        u_gfem[gids] += coupling.kept_weights[i] * u[keep]

    diff = problem.truth - u_gfem
    err = float(np.sqrt(max(diff @ (problem.stiffness_raw @ diff), 0.0)))
    global_error = err / problem.truth_energy

    local = np.array([_local_error(coupling, i, s)
                      for i, s in enumerate(spaces)])
    return GfemResult(solution=u_gfem, global_error=global_error,
                      local_errors=local, dropped_columns=dropped)


def _local_error(coupling, i, space):
    """Best-approximation energy error of the truth on the core of patch
    i, relative to the truth energy on the oversampled patch.

    The energy seminorm ignores constants, so the truth and the basis
    are centred first: the truth's constant offset lies in the kernel of
    the semidefinite core Gram, and left in, it cancels in the normal
    equations only to about sqrt(eps) of its size.  The normal equations
    come from the centred frame Zc, G = Zc^T M Zc and Zc^T M u, built at
    set-up (see _Coupling); the residual u - Zc y, y = c coeff, is formed
    explicitly on the nodes and normed in M, which keeps the value
    accurate where the normal equations alone would not."""
    patch = space.patch
    u = coupling.centred_truth[i]
    c = space.coords
    g = c.T @ (coupling.error_grams[i] @ c)
    b = c.T @ coupling.error_rhs[i]
    coeff, *_ = np.linalg.lstsq(g, b, rcond=None)
    y = c @ coeff
    resid = u - (_lift(patch.problem, y) - coupling.frame_means[i] @ y)
    gram = patch.problem.core.range_space.gram
    num = float(np.sqrt(max(resid @ (gram @ resid), 0.0)))
    return num / max(patch.truth_energy, 1e-300)

"""Generalized FEM driver: overlapping patches with flat-top hat
partition-of-unity weights, per-patch reduced spaces built by the
adaptive rangefinder, and the coupled global Galerkin solve."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem, linalg
from .fem import (GAMMA_OUT, GEOM_TOL, build_rect_mesh, centroid_values,
                  on_box_edge, path_l2_gram)
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
# that makes the overlapping unit-energy patch spaces definite
REDUCED_RTOL = 1e-13


@dataclass(frozen=True, eq=False)
class GfemPatch:
    """One overlapping patch, complete once built: core and oversampled
    boxes, local mesh and index maps, trace source space, energy range
    space, core L2 space, partition-of-unity weights, the dense transfer
    operator, and the patch's share of the reference solution.

    Every transfer image is discrete-harmonic inside the core, so the
    operator maps onto its trace on Γ, the free nodes of the core-box
    boundary, normed by the Schur complement of the core energy Gram;
    extension lifts a trace to the range_ids nodes (harmonic inside,
    zero at clamped nodes) without changing its energy norm.
    """

    pid: int
    grid_pos: tuple
    core_box: tuple
    over_box: tuple
    mesh: object
    local_to_global: np.ndarray
    source_ids: np.ndarray
    range_ids: np.ndarray
    source: InnerProductSpace
    range_space: InnerProductSpace
    core_l2: InnerProductSpace
    touches_dirichlet: bool
    pou_weights: np.ndarray
    operator: DenseOperator
    extension: np.ndarray
    u_f: np.ndarray
    truth_energy: float
    trace_norm: float

    @property
    def n_range(self):
        return self.range_ids.size


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
    local problem share it: it is solved once per distinct key and the
    cache is dropped on return.
    """
    if pde.kind == "helmholtz":
        # the core trace view needs images harmonic in the energy product
        raise ValueError("GFEM patches need a laplace or diffusion pde")
    x0, x1, y0, y1 = global_mesh.bounds
    n_steps = int(round((x1 - x0 - CORE) / STRIDE)) + 1
    m_steps = int(round((y1 - y0 - CORE) / STRIDE)) + 1
    if abs((n_steps - 1) * STRIDE + CORE - (x1 - x0)) > GEOM_TOL:
        raise ValueError("patch grid does not tile the domain")

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


@dataclass(frozen=True, eq=False)
class _LocalProblem:
    """The part of a patch that does not depend on where it sits: range
    index map, spaces and Grams, the dense trace transfer matrix with its
    trace space and harmonic extension, and the source response.  The
    arrays are read-only, as patches share them."""

    range_ids: np.ndarray
    range_space: InnerProductSpace
    core_l2: InnerProductSpace
    over_gram: object
    matrix: np.ndarray
    trace_space: InnerProductSpace
    extension: np.ndarray
    u_f: np.ndarray


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


def _trace_transfer(mesh, pde, coefficient, load, source_ids, source,
                    range_ids, gamma_ids):
    """Dense transfer matrix onto the nodes gamma_ids and the source
    response at range_ids, from one local factorization that is freed
    on return, so a cover holds one factorization at a time."""
    factorization = factorize(fem.assemble_system(
        mesh, pde, constrain=True, coefficient=coefficient))
    # local source response with zero data on the whole local boundary
    u_f = factorization.solve(
        fem.constrain_rhs(mesh, fem.load_vector(mesh, load)))[range_ids]
    # Monte Carlo studies rerun every patch many times; the dense form
    # amortizes the local solves across runs.  The range product does
    # not enter the assembly.
    matrix = TransferOperator(
        factorization, source_ids, gamma_ids, source,
        InnerProductSpace.euclidean(gamma_ids.size)).assemble_dense().matrix
    return matrix, u_f


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


def _solve_local_problem(mesh, pde, coefficient, load, core_box, over_box,
                         source_ids, source, touches_dirichlet):
    """Assemble, factorize and solve one local problem on the trace Γ of
    its core, with the harmonic extension back to the core nodes."""
    energy_gram, range_ids = fem.assemble_energy_product(
        mesh, pde, core_box, coefficient)
    range_space = InnerProductSpace(energy_gram, definite=False)
    core_mass, _ = fem.assemble_mass_subdomain(mesh, core_box)
    core_l2 = InnerProductSpace(core_mass)
    gamma, inner = _core_trace_split(mesh, range_ids, core_box)
    matrix, u_f = _trace_transfer(mesh, pde, coefficient, load, source_ids,
                                  source, range_ids, range_ids[gamma])
    extension, schur = _harmonic_extension(energy_gram, gamma, inner)
    if not touches_dirichlet:
        # constants are flat in the energy product, so the operator maps
        # into the range modulo constants: each image loses its core-L2
        # projection onto the constant, in Γ coordinates as E 1 = 1 here
        mass_ones = core_mass @ np.ones(range_ids.size)
        r = (mass_ones @ extension) / mass_ones.sum()
        matrix -= r @ matrix
    for array in (matrix, extension, schur, u_f):
        array.setflags(write=False)

    over_gram, _ = fem.assemble_energy_product(mesh, pde, over_box,
                                               coefficient)
    return _LocalProblem(range_ids=range_ids, range_space=range_space,
                         core_l2=core_l2, over_gram=over_gram,
                         matrix=matrix,
                         trace_space=InnerProductSpace(schur, definite=False),
                         extension=extension, u_f=u_f)


def _build_patch(global_mesh, pde, coefficient, load, truth, core_box,
                 grid_pos, grid_shape, cache):
    """Build one complete patch around core_box.

    The patch is cut from the global mesh and slices coefficient and
    load, the global centroid values.  The local problem is looked up in
    cache, a dict shared by the patches of one cover, and solved and
    stored there on a miss; the mesh, trace space, weights and truth
    norms are the patch's own.
    """
    gx0, gx1, gy0, gy1 = global_mesh.bounds
    cx0, cx1, cy0, cy1 = core_box
    over_box = (max(gx0, cx0 - OVERLAP), min(gx1, cx1 + OVERLAP),
                max(gy0, cy0 - OVERLAP), min(gy1, cy1 + OVERLAP))
    pid = grid_pos[1] * grid_shape[0] + grid_pos[0]

    def tag(x, y):
        return ("sigma_D" if on_box_edge(x, y, global_mesh.bounds)
                else "gamma_out")

    mesh = build_rect_mesh(over_box, global_mesh.h, global_mesh.kind,
                           tag_fn=tag)
    # both meshes number nodes (corners, then centres) and elements in
    # lattice order, so sorted global ids follow the local numbering
    elements = global_mesh.elements_in_box(over_box)
    in_patch = np.zeros(global_mesh.n_nodes, dtype=bool)
    in_patch[global_mesh.elements[elements]] = True
    local_to_global = np.flatnonzero(in_patch)
    # one position per node for all patches: the weights, trace Grams
    # and core-edge tests read the global lattice floats
    mesh.coords = global_mesh.coords[local_to_global]

    # trace space on the non-global part of the local boundary; the
    # closed-loop Gram restricted to the free nodes accounts for the
    # ramp segments into the clamped ones
    loop = _boundary_loop(mesh)
    loop_gram = path_l2_gram(mesh.coords[loop], closed=True)
    free = np.flatnonzero(mesh.node_tags[loop] == GAMMA_OUT)
    if free.size == 0:
        raise ValueError(f"patch {pid} has no free boundary")
    source_ids = loop[free]
    source = InnerProductSpace(loop_gram[np.ix_(free, free)])
    # the oversampling box is clipped only at the global boundary
    touches_dirichlet = min(abs(c - o) for c, o in
                            zip(core_box, over_box)) <= GEOM_TOL

    coefficient = coefficient[elements]
    load = load[elements]
    key = _problem_key(mesh, core_box, over_box, coefficient, load)
    local = cache.get(key)
    if local is None:
        local = cache[key] = _solve_local_problem(
            mesh, pde, coefficient, load, core_box, over_box, source_ids,
            source, touches_dirichlet)

    range_ids = local.range_ids
    u_loc = truth[local_to_global]
    return GfemPatch(
        pid=pid, grid_pos=grid_pos, core_box=core_box, over_box=over_box,
        mesh=mesh, local_to_global=local_to_global, source_ids=source_ids,
        range_ids=range_ids, source=source, range_space=local.range_space,
        core_l2=local.core_l2, touches_dirichlet=touches_dirichlet,
        pou_weights=_pou_weights(mesh.coords[range_ids], core_box,
                                 grid_pos, grid_shape),
        operator=DenseOperator(local.matrix, source, local.trace_space),
        extension=local.extension, u_f=local.u_f,
        truth_energy=float(np.sqrt(max(u_loc @ (local.over_gram @ u_loc),
                                       0.0))),
        trace_norm=source.norm(truth[local_to_global[source_ids]]))


def partition_of_unity(patches, global_mesh):
    """Accumulate the patch weights globally and verify they sum to one.

    Returns the (n_nodes,) sum vector.
    """
    total = np.zeros(global_mesh.n_nodes)
    for patch in patches:
        gids = patch.local_to_global[patch.range_ids]
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
        gids = patch.local_to_global[patch.range_ids]
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
    if tol_gfem <= 0.0:
        raise ValueError("tolerance must be positive")
    energies = np.asarray(patch_energies, dtype=float)
    m = energies.size
    return tol_gfem * energies / (c_pou * np.sqrt(m))


@dataclass
class LocalReducedSpace:
    """Combined per-patch basis: randomized range space plus the local
    source-term response plus (away from the global boundary) the
    constant kernel representative."""

    patch: GfemPatch
    random_basis: RangeBasis
    combined: np.ndarray

    @property
    def n_random(self):
        return len(self.random_basis)

    @property
    def evaluations(self):
        return self.random_basis.evaluations


def local_space(patch, tol, n_t, eps_algofail, rng):
    """Run the adaptive rangefinder on one patch and augment the basis.

    tol is the absolute operator-norm tolerance for the patch transfer
    map.  The random basis lives on the core trace Γ; its harmonic
    extensions, the source response patch.u_f and the constant make the
    combined basis, orthonormalized in patch.core_l2 (the energy
    seminorm cannot normalize the constant), dropping dependent vectors.
    """
    basis = adaptive_randomized_range(patch.operator, tol, n_t,
                                      eps_algofail, rng)
    combined = RangeBasis(patch.core_l2)
    combined.extend_block(patch.extension @ basis.matrix)
    combined.extend(patch.u_f)
    if not patch.touches_dirichlet:
        combined.extend(np.ones(patch.n_range))
    return LocalReducedSpace(patch=patch, random_basis=basis,
                             combined=combined.matrix)


@dataclass
class GfemProblem:
    """Global data shared by every run of a GFEM experiment."""

    mesh: object
    pde: object
    patches: list
    stiffness_raw: object
    load: np.ndarray
    truth: np.ndarray
    truth_energy: float
    c_pou: int
    coupling: object


class _Coupling:
    """Precomputed sparsity skeleton of the reduced Galerkin system.

    Patch cores two strides apart share at most a zero-weight edge and
    the crisscross elements never bridge it, so only grid neighbors
    couple.  Stores, per patch, the kept (unconstrained) core nodes and,
    per neighbor pair i <= j, the stiffness sub-block between them.
    """

    def __init__(self, mesh, stiffness_raw, patches):
        constrained = np.zeros(mesh.n_nodes, dtype=bool)
        constrained[mesh.constrained_nodes] = True
        self.kept_gids = []
        self.keep_masks = []
        for patch in patches:
            gids = patch.local_to_global[patch.range_ids]
            keep = ~constrained[gids]
            self.kept_gids.append(gids[keep])
            self.keep_masks.append(keep)
        a_csr = sp.csr_matrix(stiffness_raw)
        self.pairs = {}
        for i, pi in enumerate(patches):
            rows = a_csr[self.kept_gids[i]].tocsc()
            for j in range(i, len(patches)):
                pj = patches[j]
                if (abs(pi.grid_pos[0] - pj.grid_pos[0]) > 1
                        or abs(pi.grid_pos[1] - pj.grid_pos[1]) > 1):
                    continue
                self.pairs[(i, j)] = rows[:, self.kept_gids[j]].tocsr()


def build_gfem_problem(mesh, pde, source_fn):
    """Assemble the global problem, the truth solve, and all patches."""
    system = fem.assemble_system(mesh, pde, constrain=True)
    stiffness_raw = fem.assemble_system(mesh, pde, constrain=False)
    load = fem.constrain_rhs(mesh, fem.load_vector(mesh, source_fn))
    truth = factorize(system).solve(load)
    truth_energy = float(np.sqrt(truth @ (stiffness_raw @ truth)))

    patches = build_patches(mesh, pde, source_fn, truth)
    partition_of_unity(patches, mesh)
    c_pou = cover_overlap_bound(patches, mesh)
    coupling = _Coupling(mesh, stiffness_raw, patches)
    return GfemProblem(mesh=mesh, pde=pde, patches=patches,
                       stiffness_raw=stiffness_raw, load=load, truth=truth,
                       truth_energy=truth_energy, c_pou=c_pou,
                       coupling=coupling)


def gfem_run(problem, tol_gfem, n_t, eps_algofail, seed, threads=1):
    """One seeded GFEM solve at a global tolerance.

    Returns (GfemResult, list[LocalReducedSpace]).
    """
    # threads=1 is accepted only because the benchmark harness still
    # passes it; the next change to bench/workloads.py removes it
    if threads != 1:
        raise ValueError("gfem_run builds patches serially; threads must be 1")
    patches = problem.patches
    energies = [p.truth_energy for p in patches]
    targets = tolerance_cascade(tol_gfem, energies, problem.c_pou)
    spaces = []
    for patch, target in zip(patches, targets):
        rng = RngStream((seed << 32) + patch.pid)
        scale = max(patch.trace_norm, 1e-300)
        spaces.append(local_space(patch, float(target) / scale, n_t,
                                  eps_algofail, rng))
    result = assemble_gfem_and_solve(problem, spaces)
    return result, spaces


@dataclass
class GfemResult:
    solution: np.ndarray
    global_error: float
    local_errors: np.ndarray
    dropped_columns: int


def assemble_gfem_and_solve(problem, spaces):
    """Couple the patch spaces through the partition of unity and solve
    the reduced Galerkin system.

    Each patch's weighted columns are orthonormalized in energy through
    the eigendecomposition of their own diagonal block, dropping
    directions below REDUCED_RTOL of its largest eigenvalue (Babuska &
    Banerjee, Stable GFEM, 2012).  The reduced operator is assembled
    block by block over the precomputed neighbor pairs straight into
    banded storage, shifted by REDUCED_RTOL on the diagonal, since
    neighbouring patch spaces overlap, and solved by banded Cholesky.
    """
    mesh = problem.mesh
    coupling = problem.coupling

    weighted = []
    dropped = 0
    for i, (space, keep) in enumerate(zip(spaces, coupling.keep_masks)):
        w = space.patch.pou_weights[keep, None] * space.combined[keep]
        k_ii = w.T @ (coupling.pairs[(i, i)] @ w)
        lam, vecs = np.linalg.eigh(0.5 * (k_ii + k_ii.T))
        kept = lam > REDUCED_RTOL * np.max(lam, initial=0.0)
        dropped += int(kept.size - kept.sum())
        weighted.append(w @ (vecs[:, kept] / np.sqrt(lam[kept])))
    sizes = np.array([w.shape[1] for w in weighted], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ncols = int(offsets[-1])

    bandwidth = 0
    for i, j in coupling.pairs:
        if sizes[i] and sizes[j]:
            bandwidth = max(bandwidth, int(offsets[j + 1] - 1 - offsets[i]))
    band = np.zeros((bandwidth + 1, ncols))
    for (i, j), a_ij in coupling.pairs.items():
        k_ij = weighted[i].T @ (a_ij @ weighted[j])
        if i == j:
            k_ij = 0.5 * (k_ij + k_ij.T)
        rr = np.broadcast_to(offsets[i] + np.arange(sizes[i])[:, None],
                             k_ij.shape)
        cc = np.broadcast_to(offsets[j] + np.arange(sizes[j])[None, :],
                             k_ij.shape)
        upper = rr <= cc
        band[bandwidth + rr[upper] - cc[upper], cc[upper]] = k_ij[upper]
    band[bandwidth] += REDUCED_RTOL

    rhs = np.concatenate([
        w.T @ problem.load[gids]
        for w, gids in zip(weighted, coupling.kept_gids)])
    coeff = scipy.linalg.solveh_banded(band, rhs)

    u_gfem = np.zeros(mesh.n_nodes)
    for w, gids, lo, hi in zip(weighted, coupling.kept_gids,
                               offsets[:-1], offsets[1:]):
        u_gfem[gids] += w @ coeff[lo:hi]

    diff = problem.truth - u_gfem
    err = float(np.sqrt(max(diff @ (problem.stiffness_raw @ diff), 0.0)))
    global_error = err / problem.truth_energy

    local = np.array([_local_error(problem, s) for s in spaces])
    return GfemResult(solution=u_gfem, global_error=global_error,
                      local_errors=local, dropped_columns=dropped)


def _local_error(problem, space):
    """Best-approximation energy error of the truth on the patch core,
    relative to the truth energy on the oversampled patch.

    The energy seminorm ignores constants, so the truth and the basis
    are centred first: the truth's constant offset lies in the kernel of
    the semidefinite core Gram, and left in, it cancels in the normal
    equations only to about sqrt(eps) of its size."""
    patch = space.patch
    u_loc = problem.truth[patch.local_to_global[patch.range_ids]]
    u_loc = u_loc - u_loc.mean()
    gram = patch.range_space.gram
    v = space.combined - space.combined.mean(axis=0)
    if v.shape[1] == 0:
        resid = u_loc
    else:
        g = v.T @ (gram @ v)
        b = v.T @ (gram @ u_loc)
        coeff, *_ = np.linalg.lstsq(g, b, rcond=None)
        resid = u_loc - v @ coeff
    num = float(np.sqrt(max(resid @ (gram @ resid), 0.0)))
    return num / max(patch.truth_energy, 1e-300)

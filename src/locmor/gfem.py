"""Generalized FEM driver: overlapping patches with flat-top hat
partition-of-unity weights, per-patch reduced spaces built by the
adaptive rangefinder, and the coupled global Galerkin solve."""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from . import fem
from .fem import GAMMA_OUT, build_rect_mesh, path_l2_gram
from .linalg import InnerProductSpace, RangeBasis, factorize
from .rangefinder import RngStream, adaptive_randomized_range
from .transfer import TransferOperator

_TOL = 1e-9
# patch cover: cores of side CORE on a grid of spacing STRIDE, each
# oversampled by OVERLAP in every interior direction
CORE = 0.2
STRIDE = 0.1
OVERLAP = 0.1
# accepted deviation of the summed partition-of-unity weights from one
POU_TOL = 1e-12


class GfemPatch:
    """One overlapping patch: core region, oversampled local problem,
    trace source space, energy range space, and transfer operator."""

    def __init__(self, pid, grid_pos, core_box, over_box):
        self.pid = pid
        self.grid_pos = grid_pos
        self.core_box = core_box
        self.over_box = over_box
        # filled by build_patches
        self.mesh = None
        self.local_to_global = None
        self.source_ids = None
        self.range_ids = None
        self.source = None
        self.range_space = None
        self.core_mass = None
        self.operator = None
        self.touches_dirichlet = None
        self.pou_weights = None
        self.u_f = None
        self.truth_energy = None
        self.trace_norm = None

    @property
    def n_range(self):
        return self.range_ids.size


def _hat_profile(x, lo, hi, ramp, is_first, is_last):
    """1D flat-top hat: 1 on the core, linear over the overlap band."""
    up = np.ones_like(x) if is_first else (x - lo) / ramp
    down = np.ones_like(x) if is_last else (hi - x) / ramp
    return np.clip(np.minimum(up, down), 0.0, 1.0)


def _boundary_loop(mesh):
    """Corner nodes around the mesh rectangle, counterclockwise order."""
    x0, x1, y0, y1 = mesh.bounds
    bottom = mesh.nodes_on_line("y", y0)
    right = mesh.nodes_on_line("x", x1)
    top = mesh.nodes_on_line("y", y1)[::-1]
    left = mesh.nodes_on_line("x", x0)[::-1]
    loop = np.concatenate([bottom, right[1:], top[1:], left[1:-1]])
    return loop


def _lattice_ids(global_mesh, coords, is_center):
    """Global node ids from coordinates, by lattice arithmetic."""
    h = global_mesh.h
    x0, _, y0, _ = global_mesh.bounds
    if is_center:
        i = np.rint((coords[:, 0] - x0) / h - 0.5).astype(np.int64)
        j = np.rint((coords[:, 1] - y0) / h - 0.5).astype(np.int64)
        return global_mesh.n_corner + j * global_mesh.nx + i
    i = np.rint((coords[:, 0] - x0) / h).astype(np.int64)
    j = np.rint((coords[:, 1] - y0) / h).astype(np.int64)
    return j * (global_mesh.nx + 1) + i


def build_patches(global_mesh, pde):
    """Cover the global rectangle with overlapping square patches.

    Cores of side CORE placed on a grid of spacing STRIDE; oversampling
    extends each core by OVERLAP in every interior direction.  Local
    meshes, trace/energy spaces, and factorized transfer operators are
    built per patch.
    """
    x0, x1, y0, y1 = global_mesh.bounds
    n_steps = int(round((x1 - x0 - CORE) / STRIDE)) + 1
    m_steps = int(round((y1 - y0 - CORE) / STRIDE)) + 1
    if abs((n_steps - 1) * STRIDE + CORE - (x1 - x0)) > _TOL:
        raise ValueError("patch grid does not tile the domain")

    patches = []
    pid = 0
    for jy in range(m_steps):
        for ix in range(n_steps):
            cx0 = x0 + ix * STRIDE
            cy0 = y0 + jy * STRIDE
            core_box = (cx0, cx0 + CORE, cy0, cy0 + CORE)
            over_box = (max(x0, cx0 - OVERLAP),
                        min(x1, cx0 + CORE + OVERLAP),
                        max(y0, cy0 - OVERLAP),
                        min(y1, cy0 + CORE + OVERLAP))
            patches.append(GfemPatch(pid, (ix, jy), core_box, over_box))
            pid += 1

    for patch in patches:
        _build_local_problem(global_mesh, pde, patch)
    _attach_pou(patches)
    return patches


def _build_local_problem(global_mesh, pde, patch):
    gx0, gx1, gy0, gy1 = global_mesh.bounds

    def on_global_boundary(x, y):
        return (abs(x - gx0) <= _TOL or abs(x - gx1) <= _TOL
                or abs(y - gy0) <= _TOL or abs(y - gy1) <= _TOL)

    def tag(x, y):
        return "sigma_D" if on_global_boundary(x, y) else "gamma_out"

    mesh = build_rect_mesh(patch.over_box, global_mesh.h, global_mesh.kind,
                           tag_fn=tag)
    patch.mesh = mesh
    patch.local_to_global = np.concatenate([
        _lattice_ids(global_mesh, mesh.coords[: mesh.n_corner], False),
        _lattice_ids(global_mesh, mesh.coords[mesh.n_corner:], True),
    ])
    # reuse the global lattice floats so piecewise coefficients classify
    # elements bitwise identically in the local and the global assembly
    mesh.coords = global_mesh.coords[patch.local_to_global]

    # trace space on the non-global part of the local boundary; the
    # closed-loop Gram restricted to the free nodes accounts for the
    # ramp segments into the clamped ones
    loop = _boundary_loop(mesh)
    loop_gram = path_l2_gram(mesh.coords[loop], closed=True)
    free = mesh.node_tags[loop] == GAMMA_OUT
    if not free.any():
        raise ValueError(f"patch {patch.pid} has no free boundary")
    sub = loop_gram[np.ix_(np.nonzero(free)[0], np.nonzero(free)[0])]
    patch.source_ids = loop[free]
    patch.source = InnerProductSpace(sub)

    system = fem.assemble_system(mesh, pde, constrain=True)
    factorization = factorize(system)

    energy_gram, range_ids = fem.assemble_energy_product(
        mesh, pde, patch.core_box)
    mass_gram, mass_ids = fem.assemble_mass_subdomain(mesh, patch.core_box)
    if not np.array_equal(range_ids, mass_ids):
        raise AssertionError("range node sets disagree between products")
    patch.range_ids = range_ids
    patch.core_mass = mass_gram

    cx0, cx1, cy0, cy1 = patch.core_box
    patch.touches_dirichlet = (abs(cx0 - gx0) <= _TOL
                               or abs(cx1 - gx1) <= _TOL
                               or abs(cy0 - gy0) <= _TOL
                               or abs(cy1 - gy1) <= _TOL)
    patch.range_space = InnerProductSpace(energy_gram, definite=False)
    patch.operator = TransferOperator(
        factorization, patch.source_ids, range_ids, patch.source,
        patch.range_space)


def _attach_pou(patches):
    # the weights ramp over the band where neighbouring cores overlap
    ramp = CORE - STRIDE
    n_steps = max(p.grid_pos[0] for p in patches) + 1
    m_steps = max(p.grid_pos[1] for p in patches) + 1
    for patch in patches:
        ix, jy = patch.grid_pos
        cx0, cx1, cy0, cy1 = patch.core_box
        coords = patch.mesh.coords[patch.range_ids]
        wx = _hat_profile(coords[:, 0], cx0, cx1, ramp,
                          ix == 0, ix == n_steps - 1)
        wy = _hat_profile(coords[:, 1], cy0, cy1, ramp,
                          jy == 0, jy == m_steps - 1)
        patch.pou_weights = wx * wy


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
    includes_data: bool
    includes_kernel: bool

    @property
    def n_random(self):
        return len(self.random_basis)

    @property
    def evaluations(self):
        return self.random_basis.evaluations


def local_space(patch, tol, n_t, eps_algofail, rng, u_f):
    """Run the adaptive rangefinder on one patch and augment the basis.

    tol is the absolute operator-norm tolerance for the patch transfer
    map.  The combined basis is orthonormalized in L2 over the core (the
    energy seminorm cannot normalize the constant), dropping dependent
    vectors.
    """
    basis = adaptive_randomized_range(patch.operator, tol, n_t,
                                      eps_algofail, rng)
    l2_space = InnerProductSpace(patch.core_mass)
    combined = RangeBasis(l2_space)
    combined.extend_block(basis.matrix)
    includes_data = combined.extend(u_f)
    includes_kernel = False
    if not patch.touches_dirichlet:
        includes_kernel = combined.extend(np.ones(patch.n_range))
    out = LocalReducedSpace(patch=patch, random_basis=basis,
                            combined=combined.matrix,
                            includes_data=includes_data,
                            includes_kernel=includes_kernel)
    return out


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

    patches = build_patches(mesh, pde)
    partition_of_unity(patches, mesh)
    c_pou = cover_overlap_bound(patches, mesh)

    for patch in patches:
        _attach_patch_data(pde, patch, source_fn, truth)
        # Monte Carlo studies rerun every patch many times; the dense
        # form amortizes the local solves across runs and frees the
        # factorization
        patch.operator = patch.operator.assemble_dense()
        if not patch.touches_dirichlet:
            # constants are flat in the energy product, so the operator
            # maps into the range modulo constants: each image loses its
            # core-L2 projection onto the constant
            ones = np.ones(patch.n_range)
            k = (ones / np.sqrt(ones @ (patch.core_mass @ ones)))[:, None]
            m = patch.operator.matrix
            patch.operator.matrix = m - k @ (k.T @ (patch.core_mass @ m))
    coupling = _Coupling(mesh, stiffness_raw, patches)
    return GfemProblem(mesh=mesh, pde=pde, patches=patches,
                       stiffness_raw=stiffness_raw, load=load, truth=truth,
                       truth_energy=truth_energy, c_pou=c_pou,
                       coupling=coupling)


def _attach_patch_data(pde, patch, source_fn, truth):
    # local source response with zero data on the whole local boundary
    local_load = fem.load_vector(patch.mesh, source_fn)
    local_load[patch.mesh.constrained_nodes] = 0.0
    u_f_full = patch.operator.factorization.solve(local_load)
    patch.u_f = u_f_full[patch.range_ids]

    over_gram, _ = fem.assemble_energy_product(
        patch.mesh, pde, patch.over_box)
    u_loc = truth[patch.local_to_global]
    patch.truth_energy = float(
        np.sqrt(max(u_loc @ (over_gram @ u_loc), 0.0)))
    trace = truth[patch.local_to_global[patch.source_ids]]
    patch.trace_norm = patch.source.norm(trace)


def gfem_run(problem, tol_gfem, n_t, eps_algofail, seed, threads=1):
    """One seeded GFEM solve at a global tolerance.

    Returns (GfemResult, list[LocalReducedSpace]).
    """
    patches = problem.patches
    energies = [p.truth_energy for p in patches]
    targets = tolerance_cascade(tol_gfem, energies, problem.c_pou)
    spaces = [None] * len(patches)

    def build(i):
        patch = patches[i]
        rng = RngStream((seed << 32) + patch.pid)
        scale = max(patch.trace_norm, 1e-300)
        return local_space(patch, float(targets[i]) / scale, n_t,
                           eps_algofail, rng, u_f=patch.u_f)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            spaces = list(pool.map(build, range(len(patches))))
    else:
        spaces = [build(i) for i in range(len(patches))]

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

    Assembles the reduced operator block by block over the precomputed
    neighbor pairs straight into banded storage.
    """
    mesh = problem.mesh
    coupling = problem.coupling

    weighted = []
    for space, keep in zip(spaces, coupling.keep_masks):
        w = space.patch.pou_weights[keep, None] * space.combined[keep]
        weighted.append(w)
    sizes = np.array([w.shape[1] for w in weighted], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ncols = int(offsets[-1])

    bandwidth = 0
    for i, j in coupling.pairs:
        if sizes[i] and sizes[j]:
            bandwidth = max(bandwidth, int(offsets[j + 1] - 1 - offsets[i]))
    band = np.zeros((bandwidth + 1, ncols))
    blocks = {}
    for (i, j), a_ij in coupling.pairs.items():
        k_ij = weighted[i].T @ (a_ij @ weighted[j])
        if i == j:
            k_ij = 0.5 * (k_ij + k_ij.T)
        blocks[(i, j)] = k_ij
        rr = np.broadcast_to(offsets[i] + np.arange(sizes[i])[:, None],
                             k_ij.shape)
        cc = np.broadcast_to(offsets[j] + np.arange(sizes[j])[None, :],
                             k_ij.shape)
        upper = rr <= cc
        band[bandwidth + rr[upper] - cc[upper], cc[upper]] = k_ij[upper]

    rhs = np.concatenate([
        w.T @ problem.load[gids]
        for w, gids in zip(weighted, coupling.kept_gids)]) \
        if ncols else np.empty(0)

    coeff, dropped = _solve_reduced(band, bandwidth, blocks, offsets, rhs)

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


def _solve_reduced(band, bandwidth, blocks, offsets, rhs):
    if rhs.size == 0:
        return rhs, 0
    try:
        return scipy.linalg.solveh_banded(band, rhs), 0
    except scipy.linalg.LinAlgError:
        pass
    # dependent columns (coarse toy meshes): reconstruct densely, keep
    # the pivots of a rank-revealing QR above the drop tolerance, warn
    n = rhs.size
    k_red = np.zeros((n, n))
    for (i, j), k_ij in blocks.items():
        ri = slice(offsets[i], offsets[i] + k_ij.shape[0])
        cj = slice(offsets[j], offsets[j] + k_ij.shape[1])
        k_red[ri, cj] = k_ij
        if i != j:
            k_red[cj, ri] = k_ij.T
    q, r, piv = scipy.linalg.qr(k_red, pivoting=True)
    diag = np.abs(np.diag(r))
    keep = piv[diag > 1e-12 * diag.max()]
    dropped = n - keep.size
    warnings.warn(f"reduced system is singular; dropped {dropped} "
                  "dependent columns", RuntimeWarning)
    coeff = np.zeros(rhs.size)
    sub = k_red[np.ix_(keep, keep)]
    coeff[keep] = scipy.linalg.solve(sub, rhs[keep], assume_a="sym")
    return coeff, dropped


def _local_error(problem, space):
    """Best-approximation energy error of the truth on the patch core,
    relative to the truth energy on the oversampled patch."""
    patch = space.patch
    u_loc = problem.truth[patch.local_to_global[patch.range_ids]]
    gram = patch.range_space.gram
    v = space.combined
    if v.shape[1] == 0:
        resid = u_loc
    else:
        g = v.T @ (gram @ v)
        b = v.T @ (gram @ u_loc)
        coeff, *_ = np.linalg.lstsq(g, b, rcond=None)
        resid = u_loc - v @ coeff
    num = float(np.sqrt(max(resid @ (gram @ resid), 0.0)))
    return num / max(patch.truth_energy, 1e-300)

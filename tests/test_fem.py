import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from locmor.fem import (_REFERENCE, GAMMA_OUT, SIGMA_D, SIGMA_N, PdeSpec,
                        assemble_energy_product, assemble_interface_l2,
                        assemble_mass, assemble_mass_subdomain,
                        assemble_system, build_rect_mesh, centroid_values,
                        constrain_rhs, constrain_system, load_vector,
                        path_l2_gram)
from locmor.problems import build_gfem_mesh, gfem_field


def test_mesh_counts_q1_and_crisscross():
    q1 = build_rect_mesh((0, 1, 0, 1), 0.25, kind="q1")
    assert q1.n_nodes == 25
    assert q1.elements.shape == (16, 4)

    tri = build_rect_mesh((0, 2, 0, 1), 0.5, kind="p1x")
    assert tri.n_corner == 5 * 3
    assert tri.n_center == 4 * 2
    assert tri.n_nodes == 23
    assert tri.elements.shape == (4 * 8, 3)


def test_mesh_rejects_bad_geometry():
    with pytest.raises(ValueError):
        build_rect_mesh((0, 1, 0, 1), 0.3)
    with pytest.raises(ValueError):
        build_rect_mesh((0, 0, 0, 1), 0.1)
    with pytest.raises(ValueError):
        build_rect_mesh((0, 1, 0, 1), 0.25, kind="hexes")


def test_boundary_tag_precedence():
    calls = []

    def tag(x, y):
        # the tag function decides corners: left wins over bottom here
        calls.append((x, y))
        if x == 0.0:
            return "gamma_out"
        return "sigma_D" if y == 0.0 else "sigma_N"

    mesh = build_rect_mesh((0, 1, 0, 1), 0.5, tag_fn=tag)
    # called once per boundary node, never on the interior one
    assert len(calls) == 8 and (0.5, 0.5) not in calls
    # q1 nodes are the corner lattice, row j holds y = j * h
    tags = mesh.node_tags.reshape(mesh.ny + 1, mesh.nx + 1)
    assert tags[0, 0] == GAMMA_OUT
    assert tags[0, 1] == SIGMA_D
    assert tags[2, 2] == SIGMA_N
    assert tags[1, 1] == 0
    constrained = np.isin(np.arange(mesh.n_nodes), mesh.constrained_nodes)
    constrained = constrained.reshape(tags.shape)
    assert constrained[2, 0] and constrained[0, 2]
    assert not constrained[1, 2]
    # without a tag function every boundary node is natural
    plain = build_rect_mesh((0, 1, 0, 1), 0.5).node_tags
    assert (plain == SIGMA_N).sum() == 8 and plain[4] == 0


def test_nodes_on_line_sorted():
    mesh = build_rect_mesh((0, 1, -1, 1), 0.25)
    ids = mesh.nodes_on_line("x", 0.5)
    assert ids.size == 9
    ys = mesh.coords[ids, 1]
    assert np.array_equal(ys, np.sort(ys))
    with pytest.raises(ValueError):
        mesh.nodes_on_line("x", 0.37)


def test_stiffness_kernel_and_partition():
    # gradients annihilate constants; mass integrates them exactly
    for kind in ("q1", "p1x"):
        mesh = build_rect_mesh((0, 1, 0, 1), 0.25, kind=kind)
        a = assemble_system(mesh, PdeSpec())
        ones = np.ones(mesh.n_nodes)
        assert np.abs(a @ ones).max() < 1e-13
        m = assemble_mass(mesh)
        assert abs(ones @ m @ ones - 1.0) < 1e-13


def test_element_matrices_match_quadrature_oracle():
    # one-element mesh against dense Gauss quadrature of the bilinear form
    h = 0.7
    mesh = build_rect_mesh((0, h, 0, h), h, kind="q1")
    a = assemble_system(mesh, PdeSpec()).toarray()

    g = np.array([-1.0, 1.0]) / np.sqrt(3.0)
    pts = [(0.5 * (1 + s), 0.5 * (1 + t)) for s in g for t in g]
    # shape functions on the unit square, counterclockwise from (0,0)
    def grads(xi, eta):
        return np.array([
            [-(1 - eta), -(1 - xi)],
            [(1 - eta), -xi],
            [eta, xi],
            [-eta, (1 - xi)],
        ])
    ref = np.zeros((4, 4))
    for xi, eta in pts:
        gmat = grads(xi, eta) / h
        ref += 0.25 * h * h * (gmat @ gmat.T)
    # mesh orders the element a, a+1, diagonal, a+nx+1
    perm = [0, 1, 3, 2]
    assert np.abs(a - ref[np.ix_(perm, perm)]).max() < 1e-13

    # one crisscross square against the general P1 formula from each
    # triangle's vertices, (b b^T + c c^T) / (4 area), and with one
    # diffusion coefficient per triangle scaling that triangle's block
    coefficient = np.array([1.0, 2.0, 5.0, 0.25])
    for h in (0.7, 1.0 / 3.0):
        mesh = build_rect_mesh((0, h, 0, h), h, kind="p1x")
        ref = np.zeros((2, mesh.n_nodes, mesh.n_nodes))
        for tri, k in zip(mesh.tris, coefficient):
            x, y = mesh.coords[tri].T
            b = np.array([y[1] - y[2], y[2] - y[0], y[0] - y[1]])
            c = np.array([x[2] - x[1], x[0] - x[2], x[1] - x[0]])
            area = 0.5 * abs(b[0] * c[1] - b[1] * c[0])
            local = (np.outer(b, b) + np.outer(c, c)) / (4.0 * area)
            ref[0][np.ix_(tri, tri)] += local
            ref[1][np.ix_(tri, tri)] += k * local
        for pde, expected in ((PdeSpec(), ref[0]),
                              (PdeSpec(kind="diffusion"), ref[1])):
            a = assemble_system(mesh, pde, coefficient=coefficient).toarray()
            assert np.abs(a - expected).max() < 1e-13


def test_linear_fields_are_exact():
    # P1 and Q1 both reproduce u(x,y) = x, so A u equals the load of the
    # zero source away from the Neumann boundary terms
    for kind in ("q1", "p1x"):
        mesh = build_rect_mesh((0, 1, 0, 1), 0.125, kind=kind,
                               tag_fn=lambda x, y: "sigma_D")
        u = mesh.coords[:, 0].copy()
        a = assemble_system(mesh, PdeSpec())
        res = a @ u
        free = np.setdiff1d(np.arange(mesh.n_nodes), mesh.constrained_nodes)
        assert np.abs(res[free]).max() < 1e-13


def _bitwise_equal(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                            (a.data, b.data)))


def _filtered_triplets(mesh, pde):
    """The constrained system in one COO to CSR pass: every element
    triplet outside the constrained rows, then one identity entry per
    constrained node."""
    stiff, mass = _REFERENCE[mesh.kind]
    conn = mesh.elements
    if pde.kind == "diffusion":
        k = centroid_values(mesh, pde.coefficient)
        data = (k[:, None] * stiff.ravel()[None, :]).ravel()
    else:
        local = stiff - pde.kappa ** 2 * mass * mesh.element_area
        data = np.tile(local.ravel(), conn.shape[0])
    rows = np.repeat(conn, conn.shape[1], axis=1).ravel()
    cols = np.tile(conn, (1, conn.shape[1])).ravel()
    nodes = mesh.constrained_nodes
    keep = ~np.isin(rows, nodes)
    return sp.coo_matrix(
        (np.concatenate([data[keep], np.ones(nodes.size)]),
         (np.concatenate([rows[keep], nodes]),
          np.concatenate([cols[keep], nodes]))),
        shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def _channel(x, y):
    return "gamma_out" if abs(abs(x) - 1.0) <= 1e-9 else "sigma_N"


@pytest.mark.parametrize("kind, pde", [
    ("q1", PdeSpec()),
    ("q1", PdeSpec("helmholtz", kappa=7.0)),
    ("p1x", gfem_field("uniform")[0]),
    ("p1x", gfem_field("channels")[0]),
])
def test_constrained_system_matches_filtered_triplets(kind, pde):
    # identity rows on the summed stiffness are bitwise the filtered
    # element triplets, explicit zeros included
    if kind == "q1":
        mesh = build_rect_mesh((-1.0, 1.0, 0.0, 1.0), 0.1, "q1", _channel)
    else:
        mesh = build_gfem_mesh(20)
    system = constrain_system(mesh, assemble_system(mesh, pde))
    assert _bitwise_equal(system, _filtered_triplets(mesh, pde))


def test_manufactured_solution_convergence():
    # -lap(u) = 2 pi^2 sin(pi x) sin(pi y), u = 0 on the boundary
    errs = []
    hs = [1 / 8, 1 / 16, 1 / 32]
    for h in hs:
        mesh = build_rect_mesh((0, 1, 0, 1), h, kind="p1x",
                               tag_fn=lambda x, y: "sigma_D")
        a = constrain_system(mesh, assemble_system(mesh, PdeSpec()))
        f = lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)
        b = constrain_rhs(mesh, load_vector(mesh, f))
        u = spla.spsolve(a.tocsc(), b)
        exact = np.sin(np.pi * mesh.coords[:, 0]) * np.sin(np.pi * mesh.coords[:, 1])
        diff = u - exact
        m = assemble_mass(mesh)
        errs.append(np.sqrt(diff @ m @ diff))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 > 1.8 and rate2 > 1.8


def test_diffusion_coefficient_boxes():
    pde = PdeSpec(kind="diffusion", background=1.0,
                  boxes=[(0.0, 0.5, 0.0, 1.0, 10.0),
                         (0.2, 0.3, 0.2, 0.3, 100.0)])
    k = pde.coefficient([0.6, 0.25, 0.25], [0.5, 0.5, 0.25])
    assert np.array_equal(k, [1.0, 10.0, 100.0])
    with pytest.raises(ValueError):
        PdeSpec(kind="diffusion", boxes=[(0, 1, 0, 1, -2.0)])
    with pytest.raises(ValueError):
        PdeSpec(kind="laplace", kappa=3.0)


def test_helmholtz_shift_is_mass():
    mesh = build_rect_mesh((0, 1, 0, 1), 0.25, kind="p1x")
    lap = assemble_system(mesh, PdeSpec())
    helm = assemble_system(mesh, PdeSpec(kind="helmholtz", kappa=3.0))
    m = assemble_mass(mesh)
    assert np.abs((lap - 9.0 * m - helm).toarray()).max() < 1e-12


def test_load_vector_integrates_constants():
    for kind in ("q1", "p1x"):
        mesh = build_rect_mesh((0, 2, 0, 1), 0.25, kind=kind)
        b = load_vector(mesh, lambda x, y: np.full_like(x, 3.0))
        assert abs(b.sum() - 6.0) < 1e-12


def test_subdomain_products_restrict():
    mesh = build_rect_mesh((0, 1, 0, 1), 0.125, kind="p1x")
    box = (0.25, 0.75, 0.25, 0.75)
    m_sub, ids = assemble_mass_subdomain(mesh, box)
    ones = np.ones(ids.size)
    assert abs(ones @ m_sub @ ones - 0.25) < 1e-12
    gram, ids2 = assemble_energy_product(mesh, PdeSpec(), box)
    assert np.array_equal(ids, ids2)
    assert np.abs(gram @ ones).max() < 1e-13
    x = mesh.coords[ids2, 0]
    assert abs(x @ gram @ x - 0.25) < 1e-12
    # over the mesh's own box the energy Gram is the stiffness, bitwise
    for field in ("uniform", "channels"):
        pde = gfem_field(field)[0]
        gram, ids = assemble_energy_product(mesh, pde, mesh.bounds)
        assert np.array_equal(ids, np.arange(mesh.n_nodes))
        assert _bitwise_equal(gram, assemble_system(mesh, pde))


def test_path_l2_gram_uniform_line():
    # consistent P1 mass on a uniform line: 2h/3 diagonal, h/6 coupling
    n = 9
    h = 0.5
    coords = np.column_stack([np.zeros(n), h * np.arange(n)])
    g = path_l2_gram(coords).toarray()
    assert abs(g[4, 4] - 2 * h / 3) < 1e-15
    assert abs(g[0, 0] - h / 3) < 1e-15
    assert abs(g[4, 5] - h / 6) < 1e-15
    assert abs(g.sum() - h * (n - 1)) < 1e-13
    with pytest.raises(ValueError):
        path_l2_gram(coords[[0, 0, 1]])


def test_interface_l2_orders_nodes():
    mesh = build_rect_mesh((0, 1, 0, 1), 0.25)
    ids = mesh.nodes_on_line("x", 0.5)
    shuffled = ids[::-1].copy()
    gram, ordered = assemble_interface_l2(mesh, shuffled)
    assert np.array_equal(ordered, ids)
    ones = np.ones(ids.size)
    assert abs(ones @ gram @ ones - 1.0) < 1e-13

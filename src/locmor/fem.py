"""Structured 2D finite elements: bilinear quads and crisscross linear
triangles on axis-aligned rectangles, with the boundary bookkeeping the
transfer operators need."""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

INTERIOR = 0
GAMMA_OUT = 1
SIGMA_N = 2
SIGMA_D = 3

GEOM_TOL = 1e-9


def box_indicator(background, boxes):
    """Piecewise-constant field from axis-aligned boxes; last box wins."""
    def indicator(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(x.shape, float(background))
        for (x0, x1, y0, y1, value) in boxes:
            inside = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
            out[inside] = value
        return out
    return indicator


@dataclass
class PdeSpec:
    """The operator -div(a grad u) - kappa**2 u on a rectangle.

    The coefficient a is piecewise constant: a positive background value
    and axis-aligned override boxes (x0, x1, y0, y1, value); the last
    matching box wins.  It is evaluated at element centroids.
    """

    kappa: float = 0.0
    background: float = 1.0
    boxes: list = field(default_factory=list)

    def __post_init__(self):
        if not np.isfinite(self.kappa):
            raise ValueError("kappa must be finite")
        values = [self.background] + [b[4] for b in self.boxes]
        if not all(v > 0.0 for v in values):
            raise ValueError("coefficient a must be positive")

    def coefficient(self, x, y):
        """Coefficient at points (vectorized)."""
        return box_indicator(self.background, self.boxes)(x, y)


class RectMesh:
    """Tensor-product mesh on [x0, x1] x [y0, y1] with spacing h.

    kind 'q1': bilinear quads on the corner lattice.
    kind 'p1x': each square split into four linear triangles through an
    added center node (corner nodes first, then center nodes).
    Nodes sit at lattice index times h, so a mesh on a sub-box has
    bitwise the positions of its parent's nodes.  coords, node_tags and
    elements (node ids, a row per element) are read-only; build_rect_mesh
    describes tag_fn.
    """

    def __init__(self, bounds, h, kind, tag_fn=None):
        self.bounds = tuple(float(b) for b in bounds)
        self.h = float(h)
        self.kind = kind
        x0, x1, y0, y1 = self.bounds
        self.nx = int(round((x1 - x0) / h))
        self.ny = int(round((y1 - y0) / h))
        self.n_corner = (self.nx + 1) * (self.ny + 1)
        self.n_center = self.nx * self.ny if kind == "p1x" else 0
        self.n_nodes = self.n_corner + self.n_center

        i = round(x0 / h) + np.arange(self.nx + 1)
        j = round(y0 / h) + np.arange(self.ny + 1)
        gx, gy = np.meshgrid(i * h, j * h)
        coords = np.column_stack([gx.ravel(), gy.ravel()])
        if kind == "p1x":
            gcx, gcy = np.meshgrid((i[:-1] + 0.5) * h, (j[:-1] + 0.5) * h)
            coords = np.vstack(
                [coords, np.column_stack([gcx.ravel(), gcy.ravel()])])
        x, y = coords.T
        boundary = on_box_edge(x, y, self.bounds)
        codes = (SIGMA_N if tag_fn is None
                 else tag_fn(x[boundary], y[boundary]))
        if not np.isin(codes, (GAMMA_OUT, SIGMA_N, SIGMA_D)).all():
            raise ValueError("tag_fn must return GAMMA_OUT, SIGMA_N or "
                             "SIGMA_D codes")
        tags = np.full(self.n_nodes, INTERIOR, dtype=np.int8)
        tags[boundary] = codes

        ii, jj = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ii = ii.ravel()
        jj = jj.ravel()
        a = jj * (self.nx + 1) + ii
        b = a + 1
        c = b + (self.nx + 1)
        d = a + (self.nx + 1)
        if kind == "p1x":
            m = self.n_corner + jj * self.nx + ii
            # triangle order per square: bottom, right, top, left
            elements = np.vstack([
                np.column_stack([a, b, m]),
                np.column_stack([b, c, m]),
                np.column_stack([c, d, m]),
                np.column_stack([d, a, m]),
            ])
        else:
            elements = np.column_stack([a, b, c, d])
        for array in (coords, tags, elements):
            array.setflags(write=False)
        self.coords = coords
        self.node_tags = tags
        self.elements = elements
        self._centroids = None

    @property
    def element_area(self):
        return self.h ** 2 / 4.0 if self.kind == "p1x" else self.h ** 2

    def element_centroids(self):
        """Read-only element centroids, computed once."""
        if self._centroids is None:
            self._centroids = self.coords[self.elements].mean(axis=1)
            self._centroids.setflags(write=False)
        return self._centroids

    def nodes_on_line(self, axis, value):
        """Corner nodes on the mesh line {axis == value}, sorted along it."""
        col = 0 if axis == "x" else 1
        mask = np.abs(self.coords[: self.n_corner, col] - value) <= GEOM_TOL
        ids = np.nonzero(mask)[0]
        if ids.size == 0:
            raise ValueError(f"no mesh line at {axis} = {value}")
        order = np.argsort(self.coords[ids, 1 - col])
        return ids[order]

    def elements_in_box(self, box):
        """Element ids whose centroid lies in the box."""
        x0, x1, y0, y1 = box
        cent = self.element_centroids()
        mask = ((cent[:, 0] >= x0 - GEOM_TOL) & (cent[:, 0] <= x1 + GEOM_TOL)
                & (cent[:, 1] >= y0 - GEOM_TOL)
                & (cent[:, 1] <= y1 + GEOM_TOL))
        return np.nonzero(mask)[0]

    @property
    def constrained_nodes(self):
        return np.nonzero((self.node_tags == GAMMA_OUT)
                          | (self.node_tags == SIGMA_D))[0]


def on_box_edge(x, y, box):
    """Whether the points (x, y) lie on an edge line of the axis-aligned
    box (x0, x1, y0, y1), within GEOM_TOL (vectorized)."""
    x0, x1, y0, y1 = box
    return ((np.abs(x - x0) <= GEOM_TOL) | (np.abs(x - x1) <= GEOM_TOL)
            | (np.abs(y - y0) <= GEOM_TOL) | (np.abs(y - y1) <= GEOM_TOL))


def build_rect_mesh(bounds, h, kind="q1", tag_fn=None):
    """Build a RectMesh whose corners lie on the lattice of spacing h.

    tag_fn(x, y) takes the coordinate arrays of the boundary nodes and
    returns their tag codes (GAMMA_OUT, SIGMA_N or SIGMA_D; one code
    tags them all); without it every boundary node is SIGMA_N.
    """
    if kind not in ("q1", "p1x"):
        raise ValueError(f"unknown mesh kind {kind!r}")
    x0, x1, y0, y1 = (float(b) for b in bounds)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty rectangle")
    h = float(h)
    for corner in (x0, x1, y0, y1):
        ratio = corner / h
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValueError(
                f"corner coordinate {corner} is off the lattice of h = {h}")
    return RectMesh(bounds, h, kind, tag_fn)


# ---------------------------------------------------------------------------
# element matrices

# bilinear quad on an h x h square, nodes counterclockwise; the Laplace
# matrix is h independent
_Q1_STIFF = np.array([
    [4.0, -1.0, -2.0, -1.0],
    [-1.0, 4.0, -1.0, -2.0],
    [-2.0, -1.0, 4.0, -1.0],
    [-1.0, -2.0, -1.0, 4.0],
]) / 6.0

_Q1_MASS = np.array([
    [4.0, 2.0, 1.0, 2.0],
    [2.0, 4.0, 2.0, 1.0],
    [1.0, 2.0, 4.0, 2.0],
    [2.0, 1.0, 2.0, 4.0],
]) / 36.0

# crisscross triangle (corner, corner, centre): the four triangles of a
# square are rotations of one right isosceles triangle and share this h
# independent Laplace matrix
_P1X_STIFF = np.array([
    [0.5, 0.0, -0.5],
    [0.0, 0.5, -0.5],
    [-0.5, -0.5, 1.0],
])

_P1_MASS = np.array([
    [2.0, 1.0, 1.0],
    [1.0, 2.0, 1.0],
    [1.0, 1.0, 2.0],
]) / 12.0

# per mesh kind: Laplace stiffness and mass of an element of unit area
_REFERENCE = {"q1": (_Q1_STIFF, _Q1_MASS), "p1x": (_P1X_STIFF, _P1_MASS)}


# ---------------------------------------------------------------------------
# assembly


def centroid_values(mesh, f):
    """Values of a field f(x, y) at every element centroid."""
    cent = mesh.element_centroids()
    return np.asarray(f(cent[:, 0], cent[:, 1]), dtype=float)


def _assemble(mesh, pde, what, element_ids=None, coefficient=None):
    """Sum the element matrices ('system' or 'mass') of a subset of
    elements into one n_nodes x n_nodes CSR; coefficient optionally holds
    the PDE coefficient at every element centroid, as centroid_values
    gives it."""
    conn = mesh.elements
    if element_ids is not None:
        conn = conn[element_ids]
    nel, npe = conn.shape
    stiff, mass = _REFERENCE[mesh.kind]
    area = mesh.element_area
    if what == "mass":
        data = np.tile((mass * area).ravel(), nel)
    else:
        if coefficient is None:
            coefficient = centroid_values(mesh, pde.coefficient)
        if element_ids is not None:
            coefficient = coefficient[element_ids]
        data = coefficient[:, None] * stiff.ravel()
        data -= (pde.kappa ** 2 * mass * area).ravel()

    rows = np.repeat(conn, npe, axis=1).ravel()
    cols = np.tile(conn, (1, npe)).ravel()
    return sp.coo_matrix((data.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()


def assemble_system(mesh, pde, coefficient=None):
    """Unconstrained PDE system matrix as CSR; constrain_system adds the
    Dirichlet rows.  coefficient: see _assemble."""
    return _assemble(mesh, pde, "system", coefficient=coefficient)


def constrain_system(mesh, matrix):
    """Replace the rows of gamma_out/sigma_D nodes by identity rows
    (columns are left untouched, so interior equations keep their
    coupling to the lifted boundary data)."""
    coo = matrix.tocoo()
    nodes = mesh.constrained_nodes
    keep = ~np.isin(coo.row, nodes)
    rows = np.concatenate([coo.row[keep], nodes])
    cols = np.concatenate([coo.col[keep], nodes])
    data = np.concatenate([coo.data[keep], np.ones(nodes.size)])
    return sp.coo_matrix((data, (rows, cols)), shape=matrix.shape).tocsr()


def assemble_mass(mesh):
    """Consistent L2 mass matrix."""
    return _assemble(mesh, PdeSpec(), "mass")


def _subdomain_gram(mesh, pde, box, what, coefficient=None):
    """Element matrices of the elements inside a box, summed on the
    nodes of those elements; returns (gram, node_ids)."""
    element_ids = mesh.elements_in_box(box)
    if element_ids.size == 0:
        raise ValueError("box contains no whole element")
    node_ids = np.unique(mesh.elements[element_ids])
    gram = _assemble(mesh, pde, what, element_ids, coefficient)
    return gram[node_ids][:, node_ids], node_ids


def assemble_energy_product(mesh, pde, box, coefficient=None):
    """Energy (semi)inner product over the elements inside a box.

    Returns (gram, node_ids): the system matrix of a pde with kappa 0
    restricted to the subdomain nodes.  The Gram is only
    semidefinite (constants are flat); it is stored unregularized and
    callers deflate the kernel where needed.  coefficient: see _assemble.
    """
    return _subdomain_gram(mesh, pde, box, "system", coefficient)


def assemble_mass_subdomain(mesh, box):
    """L2 Gram over the elements inside a box; returns (gram, node_ids)."""
    return _subdomain_gram(mesh, PdeSpec(), box, "mass")


def load_vector(mesh, f):
    """Consistent load for a source term.

    f is a callable (x, y) -> value, evaluated at element centroids
    (matching the piecewise-constant source fields of the model problems),
    or the array of those values as centroid_values gives it.
    """
    values = centroid_values(mesh, f) if callable(f) else f
    conn = mesh.elements
    share = values * mesh.element_area / conn.shape[1]
    b = np.zeros(mesh.n_nodes)
    np.add.at(b, conn.ravel(), np.repeat(share, conn.shape[1]))
    return b


def constrain_rhs(mesh, b):
    """Zero the load at constrained rows."""
    out = b.copy()
    out[mesh.constrained_nodes] = 0.0
    return out


# ---------------------------------------------------------------------------
# interface (trace) mass matrices


def path_l2_gram(coords, closed=False):
    """P1 mass matrix along a polyline given by ordered node coordinates."""
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    if n < 2:
        raise ValueError("a path needs at least two nodes")
    seg_from = np.arange(n - 1)
    seg_to = seg_from + 1
    if closed:
        seg_from = np.append(seg_from, n - 1)
        seg_to = np.append(seg_to, 0)
    lengths = np.linalg.norm(coords[seg_to] - coords[seg_from], axis=1)
    if (lengths <= 0).any():
        raise ValueError("repeated nodes in path")
    rows = np.concatenate([seg_from, seg_from, seg_to, seg_to])
    cols = np.concatenate([seg_from, seg_to, seg_from, seg_to])
    w = lengths / 6.0
    data = np.concatenate([2.0 * w, w, w, 2.0 * w])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def assemble_interface_l2(mesh, node_ids):
    """L2 Gram of the trace space on a straight mesh line.

    node_ids must lie on one conforming line with spacing h, ordered or
    orderable along it; returns the Gram in that order together with the
    ordering applied.
    """
    node_ids = np.asarray(node_ids)
    coords = mesh.coords[node_ids]
    spans = coords.max(axis=0) - coords.min(axis=0)
    if spans.min() > GEOM_TOL:
        raise ValueError("interface nodes are not on an axis-aligned line")
    along = int(np.argmax(spans))
    order = np.argsort(coords[:, along])
    coords = coords[order]
    gaps = np.diff(coords[:, along])
    if np.abs(gaps - mesh.h).max() > GEOM_TOL:
        raise ValueError("interface nodes do not form a conforming line")
    return path_l2_gram(coords), node_ids[order]

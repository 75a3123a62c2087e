"""Triangulated planar domains with piecewise-linear boundary loops.

Meshes are value objects: ``refine`` returns a new mesh that keeps its
input as ``Mesh.coarser`` and never mutates it, so meshes can be shared
freely across solver calls and a ``build_mesh`` mesh carries its
refinement chain down to level 0.  ``PRESETS`` is the one list of
analytic domains, the unit disk and an axis-aligned ellipse, each by its
semi-axes; ``build_mesh(preset, level)`` triangulates one, and boundary
vertices of preset meshes always lie exactly on the analytic curve.
Validation builds each mesh's edge table once and keeps it on the mesh,
where ``refine`` reads it to number the new midpoints.  ``boundary_fan``
meshes only a level's boundary polygon, one fan around the origin, for
work that reads nothing but the boundary loop; its level is that of the
loop it carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "PRESETS",
    "boundary_fan",
    "build_mesh",
    "mesh_from_arrays",
    "refine",
]

MAX_LEVEL = 10

# semi-axes (a, b) of each preset's boundary curve (a cos t, b sin t)
PRESETS = {"disk": (1.0, 1.0), "ellipse": (1.5, 1.0)}


class MeshError(ValueError):
    """Raised for invalid mesh construction requests."""


def _curve_point(preset: str, theta: np.ndarray) -> np.ndarray:
    """Point on the analytic boundary curve at parameter angle theta."""
    if preset not in PRESETS:
        raise MeshError(f"unknown boundary preset {preset!r}")
    a, b = PRESETS[preset]
    return np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1)


def _pair_keys(pairs: np.ndarray, n: int) -> np.ndarray:
    """One integer per undirected pair of vertex indices below n."""
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return lo * n + hi


def _edge_table(triangles: np.ndarray, n: int):
    """Undirected edges of a triangulation with n vertices.

    Sides are read triangle by triangle as (a, b), (b, c), (c, a).  Returns
    the edges numbered by first appearance, each as its first side
    traverses it, shape (E, 2); the edge number of every side, shape
    (T, 3); and the number of sides on each edge, shape (E,).
    """
    heads = np.roll(triangles, -1, axis=1)
    keys = np.minimum(triangles, heads).reshape(-1)
    keys *= n
    keys += np.maximum(triangles, heads).reshape(-1)
    # a stable sort puts each edge's first side at the head of its run of equal keys
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    first = order[starts]
    run_counts = np.diff(np.append(np.flatnonzero(starts), keys.size))
    # edges are numbered in the reading order of the sides that head a run
    is_first = np.zeros(keys.size, dtype=bool)
    is_first[first] = True
    run_edge = (np.cumsum(is_first) - 1)[first]
    side_edges = np.empty(keys.size, dtype=np.int64)
    side_edges[order] = np.repeat(run_edge, run_counts)
    counts = np.empty_like(run_counts)
    counts[run_edge] = run_counts
    head = np.flatnonzero(is_first)
    edges = np.stack([triangles.reshape(-1)[head], heads.reshape(-1)[head]], axis=1)
    return edges, side_edges.reshape(-1, 3), counts


@dataclass
class Mesh:
    """Conforming triangulation with an oriented closed boundary loop.

    Attributes
    ----------
    vertices : (n, 2) float array
    triangles : (T, 3) int array, counterclockwise vertex ordering
    boundary_loop : (nb,) int array
        Boundary vertex indices in counterclockwise loop order; edge k
        joins ``boundary_loop[k]`` to ``boundary_loop[(k+1) % nb]``.
    refinement_level : int
        Refinements from the 8-edge preset fan; for a ``boundary_fan``, the
        level of the boundary loop it carries.
    preset : str or None
        Key of the ``PRESETS`` curve the boundary vertices lie on, or None
        for hand-built meshes (refinement then uses chord midpoints).
    boundary_params : (nb,) float array or None
        Curve parameter of each boundary vertex for preset meshes.
    coarser : Mesh or None
        The mesh ``refine`` split into this one, whose vertices keep their
        numbers here; None for meshes not made by ``refine``.
    edges : (E, 2) int array
        Undirected edges numbered by first appearance when the sides are
        read triangle by triangle as (a, b), (b, c), (c, a); each edge is
        stored as its first side traverses it.  Built once, by validation.
    side_edges : (T, 3) int array
        Edge number of each side, in the same reading order.  ``refine``
        numbers the midpoints by these: edge k gets fine vertex n + k.
    discretization : object or None
        Slot for the finite element record of this mesh (``fem.p1``);
        None until first use.  Derived data only, never compared.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_loop: np.ndarray
    refinement_level: int = 0
    preset: str | None = None
    boundary_params: np.ndarray | None = None
    coarser: Mesh | None = field(default=None, compare=False, repr=False)

    boundary_edges: np.ndarray = field(init=False)
    boundary_normals: np.ndarray = field(init=False)
    boundary_edge_lengths: np.ndarray = field(init=False)
    edges: np.ndarray = field(init=False, compare=False, repr=False)
    side_edges: np.ndarray = field(init=False, compare=False, repr=False)
    discretization: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.vertices = np.ascontiguousarray(self.vertices, dtype=float)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.boundary_loop = np.ascontiguousarray(self.boundary_loop, dtype=np.int64)

        loop = self.boundary_loop
        self.boundary_edges = np.stack([loop, np.roll(loop, -1)], axis=1)
        tang = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        self.boundary_edge_lengths = np.linalg.norm(tang, axis=1)
        # outward normal of a CCW loop: tangent rotated by -90 degrees
        self.boundary_normals = (
            np.stack([tang[:, 1], -tang[:, 0]], axis=1) / self.boundary_edge_lengths[:, None]
        )
        self.edges, self.side_edges, counts = _edge_table(self.triangles, self.n_vertices)
        self._validate(counts)

    def _validate(self, counts: np.ndarray) -> None:
        """Check the mesh against its edge table; counts[k] sides lie on edge k."""
        areas = self.triangle_areas()
        if np.any(areas <= 0.0):
            bad = int(np.argmin(areas))
            raise MeshError(f"triangle {bad} has non-positive signed area")
        edges = self.edges
        loop_keys = _pair_keys(self.boundary_edges, self.n_vertices)
        bad = counts > 2
        # an edge with one side lies on the boundary, so it must be in the loop
        single = np.flatnonzero(counts == 1)
        single_keys = _pair_keys(edges[single], self.n_vertices)
        bad[single[~np.isin(single_keys, loop_keys)]] = True
        if np.any(bad):
            k = int(np.argmax(bad))
            e = (int(edges[k].min()), int(edges[k].max()))
            if counts[k] > 2:
                raise MeshError(f"edge {e} shared by more than two triangles")
            raise MeshError(f"boundary edge {e} missing from the loop")
        if np.unique(loop_keys).size != loop_keys.size:
            raise MeshError("boundary loop repeats an edge")
        # the loop holds every one-sided edge once, so it holds no other edge when the counts agree
        if loop_keys.size != single.size:
            k = int(np.argmin(np.isin(loop_keys, single_keys)))
            e = tuple(int(v) for v in np.sort(self.boundary_edges[k]))
            raise MeshError(f"loop edge {e} is not a one-sided mesh edge")
        if self.preset is not None:
            centroid = self.vertices.mean(axis=0)
            mids = 0.5 * (
                self.vertices[self.boundary_edges[:, 0]] + self.vertices[self.boundary_edges[:, 1]]
            )
            if np.any(np.einsum("ij,ij->i", mids - centroid, self.boundary_normals) <= 0.0):
                raise MeshError("boundary normal points inward")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_loop.shape[0]

    def triangle_areas(self) -> np.ndarray:
        x, y = self.vertices.T
        a, b, c = self.triangles.T
        xa, ya = x[a], y[a]
        return 0.5 * ((x[b] - xa) * (y[c] - ya) - (y[b] - ya) * (x[c] - xa))

    def mesh_size(self) -> float:
        """Longest triangle edge."""
        d = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return float(np.max(np.linalg.norm(d, axis=1)))


def _arc_midpoints(params: np.ndarray) -> np.ndarray:
    """Parameter midpoint of each loop edge, params[k] on to params[k + 1], for arcs shorter than pi."""
    return (params + 0.5 * ((np.roll(params, -1) - params) % (2.0 * np.pi))) % (2.0 * np.pi)


def boundary_fan(preset: str, level: int) -> Mesh:
    """The boundary polygon of the level-``level`` preset mesh, meshed as one fan around the origin.

    Its loop vertices, ``boundary_params``, edge lengths and normals are
    the full mesh's bit for bit, from nb + 1 vertices and nb triangles; it
    has no coarser mesh.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise MeshError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    params = 2.0 * np.pi * np.arange(8) / 8.0
    ring = _curve_point(preset, params)
    for _ in range(level):
        mids = _arc_midpoints(params)
        params = np.stack([params, mids], axis=1).reshape(-1)
        ring = np.stack([ring, _curve_point(preset, mids)], axis=1).reshape(-1, 2)
    k = np.arange(params.size)
    tris = np.stack([np.zeros_like(k), 1 + k, 1 + (k + 1) % k.size], axis=1)
    return Mesh(vertices=np.vstack([[0.0, 0.0], ring]), triangles=tris, boundary_loop=1 + k,
                refinement_level=level, preset=preset, boundary_params=params)


def build_mesh(preset: str, level: int) -> Mesh:
    """Uniform triangulation of a ``PRESETS`` domain with 8 * 2**level boundary edges.

    Level 0 is a fan of 8 triangles around the origin; each refinement
    splits every triangle in four and snaps new boundary vertices onto
    the preset's curve; the levels below are reached through ``coarser``.
    """
    if not 0 <= level <= MAX_LEVEL:
        raise MeshError(f"level must lie in [0, {MAX_LEVEL}], got {level}")
    mesh = boundary_fan(preset, 0)
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle in four, returning a new conforming mesh.

    New boundary vertices of preset meshes are placed on the analytic
    curve at the parameter midpoint of their edge; hand-built meshes use
    chord midpoints.  The new mesh keeps ``mesh`` as its ``coarser``.
    """
    nv = mesh.n_vertices
    edges = mesh.edges
    # edge k gets the new vertex nv + k at its midpoint
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    keys = _pair_keys(edges, nv)
    order = np.argsort(keys)
    loop_edge = order[np.searchsorted(keys, _pair_keys(mesh.boundary_edges, nv), sorter=order)]

    params = mesh.boundary_params
    fine_params = None
    if mesh.preset is not None:
        mid_params = _arc_midpoints(params)
        midpoints[loop_edge] = _curve_point(mesh.preset, mid_params)
        fine_params = np.stack([params, mid_params], axis=1).reshape(-1)

    a, b, c = mesh.triangles.T
    mab, mbc, mca = (nv + mesh.side_edges).T
    tris = np.stack([a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1)

    return Mesh(
        vertices=np.vstack([mesh.vertices, midpoints]),
        triangles=tris.reshape(-1, 3),
        boundary_loop=np.stack([mesh.boundary_loop, nv + loop_edge], axis=1).reshape(-1),
        refinement_level=mesh.refinement_level + 1,
        preset=mesh.preset,
        boundary_params=fine_params,
        coarser=mesh,
    )


def mesh_from_arrays(vertices: np.ndarray, triangles: np.ndarray) -> Mesh:
    """Build a mesh from raw arrays, deriving the boundary loop.

    Triangles are reoriented counterclockwise if needed.  Intended for
    hand-built test geometries, which is why the package keeps it without
    a caller; preset builders should be used for the analytic domains.
    """
    vertices = np.asarray(vertices, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64).copy()
    p = vertices[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    signed = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    flip = signed < 0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]

    edges, _, counts = _edge_table(triangles, vertices.shape[0])
    # boundary edges appear in exactly one triangle; walk them into a loop
    succ = dict(zip(edges[counts == 1, 0].tolist(), edges[counts == 1, 1].tolist()))
    if not succ:
        raise MeshError("mesh has no boundary")
    start = min(succ)
    loop = [start]
    while True:
        nxt = succ.get(loop[-1])
        if nxt is None:
            raise MeshError("boundary walk broke; non-manifold boundary")
        if nxt == start:
            break
        loop.append(nxt)
        if len(loop) > len(succ):
            raise MeshError("boundary is not a single closed loop")
    if len(loop) != len(succ):
        raise MeshError("boundary is not a single closed loop")
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_loop=np.asarray(loop, dtype=np.int64),
    )

"""Mesh construction, refinement, and boundary metric."""

import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from mixedreg import fem, geometry
from mixedreg.geometry import PRESETS, Mesh, MeshError, build_mesh, mesh_from_arrays, refine

OCTAGON_PERIMETER = 16.0 * np.sin(np.pi / 8.0)


def test_level0_octagon(disk):
    m = disk(0)
    assert m.boundary_loop.shape[0] == 8
    assert len(m.boundary_edges) == 8
    assert abs(m.boundary_edge_lengths.sum() - OCTAGON_PERIMETER) < 1e-12
    assert abs(m.boundary_edge_lengths.sum() - 6.122934917841436) < 1e-12


def test_boundary_vertices_on_circle(disk):
    for level in (0, 2, 4):
        m = disk(level)
        r = np.linalg.norm(m.vertices[m.boundary_loop], axis=1)
        assert np.max(np.abs(r - 1.0)) < 1e-14


def test_boundary_edge_count_doubles(disk):
    for level in (0, 1, 2, 3):
        assert disk(level).boundary_loop.shape[0] == 8 * 2 ** level


def test_refine_counts(disk):
    m = disk(0)
    fine = refine(m)
    assert fine.boundary_loop.shape[0] == 16
    assert fine.triangles.shape[0] == 4 * m.triangles.shape[0]


def n_edges(m):
    sides = np.sort(m.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    return np.unique(sides, axis=0).shape[0]


def assert_refinement_invariants(coarse, fine):
    """A refined disk-like mesh: Euler characteristic 1, doubled boundary, V' = V + E, T' = 4 T."""
    for m in (coarse, fine):
        assert m.n_vertices - n_edges(m) + m.triangles.shape[0] == 1
    assert fine.boundary_edges.shape[0] == 2 * coarse.boundary_edges.shape[0]
    assert fine.n_vertices == coarse.n_vertices + n_edges(coarse)
    assert fine.triangles.shape[0] == 4 * coarse.triangles.shape[0]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.integers(0, 4))
def test_refined_presets_keep_their_invariants(preset, level):
    coarse = build_mesh(preset, level)
    fine = refine(coarse)
    assert coarse.boundary_edges.shape[0] == 8 * 2**level
    assert_refinement_invariants(coarse, fine)


@st.composite
def star_fans(draw):
    """A fan of n >= 3 triangles around the origin over a random star-shaped polygon.

    Jittered angles keep every sector below pi, so each triangle is proper.
    """
    n = draw(st.integers(3, 12))
    jitter = draw(arrays(np.float64, n, elements=st.floats(0.0, 0.45)))
    radii = draw(arrays(np.float64, n, elements=st.floats(0.2, 3.0)))
    th = 2.0 * np.pi * (np.arange(n) + jitter) / n
    verts = np.vstack([[0.0, 0.0], np.stack([radii * np.cos(th), radii * np.sin(th)], axis=1)])
    tris = np.stack([np.zeros(n, dtype=int), 1 + np.arange(n), 1 + (np.arange(n) + 1) % n], axis=1)
    return mesh_from_arrays(verts, tris)


@settings(max_examples=30, deadline=None)
@given(star_fans(), st.integers(1, 3))
def test_refined_hand_built_meshes_keep_their_invariants(m, times):
    for _ in range(times):
        fine = refine(m)
        assert_refinement_invariants(m, fine)
        m = fine


def assert_edges_match_oracle(m):
    edges, side_edges = oracles.edge_numbering(m.triangles)
    np.testing.assert_array_equal(m.edges, edges)
    np.testing.assert_array_equal(m.side_edges, side_edges)


@settings(max_examples=30, deadline=None)
@given(star_fans(), st.integers(0, 2))
def test_hand_built_edge_table_matches_oracle(m, times):
    for _ in range(times):
        m = refine(m)
    assert_edges_match_oracle(m)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.integers(0, 4))
def test_preset_edge_table_matches_oracle(preset, level):
    assert_edges_match_oracle(build_mesh(preset, level))


@pytest.mark.parametrize("level", range(5))
def test_each_mesh_builds_its_edge_table_once(monkeypatch, level):
    calls = []
    edge_table = geometry._edge_table

    def counted(*args):
        calls.append(args)
        return edge_table(*args)

    monkeypatch.setattr(geometry, "_edge_table", counted)
    build_mesh("disk", level)
    # one table per mesh of the ladder 0..level, reused by refine
    assert len(calls) == level + 1


def test_perimeter_increases_to_circle(disk):
    perims = [disk(level).boundary_edge_lengths.sum() for level in range(7)]
    assert all(b > a for a, b in zip(perims, perims[1:]))
    assert all(p < 2.0 * np.pi for p in perims)
    assert abs(perims[6] - 2.0 * np.pi) < 1e-3
    assert abs(perims[6] - 2.0 * np.pi) == pytest.approx(3.9426445402668264e-05, rel=1e-6)


def test_level4_area_matches_polygon_formula(disk):
    m = disk(4)
    n = 8 * 2 ** 4
    polygon = n / 2.0 * np.sin(2.0 * np.pi / n)
    assert abs(m.triangle_areas().sum() - polygon) < 1e-12
    # the inscribed 128-gon sits 1.26e-3 below pi
    assert abs(m.triangle_areas().sum() - np.pi) < 2e-3


def test_mesh_invariants(disk):
    for level in range(5):
        m = disk(level)
        pts = m.vertices[m.triangles]
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        assert np.all(cross > 0.0), "triangles must be positively oriented"
        # conforming: every interior edge shared by exactly two triangles
        edges = {}
        for tri in m.triangles:
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                key = (min(a, b), max(a, b))
                edges[key] = edges.get(key, 0) + 1
        boundary = {tuple(sorted(e)) for e in m.boundary_edges}
        for key, count in edges.items():
            expected = 1 if key in boundary else 2
            assert count == expected


def test_mesh_size_halves(disk):
    h = [disk(level).mesh_size() for level in range(4)]
    ratios = [a / b for a, b in zip(h, h[1:])]
    # coarse levels also straighten the boundary, so the ratio creeps up to 2
    assert all(1.7 < r < 2.05 for r in ratios)
    edge = [float(disk(level).boundary_edge_lengths.max()) for level in range(1, 4)]
    edge_ratios = [a / b for a, b in zip(edge, edge[1:])]
    assert all(1.9 < r <= 2.0 for r in edge_ratios)


def test_level_bounds():
    with pytest.raises(MeshError):
        build_mesh("disk", -1)
    with pytest.raises(MeshError):
        build_mesh("disk", 11)


def test_unknown_preset_is_refused():
    with pytest.raises(MeshError, match="unknown boundary preset 'square'"):
        build_mesh("square", 2)


def _loop_bytes(m):
    """Everything boundary work reads of a mesh, as bytes."""
    parts = (m.vertices[m.boundary_loop], m.boundary_params, m.boundary_edge_lengths, m.boundary_normals)
    return [np.ascontiguousarray(a).tobytes() for a in parts]


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_boundary_fan_carries_the_full_loop_bit_for_bit(preset, disk):
    for level in range(8):
        full = disk(level) if preset == "disk" else build_mesh(preset, level)
        fan = geometry.boundary_fan(preset, level)
        assert _loop_bytes(fan) == _loop_bytes(full)
        nb = full.n_boundary
        assert (fan.n_vertices, fan.triangles.shape[0], fan.refinement_level) == (nb + 1, nb, level)
        assert np.all(fan.triangle_areas() > 0.0)


def test_boundary_fan_has_no_parentage():
    coarse, fan = geometry.boundary_fan("disk", 1), geometry.boundary_fan("disk", 2)
    assert fan.coarser is None
    with pytest.raises(fem.FieldError, match="no refinement parentage"):
        fem.prolong(fem.boundary_field(coarse, 1.0), fan)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_build_mesh_carries_its_refinement_chain(preset):
    # each mesh of the chain is the one build_mesh makes at its level, down to the level-0 fan
    mesh = build_mesh(preset, 5)
    for level in range(5, -1, -1):
        assert mesh.refinement_level == level
        assert _digest(mesh) == _digest(build_mesh(preset, level))
        mesh = mesh.coarser
    assert mesh is None
    assert refine(_square_fan()).coarser.coarser is None


@pytest.mark.parametrize("level", [-1, geometry.MAX_LEVEL + 1])
def test_boundary_fan_rejects_levels_as_the_full_builder_does(level):
    with pytest.raises(MeshError) as full:
        build_mesh("disk", level)
    with pytest.raises(MeshError, match=re.escape(str(full.value))):
        geometry.boundary_fan("disk", level)


def test_ellipse_preset():
    m = build_mesh("ellipse", 4)
    x = m.vertices[m.boundary_loop]
    on_curve = (x[:, 0] / 1.5) ** 2 + x[:, 1] ** 2
    assert np.max(np.abs(on_curve - 1.0)) < 1e-12
    assert abs(m.triangle_areas().sum() - np.pi * 1.5) < 4e-3


def test_mesh_from_arrays_single_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh_from_arrays(verts, np.array([[0, 1, 2]]))
    assert abs(m.triangle_areas().sum() - 0.5) < 1e-15
    assert m.boundary_loop.shape[0] == 3


def test_mesh_from_arrays_reorients_and_rejects_degenerate():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh_from_arrays(verts, np.array([[0, 2, 1]]))
    assert abs(m.triangle_areas().sum() - 0.5) < 1e-15
    collinear = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        mesh_from_arrays(collinear, np.array([[0, 1, 2]]))


def _parents(m):
    """The (n, 2) parent vertices of each vertex: identity rows for the kept ones, then the coarser edges."""
    if m.coarser is None:
        return None
    kept = np.arange(m.coarser.n_vertices)
    return np.vstack([np.stack([kept, kept], axis=1), m.coarser.edges])


def _digest(m):
    """SHA-256 over dtype, shape and bytes of every array that fixes the numbering."""
    h = hashlib.sha256()
    for name in ("vertices", "triangles", "boundary_loop", "boundary_params", "parents"):
        a = _parents(m) if name == "parents" else getattr(m, name)
        h.update(name.encode())
        if a is not None:
            a = np.ascontiguousarray(a)
            h.update(str(a.dtype).encode() + str(a.shape).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _square_fan():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    return mesh_from_arrays(verts, np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]]))


# Vertex numbering feeds the Hoelder subsample and stored benchmark
# references, so mesh arrays must stay bit-identical, not merely close.
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: build_mesh("disk", 4), "ead7d6a1d5dd03404d6889b9a145a4549d9b81209c13baab27514ccd12904a38"),
        (lambda: build_mesh("ellipse", 4), "a3e5c24e4f3da37071899d07c6f2242eb0c301d4dd721cfc9c643732df5fa751"),
        (lambda: refine(refine(_square_fan())), "377774dc08ad1bdbe166202ca59ad02fb63b6263e93b46df192b4d3b13be70a0"),
        # the level-7 parents embed the level-6 edge table, numbered by first appearance
        (lambda: build_mesh("disk", 7), "074329e64164f7b6d9651420e23658c462b695ee03ce2253e589d7b506759d09"),
    ],
    ids=["disk4", "ellipse4", "square2", "disk7"],
)
def test_mesh_arrays_golden_digest(build, expected):
    assert _digest(build()) == expected


def test_validate_rejects_loop_missing_an_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match=r"boundary edge \(2, 3\) missing from the loop"):
        Mesh(verts, np.array([[0, 1, 2], [0, 2, 3]]), np.array([0, 1, 2]))


def test_validate_rejects_loop_through_interior_edges():
    # a hexagon fan whose loop crosses the centre: every rim edge is in the loop and none
    # repeats, but (0, 6) and (6, 3) have two sides and (3, 0) is no mesh edge at all
    angles = np.arange(6) * np.pi / 3.0
    verts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [0.0, 0.0]])
    tris = np.array([[k, (k + 1) % 6, 6] for k in range(6)])
    assert Mesh(verts, tris, np.arange(6)).n_boundary == 6
    with pytest.raises(MeshError, match=r"loop edge \(0, 6\) is not a one-sided mesh edge"):
        Mesh(verts, tris, np.array([0, 1, 2, 3, 4, 5, 0, 6, 3]))


def test_validate_rejects_edge_in_three_triangles():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 2.0], [0.5, 3.0]])
    tris = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError, match=r"edge \(0, 1\) shared by more than two triangles"):
        Mesh(verts, tris, np.array([0, 1, 2]))


def test_validate_rejects_repeated_loop_edge():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="boundary loop repeats an edge"):
        Mesh(verts, np.array([[0, 1, 2]]), np.array([0, 1, 2, 0, 1, 2]))

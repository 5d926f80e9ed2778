"""Tests for mesh generation, and for the validating oracle builder."""

import numpy as np
import pytest
from oracles import make_mesh

from splap.mesh import MeshError, generate_unit_square


def shoelace(vertices, simplices):
    """Independent signed-area oracle."""
    a = vertices[simplices[:, 0]]
    b = vertices[simplices[:, 1]]
    c = vertices[simplices[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))


def test_unit_square_counts():
    for n in (1, 2, 5, 32):
        m = generate_unit_square(n)
        assert m.n_vertices == (n + 1) ** 2
        assert m.n_simplices == 2 * n * n


def test_unit_square_covers_domain():
    m = generate_unit_square(8)
    areas = shoelace(m.vertices, m.simplices)
    assert np.all(areas > 0.0)
    assert np.isclose(areas.sum(), 1.0, rtol=1e-12)


def test_unit_square_boundary_flags():
    m = generate_unit_square(4)
    on_edge = (
        (m.vertices[:, 0] == 0.0)
        | (m.vertices[:, 0] == 1.0)
        | (m.vertices[:, 1] == 0.0)
        | (m.vertices[:, 1] == 1.0)
    )
    assert np.array_equal(m.boundary_vertex_flags, on_edge)
    assert m.boundary_vertex_flags.sum() == 4 * 4


@pytest.mark.parametrize("n", range(1, 33))
def test_unit_square_equals_the_validated_mesh(n):
    # the structured mesh sets its boundary flags from its grid indices;
    # the oracle finds them from the edges of a single triangle, after
    # checking every conformity rule, and builds arrays of its own types
    m = generate_unit_square(n)
    ref = make_mesh(m.vertices, m.simplices)
    assert np.array_equal(m.vertices, [[i / n, j / n] for j in range(n + 1) for i in range(n + 1)])
    for got, want in (
        (m.vertices, ref.vertices),
        (m.simplices, ref.simplices),
        (m.boundary_vertex_flags, ref.boundary_vertex_flags),
    ):
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert np.array_equal(got, want)


def test_unit_square_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_unit_square(0)
    with pytest.raises(ValueError):
        generate_unit_square(-3)


def test_make_mesh_rejects_inverted_simplex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 2, 1]]))


def test_make_mesh_rejects_degenerate_simplex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 2]]))


def test_make_mesh_rejects_out_of_range_index():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 3]]))
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, -1]]))


def test_make_mesh_rejects_repeated_vertex():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 1]]))


def test_make_mesh_rejects_nonconforming_overlap():
    # an edge shared by three simplices cannot occur in a conforming 2D mesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 2.0]])
    simplices = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(MeshError):
        make_mesh(verts, simplices)


def test_make_mesh_rejects_hanging_node():
    # vertex 4 sits in the middle of edge (1,3) of the left simplex
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 0.5]])
    simplices = np.array([[0, 1, 3], [1, 2, 4], [2, 3, 4]])
    with pytest.raises(MeshError):
        make_mesh(verts, simplices)


def test_make_mesh_rejects_coincident_vertices():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 2]]))


def test_make_mesh_rejects_nonfinite():
    verts = np.array([[0.0, 0.0], [np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        make_mesh(verts, np.array([[0, 1, 2]]))


def test_make_mesh_rejects_empty():
    with pytest.raises(MeshError):
        make_mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=int))

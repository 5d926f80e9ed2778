"""Tests for P1 operator assembly and discrete error functionals."""

import numpy as np
import oracles
import pytest
from oracles import (
    band_slots,
    band_to_dense,
    basis_gradients,
    broken_embed,
    jittered_mesh,
    make_mesh,
    nodal_interpolate,
    restriction,
    rotated_mesh,
    stiffness,
)

from splap.constitutive import GrowthParams
from splap.fem import assemble, gradient_per_simplex, l2_error_sq, quasinorm_error_sq
from splap.mesh import generate_unit_square


def reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return make_mesh(verts, np.array([[0, 1, 2]]))


def test_local_mass_on_reference_triangle():
    # exact integrals of phi_a phi_b over the reference triangle
    ops = assemble(reference_triangle())
    expected = (1.0 / 24.0) * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    assert np.allclose(ops.mass.toarray(), expected, rtol=1e-14)
    assert np.allclose(ops.load_op.T.toarray(), expected, rtol=1e-14)


def test_local_derivative_rows_on_reference_triangle():
    # basis gradients are (-1,-1), (1,0), (0,1)
    ops = assemble(reference_triangle())
    d1, d2 = ops.dgrad
    assert np.allclose(d1.toarray(), [[-1.0, 1.0, 0.0]], rtol=1e-14)
    assert np.allclose(d2.toarray(), [[-1.0, 0.0, 1.0]], rtol=1e-14)
    assert np.allclose(ops.areas, [0.5], rtol=1e-14)


def test_mass_rows_integrate_to_domain_area():
    for n in (1, 2, 7):
        ops = assemble(generate_unit_square(n))
        ones = np.ones(ops.n_vertices)
        assert np.isclose(ones @ (ops.mass @ ones), 1.0, rtol=1e-12)


def test_mass_is_symmetric_positive_definite():
    ops = assemble(generate_unit_square(4))
    dense = ops.mass.toarray()
    assert np.allclose(dense, dense.T)
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() > 0.0


def test_gradient_reproduces_affine_functions():
    m = generate_unit_square(5)
    ops = assemble(m)
    u = nodal_interpolate(m, lambda x, y: 3.0 * x - 2.0 * y)
    grads = gradient_per_simplex(ops, u)
    assert np.allclose(grads, np.tile([3.0, -2.0], (m.n_simplices, 1)), rtol=1e-12)
    const = nodal_interpolate(m, lambda x, y: 4.0)
    assert np.allclose(gradient_per_simplex(ops, const), 0.0, atol=1e-13)


def test_l2_error_examples():
    m = generate_unit_square(6)
    ops = assemble(m)
    u = np.ones(m.n_vertices)
    zero = np.zeros(m.n_vertices)
    assert l2_error_sq(ops, u, u) == 0.0
    assert np.isclose(l2_error_sq(ops, u, zero), 1.0, rtol=1e-12)
    # integral of x^2 over the unit square; P1 quadrature is exact here
    x1 = nodal_interpolate(m, lambda x, y: x)
    assert np.isclose(l2_error_sq(ops, x1, zero), 1.0 / 3.0, rtol=1e-12)


def test_quasinorm_p2_equals_stiffness_form():
    m = generate_unit_square(4)
    ops = assemble(m)
    params = GrowthParams(2.0, kappa=0.7)
    rng = np.random.default_rng(2)
    a = stiffness(ops)
    for _ in range(10):
        u = rng.standard_normal(m.n_vertices)
        v = rng.standard_normal(m.n_vertices)
        expected = (u - v) @ (a @ (u - v))
        assert np.isclose(quasinorm_error_sq(ops, u, v, params), expected, rtol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.3])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.5, 4.0])
def test_quasinorm_matches_the_summed_form_bit_for_bit(p, kappa):
    # the error functional without its reductions of length 2 keeps the
    # bits of the old form, also where both functions are flat on a
    # simplex (F = 0 there at kappa = 0)
    ops = assemble(jittered_mesh(8, seed=9))
    params = GrowthParams(p, kappa=kappa)
    rng = np.random.default_rng(int(10 * p) + int(10 * kappa))
    flat = np.zeros(ops.n_vertices)
    for _ in range(5):
        u = rng.standard_normal(ops.n_vertices)
        v = u + 10.0 ** rng.uniform(-6.0, 0.0) * rng.standard_normal(ops.n_vertices)
        for a, b in ((u, v), (u, flat), (flat, flat)):
            assert quasinorm_error_sq(ops, a, b, params) == oracles.quasinorm_error_sq(ops, a, b, params)


def test_quasinorm_p4_example():
    # u = x, v = 0, p = 4: |F((1,0))|^2 = 1 on every simplex, areas sum to 1
    m = generate_unit_square(3)
    ops = assemble(m)
    u = nodal_interpolate(m, lambda x, y: x)
    v = np.zeros(m.n_vertices)
    value = quasinorm_error_sq(ops, u, v, GrowthParams(4.0))
    assert np.isclose(value, 1.0, rtol=1e-12)


def test_stiffness_matches_dense_assembly():
    m = generate_unit_square(3)
    ops = assemble(m)
    d1, d2 = ops.dgrad
    w = np.diag(ops.areas)
    dense = d1.toarray().T @ w @ d1.toarray() + d2.toarray().T @ w @ d2.toarray()
    assert np.allclose(stiffness(ops).toarray(), dense, rtol=1e-12, atol=1e-15)


def test_broken_mass_consistency():
    # embedding v into the broken space pairs through broken mass like vPu
    m = generate_unit_square(4)
    ops = assemble(m)
    rng = np.random.default_rng(9)
    for _ in range(10):
        u = rng.standard_normal(m.n_vertices)
        v = rng.standard_normal(m.n_vertices)
        lhs = broken_embed(ops, v) @ (ops.load_op.T @ u)
        rhs = v @ (ops.mass @ u)
        assert np.isclose(lhs, rhs, rtol=1e-12)


def test_broken_embed_layout():
    # simplex j owns rows 3j..3j+2 in local vertex order
    m = generate_unit_square(2)
    ops = assemble(m)
    u = np.arange(m.n_vertices, dtype=float)
    b = broken_embed(ops, u)
    assert b.shape == (3 * m.n_simplices,)
    for j in range(m.n_simplices):
        assert np.array_equal(b[3 * j : 3 * j + 3], u[m.simplices[j]])


def test_restriction_prolongation_identity():
    m = generate_unit_square(4)
    ops = assemble(m)
    rng = np.random.default_rng(4)
    w = rng.standard_normal(ops.n_interior)
    assert np.array_equal(ops.prolong(w)[ops.interior], w)
    full = ops.prolong(w)
    assert np.all(full[m.boundary_vertex_flags] == 0.0)
    assert ops.n_interior == (m.n_vertices - m.boundary_vertex_flags.sum())


def test_nodal_interpolate_examples():
    m = generate_unit_square(3)
    assert np.all(nodal_interpolate(m, lambda x, y: 1.0) == 1.0)
    assert np.all(nodal_interpolate(m, lambda x, y: 0.0) == 0.0)
    with pytest.raises(ValueError):
        nodal_interpolate(m, lambda x, y: np.inf)


def test_length_mismatch_rejected():
    ops = assemble(generate_unit_square(2))
    bad = np.zeros(ops.n_vertices + 1)
    good = np.zeros(ops.n_vertices)
    with pytest.raises(ValueError):
        gradient_per_simplex(ops, bad)
    with pytest.raises(ValueError):
        l2_error_sq(ops, bad, good)
    with pytest.raises(ValueError):
        quasinorm_error_sq(ops, good, bad, GrowthParams(2.0))
    with pytest.raises(ValueError):
        broken_embed(ops, bad)


def test_single_triangle_quadrature_oracle():
    # hand quadrature on one triangle: u with nodal values (a, b, c) has
    # integral of u^2 equal to area/6 * (a^2+b^2+c^2+ab+ac+bc)
    verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    m = make_mesh(verts, np.array([[0, 1, 2]]))
    ops = assemble(m)
    u = np.array([1.0, -2.0, 3.0])
    area = 1.0
    expected = area / 6.0 * (1.0 + 4.0 + 9.0 + (-2.0) + 3.0 + (-6.0))
    assert np.isclose(u @ (ops.mass @ u), expected, rtol=1e-13)


def test_interior_pattern_holds_restricted_operators():
    # the band's mass and stiffness data are R P R' and R A R'; each
    # interior pair of a simplex is kept once, in the lower triangle
    for mesh in (generate_unit_square(1), generate_unit_square(2), generate_unit_square(5), jittered_mesh(8, seed=3)):
        ops = assemble(mesh)
        pattern = ops.pattern
        r = restriction(ops)
        ni = ops.n_interior
        assert sorted(pattern.perm) == list(range(ni))
        assert pattern.mass.shape == (ni * (pattern.kd + 1),)
        mass = band_to_dense(pattern, pattern.mass)
        np.testing.assert_allclose(mass, (r @ ops.mass @ r.T).toarray(), rtol=1e-14, atol=0.0)
        stiff = (r @ stiffness(ops) @ r.T).toarray()
        np.testing.assert_allclose(band_to_dense(pattern, pattern.stiffness), stiff, rtol=1e-13, atol=1e-13)
        k = np.sum(~mesh.boundary_vertex_flags[mesh.simplices], axis=1)
        assert band_slots(ops)[0].shape[0] == int(np.sum(k * (k + 1) // 2))


@pytest.mark.parametrize("m", [4, 16, 32])
def test_band_width_structured(m):
    # reverse Cuthill-McKee numbers the (m-1) x (m-1) interior grid by
    # diagonals of the triangulation
    assert assemble(generate_unit_square(m)).pattern.kd == m - 1


@pytest.mark.parametrize("m, seed", [(16, 0), (16, 1), (32, 2), (32, 3)])
def test_band_width_survives_random_numbering(m, seed):
    # jittered_mesh numbers its vertices at random; only the reordering
    # keeps the band narrow
    assert assemble(jittered_mesh(m, seed)).pattern.kd <= 2 * m


def test_basis_gradients_are_the_derivative_rows():
    m = generate_unit_square(3)
    ops = assemble(m)
    d1, d2 = ops.dgrad
    gx, gy = basis_gradients(ops)
    rows = np.arange(m.n_simplices)[:, None]
    assert np.array_equal(d1.toarray()[rows, m.simplices], gx)
    assert np.array_equal(d2.toarray()[rows, m.simplices], gy)


@pytest.mark.parametrize("mesh_name", ["structured", "jittered"])
@pytest.mark.parametrize("kappa", [0.0, 0.7])
@pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 2.5, 4.0])
def test_error_functionals_are_invariant_under_rotation(mesh_name, p, kappa):
    # the quasi norm measures F of the whole gradient, whose norm a turn
    # of the mesh keeps: at equal nodal values both error functionals,
    # the areas and the mass stay, while the gradients turn
    mesh = generate_unit_square(6) if mesh_name == "structured" else jittered_mesh(6, seed=11)
    rng = np.random.default_rng(int(100 * p + 10 * kappa))
    angle = rng.uniform(0.1, 2.0 * np.pi - 0.1)
    ops, turned = assemble(mesh), assemble(rotated_mesh(mesh, angle))
    np.testing.assert_allclose(turned.areas, ops.areas, rtol=1e-12)
    np.testing.assert_allclose(turned.mass.toarray(), ops.mass.toarray(), rtol=1e-12, atol=1e-15)
    assert np.array_equal(turned.mesh.boundary_vertex_flags, ops.mesh.boundary_vertex_flags)
    params = GrowthParams(p, kappa=kappa)
    c, s = np.cos(angle), np.sin(angle)
    for _ in range(5):
        u = rng.standard_normal(mesh.n_vertices)
        v = rng.standard_normal(mesh.n_vertices)
        grads = gradient_per_simplex(ops, u)
        np.testing.assert_allclose(
            gradient_per_simplex(turned, u), grads @ np.array([[c, s], [-s, c]]), rtol=1e-10, atol=1e-12
        )
        assert np.isclose(quasinorm_error_sq(turned, u, v, params), quasinorm_error_sq(ops, u, v, params), rtol=1e-12)
        assert np.isclose(l2_error_sq(turned, u, v), l2_error_sq(ops, u, v), rtol=1e-12)

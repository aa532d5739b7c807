import numpy as np
import pytest
from hypothesis import given, strategies as st

from urnsir.fields import Kernel, ScalarField, sites


def test_sites_are_right_endpoints():
    np.testing.assert_allclose(sites(4), [0.25, 0.5, 0.75, 1.0])
    assert sites(1)[0] == 1.0


class TestScalarField:
    def test_constant(self):
        f = ScalarField.constant(2.5)
        assert f(0.0) == 2.5
        assert f(1.0) == 2.5
        np.testing.assert_array_equal(f(np.array([0.1, 0.9])), [2.5, 2.5])

    def test_affine(self):
        f = ScalarField.affine(1.0, 2.0)
        assert f(0.0) == 1.0
        assert f(0.5) == 2.0
        assert f(1.0) == 3.0

    def test_table_nodes_exact(self):
        vals = [0.3, 0.7, 0.2]
        f = ScalarField.table(vals)
        for m, v in enumerate(vals, start=1):
            assert f(m / 3) == v

    def test_table_interpolates_linearly(self):
        f = ScalarField.table([0.0, 1.0])
        assert f(0.75) == pytest.approx(0.5)

    def test_table_left_of_first_node_clamps(self):
        f = ScalarField.table([0.4, 0.8])
        assert f(0.0) == 0.4
        assert f(0.2) == 0.4

    def test_domain_error(self):
        f = ScalarField.constant(1.0)
        with pytest.raises(ValueError):
            f(-0.01)
        with pytest.raises(ValueError):
            f(1.01)

    def test_at_sites_matches_call(self):
        f = ScalarField.affine(0.5, 1.5)
        np.testing.assert_allclose(f.at_sites(7), f(sites(7)))

    def test_sup_norm_and_min(self):
        f = ScalarField.affine(1.0, -0.5)  # 1 - 0.5u on [0,1]
        assert f.sup_norm() == pytest.approx(1.0)
        assert f.min_value() == pytest.approx(0.5)

    def test_constant_value_detection(self):
        assert ScalarField.constant(3.0).constant_value() == 3.0
        assert ScalarField.table([2.0, 2.0]).constant_value() == 2.0
        assert ScalarField.affine(1.0, 0.5).constant_value() is None

    @given(st.floats(0.0, 1.0), st.floats(0.0, 5.0), st.floats(-3.0, 3.0))
    def test_affine_evaluation_finite(self, u, a, b):
        f = ScalarField.affine(a, b)
        assert np.isfinite(f(u))

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
        st.floats(0.0, 1.0),
    )
    def test_table_evaluation_within_range(self, vals, u):
        f = ScalarField.table(vals)
        v = float(f(u))
        assert min(vals) - 1e-12 <= v <= max(vals) + 1e-12


class TestKernel:
    def test_constant(self):
        k = Kernel.constant(2.0)
        assert k(0.3, 0.9) == 2.0

    def test_separable_product(self):
        k = Kernel.separable(
            ScalarField.affine(1.0, 1.0), ScalarField.affine(0.0, 2.0)
        )
        assert k(0.5, 0.25) == pytest.approx(1.5 * 0.5)

    def test_bilinear_center_of_corner_table(self):
        k = Kernel.table([[1.0, 1.0], [3.0, 3.0]])
        assert k(0.5, 0.5) == pytest.approx(2.0)

    def test_bilinear_corners_exact(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        k = Kernel.table(rows)
        assert k(0.0, 0.0) == 1.0
        assert k(0.0, 1.0) == 2.0
        assert k(1.0, 0.0) == 3.0
        assert k(1.0, 1.0) == 4.0

    def test_domain_error(self):
        k = Kernel.constant(1.0)
        with pytest.raises(ValueError):
            k(1.5, 0.5)
        with pytest.raises(ValueError):
            k(0.5, -0.5)

    def test_site_matrix_orientation(self):
        # entry [i, j] must be kernel(target site i, source site j)
        k = Kernel.separable(
            ScalarField.affine(0.0, 1.0), ScalarField.constant(1.0)
        )  # lam(u, v) = u
        mat = k.site_matrix(4)
        np.testing.assert_allclose(mat[:, 0], sites(4))
        np.testing.assert_allclose(mat[0, :], 0.25)

    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel.constant(1.7),
            Kernel.separable(
                ScalarField.affine(0.5, 1.0), ScalarField.affine(2.0, -1.0)
            ),
            Kernel.table([[1.0, 2.0, 0.5], [0.3, 1.5, 2.5], [2.0, 0.7, 1.1]]),
        ],
    )
    def test_node_average_matches_site_matrix(self, kernel):
        rng = np.random.default_rng(0)
        vals = rng.random(6)
        direct = kernel.site_matrix(6) @ vals / 6
        np.testing.assert_allclose(kernel.node_average(vals), direct)

    @pytest.mark.parametrize(
        "kernel, rank",
        [
            (Kernel.constant(1.7), 1),
            (
                Kernel.separable(
                    ScalarField.affine(0.5, 1.0), ScalarField.affine(2.0, -1.0)
                ),
                1,
            ),
            (
                Kernel.table(
                    [[1.0, 2.0, 0.5], [0.3, 1.5, 2.5], [2.0, 0.7, 1.1]]
                ),
                3,
            ),
            (
                Kernel.table(
                    [
                        [1.0, 0.0, 2.0, 0.5, 1.2],
                        [0.0, 0.0, 0.0, 0.0, 0.0],
                        [0.3, 0.0, 1.5, 2.5, 0.9],
                        [2.0, 0.0, 0.7, 1.1, 0.4],
                        [0.6, 0.0, 1.3, 0.2, 3.0],
                    ]
                ),
                5,
            ),
        ],
    )
    def test_factors_reproduce_kernel(self, kernel, rank):
        n = 11
        left, right = kernel.factors(n)
        assert left.shape == right.shape == (n, rank)
        assert not left.flags.writeable and not right.flags.writeable
        product = left @ right.T
        np.testing.assert_allclose(product, kernel.site_matrix(n), rtol=1e-14)
        s = sites(n)
        np.testing.assert_allclose(
            product, kernel(s[:, None], s[None, :]), rtol=1e-14
        )

    def test_constant_kernel_exact(self):
        k = Kernel.constant(1.7)
        vals = np.random.default_rng(1).random(9)
        np.testing.assert_array_equal(k.site_matrix(9), np.full((9, 9), 1.7))
        np.testing.assert_array_equal(
            k.node_average(vals), np.full(9, 1.7 * vals.mean())
        )
        np.testing.assert_array_equal(k(sites(9), sites(9)), np.full(9, 1.7))

    def test_separable_kernel_exact(self):
        h1 = ScalarField.affine(0.5, 1.0)
        h2 = ScalarField.table([2.0, 0.3, 1.1])
        k = Kernel.separable(h1, h2)
        s = sites(9)
        vals = np.random.default_rng(2).random((2, 9))
        np.testing.assert_array_equal(
            k.site_matrix(9), np.outer(h1(s), h2(s))
        )
        np.testing.assert_array_equal(
            k.node_average(vals),
            h1(s) * (h2(s) * vals).mean(axis=-1)[:, None],
        )
        np.testing.assert_array_equal(k(s, s[::-1]), h1(s) * h2(s[::-1]))

    def test_sup_norm(self):
        k = Kernel.table([[1.0, 2.0], [3.0, 0.5]])
        assert k.sup_norm() == 3.0
        sep = Kernel.separable(
            ScalarField.affine(1.0, 1.0), ScalarField.affine(2.0, -1.5)
        )
        assert sep.sup_norm() == pytest.approx(2.0 * 2.0)

    def test_constant_value_detection(self):
        assert Kernel.constant(0.0).constant_value() == 0.0
        assert Kernel.table([[2.0, 2.0], [2.0, 2.0]]).constant_value() == 2.0
        assert (
            Kernel.separable(
                ScalarField.constant(2.0), ScalarField.constant(3.0)
            ).constant_value()
            == 6.0
        )

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Kernel.constant(-1.0)
        with pytest.raises(ValueError):
            Kernel.table([[1.0, -0.1], [1.0, 1.0]])

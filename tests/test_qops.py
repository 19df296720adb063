import numpy as np
import pytest

from flime import (check_density_matrix, expect, fold, pure_state_density,
                   sigma_minus, sigma_plus, sigma_x, sigma_z, trace_distance, unfold)
from flime.qops import _powers
from conftest import random_density, random_hermitian
from oracles import sandwich_superop


class TestUnfoldFold:
    def test_basis_projector(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.array_equal(unfold(rho), [1, 0, 0, 0])

    def test_element_placement(self):
        rho = np.zeros((2, 2), dtype=complex)
        rho[0, 1] = 0.3 + 0.4j
        v = unfold(rho)
        # element (n, m) = (0, 1) lands at index n + N*m = 2
        assert v[2] == 0.3 + 0.4j
        assert v[1] == 0.0

    def test_fold_examples(self):
        assert np.allclose(fold([1, 0, 0, 0]), np.diag([1.0, 0.0]))
        assert np.allclose(fold([0, 0, 0, 1]), np.diag([0.0, 1.0]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip(self, rng, n):
        for _ in range(5):
            rho = random_density(rng, n)
            assert np.array_equal(fold(unfold(rho)), rho)
            v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
            assert np.array_equal(unfold(fold(v)), v)

    def test_fold_rejects_non_square_length(self):
        with pytest.raises(ValueError, match="perfect square"):
            fold(np.zeros(5))

    def test_unfold_rejects_non_square(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 3)))


class TestSandwich:
    def test_identity(self):
        eye = np.eye(3, dtype=complex)
        assert np.allclose(sandwich_superop(eye, eye), np.eye(9))

    def test_lowering_excited_state(self):
        rho = np.diag([0.0, 1.0]).astype(complex)
        m = sandwich_superop(sigma_minus, sigma_plus)
        assert np.allclose(m @ unfold(rho), unfold(np.diag([1.0, 0.0])))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_direct_product(self, rng, n):
        for _ in range(10):
            x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            rho = random_density(rng, n)
            direct = x @ rho @ y
            via_superop = fold(sandwich_superop(x, y) @ unfold(rho))
            assert np.max(np.abs(via_superop - direct)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sandwich_superop(np.eye(2), np.eye(3))


class TestExpect:
    def test_sigma_z_excited(self):
        assert expect(sigma_z, np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_identity_gives_trace(self, rng):
        rho = random_density(rng, 3)
        assert expect(np.eye(3), rho) == pytest.approx(np.trace(rho))

    def test_sigma_x_on_plus_state(self):
        rho = pure_state_density([1.0, 1.0])
        assert expect(sigma_x, rho) == pytest.approx(1.0)

    def test_real_for_hermitian_pair(self, rng):
        a = random_hermitian(rng, 3)
        rho = random_density(rng, 3)
        assert abs(expect(a, rho).imag) < 1e-10

    def test_linear_in_both_arguments(self, rng):
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        r1, r2 = random_density(rng, 2), random_density(rng, 2)
        lhs = expect(2.0 * a + 3.0j * b, r1)
        assert lhs == pytest.approx(2.0 * expect(a, r1) + 3.0j * expect(b, r1))
        lhs = expect(a, 0.4 * r1 + 0.6 * r2)
        assert lhs == pytest.approx(0.4 * expect(a, r1) + 0.6 * expect(a, r2))


class TestTraceDistance:
    def test_equal_states(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0)

    def test_matches_eigenvalue_oracle(self, rng):
        # brute force: half the sum of |eigenvalues| of the Hermitian difference
        for eps in [1e-3, 1e-2, 0.1]:
            rho = random_density(rng, 2)
            mixed = (1 - eps) * rho + eps * np.eye(2) / 2
            oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho - mixed)))
            assert abs(trace_distance(rho, mixed) - oracle) < 1e-12

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12

    def test_symmetry(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a))


class TestDensityValidation:
    def test_pure_state_invariants(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_state_density(psi)
        assert abs(np.trace(rho) - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12

    def test_check_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.diag([0.7, 0.7]))

    def test_check_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            check_density_matrix(rho)

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            pure_state_density([0.0, 0.0])


class TestPowers:
    def test_powers_stay_within_the_exp_tables_error(self):
        # against extended-precision phases of the same double omega and t,
        # at every power the running product is at most twice as far off as
        # the exp table exp(1j * t * (m * omega)) it replaces
        omega = 2.0 * np.pi / 0.7
        times = np.concatenate((np.random.default_rng(5).uniform(0.0, 1e3 * 0.7, 200),
                                np.random.default_rng(6).uniform(0.0, 0.7, 50)))
        assert np.max(omega * times) > 0.99 * 2.0 * np.pi * 1e3
        m = np.arange(65)
        ours = _powers(1.0, np.exp(1j * omega * times), m.size)
        table = np.exp(1j * np.multiply.outer(times, m * omega))
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("np.longdouble is double here, so there is no extended reference")
        arg = np.multiply.outer(times.astype(np.longdouble), m * np.longdouble(omega))
        exact = np.exp(1j * arg.astype(np.clongdouble))
        ours_err = np.abs(ours - exact).max(axis=0)
        table_err = np.abs(table - exact).max(axis=0)
        assert ours_err[0] == 0.0
        assert np.all(ours_err <= 2.0 * table_err)

    def test_powers_fill_a_view_in_place_from_an_array_start(self):
        ratio = np.exp(1j * np.array([[0.3, -1.2], [2.0, 0.0]]))
        out = np.zeros((2, 2, 7), dtype=complex)
        result = _powers(ratio[..., None], ratio, 5, out=out[..., 1:6])
        assert np.shares_memory(result, out)
        expected = ratio[..., None] ** np.arange(1, 6)
        assert np.max(np.abs(out[..., 1:6] - expected)) <= 1e-15
        assert not out[..., 0].any() and not out[..., 6].any()
        assert _powers(1.0, ratio, 0).shape == (2, 2, 0)

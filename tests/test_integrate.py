import numpy as np
import pytest

from flime import IntegrationError, OdeTol, integrate_adaptive


class TestAccuracy:
    def test_exponential_decay(self):
        t_out = np.array([0.0, 0.5, 1.0, 2.0, 5.0])
        y, stats = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), t_out,
                                      rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(y[:, 0] - np.exp(-t_out))) < 1e-9
        assert stats.steps_accepted > 0

    def test_complex_rotation(self):
        omega = 3.7
        t_out = np.linspace(0.0, 4.0, 9)
        y, _ = integrate_adaptive(lambda t, y: 1j * omega * y, 0.0, np.array([1.0 + 0j]),
                                  t_out, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(y[:, 0] - np.exp(1j * omega * t_out))) < 1e-8

    def test_driven_oscillator_matrix_system(self):
        # y'' = -y as a first order system, y(0)=1, y'(0)=0
        a = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
        t_out = np.linspace(0.0, 10.0, 21)
        y, _ = integrate_adaptive(lambda t, y: a @ y, 0.0, np.array([1.0, 0.0], dtype=complex),
                                  t_out, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(y[:, 0] - np.cos(t_out))) < 1e-8

    def test_time_dependent_rhs(self):
        # y' = 2t y  ->  y = exp(t^2)
        t_out = np.array([0.0, 0.3, 0.9, 1.5])
        y, _ = integrate_adaptive(lambda t, y: 2 * t * y, 0.0, np.array([1.0 + 0j]), t_out,
                                  rtol=1e-11, atol=1e-13)
        assert np.max(np.abs(y[:, 0] - np.exp(t_out ** 2))) < 1e-8


class TestStepping:
    def test_output_at_start_time(self):
        y, stats = integrate_adaptive(lambda t, y: -y, 0.0, np.array([2.0 + 0j]), [0.0])
        assert y[0, 0] == 2.0
        assert stats.rhs_evals == 0

    def test_max_step_respected(self):
        t_out = [10.0]
        _, free = integrate_adaptive(lambda t, y: -0.01 * y, 0.0, np.array([1.0 + 0j]), t_out)
        _, capped = integrate_adaptive(lambda t, y: -0.01 * y, 0.0, np.array([1.0 + 0j]),
                                       t_out, max_step=0.1)
        assert capped.steps_accepted >= 100
        assert free.steps_accepted < capped.steps_accepted

    def test_first_step_hint(self):
        y, _ = integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), [1.0],
                                  first_step=1e-3)
        assert abs(y[0, 0] - np.exp(-1.0)) < 1e-8

    def test_block_steps_at_its_worst_row(self):
        # one stiff row among 63 constant ones: the block norm is the worst
        # row's, so the block needs at least the stiff row's steps (an RMS
        # over the whole block would divide its error by 8)
        rates = np.zeros((64, 1), dtype=complex)
        rates[17] = -30.0 + 200.0j
        y0 = np.ones((64, 1), dtype=complex)
        block, block_stats = integrate_adaptive(lambda t, y: rates * y, 0.0, y0, [1.0],
                                                rtol=1e-9, atol=1e-12)
        alone, alone_stats = integrate_adaptive(lambda t, y: rates[17] * y, 0.0, y0[17], [1.0],
                                                rtol=1e-9, atol=1e-12)
        assert block.shape == (1, 64, 1)
        assert block_stats.steps_accepted >= alone_stats.steps_accepted
        assert abs(block[0, 17, 0] - alone[0, 0]) < 1e-12
        assert np.all(block[0, np.arange(64) != 17] == 1.0)

    def test_one_row_block_matches_vector(self):
        # elementwise right-hand side, so both shapes do the same arithmetic
        rates = np.array([-0.3 + 2.0j, 0.1 - 1.0j])
        y0 = np.array([1.0, 0.5j])
        t_out = np.linspace(0.0, 3.0, 7)

        def rhs(t, y):
            return np.cos(t) * rates * y

        vec, vec_stats = integrate_adaptive(rhs, 0.0, y0, t_out)
        block, block_stats = integrate_adaptive(rhs, 0.0, y0[None, :], t_out)
        assert np.array_equal(block[:, 0], vec)
        assert block_stats == vec_stats

    def test_dense_output_grid(self):
        # many closely spaced outputs are each hit exactly and accurately
        t_out = np.linspace(0.0, 1.0, 257)
        y, _ = integrate_adaptive(lambda t, y: 1j * y, 0.0, np.array([1.0 + 0j]), t_out,
                                  rtol=1e-9, atol=1e-12)
        assert np.max(np.abs(y[:, 0] - np.exp(1j * t_out))) < 1e-9


class TestValidation:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), [0.5, 0.5])

    def test_rejects_output_before_start(self):
        with pytest.raises(ValueError, match="precedes"):
            integrate_adaptive(lambda t, y: -y, 1.0, np.array([1.0 + 0j]), [0.5])

    def test_rejects_empty_output(self):
        with pytest.raises(ValueError, match="no output times"):
            integrate_adaptive(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), [])

    def test_rejects_state_of_more_than_two_axes(self):
        with pytest.raises(ValueError, match="2-D block"):
            integrate_adaptive(lambda t, y: -y, 0.0, np.ones((2, 2, 2), dtype=complex), [1.0])

    def test_ode_tol_validation(self):
        with pytest.raises(ValueError):
            OdeTol(rtol=0.0)
        with pytest.raises(ValueError):
            OdeTol(atol=-1.0)
        with pytest.raises(ValueError):
            OdeTol(max_step=0.0)
        tol = OdeTol()
        assert tol.rtol == 1e-8 and tol.atol == 1e-10 and tol.max_step is None

    def test_step_underflow_reports_time_reached(self):
        def rhs(t, y):
            return np.array([np.nan + 0j]) if t > 0.5 else -y

        with pytest.raises(IntegrationError) as err:
            integrate_adaptive(rhs, 0.0, np.array([1.0 + 0j]), [1.0])
        assert err.value.t_reached <= 0.5001

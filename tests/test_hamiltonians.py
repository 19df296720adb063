import numpy as np
import pytest

from flime import (HarmonicTerm, PeriodicHamiltonian, TimeUnit,
                   angular_frequency, build_bichromatic, build_driven_2ls_full,
                   build_driven_2ls_rwa, build_pulse_train,
                   build_rotating_frame_2ls, hermiticity_defect,
                   lifetime_to_rate)

HBAR = 1.054571817e-34
EV = 1.602176634e-19


class TestUnits:
    def test_ghz_is_cyclic(self):
        assert angular_frequency(2.5, "GHz") == pytest.approx(2.5 * 2 * np.pi)

    def test_thz(self):
        assert angular_frequency(330.0, "THz") == pytest.approx(330.0e3 * 2 * np.pi)

    def test_micro_ev(self):
        expected = 30.0 * EV * 1e-6 / HBAR * 1e-9  # rad/ns
        assert angular_frequency(30.0, "ueV") == pytest.approx(expected, rel=1e-12)

    def test_lifetime_455ps(self):
        assert lifetime_to_rate(455.0, "ps") == pytest.approx(1.0 / 0.455)

    def test_base_unit_rescales(self):
        per_ps = TimeUnit(scale=1e3)
        assert angular_frequency(1.0, "GHz", per_ps) == pytest.approx(2 * np.pi / 1e3)
        # 455 ps lifetime expressed in 1/ps
        assert lifetime_to_rate(455.0, "ps", per_ps) == pytest.approx(1.0 / 455.0)

    def test_unknown_units_rejected(self):
        with pytest.raises(ValueError, match="unknown frequency unit"):
            angular_frequency(1.0, "furlongs")
        with pytest.raises(ValueError, match="unknown lifetime unit"):
            lifetime_to_rate(1.0, "eons")

    def test_scale_positive(self):
        with pytest.raises(ValueError):
            TimeUnit(scale=0.0)


def _hamiltonian(system):
    """A 2 x 2 Hamiltonian: the 40-harmonic pulse train, the strong-drive
    2LS, the bichromatic system, a sparse set of harmonics +-1 and +-7, or
    the 2LS with a harmonic-0 term."""
    if system == "pulse-train":
        return build_pulse_train(0.3, 1.0, n_harmonics=40)
    if system == "bichromatic":
        return build_bichromatic(10.0, -20.0, 20.0, 6.0)
    strong = build_driven_2ls_full(2 * np.pi, 2 * np.pi, np.pi, np.pi)
    if system == "strong-2ls":
        return strong
    if system == "harmonic-0":
        return PeriodicHamiltonian(strong.omega, strong.static_part, strong.terms + (
            HarmonicTerm(np.array([[0.1, 0.05j], [-0.05j, -0.2]]), 0, 1.0),))
    drive = np.array([[0.3, 0.7 - 0.2j], [0.1j, -0.4]])
    return PeriodicHamiltonian(2.3, np.diag([0.5, -0.5]).astype(complex), tuple(
        HarmonicTerm(m / k, s * k, 1.0) for k in (1, 7)
        for m, s in ((drive, 1), (drive.conj().T, -1))))


class TestPeriodicHamiltonian:
    def test_drive_free_returns_static(self, rng):
        static = np.diag([-1.0, 1.0]).astype(complex)
        h = PeriodicHamiltonian(2.0, static)
        for t in rng.uniform(0, 10, 5):
            assert np.array_equal(h(t), static)
        assert h(0.0) is not h.static_part

    def test_matches_term_by_term_sum(self, rng):
        # repeated harmonics are aggregated once at construction, and a
        # harmonic-0 term adds to the static part; both the scalar path and
        # the array path (phases as powers of exp(1j*omega*t), the negative
        # harmonics' by conjugation) agree, on the pulse train, on it with
        # extra terms and on a sparse harmonic set, up to 10^3 periods
        pulse = build_pulse_train(0.3, 1.0, n_harmonics=40)
        extra = HarmonicTerm(0.2 * np.array([[0.0, 1.0], [0.0, 0.0]]), 3, 1.0 + 0.5j)
        constant = HarmonicTerm(np.array([[0.1, 0.05j], [-0.05j, -0.2]]), 0, 1.0)
        drive = np.array([[0.3, 0.7 - 0.2j], [0.1j, -0.4]])
        sparse = []
        for k in (1, 7):
            sparse += [HarmonicTerm(drive / k, k, 1.0), HarmonicTerm(drive.conj().T / k, -k, 1.0)]
        systems = [
            pulse,
            PeriodicHamiltonian(pulse.omega, pulse.static_part,
                                (constant, HarmonicTerm(extra.matrix.conj().T, -3, 1.0 - 0.5j),
                                 *pulse.terms, extra)),
            PeriodicHamiltonian(2.3, np.diag([0.5, -0.5]).astype(complex), tuple(sparse)),
        ]
        for h in systems:
            times = np.concatenate((rng.uniform(0, 3, 7), rng.uniform(0, 1e3 * h.period, 7)))
            values = h(times)
            for t, value in zip(times, values):
                loop = h.static_part.copy()
                for term in h.terms:
                    loop += term.amplitude * np.exp(1j * term.harmonic * h.omega * t) * term.matrix
                bound = 1e-13
                if t > 3:
                    # each side rounds the phase argument k omega t, by
                    # about |k omega t| ulps (measured: under a fifth of this)
                    bound += 2 * np.finfo(float).eps * sum(
                        abs(term.harmonic * h.omega * t * term.amplitude) * np.abs(term.matrix).max()
                        for term in h.terms)
                assert np.max(np.abs(h(t) - loop)) < bound
                assert np.max(np.abs(value - loop)) < bound

    @pytest.mark.parametrize("n_samples", [8, 64, 1024])
    def test_on_grid_matches_pointwise_calls(self, rng, n_samples):
        # the 40 harmonics alias at n_samples = 8 and 64 (|k| >= n_samples/2
        # shares a bin); at 8 the harmonics that share a bin are both large
        h = build_pulse_train(0.3, 1.0, n_harmonics=40)
        grid = np.arange(n_samples) * h.period / n_samples
        for shift in (0.0, *rng.uniform(0, h.period / n_samples, 2)):
            pointwise = np.array([h(t + shift) for t in grid])
            assert np.max(np.abs(h.on_grid(n_samples, shift) - pointwise)) < 1e-13

    @pytest.mark.parametrize("system", ["pulse-train", "strong-2ls", "bichromatic", "sparse",
                                        "harmonic-0"])
    def test_array_of_times_matches_scalar_calls(self, rng, system):
        # H(t) = B + B^dag is exactly Hermitian on both paths
        h = _hamiltonian(system)
        times = rng.uniform(0, 3 * h.period, (4, 6))
        values = h(times)
        assert values.shape == (4, 6, 2, 2)
        loop = np.array([[h(float(t)) for t in row] for row in times])
        assert np.max(np.abs(values - loop)) < 1e-14
        assert hermiticity_defect(values) == 0.0
        assert all(hermiticity_defect(h(float(t))) == 0.0 for t in times.ravel())
        # every scalar kind returns one matrix
        for t in (0.3, np.float64(0.3), 1, np.array(0.3)):
            assert h(t).shape == (2, 2)
        assert np.max(np.abs(h(1) - h(1.0))) == 0.0

    def test_periodicity(self, rng):
        h = build_driven_2ls_full(2 * np.pi, 2 * np.pi, 0.8, 0.8)
        for t in rng.uniform(0, 7, 9):
            assert np.max(np.abs(h(t + h.period) - h(t))) < 1e-12

    def test_hermiticity_partner_enforced(self):
        term = HarmonicTerm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, 0.5)
        with pytest.raises(ValueError, match="partner"):
            PeriodicHamiltonian(1.0, np.zeros((2, 2)), (term,))
        # with several harmonics the error names the first offending one in
        # term order: 3 has a wrong partner, -3 and 2 offend after it
        up = np.array([[0.0, 1.0], [0.0, 0.0]])
        terms = (HarmonicTerm(up, 1, 0.5), HarmonicTerm(up.T, -1, 0.5),
                 HarmonicTerm(up, 3, 0.5), HarmonicTerm(up.T, -3, 0.4),
                 HarmonicTerm(up, 2, 0.5))
        with pytest.raises(ValueError, match="harmonic 3 lacks .* partner at -3"):
            PeriodicHamiltonian(1.0, np.zeros((2, 2)), terms)
        with pytest.raises(ValueError, match="harmonic 2 lacks .* partner at -2"):
            PeriodicHamiltonian(1.0, np.zeros((2, 2)), terms[:2] + terms[4:])
        # partners that agree within the tolerance pass
        PeriodicHamiltonian(1.0, np.zeros((2, 2)), terms[:3] + (
            HarmonicTerm(up.T, -3, 0.5 + 1e-14),))

    def test_non_hermitian_static_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            PeriodicHamiltonian(1.0, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_omega_positive(self):
        with pytest.raises(ValueError):
            PeriodicHamiltonian(-1.0, np.zeros((2, 2)))

    def test_period(self):
        assert PeriodicHamiltonian(2 * np.pi, np.zeros((2, 2))).period == pytest.approx(1.0)


class TestDriven2ls:
    def test_rwa_resonant_offdiagonals_at_t0(self):
        omega0 = 2 * np.pi
        rabi = 0.7
        h = build_driven_2ls_rwa(omega0, omega0, rabi)
        m = h(0.0)
        assert m[0, 1] == pytest.approx(rabi / 2)
        assert m[1, 0] == pytest.approx(rabi / 2)
        assert m[0, 0] == pytest.approx(-omega0 / 2)
        assert m[1, 1] == pytest.approx(omega0 / 2)

    def test_rwa_zero_drive_is_free_system(self, rng):
        h = build_driven_2ls_rwa(1.3, 1.0, 0.0)
        for t in rng.uniform(0, 5, 5):
            assert np.allclose(h(t), 0.5 * np.diag([-1.3, 1.3]))

    def test_rwa_hermitian_at_random_times(self, rng):
        h = build_driven_2ls_rwa(2.0, 1.7, 0.3 + 0.4j)
        for t in rng.uniform(0, 20, 17):
            assert hermiticity_defect(h(t)) < 1e-12

    def test_full_reduces_to_rwa(self, rng):
        full = build_driven_2ls_full(2.0, 1.5, 0.3 + 0.1j, 0.0)
        rwa = build_driven_2ls_rwa(2.0, 1.5, 0.3 + 0.1j)
        for t in rng.uniform(0, 10, 7):
            assert np.max(np.abs(full(t) - rwa(t))) < 1e-14

    def test_full_cosine_drive_identity(self):
        omega = 1.9
        rabi = 0.8
        h = build_driven_2ls_full(2.4, omega, rabi, rabi)
        ts = np.linspace(0, h.period, 301)
        dev = max(abs(h(t)[0, 1] - rabi * np.cos(omega * t)) for t in ts)
        assert dev < 1e-12

    def test_strong_drive_parameters(self):
        # drive at half the transition frequency builds and stays Hermitian
        omega0 = 2 * np.pi
        h = build_driven_2ls_full(omega0, omega0, 0.5 * omega0, 0.5 * omega0)
        assert hermiticity_defect(h(0.37)) < 1e-12


class TestBichromatic:
    def test_harmonic_matrices(self):
        rabi1, rabi2 = 0.5 + 0.2j, 0.3 - 0.1j
        h = build_bichromatic(0.8, 2.0, rabi1, rabi2)
        assert h.omega == pytest.approx(1.0)
        plus = h.harmonics[1]
        minus = plus.conj().T
        assert np.allclose(plus, -0.5 * np.array([[0, rabi2], [np.conj(rabi1), 0]]))
        assert np.allclose(minus, -0.5 * np.array([[0, rabi1], [np.conj(rabi2), 0]]))
        assert np.allclose(h.static_part, 0.4 * np.diag([-1, 1]))

    def test_negative_beat(self, rng):
        rabi1, rabi2 = 0.5, 0.3
        beat = -2.0
        h = build_bichromatic(0.0, beat, rabi1, rabi2)
        for t in rng.uniform(0, 10, 5):
            expected = (-0.5 * np.array([[0, rabi2], [rabi1, 0]]) * np.exp(1j * beat / 2 * t)
                        - 0.5 * np.array([[0, rabi1], [rabi2, 0]]) * np.exp(-1j * beat / 2 * t))
            assert np.max(np.abs(h(t) - expected)) < 1e-12

    def test_single_laser_limit(self, rng):
        h = build_bichromatic(0.0, 2.0, 0.6, 0.0)
        for t in rng.uniform(0, 10, 7):
            assert hermiticity_defect(h(t)) < 1e-12
        assert np.allclose(h.harmonics[1][0, 1], 0.0)

    def test_zero_beat_rejected(self):
        with pytest.raises(ValueError, match="beat"):
            build_bichromatic(0.0, 0.0, 1.0, 1.0)

    def test_quantum_dot_units(self):
        # 30 ueV drive, 455 ps lifetime, frequencies in rad/ns
        rabi1 = angular_frequency(30.0, "ueV")
        rabi2 = angular_frequency(20.0, "ueV")
        gamma = lifetime_to_rate(455.0, "ps")
        beat = -rabi1
        h = build_bichromatic(rabi1 / 2, beat, rabi1, rabi2)
        assert h.omega == pytest.approx(rabi1 / 2)
        assert rabi1 / gamma == pytest.approx(20.74, rel=1e-3)


class TestPulseTrain:
    def test_coefficients_match_quadrature_oracle(self):
        period, sigma, area = 0.1, 0.1 / 16, np.pi
        h = build_pulse_train(0.4, period, sigma=sigma, n_harmonics=12)
        omega = 2 * np.pi / period

        # oracle: trapezoid quadrature of the periodized Gaussian comb
        ts = np.linspace(0.0, period, 40001)
        comb = np.zeros_like(ts)
        for n in range(-6, 7):
            comb += np.exp(-((ts - n * period) ** 2) / (2 * sigma ** 2)) / (sigma * np.sqrt(2 * np.pi))
        comb *= area  # rotation angle normalization
        for k in range(0, 13):
            ck_oracle = np.trapezoid(comb * np.exp(-1j * k * omega * ts), ts) / period
            drive_ck = 2.0 * h.harmonics[k][0, 1]
            assert abs(drive_ck - ck_oracle) < 1e-10

    def test_pulse_area_is_pi(self):
        h = build_pulse_train(0.0, 0.1)
        ts = np.linspace(0.0, h.period, 20001)
        drive = np.array([2.0 * h(t)[0, 1].real for t in ts])
        assert np.trapezoid(drive, ts) == pytest.approx(np.pi, abs=1e-9)

    def test_dc_limit_wide_pulse(self, rng):
        period = 1.0
        h = build_pulse_train(0.2, period, sigma=10.0 * period, n_harmonics=8)
        static = h.static_part
        for t in rng.uniform(0, 3, 5):
            assert np.max(np.abs(h(t) - static)) < 1e-12

    def test_warning_when_underresolved(self):
        with pytest.warns(UserWarning, match="resolves the pulse poorly"):
            build_pulse_train(0.0, 0.1, sigma=0.1 / 16, n_harmonics=2)

    def test_defaults(self):
        h = build_pulse_train(0.0, 0.2)
        # sigma defaults to period/16 and 40 harmonics on each side
        ks = sorted(term.harmonic for term in h.terms if np.any(term.matrix))
        assert ks == [k for k in range(-40, 41) if k != 0]
        assert len(h.harmonics) == 41 and all(np.any(row) for row in h.harmonics)

    def test_lifetime_scaled_configuration(self):
        # period = lifetime/20 gives 20 pulses per lifetime
        lifetime = 2.0
        h = build_pulse_train(0.0, lifetime / 20.0)
        assert lifetime / h.period == pytest.approx(20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_pulse_train(0.0, -1.0)
        with pytest.raises(ValueError):
            build_pulse_train(0.0, 1.0, sigma=-0.1)
        with pytest.raises(ValueError):
            build_pulse_train(0.0, 1.0, n_harmonics=0)


class TestRotatingFrame:
    def test_static_structure(self):
        h = build_rotating_frame_2ls(0.3, 0.5 + 0.1j, 2.0)
        expected = 0.5 * np.array([[0.3, 0.5 + 0.1j], [0.5 - 0.1j, -0.3]])
        assert np.allclose(h(1.23), expected)
        assert h.omega == pytest.approx(2.0)

"""Time-periodic Hamiltonians as finite harmonic series, plus system builders.

A Hamiltonian is represented as a Hermitian static part plus a finite list of
harmonic terms ``amplitude * exp(1j*k*omega*t) * matrix``.  Restricting input
to harmonics keeps the periodicity exact and gives the Fourier structure that
the rate-matrix construction needs anyway.

All frequencies and rates in a run are expressed in a single angular
frequency unit declared by a :class:`TimeUnit`; tagged inputs in laboratory
units (GHz, THz, micro-eV, lifetimes in ps or ns) are converted at ingestion.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .qops import _powers, hermiticity_defect, sigma_x

__all__ = [
    "HarmonicTerm",
    "PeriodicHamiltonian",
    "TimeUnit",
    "DEFAULT_TIME_UNIT",
    "angular_frequency",
    "lifetime_to_rate",
    "build_driven_2ls_rwa",
    "build_driven_2ls_full",
    "build_bichromatic",
    "build_pulse_train",
    "build_rotating_frame_2ls",
]

_HERM_TOL = 1e-12

# rad/ns carried by one unit of each supported input tag.
_HBAR_J_S = 1.054571817e-34
_EV_J = 1.602176634e-19
_RAD_PER_NS = {
    "rad/ns": 1.0,
    "1/ns": 1.0,
    "1/ps": 1e3,
    "GHz": 2.0 * np.pi,            # cyclic frequency
    "THz": 2.0 * np.pi * 1e3,
    "ueV": _EV_J * 1e-6 / _HBAR_J_S * 1e-9,   # E / hbar
}
_LIFETIME_NS = {"ns": 1.0, "ps": 1e-3, "s": 1e9}


@dataclass(frozen=True)
class TimeUnit:
    """Declared inverse-time unit for all frequencies and rates in a run.

    ``scale`` is the number of rad/ns represented by one internal unit.
    """

    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("TimeUnit scale must be positive")


DEFAULT_TIME_UNIT = TimeUnit()


def angular_frequency(value, unit, base=DEFAULT_TIME_UNIT):
    """Convert a tagged frequency/energy/rate to the run's angular unit."""
    if unit not in _RAD_PER_NS:
        raise ValueError(f"unknown frequency unit {unit!r}; expected one of {sorted(_RAD_PER_NS)}")
    return value * _RAD_PER_NS[unit] / base.scale


def lifetime_to_rate(value, unit, base=DEFAULT_TIME_UNIT):
    """Convert a lifetime (e.g. 455 ps) to a decay rate 1/lifetime."""
    if unit not in _LIFETIME_NS:
        raise ValueError(f"unknown lifetime unit {unit!r}; expected one of {sorted(_LIFETIME_NS)}")
    if value <= 0.0:
        raise ValueError("lifetime must be positive")
    return 1.0 / (value * _LIFETIME_NS[unit]) / base.scale


@dataclass(frozen=True, eq=False)
class HarmonicTerm:
    """One harmonic contribution ``amplitude * exp(1j*harmonic*omega*t) * matrix``."""

    matrix: np.ndarray
    harmonic: int
    amplitude: complex

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"harmonic matrix must be square, got shape {mat.shape}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "harmonic", int(self.harmonic))
        object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True, eq=False)
class PeriodicHamiltonian:
    """H(t) = static_part + sum_j amplitude_j exp(1j*k_j*omega*t) matrix_j.

    Construction enforces Hermiticity of H(t) at every time: the harmonic
    content at ``+k`` must be the conjugate transpose of the content at
    ``-k`` (within 1e-12, relative to the largest coefficient).

    The series is stored once, as the half-store ``harmonics`` of shape
    (K + 1, n, n), K the largest harmonic: row 0 is the frequency-zero part
    (static plus any harmonic-0 terms) and row k the summed coefficient H_k
    of exp(1j*k*omega*t), zero where absent.  The coefficient of
    exp(-1j*k*omega*t) is ``harmonics[k]`` conjugate-transposed.
    """

    omega: float
    static_part: np.ndarray
    terms: tuple = ()
    harmonics: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.omega <= 0.0:
            raise ValueError("base angular frequency must be positive")
        static = np.asarray(self.static_part, dtype=complex)
        if static.ndim != 2 or static.shape[0] != static.shape[1]:
            raise ValueError("static part must be a square matrix")
        object.__setattr__(self, "static_part", static)
        object.__setattr__(self, "terms", tuple(self.terms))

        n = static.shape[0]
        for term in self.terms:
            if term.matrix.shape != (n, n):
                raise ValueError("all harmonic terms must share the static part's dimension")
        # The terms of each harmonic are summed in term order into row k + K
        # of a signed table of harmonics -K ... K, whose flipped conjugate
        # transpose is the table again when H(t) is Hermitian; a missing
        # partner is a defect against a zero row.
        ks = np.array([term.harmonic for term in self.terms], dtype=int)
        top = int(np.abs(ks).max(initial=0))
        signed = np.zeros((2 * top + 1, n, n), dtype=complex)
        np.add.at(signed, ks + top, np.array([term.amplitude * term.matrix for term in self.terms],
                                             dtype=complex).reshape(-1, n, n))
        scale = max(1.0, np.abs(static).max(initial=0.0), np.abs(signed).max(initial=0.0))
        tol = _HERM_TOL * scale
        if hermiticity_defect(static) > tol:
            raise ValueError("static part is not Hermitian")
        defect = np.abs(signed - signed[::-1].conj().transpose(0, 2, 1)).max(axis=(1, 2))
        bad = defect[ks + top] > tol
        if bad.any():
            k = int(ks[np.argmax(bad)])
            raise ValueError(
                f"harmonic {k} lacks a conjugate-transpose partner at {-k}; H(t) would not be Hermitian")
        signed[top] += static
        object.__setattr__(self, "harmonics", signed[top:].copy())

    @property
    def dim(self):
        return self.static_part.shape[0]

    @property
    def period(self):
        return 2.0 * np.pi / self.omega

    def __call__(self, t):
        """Evaluate H(t): shape (n, n) for a scalar ``t``, (*t.shape, n, n)
        for an array of times.

        H(t) = B + B^dag with B = H_0 / 2 + sum_{k >= 1} H_k exp(1j*k*omega*t),
        so the result is exactly Hermitian.  B is one product of a table of
        the phases of harmonics 0 ... K with ``harmonics``, formed on the
        flattened times, so an array of times of any shape costs one
        product, not one call per time.  The phases are the powers of
        exp(1j*omega*t), a running product (:func:`~flime.qops._powers`)
        with one ``exp`` per time.  This is the pointwise path, which
        :func:`~flime.floquet.monodromy` uses on arrays of times;
        :meth:`on_grid` is the FFT path of the mode grid, with its own
        ``exp`` of each harmonic's phase.  The direct solver does not call
        it: it reads ``harmonics``.
        """
        size, n, _ = self.harmonics.shape
        t = np.asarray(t, dtype=float)
        phases = _powers(1.0, np.exp(1j * self.omega * t.ravel()), size)
        phases[:, 0] = 0.5
        half = np.dot(phases, self.harmonics.reshape(size, n * n)).reshape(*t.shape, n, n)
        return half + half.conj().swapaxes(-1, -2)

    def on_grid(self, n_samples, shift=0.0):
        """H(t_j + shift) at t_j = j T / n_samples, j < n_samples, shape (n_samples, n, n).

        One inverse FFT of the harmonic table, where e^{2 pi i k j / n_samples}
        is the phase of t_j: H_k exp(1j k omega shift) goes to bin k mod
        n_samples and its conjugate transpose, the harmonic -k, to bin -k mod
        n_samples, both before the FFT.  Harmonics with |k| >= n_samples / 2
        share a bin with lower ones and add there, so the values are exact for
        any n_samples.
        """
        size, n, _ = self.harmonics.shape
        rows = np.exp(1j * shift * self.omega * np.arange(size))[:, None, None] * self.harmonics
        bins = np.zeros((n_samples, n, n), dtype=complex)
        np.add.at(bins, np.arange(1 - size, size) % n_samples,
                  np.concatenate((rows[:0:-1].conj().swapaxes(-1, -2), rows)))
        return np.fft.ifft(bins, axis=0, norm="forward")


def build_driven_2ls_rwa(omega0, omega, rabi):
    """Two-level system driven at ``omega`` with counter-rotating terms dropped.

    Static part diag(-omega0/2, +omega0/2); the forward-rotating drive
    couples (rabi/2)|0><1| at harmonic +1 with its conjugate partner at -1.
    """
    rabi = complex(rabi)
    static = 0.5 * np.diag([-omega0, omega0]).astype(complex)
    terms = (
        HarmonicTerm(np.array([[0.0, 1.0], [0.0, 0.0]]), +1, 0.5 * rabi),
        HarmonicTerm(np.array([[0.0, 0.0], [1.0, 0.0]]), -1, 0.5 * rabi.conjugate()),
    )
    return PeriodicHamiltonian(omega, static, terms)


def build_driven_2ls_full(omega0, omega, rabi, rabi_counter):
    """Driven two-level system keeping the counter-rotating coupling.

    The harmonic +1 coefficient matrix is
    ``0.5 * [[0, rabi], [conj(rabi_counter), 0]]`` and harmonic -1 its
    conjugate transpose.  ``rabi_counter == rabi`` gives a pure cosine drive
    ``rabi * cos(omega t) * sigma_x`` for real ``rabi``.
    """
    rabi = complex(rabi)
    rabi_counter = complex(rabi_counter)
    static = 0.5 * np.diag([-omega0, omega0]).astype(complex)
    plus = 0.5 * np.array([[0.0, rabi], [rabi_counter.conjugate(), 0.0]])
    terms = (
        HarmonicTerm(plus, +1, 1.0),
        HarmonicTerm(plus.conj().T, -1, 1.0),
    )
    return PeriodicHamiltonian(omega, static, terms)


def build_bichromatic(delta_bar, beat, rabi1, rabi2):
    """Two-level system driven by two lasers, in the frame rotating at their
    mean frequency.

    ``delta_bar`` is the detuning of the transition from the mean laser
    frequency and ``beat`` the laser frequency difference; the base frequency
    of the result is ``|beat|/2``.
    """
    if beat == 0.0:
        raise ValueError("beat frequency must be nonzero")
    rabi1 = complex(rabi1)
    rabi2 = complex(rabi2)
    sgn = 1 if beat > 0 else -1
    static = 0.5 * delta_bar * np.diag([-1.0, 1.0]).astype(complex)
    h_plus = -0.5 * np.array([[0.0, rabi2], [rabi1.conjugate(), 0.0]])
    h_minus = -0.5 * np.array([[0.0, rabi1], [rabi2.conjugate(), 0.0]])
    terms = (
        HarmonicTerm(h_plus, +sgn, 1.0),
        HarmonicTerm(h_minus, -sgn, 1.0),
    )
    return PeriodicHamiltonian(abs(beat) / 2.0, static, terms)


def build_pulse_train(delta, period, sigma=None, n_harmonics=40, pulse_area=np.pi):
    """Two-level system driven by a periodic train of Gaussian pulses.

    The drive is ``0.5 * sigma_x * f(t)`` with ``f`` the truncated Fourier
    series of a Gaussian comb of standard deviation ``sigma`` (default
    ``period / 16``), scaled so each pulse carries rotation angle
    ``pulse_area``.  The coefficients are
    ``c_k = (pulse_area / period) * exp(-(k * omega * sigma)**2 / 2)``.
    """
    if period <= 0.0:
        raise ValueError("pulse period must be positive")
    if sigma is None:
        sigma = period / 16.0
    if sigma <= 0.0:
        raise ValueError("pulse width sigma must be positive")
    if n_harmonics < 1:
        raise ValueError("n_harmonics must be at least 1")
    omega = 2.0 * np.pi / period
    ks = np.arange(1, n_harmonics + 1)
    c0 = pulse_area / period
    ck = c0 * np.exp(-0.5 * (ks * omega * sigma) ** 2)
    if ck[-1] / c0 > 1e-3:
        warnings.warn(
            f"pulse train truncated at {n_harmonics} harmonics resolves the pulse poorly "
            f"(c_max/c_0 = {ck[-1] / c0:.2e}); increase n_harmonics or sigma",
            stacklevel=2)
    half_sx = 0.5 * np.asarray(sigma_x)
    static = 0.5 * np.diag([-delta, delta]).astype(complex) + c0 * half_sx
    terms = []
    for k, c in zip(ks, ck):
        terms.append(HarmonicTerm(half_sx, int(k), c))
        terms.append(HarmonicTerm(half_sx, -int(k), c))
    return PeriodicHamiltonian(omega, static, tuple(terms))


def build_rotating_frame_2ls(detuning, rabi, omega):
    """Time-independent rotating-frame counterpart of the monochromatic
    driven two-level system: ``0.5 * [[detuning, rabi], [conj(rabi), -detuning]]``.

    Used for emission spectra, where detunings are measured from the drive
    frequency.  ``omega`` only sets the bookkeeping period.
    """
    rabi = complex(rabi)
    static = 0.5 * np.array([[detuning, rabi], [rabi.conjugate(), -detuning]])
    return PeriodicHamiltonian(omega, static, ())

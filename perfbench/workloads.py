"""The four benchmark workloads: inputs from a seed, the timed pipeline, the
independent reference and the correctness gate.

Each workload is one pass over a fixed set of systems.  A pass runs
``setup`` (build H(t), ``compute_basis``, ``build_terms``) and then ``solve``
(the lab-frame result).  An operation is one system solve, so a pass counts
as ``len(systems)`` operations; each is checked against its own tolerance.

The program is called through module attributes (``floquet.compute_basis``,
``solver.evolve``, ...) so that the traced run's wrappers take effect.
"""

from dataclasses import dataclass

import numpy as np

from flime import analysis, floquet, hamiltonians, lindblad, solver
from flime.integrate import OdeTol
from flime.qops import pure_state_density, sigma_minus, unfold

REF_TOL = OdeTol(rtol=1e-11, atol=1e-13)
_EXC = np.diag([0.0, 1.0]).astype(complex)


class OperationFailed(RuntimeError):
    """A solve that returned, but whose result cannot be used (e.g. a NESS
    search that did not converge)."""


@dataclass(frozen=True)
class System:
    """One system solve: its label, physics inputs and gate tolerance."""

    label: str
    tol: float
    params: dict


def trace_distances(states, refs):
    """Half the singular-value sum of each difference, for stacked matrices."""
    diff = np.asarray(states) - np.asarray(refs)
    return 0.5 * np.linalg.svd(diff, compute_uv=False).sum(axis=-1)


def _random_pure_state(rng):
    theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
    return pure_state_density([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _spanning_states(n):
    """n^2 pure density matrices that span the n x n matrices."""
    eye = np.eye(n)
    kets = [eye[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            kets.append((eye[i] + eye[j]) / np.sqrt(2))
            kets.append((eye[i] + 1j * eye[j]) / np.sqrt(2))
    return [pure_state_density(k) for k in kets]


def periodic_reference(spec, rho0, times):
    """Lab-frame reference states from one period of ``evolve_direct``.

    The lab-frame generator has period T, so Phi(jT + tau) = Phi(tau) Phi(T)^j
    holds exactly.  ``evolve_direct`` at REF_TOL propagates n^2 spanning
    density matrices over one period, sampled at the output phases; the
    states at later periods follow by powers of the period map.  Output
    times must be a uniform grid whose step divides the period.
    """
    n = spec.dim
    period = spec.hamiltonian.period
    per_period = int(round(period / (times[1] - times[0])))
    if not np.allclose(times, np.arange(times.size) * period / per_period, rtol=0, atol=1e-9 * period):
        raise ValueError("periodic_reference needs a uniform grid dividing the period")
    phases = np.arange(1, per_period + 1) * (period / per_period)
    basis = _spanning_states(n)
    images = np.empty((per_period, n * n, n * n), dtype=complex)
    for col, rho in enumerate(basis):
        res = lindblad.evolve_direct(spec, rho, phases, tol=REF_TOL)
        images[:, :, col] = res.states.transpose(0, 2, 1).reshape(per_period, n * n)
    maps = images @ np.linalg.inv(np.stack([unfold(b) for b in basis], axis=1))
    v = unfold(rho0)
    out = [v]
    while len(out) < times.size:
        out.extend(maps @ v)
        v = maps[-1] @ v
    vecs = np.array(out[:times.size])
    return vecs.reshape(-1, n, n).transpose(0, 2, 1)


def _identity(h):
    return h


class Workload:
    """A fixed set of systems drawn from a seed.

    Subclasses set ``name`` and ``why`` and implement ``setup`` (H(t), basis
    and rate terms for every system), ``solve`` (one lab-frame result per
    system), ``reference`` and ``errors``.  ``small`` shrinks every size for
    the benchmark's own tests.
    """

    name = ""
    why = ""

    def __init__(self, seed, small=False):
        self.seed = int(seed)
        self.small = bool(small)
        self.systems = self._draw(np.random.default_rng(self.seed))

    def _draw(self, rng):
        raise NotImplementedError

    def setup(self, wrap=_identity):
        raise NotImplementedError

    def solve(self, prepared):
        raise NotImplementedError

    def reference(self):
        raise NotImplementedError

    def errors(self, outputs, refs):
        """Distance of each system's output from its reference."""
        return [float(np.max(trace_distances(out, ref))) for out, ref in zip(outputs, refs)]


class Transient2LS(Workload):
    name = "transient-2ls"
    why = ("strong-drive 2LS over 1000 periods: the paper's headline case, "
           "almost all integrate and RHS, set-up under 1 %")

    def _draw(self, rng):
        periods = 10 if self.small else 1000
        return [System("2ls", 1e-7, dict(rho0=_random_pure_state(rng), periods=periods))]

    @staticmethod
    def _model():
        omega = 2.0 * np.pi
        h = hamiltonians.build_driven_2ls_full(omega, omega, np.pi, np.pi)
        return h, solver.CollapseChannel(sigma_minus, 0.05)

    def _times(self, h):
        periods = self.systems[0].params["periods"]
        return np.linspace(0.0, periods * h.period, periods + 1)

    def setup(self, wrap=_identity):
        h, ch = self._model()
        basis = floquet.compute_basis(wrap(h))
        rates = solver.build_terms(basis, [ch], k_max=14, secular_cutoff=np.inf, coeff_floor=0.0)
        return [(h, rates, basis)]

    def solve(self, prepared):
        h, rates, basis = prepared[0]
        res = solver.evolve(rates, basis, self.systems[0].params["rho0"], self._times(h),
                            tol=OdeTol(rtol=1e-8, atol=1e-10))
        return [res.states]

    def reference(self):
        h, ch = self._model()
        spec = lindblad.LiouvillianSpec(h, (ch,))
        return [periodic_reference(spec, self.systems[0].params["rho0"], self._times(h))]


class SweepPulse(Workload):
    name = "sweep-pulse"
    why = ("four pulse trains on a 1024-sample grid at the secular cutoff: "
           "basis building dominates, the RHS is static")

    def _draw(self, rng):
        count = 2 if self.small else 4
        return [System(f"pulse{i}", 0.1, dict(detuning=float(d)))
                for i, d in enumerate(rng.uniform(-1.0, 1.0, count))]

    def _periods(self):
        return 5 if self.small else 100

    def _times(self):
        return np.linspace(0.0, float(self._periods()), 10 * self._periods() + 1)

    @staticmethod
    def _model(system):
        h = hamiltonians.build_pulse_train(system.params["detuning"], 1.0, n_harmonics=40)
        return h, solver.CollapseChannel(sigma_minus, 0.05)

    def setup(self, wrap=_identity):
        n_samples = 256 if self.small else 1024
        prepared = []
        for system in self.systems:
            h, ch = self._model(system)
            basis = floquet.compute_basis(wrap(h), n_samples=n_samples)
            prepared.append((solver.build_terms(basis, [ch], k_max=14, secular_cutoff=0.0,
                                                coeff_floor=0.0), basis))
        return prepared

    def solve(self, prepared):
        rho0 = pure_state_density([1.0, 0.0])
        return [solver.evolve(rates, basis, rho0, self._times()).states
                for rates, basis in prepared]

    def reference(self):
        rho0 = pure_state_density([1.0, 0.0])
        refs = []
        for system in self.systems:
            h, ch = self._model(system)
            refs.append(periodic_reference(lindblad.LiouvillianSpec(h, (ch,)), rho0, self._times()))
        return refs


def _random_hermitian(rng, n, scale):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (m + m.conj().T) / np.sqrt(n)


def _random_complex_matrix(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * m / np.linalg.norm(m, 2)


def _random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


class Multilevel(Workload):
    name = "multilevel"
    why = ("random single-harmonic n=4 and n=8 systems: the only heavy "
           "build_terms, covering the dense, factored and filtered stores")

    # The systems are drawn once from a fixed seed and --seed draws only the
    # initial states: step counts differ several-fold between random
    # systems, which would swamp any change in wall_s between seeds.
    SYSTEM_SEED = 20240811

    def _draw(self, rng):
        # Same recipe as random_single_harmonic_system in tests/conftest.py.
        shapes = [(2, np.inf), (3, np.inf), (3, 10.0)] if self.small else \
            [(4, np.inf), (8, np.inf), (8, 10.0)]
        sys_rng = np.random.default_rng(self.SYSTEM_SEED)
        systems = []
        for n, cutoff in shapes:
            omega = 2.0 * np.pi * sys_rng.uniform(0.5, 1.5)
            static = _random_hermitian(sys_rng, n, 0.6 * omega)
            drive = _random_complex_matrix(sys_rng, n, 0.35 * omega)
            op = _random_complex_matrix(sys_rng, n)
            rate = sys_rng.uniform(0.05, 0.3)
            tol = 1e-7 if np.isinf(cutoff) else 0.2
            systems.append(System(f"n{n}-cutoff-{cutoff:g}", tol, dict(
                omega=omega, static=static, drive=drive, op=op, rate=rate, cutoff=cutoff,
                rho0=_random_density(rng, n))))
        return systems

    @staticmethod
    def _model(p):
        h = hamiltonians.PeriodicHamiltonian(p["omega"], p["static"], (
            hamiltonians.HarmonicTerm(p["drive"], +1, 1.0),
            hamiltonians.HarmonicTerm(p["drive"].conj().T, -1, 1.0)))
        return h, solver.CollapseChannel(p["op"], p["rate"])

    def _times(self, h):
        periods = 2 if self.small else 20
        return np.linspace(0.0, periods * h.period, 10 * periods + 1)

    def setup(self, wrap=_identity):
        prepared = []
        for system in self.systems:
            h, ch = self._model(system.params)
            basis = floquet.compute_basis(wrap(h))
            rates = solver.build_terms(basis, [ch], k_max=10,
                                       secular_cutoff=system.params["cutoff"], coeff_floor=0.0)
            prepared.append((h, rates, basis))
        return prepared

    def solve(self, prepared):
        return [solver.evolve(rates, basis, system.params["rho0"], self._times(h)).states
                for system, (h, rates, basis) in zip(self.systems, prepared)]

    def reference(self):
        refs = []
        for system in self.systems:
            h, ch = self._model(system.params)
            spec = lindblad.LiouvillianSpec(h, (ch,))
            refs.append(lindblad.evolve_direct(spec, system.params["rho0"], self._times(h),
                                               tol=REF_TOL).states)
        return refs


class NessSpectrum(Workload):
    name = "ness-spectrum"
    why = ("bichromatic NESS, g1 and spectrum, the flime spectrum pipeline: "
           "the only workload through analysis")

    _TOL = OdeTol(rtol=1e-9, atol=1e-12)

    def _draw(self, rng):
        return [System("bichromatic", 1e-6, dict(rho0=_random_pure_state(rng)))]

    @staticmethod
    def _model():
        h = hamiltonians.build_bichromatic(10.0, -20.0, 20.0, 6.0)
        return h, solver.CollapseChannel(sigma_minus, 1.0)

    def _taus(self):
        return np.linspace(0.0, 60.0, 256 if self.small else 2048)

    def _pipeline(self, propagator, g1_system, conv_tol, tol):
        ness = analysis.evolve_to_ness(propagator, self.systems[0].params["rho0"], _EXC,
                                       conv_tol=conv_tol, samples_per_period=16)
        if not ness.converged:
            raise OperationFailed(f"NESS not converged after {ness.periods_to_converge} periods "
                                  f"(residual {ness.residual:.2e})")
        taus = self._taus()
        g1 = analysis.correlation_g1(g1_system, ness.cycle_states[0], sigma_minus, taus, tol=tol)
        return analysis.spectrum(g1, taus).intensities

    def setup(self, wrap=_identity):
        h, ch = self._model()
        basis = floquet.compute_basis(wrap(h))
        rates = solver.build_terms(basis, [ch], k_max=14, secular_cutoff=np.inf, coeff_floor=0.0)
        return [(rates, basis)]

    def solve(self, prepared):
        rates, basis = prepared[0]
        propagator = analysis.FlimePropagator(rates, basis, self._TOL)
        return [self._pipeline(propagator, (rates, basis), 1e-6 if self.small else 1e-9, self._TOL)]

    def reference(self):
        h, ch = self._model()
        spec = lindblad.LiouvillianSpec(h, (ch,))
        propagator = analysis.ReferencePropagator(spec, REF_TOL)
        return [self._pipeline(propagator, spec, 1e-8 if self.small else 1e-11, REF_TOL)]

    def errors(self, outputs, refs):
        return [float(np.max(np.abs(out - ref)) / np.max(ref)) for out, ref in zip(outputs, refs)]


WORKLOADS = {w.name: w for w in (Transient2LS, SweepPulse, Multilevel, NessSpectrum)}

"""Rate-matrix construction and evolution for periodically driven open systems.

The dissipator is decomposed over Floquet-basis index tuples
``(alpha, beta, k, alpha', beta', k')``.  Each tuple contributes a
time-independent superoperator oscillating at

    delta = (eps_alpha - eps_beta) - (eps_alpha' - eps_beta') + (k - k') * omega,

with complex weight ``rate * S(alpha, beta, k) * conj(S(alpha', beta', k'))``.
Tuples with ``delta == 0`` form the static (secular) part and are always
kept; oscillating tuples are kept when the magnitude of their negligibility
factor, ``|delta| / |S * S'|``, does not exceed ``secular_cutoff``.  Kept
tuples are aggregated by distinct ``delta`` so the right-hand side costs one
matrix-vector product per distinct frequency.

States are propagated in the Floquet interaction picture (time-dependent
basis of Floquet states), where the coherent evolution is carried entirely
by the basis: the generator is the pure dissipator, and lab-frame states are
reconstructed as ``W(t) rho W(t)^dag`` with ``W(t)`` the Floquet state
matrix.  This makes the closed-system limit exact by construction.  Rotated
by the quasienergy phases, the generator is exactly T-periodic, so long
evolutions integrate one period and then jump whole periods.
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .floquet import fourier_coefficients
from .integrate import OdeTol, integrate_adaptive
from .qops import check_density_matrix, hermiticity_defect, sandwich_superop, unfold

__all__ = [
    "CollapseChannel",
    "RateTerm",
    "RateTermSet",
    "Diagnostics",
    "EvolutionResult",
    "enumerate_terms",
    "build_terms",
    "assemble",
    "dissipator_bruteforce",
    "evolve",
]

_SECULAR_REL_TOL = 1e-12
_GROUP_REL_TOL = 1e-12
# Output times whose phases t mod T differ by at most this many ulps of the
# largest t / T share one phase of the one-period map.
_PHASE_ULPS = 64
# Largest total element count for densely stored frequency groups; beyond
# this only the complete (no filtering) factored evaluation is available.
_DENSE_LIMIT = 2_000_000


@dataclass(frozen=True, eq=False)
class CollapseChannel:
    """A lab-frame system operator and its white-noise decay rate."""

    operator: np.ndarray
    rate: float

    def __post_init__(self):
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError("collapse operator must be a square matrix")
        if self.rate < 0.0:
            raise ValueError("collapse rate must be nonnegative")
        object.__setattr__(self, "operator", op)
        object.__setattr__(self, "rate", float(self.rate))


@dataclass(frozen=True, eq=False)
class RateTerm:
    """One index tuple of the decomposed dissipator."""

    alpha: int
    beta: int
    k: int
    alpha2: int
    beta2: int
    k2: int
    delta: float
    weight: complex
    negligibility: float

    def superop(self, dim):
        """The bracketed Lindblad sandwich A . A'^dag - (1/2){A'^dag A, .}
        as a superoperator (unit coefficients; ``weight`` not included)."""
        a = np.zeros((dim, dim), dtype=complex)
        a[self.alpha, self.beta] = 1.0
        a2 = np.zeros((dim, dim), dtype=complex)
        a2[self.alpha2, self.beta2] = 1.0
        eye = np.eye(dim, dtype=complex)
        a2d_a = a2.conj().T @ a
        return (sandwich_superop(a, a2.conj().T)
                - 0.5 * sandwich_superop(a2d_a, eye)
                - 0.5 * sandwich_superop(eye, a2d_a))


@dataclass(frozen=True, eq=False)
class RateTermSet:
    """Decomposed rate superoperator: static part plus frequency groups."""

    dim: int
    omega: float
    channels: tuple
    k_max: int
    secular_cutoff: float
    coeff_floor: float
    static_part: np.ndarray
    deltas: np.ndarray
    candidate_terms: int
    kept_static: int
    kept_oscillating: int
    dropped_count: int
    _dense: np.ndarray | None = field(default=None, repr=False)
    _tuples: tuple | None = field(default=None, repr=False)
    _factored: tuple | None = field(default=None, repr=False)

    @property
    def n_frequency_groups(self):
        return self.deltas.size

    @property
    def is_complete(self):
        """True when no term was filtered (cutoff = inf, floor = 0)."""
        return np.isinf(self.secular_cutoff) and self.coeff_floor == 0.0

    def oscillating_terms(self):
        """Yield ``(delta, superoperator)`` for each distinct frequency."""
        if self._dense is not None:
            for delta, sup in zip(self.deltas, self._dense):
                yield float(delta), sup
        elif self._tuples is not None:
            gid, a1, b1, a2, b2, w = self._tuples
            nn = self.dim * self.dim
            for g, delta in enumerate(self.deltas):
                sel = gid == g
                sup = np.zeros((nn, nn), dtype=complex)
                _accumulate(sup, a1[sel], b1[sel], a2[sel], b2[sel], w[sel], self.dim)
                yield float(delta), sup


def _accumulate(superop, a1, b1, a2, b2, w, n, gid=None):
    """Scatter tuple contributions into an aggregated superoperator.

    Each tuple adds ``w`` at the sandwich position and, when ``a1 == a2``,
    the two anticommutator blocks with weight ``-w/2``.  ``gid`` selects the
    leading group axis when ``superop`` is a stack.
    """
    rows = a2 * n + a1
    cols = b2 * n + b1
    if gid is None:
        np.add.at(superop, (rows, cols), w)
    else:
        np.add.at(superop, (gid, rows, cols), w)
    mask = a1 == a2
    if not np.any(mask):
        return
    b1m, b2m, wm = b1[mask], b2[mask], -0.5 * w[mask]
    L = wm.size
    i_rep = np.repeat(np.arange(n), L)
    b1t, b2t, wt = np.tile(b1m, n), np.tile(b2m, n), np.tile(wm, n)
    rows_l = i_rep * n + b2t
    cols_l = i_rep * n + b1t
    rows_r = b1t * n + i_rep
    cols_r = b2t * n + i_rep
    if gid is None:
        np.add.at(superop, (rows_l, cols_l), wt)
        np.add.at(superop, (rows_r, cols_r), wt)
    else:
        gt = np.tile(gid[mask], n)
        np.add.at(superop, (gt, rows_l, cols_l), wt)
        np.add.at(superop, (gt, rows_r, cols_r), wt)


def _tuple_table(basis, channel, k_max):
    """Per-tuple index arrays, coefficients and rotation frequencies."""
    four = fourier_coefficients(basis, channel.operator, k_max)
    n = basis.dim
    a_idx, b_idx, k_idx = (ix.ravel() for ix in np.indices((n, n, 2 * k_max + 1)))
    ks = k_idx - k_max
    coeff = four.coeffs.reshape(-1)
    eps = basis.quasienergies
    rot_freq = eps[a_idx] - eps[b_idx] + ks * basis.omega
    return four, a_idx, b_idx, ks, coeff, rot_freq


def enumerate_terms(basis, channel, k_max, coeff_floor=0.0):
    """Yield every :class:`RateTerm` with coefficient product above the floor.

    Enumerates all index tuples of one channel without secular filtering;
    intended for diagnostics and tests (quadratic in the tuple count).
    """
    _, a_idx, b_idx, ks, coeff, rot_freq = _tuple_table(basis, channel, k_max)
    absc = np.abs(coeff)
    m = coeff.size
    for i in range(m):
        for j in range(m):
            prod = absc[i] * absc[j]
            if prod < coeff_floor:
                continue
            delta = rot_freq[i] - rot_freq[j]
            yield RateTerm(
                alpha=int(a_idx[i]), beta=int(b_idx[i]), k=int(ks[i]),
                alpha2=int(a_idx[j]), beta2=int(b_idx[j]), k2=int(ks[j]),
                delta=float(delta),
                weight=channel.rate * coeff[i] * np.conj(coeff[j]),
                negligibility=float(abs(delta) / prod) if prod > 0 else np.inf,
            )


def _cluster(deltas, omega):
    """Group frequencies equal within 1e-12 relative; returns (gid, reps)."""
    if deltas.size == 0:
        return np.zeros(0, dtype=int), np.zeros(0)
    order = np.argsort(deltas)
    sorted_d = deltas[order]
    gap_tol = _GROUP_REL_TOL * np.maximum(omega, np.abs(sorted_d[:-1]))
    new_group = np.diff(sorted_d) > gap_tol
    gid_sorted = np.concatenate(([0], np.cumsum(new_group)))
    gid = np.empty(deltas.size, dtype=int)
    gid[order] = gid_sorted
    n_groups = int(gid_sorted[-1]) + 1
    reps = np.zeros(n_groups)
    counts = np.zeros(n_groups)
    np.add.at(reps, gid, deltas)
    np.add.at(counts, gid, 1.0)
    return gid, reps / counts


def build_terms(basis, channels, k_max=20, secular_cutoff=0.0, coeff_floor=1e-12):
    """Build the decomposed rate superoperator for a set of collapse channels.

    Filtering order per tuple: coefficient-product floor first, then
    unconditional acceptance of ``delta == 0``, then the negligibility test
    ``|delta| / |S * S'| <= secular_cutoff``.  Channels combine additively.
    """
    if basis.dim < 1:
        raise ValueError("empty Floquet basis")
    if coeff_floor < 0.0:
        raise ValueError("coeff_floor must be nonnegative")
    if secular_cutoff < 0.0:
        raise ValueError("secular_cutoff must be nonnegative")
    channels = tuple(channels)
    for ch in channels:
        if ch.operator.shape != (basis.dim, basis.dim):
            raise ValueError(
                f"channel operator shape {ch.operator.shape} does not match basis dim {basis.dim}")

    n = basis.dim
    nn = n * n
    omega = basis.omega
    sec_tol = _SECULAR_REL_TOL * omega
    static = np.zeros((nn, nn), dtype=complex)
    osc_chunks = []
    factored = []
    candidates = kept_static = kept_osc = dropped = 0

    for ch in channels:
        four, a_idx, b_idx, _, coeff, rot_freq = _tuple_table(basis, ch, k_max)
        factored.append((ch.rate, four.coeffs))
        absc = np.abs(coeff)
        prod = absc[:, None] * absc[None, :]
        keep_floor = prod >= coeff_floor
        delta = rot_freq[:, None] - rot_freq[None, :]
        secular = np.abs(delta) <= sec_tol
        with np.errstate(divide="ignore", invalid="ignore"):
            neg = np.abs(delta) / prod
        neg[~np.isfinite(neg)] = np.inf
        keep = keep_floor & (secular | (neg <= secular_cutoff))
        w = ch.rate * (coeff[:, None] * coeff.conj()[None, :])

        candidates += int(keep_floor.sum())
        dropped += int((keep_floor & ~keep).sum())

        i1, i2 = np.nonzero(keep & secular)
        kept_static += i1.size
        _accumulate(static, a_idx[i1], b_idx[i1], a_idx[i2], b_idx[i2], w[i1, i2], n)

        j1, j2 = np.nonzero(keep & ~secular)
        kept_osc += j1.size
        if j1.size:
            osc_chunks.append((delta[j1, j2], w[j1, j2],
                               a_idx[j1], b_idx[j1], a_idx[j2], b_idx[j2]))

    if osc_chunks:
        all_delta = np.concatenate([c[0] for c in osc_chunks])
        all_w = np.concatenate([c[1] for c in osc_chunks])
        all_a1 = np.concatenate([c[2] for c in osc_chunks])
        all_b1 = np.concatenate([c[3] for c in osc_chunks])
        all_a2 = np.concatenate([c[4] for c in osc_chunks])
        all_b2 = np.concatenate([c[5] for c in osc_chunks])
        gid, reps = _cluster(all_delta, omega)
    else:
        gid = np.zeros(0, dtype=int)
        reps = np.zeros(0)
        all_w = np.zeros(0, dtype=complex)
        all_a1 = all_b1 = all_a2 = all_b2 = np.zeros(0, dtype=int)

    complete = bool(np.isinf(secular_cutoff)) and coeff_floor == 0.0
    dense = None
    tuples = None
    if reps.size * nn * nn <= _DENSE_LIMIT:
        dense = np.zeros((reps.size, nn, nn), dtype=complex)
        if reps.size:
            _accumulate(dense, all_a1, all_b1, all_a2, all_b2, all_w, n, gid=gid)
    else:
        tuples = (gid, all_a1, all_b1, all_a2, all_b2, all_w)
        if not complete:
            raise ValueError(
                f"{reps.size} frequency groups exceed the dense storage budget; "
                "raise coeff_floor, lower secular_cutoff or reduce k_max")

    return RateTermSet(
        dim=n, omega=omega, channels=channels, k_max=int(k_max),
        secular_cutoff=float(secular_cutoff), coeff_floor=float(coeff_floor),
        static_part=static, deltas=reps,
        candidate_terms=candidates, kept_static=kept_static,
        kept_oscillating=kept_osc, dropped_count=dropped,
        _dense=dense, _tuples=tuples,
        _factored=tuple(factored) if complete else None,
    )


def assemble(rates, t):
    """Materialize the rate superoperator R(t) = static + sum exp(1j*d*t) M_d."""
    r = rates.static_part.copy()
    if rates._dense is not None and rates.deltas.size:
        phases = np.exp(1j * rates.deltas * t)
        r += np.tensordot(phases, rates._dense, axes=(0, 0))
    else:
        for delta, sup in rates.oscillating_terms():
            r += np.exp(1j * delta * t) * sup
    return r


def dissipator_bruteforce(basis, channels, rho, t, k_max=20):
    """Direct tuple-by-tuple dissipator evaluation (test oracle).

    Sums ``rate * (S1 rho S2^dag - (1/2){S2^dag S1, rho})`` over all index
    tuples with the time-dependent phases attached to the operators, with no
    filtering.  Quadratic in the tuple count; intended for small systems.
    """
    rho = np.asarray(rho, dtype=complex)
    n = basis.dim
    out = np.zeros((n, n), dtype=complex)
    for ch in channels:
        _, a_idx, b_idx, _, coeff, rot_freq = _tuple_table(basis, ch, k_max)
        ops = []
        for a, b, c, f in zip(a_idx, b_idx, coeff, rot_freq):
            if c == 0.0:
                continue
            op = np.zeros((n, n), dtype=complex)
            op[a, b] = c * np.exp(1j * f * t)
            ops.append(op)
        for s1 in ops:
            for s2 in ops:
                s2d = s2.conj().T
                s2d_s1 = s2d @ s1
                out += ch.rate * (s1 @ rho @ s2d - 0.5 * (s2d_s1 @ rho + rho @ s2d_s1))
    return out


def _make_rhs(rates, basis):
    """Right-hand side closure for dv/dt = R(t) v.

    ``v`` is a flattened ``(n^2, B)`` block, so one call advances B
    supervectors at once.
    """
    static = rates.static_part
    n = rates.dim
    nn = n * n
    if rates._dense is not None and rates.deltas.size:
        deltas = rates.deltas
        groups = rates._dense.reshape(deltas.size, nn * nn)

        def rhs(t, v):
            r = static + (np.exp(1j * deltas * t) @ groups).reshape(nn, nn)
            return (r @ v.reshape(nn, -1)).ravel()

    elif rates._factored is not None:
        # Complete set: the tuple sum factorizes into single Lindblad
        # operators S(t) per channel, so the static part is not added again.
        eps = basis.quasienergies
        ks = np.arange(-rates.k_max, rates.k_max + 1)
        omega = rates.omega
        items = rates._factored

        def rhs(t, v):
            rho = v.reshape(n, n, -1).transpose(2, 1, 0)
            kph = np.exp(1j * ks * omega * t)
            eph = np.exp(1j * eps * t)
            out = np.zeros_like(rho)
            for rate, coeffs in items:
                s = (coeffs @ kph) * np.outer(eph, eph.conj())
                sds = s.conj().T @ s
                out += rate * (s @ rho @ s.conj().T - 0.5 * (sds @ rho + rho @ sds))
            return out.transpose(2, 1, 0).ravel()

    else:

        def rhs(t, v):
            return (static @ v.reshape(nn, -1)).ravel()

    return rhs


def _split_phases(times, period):
    """Split each time into whole periods and a phase: t = j*T + phases[index].

    Phases closer than a few ulps of the largest time are one phase, and a
    phase that close below T is phase 0 of the next period, so a grid whose
    step divides the period yields exactly as many phases as steps per period.
    """
    x = np.asarray(times, dtype=float) / period
    tol = _PHASE_ULPS * np.finfo(float).eps * max(1.0, float(np.max(x)))
    periods = np.floor(x)
    frac = x - periods
    wrap = frac >= 1.0 - tol
    periods[wrap] += 1.0
    frac[wrap] = 0.0
    order = np.argsort(frac, kind="stable")
    new_phase = np.diff(frac[order]) > tol
    index = np.empty(x.size, dtype=int)
    index[order] = np.concatenate(([0], np.cumsum(new_phase)))
    phases = frac[order][np.concatenate(([True], new_phase))] * period
    return periods.astype(int), phases, index


def _propagate(rates, basis, block, times, tol):
    """Propagate a block of Floquet-picture supervectors by the one-period map.

    In the rotated frame rho~[a, b] = exp(-1j*(eps_a - eps_b)*t) rho_F[a, b]
    every kept rate tuple oscillates at (k - k') * omega only, so the frame's
    propagator is T-periodic: Phi~(j*T + tau) = Phi~(tau) Phi~(T)^j.  One
    period of the n^2 x n^2 identity is integrated, stopping at each distinct
    phase tau; later periods follow by powers of P = Phi~(T).  When every time
    lies in the first period the block itself is integrated instead.

    ``block`` has shape (n^2, B) and holds supervectors at t = 0, where both
    frames agree.  Returns ``(lab, images, stats)``: the lab-frame matrices
    M(tau) rho~ M(tau)^dag of each column, shape (len(times), n, n, B), the
    rotated-frame supervectors, shape (len(times), n^2, B), and the
    integrator statistics of the one-period integration.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("output times must be nonnegative")
    period = basis.period
    n = basis.dim
    nn = n * n
    periods, phases, index = _split_phases(times, period)
    jumps = periods.max() > 0
    y0 = np.eye(nn, dtype=complex) if jumps else block
    t_out = np.append(phases, period) if jumps else phases
    max_step = _max_step_abs(tol, period, rates.deltas.size > 0)
    flat, stats = integrate_adaptive(_make_rhs(rates, basis), 0.0, y0.ravel(), t_out,
                                     rtol=tol.rtol, atol=tol.atol, max_step=max_step)
    eps = basis.quasienergies
    gaps = np.subtract.outer(eps, eps).ravel(order="F")
    maps = flat.reshape(t_out.size, nn, -1) * np.exp(-1j * np.outer(t_out, gaps))[:, :, None]

    if jumps:
        pmap = maps[-1]
        needed, slot = np.unique(periods, return_inverse=True)
        powers = np.empty((needed.size,) + block.shape, dtype=complex)
        w, j = block, 0
        for k, target in enumerate(needed):
            for _ in range(target - j):
                w = pmap @ w
            j = target
            powers[k] = w
        images = np.empty((times.size,) + block.shape, dtype=complex)
        by_phase = np.split(np.argsort(index, kind="stable"), np.cumsum(np.bincount(index))[:-1])
        for p, sel in enumerate(by_phase):
            images[sel] = maps[p] @ powers[slot[sel]]
    else:
        images = maps[index]

    modes = basis.modes_at_many(phases)[index]
    rho = images.reshape(times.size, n, n, -1)
    lab = np.einsum("tai,tmic,tdm->tadc", modes, rho, modes.conj(), optimize=True)
    return lab, images, stats


@dataclass(eq=False)
class Diagnostics:
    term_count_static: int = 0
    term_count_oscillating: int = 0
    n_frequency_groups: int = 0
    dropped_terms: int = 0
    candidate_terms: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0
    rhs_evals: int = 0
    solution_time_s: float = 0.0
    total_time_s: float = 0.0
    max_trace_defect: float = 0.0
    max_hermiticity_defect: float = 0.0

    def as_dict(self):
        return dict(vars(self))


@dataclass(eq=False)
class EvolutionResult:
    """Lab-frame states at the requested times plus run diagnostics."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: Diagnostics
    floquet_states: np.ndarray | None = None

    def expectation(self, operator):
        """Tr(operator @ rho(t)) for every output time."""
        return np.einsum("ij,tji->t", np.asarray(operator, dtype=complex), self.states)


def _max_step_abs(tol, period, has_oscillating):
    if tol.max_step is not None:
        return tol.max_step * period
    # Default cap of one eighth of a period when oscillating terms exist, so
    # no frequency group is stepped over entirely.
    return period / 8.0 if has_oscillating else np.inf


def evolve(rates, basis, rho0, times, tol=None, store_floquet=False):
    """Propagate a lab-frame density matrix under the decomposed rate matrix.

    ``rho0`` is the state at t = 0; it is rotated into the Floquet mode
    basis and propagated by the one-period map (see :func:`_propagate`) to
    ``times`` (strictly increasing, nonnegative), and lab-frame states are
    reconstructed with the Floquet mode matrix.  The step and RHS counts in
    the diagnostics are those of the one-period integration.
    """
    t_start = _time.perf_counter()
    if tol is None:
        tol = OdeTol()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("output times must be strictly increasing")
    if times[0] < 0.0:
        raise ValueError("output times must be nonnegative")
    rho0 = check_density_matrix(rho0)
    if rho0.shape != (basis.dim, basis.dim):
        raise ValueError(f"state dim {rho0.shape[0]} does not match basis dim {basis.dim}")

    v0 = unfold(basis.modes0.conj().T @ rho0 @ basis.modes0)
    t_solve = _time.perf_counter()
    lab, images, stats = _propagate(rates, basis, v0[:, None], times, tol)
    solution_time = _time.perf_counter() - t_solve

    states = lab[..., 0]
    rho_f = None
    if store_floquet:
        n = basis.dim
        eps = basis.quasienergies
        rho_f = (images[:, :, 0].reshape(-1, n, n).transpose(0, 2, 1)
                 * np.exp(1j * times[:, None, None] * np.subtract.outer(eps, eps)))
    traces = np.einsum("tii->t", states)
    diag = Diagnostics(
        term_count_static=rates.kept_static,
        term_count_oscillating=rates.kept_oscillating,
        n_frequency_groups=rates.n_frequency_groups,
        dropped_terms=rates.dropped_count,
        candidate_terms=rates.candidate_terms,
        steps_accepted=stats.steps_accepted,
        steps_rejected=stats.steps_rejected,
        rhs_evals=stats.rhs_evals,
        solution_time_s=solution_time,
        total_time_s=0.0,
        max_trace_defect=float(np.max(np.abs(traces - 1.0))),
        max_hermiticity_defect=hermiticity_defect(states),
    )
    result = EvolutionResult(times=times, states=states, diagnostics=diag, floquet_states=rho_f)
    diag.total_time_s = _time.perf_counter() - t_start
    return result

"""Rate-matrix construction and evolution for periodically driven open systems.

The dissipator is decomposed over Floquet-basis index tuples
``(alpha, beta, k, alpha', beta', k')``.  Each tuple contributes a
time-independent superoperator oscillating at

    delta = (eps_alpha - eps_beta) - (eps_alpha' - eps_beta') + (k - k') * omega,

with complex weight ``rate * S(alpha, beta, k) * conj(S(alpha', beta', k'))``.
Tuples with ``delta == 0`` form the static (secular) part and are always
kept; oscillating tuples are kept when the magnitude of their negligibility
factor, ``|delta| / |S * S'|``, does not exceed ``secular_cutoff``.

Whatever the cutoff, the kept tuples live in one store: in the frame rotated
by the quasienergy gaps every tuple oscillates at (k - k') * omega only, so
the rate superoperator is a stack of 4 k_max + 1 rotated-frame harmonics (see
:class:`RateTermSet`).  Evaluating it costs one sum over the harmonics and
one elementwise phase, independent of how many distinct frequencies delta
the kept tuples have; that count, ``n_frequency_groups``, is reported for
information only.

States are propagated in the Floquet interaction picture (time-dependent
basis of Floquet states), where the coherent evolution is carried entirely
by the basis: the generator is the pure dissipator, and lab-frame states are
reconstructed as ``W(t) rho W(t)^dag`` with ``W(t)`` the Floquet state
matrix.  This makes the closed-system limit exact by construction.  Rotated
by the quasienergy phases, the generator is exactly T-periodic, so long
evolutions integrate one period and then jump whole periods.  The integrator
lands exactly on each of its stops; when the outputs have more distinct
phases than a Chebyshev grid needs, it stops at the grid's nodes only and the
phases are interpolated from those exact samples, with the Chebyshev tail
checked against the tolerance.  The direct solver (``lindblad``) runs its
lab-frame generator through the same one-period map (:class:`_Generator`).
"""

import time as _time
from dataclasses import dataclass, field

import numpy as np

from .floquet import fourier_coefficients
from .integrate import IntegratorStats, OdeTol, integrate_adaptive
from .qops import check_density_matrix, hermiticity_defect, unfold

__all__ = [
    "CollapseChannel",
    "RateTermSet",
    "Diagnostics",
    "EvolutionResult",
    "build_terms",
    "assemble",
    "evolve",
]

_SECULAR_REL_TOL = 1e-12
_GROUP_REL_TOL = 1e-12
# Output times whose phases t mod T differ by at most this many ulps of the
# largest t / T share one phase of the one-period map.
_PHASE_ULPS = 64
# Outputs with more distinct stops than this are interpolated from samples at
# this many Chebyshev-Lobatto nodes, raised to 2N - 1 while the tail is too large.
_CHEB_NODES = 65
# Candidate pairs of a filtered set are screened this many at a time, which
# bounds the working memory of build_terms independently of the pair count.
_PAIR_BLOCK = 1 << 15


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
class RateTermSet:
    """Decomposed rate superoperator, stored as rotated-frame harmonics.

    Supervector index p = (a, a') carries the quasienergy gap
    ``gaps[p] = eps_a - eps_a'``.  A kept tuple adds to harmonic
    m = k - k' at the sandwich position (p, q) = ((alpha, alpha'),
    (beta, beta')), where it oscillates at m * omega + gaps[p] - gaps[q].
    With ``harmonics[m + 2 * k_max]`` the superoperator R~_m, the
    Floquet-picture rate matrix is therefore

        R(t)[p, q] = exp(1j*(gaps[p] - gaps[q])*t) * sum_m R~_m[p, q] exp(1j*m*omega*t).

    This one store serves complete, filtered and static sets alike, and
    evaluating R(t) costs the same however many distinct frequencies the
    kept tuples have.  ``deltas`` holds those distinct nonzero frequencies
    and, with ``n_frequency_groups`` and the term counts, is reported for
    information.  ``fourier_tail`` is the largest ``FourierOperator.tail``
    of a channel relative to its largest coefficient: a truncation check on
    ``k_max``.
    """

    dim: int
    omega: float
    channels: tuple
    k_max: int
    secular_cutoff: float
    coeff_floor: float
    gaps: np.ndarray
    deltas: np.ndarray
    candidate_terms: int
    kept_static: int
    kept_oscillating: int
    dropped_count: int
    fourier_tail: float
    harmonics: np.ndarray = field(repr=False)

    @property
    def n_frequency_groups(self):
        return self.deltas.size

    @property
    def static_part(self):
        """The secular (delta = 0) part of R(t), a constant superoperator."""
        freqs = _frequencies(self.omega, self.k_max, self.gaps)
        return np.sum(self.harmonics, axis=0, where=np.abs(freqs) <= _SECULAR_REL_TOL * self.omega)


def _frequencies(omega, k_max, gaps):
    """Frequency m * omega + gaps[p] - gaps[q] of every harmonic entry."""
    m = np.arange(-2 * k_max, 2 * k_max + 1) * omega
    return m[:, None, None] + np.subtract.outer(gaps, gaps)[None]


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


def _cluster(deltas, omega):
    """Distinct frequencies: sorted values within 1e-12 relative of their
    neighbour form one group, represented by its mean."""
    if deltas.size == 0:
        return np.zeros(0)
    d = np.sort(deltas)
    gap_tol = np.maximum(np.abs(d[:-1]), omega)
    gap_tol *= _GROUP_REL_TOL
    starts = np.concatenate(([0], np.flatnonzero(np.diff(d) > gap_tol) + 1))
    return np.add.reduceat(d, starts) / np.diff(np.append(starts, d.size))


def _sampled_harmonics(rate, coeffs):
    """Harmonics of one complete channel from samples of its dissipator.

    The rotated-frame operator S~(theta) = sum_k c_k exp(1j*k*theta) has
    degree k_max, so its sandwich conj(S~) (x) S~ and S~^dag S~ have degree
    2 k_max: 4 k_max + 1 samples and one FFT give their harmonics exactly.
    Weighting the samples by exp(2j*k_max*theta) puts harmonic m in FFT bin
    m + 2 k_max.  Returns the sandwich harmonics and those of S~^dag S~.
    """
    k_max = (coeffs.shape[2] - 1) // 2
    size = 4 * k_max + 1
    n = coeffs.shape[0]
    theta = 2.0 * np.pi * np.arange(size) / size
    s = np.moveaxis(coeffs @ np.exp(1j * np.outer(np.arange(-k_max, k_max + 1), theta)), 2, 0)
    weight = rate * np.exp(2j * k_max * theta)
    sandwich = np.einsum("xij,xkl,x->xikjl", s.conj(), s, weight).reshape(size, n * n, n * n)
    anti = (s.conj().transpose(0, 2, 1) @ s) * weight[:, None, None]
    return (np.fft.fft(sandwich, axis=0, norm="forward", out=sandwich),
            np.fft.fft(anti, axis=0, norm="forward", out=anti))


def _pair_blocks(lo, hi):
    """Yield ``(i, j)`` for the pairs lo[i] <= j < hi[i], in row blocks of
    about ``_PAIR_BLOCK`` pairs (at least one row each)."""
    counts = hi - lo
    ends = np.cumsum(counts)
    row = 0
    while row < lo.size:
        done = ends[row - 1] if row else 0
        stop = max(row + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        c = counts[row:stop]
        i = np.repeat(np.arange(row, stop), c)
        j = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - lo[row:stop], c)
        yield i, j
        row = stop


def _count_pairs(values, lower, upper):
    """Number of pairs (i, j) with lower[i] <= values[j] <= upper[i]; ``values`` sorted."""
    return int(np.sum(np.searchsorted(values, upper, side="right")
                      - np.searchsorted(values, lower, side="left")))


def build_terms(basis, channels, k_max=20, secular_cutoff=0.0, coeff_floor=1e-12):
    """Build the decomposed rate superoperator for a set of collapse channels.

    Filtering order per tuple: coefficient-product floor first, then
    unconditional acceptance of ``delta == 0``, then the negligibility test
    ``|delta| / |S * S'| <= secular_cutoff``.  Channels combine additively.

    A complete set (cutoff inf, floor 0) is sampled in time and transformed
    (:func:`_sampled_harmonics`); no tuple pair is enumerated.  A filtered
    set screens candidate pairs in blocks, only within the window of
    rotation frequencies a kept pair can reach, and scatters each kept pair
    into its harmonic.  Memory is bounded by the harmonic store either way.
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
    size = 4 * k_max + 1
    omega = basis.omega
    sec_tol = _SECULAR_REL_TOL * omega
    complete = bool(np.isinf(secular_cutoff)) and coeff_floor == 0.0
    eps = basis.quasienergies
    gaps = np.subtract.outer(eps, eps).ravel(order="F")
    sandwich = np.zeros(size * nn * nn, dtype=complex)
    anti = np.zeros(size * nn, dtype=complex)
    oscillates = np.zeros(size * nn * nn, dtype=bool)
    candidates = kept_static = kept_osc = 0
    tail = 0.0

    for ch in channels:
        four, a_idx, b_idx, ks, coeff, rot_freq = _tuple_table(basis, ch, k_max)
        absc = np.abs(coeff)
        if absc.max() > 0.0:
            tail = max(tail, four.tail / absc.max())
        order = np.argsort(rot_freq, kind="stable")
        rot = rot_freq[order]
        m = absc.size
        if complete:
            s_harm, a_harm = _sampled_harmonics(ch.rate, four.coeffs)
            sandwich += s_harm.ravel()
            anti += a_harm.ravel()
            oscillates[:] = True
            statics = _count_pairs(rot, rot - sec_tol, rot + sec_tol)
            candidates += m * m
            kept_static += statics
            kept_osc += m * m - statics
            continue

        if coeff_floor > 0.0:
            with np.errstate(divide="ignore"):
                candidates += _count_pairs(np.sort(absc), coeff_floor / absc, np.inf)
        else:
            candidates += m * m
        absc_s = absc[order]
        if np.isinf(secular_cutoff):
            lo, hi = np.zeros(m, dtype=int), np.full(m, m)
        else:
            # A kept oscillating pair has |delta| <= cutoff * |S_i| * max|S|.
            reach = secular_cutoff * absc_s * absc.max() * (1.0 + 1e-9) + 2.0 * sec_tol
            lo = np.searchsorted(rot, rot - reach, side="left")
            hi = np.searchsorted(rot, rot + reach, side="right")
        barren = absc_s * absc.max() < coeff_floor
        hi[barren] = lo[barren]
        for i, j in _pair_blocks(lo, hi):
            delta = rot[i] - rot[j]
            prod = absc_s[i] * absc_s[j]
            secular = np.abs(delta) <= sec_tol
            with np.errstate(divide="ignore", invalid="ignore"):
                keep = (prod >= coeff_floor) & (secular | (np.abs(delta) / prod <= secular_cutoff))
            kept_static += int(np.count_nonzero(keep & secular))
            kept_osc += int(np.count_nonzero(keep & ~secular))
            i, j, osc = order[i[keep]], order[j[keep]], ~secular[keep]
            w = ch.rate * coeff[i] * coeff[j].conj()
            harm = ks[i] - ks[j] + 2 * k_max
            flat = ((harm * n + a_idx[j]) * n + a_idx[i]) * nn + b_idx[j] * n + b_idx[i]
            sandwich += (np.bincount(flat, w.real, sandwich.size)
                         + 1j * np.bincount(flat, w.imag, sandwich.size))
            oscillates[flat[osc]] = True
            same = a_idx[i] == a_idx[j]
            flat = (harm[same] * n + b_idx[j[same]]) * n + b_idx[i[same]]
            anti += (np.bincount(flat, w[same].real, anti.size)
                     + 1j * np.bincount(flat, w[same].imag, anti.size))

    # The anticommutator -(1/2){S^dag S, .} of every harmonic, column stacking.
    anti = -0.5 * anti.reshape(size, n, n)
    eye = np.eye(n)
    harmonics = sandwich.reshape(size, nn, nn)
    harmonics += np.einsum("ij,xkl->xikjl", eye, anti).reshape(size, nn, nn)
    harmonics += np.einsum("xji,kl->xikjl", anti, eye).reshape(size, nn, nn)

    freqs = _frequencies(omega, k_max, gaps).ravel()[oscillates]
    reps = _cluster(freqs[np.abs(freqs) > sec_tol], omega)
    return RateTermSet(
        dim=n, omega=omega, channels=channels, k_max=int(k_max),
        secular_cutoff=float(secular_cutoff), coeff_floor=float(coeff_floor),
        gaps=gaps, deltas=reps, candidate_terms=candidates,
        kept_static=kept_static, kept_oscillating=kept_osc,
        dropped_count=candidates - kept_static - kept_osc,
        fourier_tail=float(tail), harmonics=harmonics,
    )


def _rate_matrix(rates):
    """Closure t -> R(t), the Floquet-picture rate superoperator.

    One exponential of the concatenated harmonic and gap frequencies gives
    both the harmonic weights and the gap phases; a static set is constant.
    """
    if not rates.deltas.size:
        static = rates.static_part
        return lambda t: static
    size = rates.harmonics.shape[0]
    nn = rates.dim * rates.dim
    harmonics = rates.harmonics.reshape(size, nn * nn)
    ifreq = 1j * np.concatenate((np.arange(-2 * rates.k_max, 2 * rates.k_max + 1) * rates.omega,
                                 -rates.gaps))

    def at(t):
        e = np.exp(t * ifreq)
        d = e[size:]
        return (e[:size] @ harmonics).reshape(nn, nn) * (d.conj()[:, None] * d)

    return at


def assemble(rates, t):
    """Materialize the rate superoperator R(t) (see :class:`RateTermSet`)."""
    return _rate_matrix(rates)(t)


def _make_rhs(rates, basis):
    """Right-hand side closure for dv/dt = R(t) v.

    ``v`` is a flattened ``(n^2, B)`` block, so one call advances B
    supervectors at once.
    """
    rate_at = _rate_matrix(rates)
    nn = rates.dim * rates.dim

    def rhs(t, v):
        return (rate_at(t) @ v.reshape(nn, -1)).ravel()

    return rhs


@dataclass(frozen=True, eq=False)
class _Generator:
    """A T-periodic linear generator dv/dt = rhs(t, v), as the one-period
    map of :func:`_propagate` needs it.

    ``rhs`` acts on a flattened ``(dim^2, B)`` block of supervectors.  The
    propagator is T-periodic in the frame rotated by ``gaps``:
    v~[p] = exp(-1j*gaps[p]*t) v[p]; zero gaps leave the frame as it is.
    ``start`` maps a lab-frame density matrix at t = 0, where both frames
    agree, to its supervector.  ``to_lab(phases, index, rho)`` maps
    rotated-frame states rho at the phases ``phases[index]``, shape
    (len(index), dim, dim, B) with rho[t, b, a] the (a, b) entry, to
    lab-frame matrices.  ``max_step`` is the absolute step cap used when
    the tolerance sets none.
    """

    rhs: object
    dim: int
    gaps: np.ndarray
    period: float
    max_step: float
    start: object
    to_lab: object


def _rate_generator(rates, basis):
    """The Floquet-picture rate matrix R(t) as a :class:`_Generator`.

    Rotated by the quasienergy gaps, every kept tuple oscillates at
    (k - k') * omega only, so the frame's propagator is T-periodic.  A
    rotated-frame state rho~ is M(tau) rho~ M(tau)^dag in the lab frame,
    with M the Floquet mode matrix at the phase tau.
    """
    modes0 = basis.modes0

    def to_lab(phases, index, rho):
        modes = basis.modes_at_many(phases)[index]
        return np.einsum("tai,tmic,tdm->tadc", modes, rho, modes.conj(), optimize=True)

    return _Generator(
        rhs=_make_rhs(rates, basis), dim=basis.dim, gaps=rates.gaps, period=basis.period,
        # A cap of one eighth of a period when oscillating terms exist, so no
        # frequency group is stepped over entirely.
        max_step=basis.period / 8.0 if rates.deltas.size else np.inf,
        start=lambda rho: unfold(modes0.conj().T @ rho @ modes0), to_lab=to_lab)


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


def _groups(keys):
    """Positions of each value 0, 1, ... of ``keys``, as a list of index arrays."""
    return np.split(np.argsort(keys, kind="stable"), np.cumsum(np.bincount(keys))[:-1])


def _chebyshev_nodes(span, count):
    """``count`` Chebyshev-Lobatto nodes of [0, span], increasing; both ends exact."""
    return 0.5 * span * (1.0 - np.cos(np.pi * np.arange(count) / (count - 1)))


def _chebyshev_tail(samples):
    """Largest Chebyshev coefficient magnitude over the last quarter of the
    degrees, and over all degrees, of samples at Chebyshev-Lobatto nodes
    (axis 0).  The coefficients are one FFT of the even extension."""
    deg = samples.shape[0] - 1
    flat = samples.reshape(deg + 1, -1)
    coeffs = np.abs(np.fft.fft(np.concatenate((flat, flat[-2:0:-1])), axis=0)[:deg + 1])
    coeffs = coeffs.max(axis=1) / (2 * deg)
    coeffs[1:deg] *= 2.0
    return coeffs[3 * deg // 4:].max(), coeffs.max()


def _barycentric(nodes, x):
    """Matrix taking values at Chebyshev-Lobatto ``nodes`` to the values of
    their interpolating polynomial at ``x``; a point on a node takes its value."""
    weights = (-1.0) ** np.arange(nodes.size)
    weights[[0, -1]] *= 0.5
    diff = x[:, None] - nodes
    on_node = diff == 0.0
    with np.errstate(divide="ignore"):
        terms = weights / diff
    hit = on_node.any(axis=1)
    terms[hit] = on_node[hit]
    return terms / terms.sum(axis=1, keepdims=True)


def _integrate_stops(rhs, y0, stops, tol, max_step):
    """Solution of dv/dt = rhs(t, v), v(0) = y0 (1-D), at the increasing ``stops``.

    v(t) is analytic on [0, stops[-1]], because both generators, R(t) and
    the lab Lindbladian, are finite sums of exponentials.  With more stops
    than ``_CHEB_NODES`` the integrator stops only at N Chebyshev-Lobatto
    nodes of that span, and the stops are interpolated from those exact
    samples.  N is accepted when the largest Chebyshev coefficient in the
    last quarter is at most ``rtol * max|c| + atol``, else doubled as
    2N - 1; once N reaches the number of stops the integrator stops at each
    of them.  Returns
    ``(values, stats, nodes, tail)``: stats summed over every attempt, the
    accepted N (0 for exact stops) and its tail relative to max|c|.
    """
    total = IntegratorStats()

    def run(t_out):
        out, stats = integrate_adaptive(rhs, 0.0, y0, t_out, rtol=tol.rtol, atol=tol.atol,
                                        max_step=max_step)
        total.steps_accepted += stats.steps_accepted
        total.steps_rejected += stats.steps_rejected
        total.rhs_evals += stats.rhs_evals
        return out

    count = _CHEB_NODES
    while count < stops.size:
        nodes = _chebyshev_nodes(stops[-1], count)
        samples = run(nodes)
        tail, scale = _chebyshev_tail(samples)
        if tail <= tol.rtol * scale + tol.atol:
            values = _barycentric(nodes, stops) @ samples
            return values, total, count, tail / scale if scale else 0.0
        count = 2 * count - 1
    return run(stops), total, 0, 0.0


def _propagate(gen, block, times, tol):
    """Propagate a block of supervectors by the one-period map of ``gen``.

    In the frame rotated by ``gen.gaps`` the propagator is T-periodic:
    Phi~(j*T + tau) = Phi~(tau) Phi~(T)^j (see :class:`_Generator`).  One
    period of the n^2 x n^2 identity is integrated to every distinct phase
    tau and to T; later periods follow by powers of P = Phi~(T).  When every
    time lies in the first period the block itself is integrated instead, up
    to the largest phase.  Many phases are Chebyshev-interpolated from exact
    samples at a few nodes (see :func:`_integrate_stops`); T is a node, so P
    is always the integrated matrix.

    ``block`` has shape (n^2, B) and holds supervectors at t = 0, where both
    frames agree.  Returns ``(lab, images, stats, (nodes, tail))``: the
    lab-frame matrices of each column, shape (len(times), n, n, B), the
    rotated-frame supervectors, shape (len(times), n^2, B), the integrator
    statistics of the one-period integration, and the Chebyshev node count
    (0 for exact stops) and relative tail.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("output times must be nonnegative")
    period = gen.period
    n = gen.dim
    nn = n * n
    periods, phases, index = _split_phases(times, period)
    jumps = periods.max() > 0
    y0 = np.eye(nn, dtype=complex) if jumps else block
    t_out = np.append(phases, period) if jumps else phases
    max_step = tol.max_step * period if tol.max_step is not None else gen.max_step
    flat, stats, nodes, tail = _integrate_stops(gen.rhs, y0.ravel(), t_out, tol, max_step)
    maps = flat.reshape(t_out.size, nn, -1) * np.exp(-1j * np.outer(t_out, gen.gaps))[:, :, None]

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
        # One product per phase or per period, whichever are fewer.
        images = np.empty((times.size,) + block.shape, dtype=complex)
        if phases.size <= needed.size:
            for p, sel in enumerate(_groups(index)):
                images[sel] = maps[p] @ powers[slot[sel]]
        else:
            for k, sel in enumerate(_groups(slot)):
                images[sel] = maps[index[sel]] @ powers[k]
    else:
        images = maps[index]

    lab = gen.to_lab(phases, index, images.reshape(times.size, n, n, -1))
    return lab, images, stats, (nodes, tail)


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
    fourier_tail: float = 0.0
    phase_nodes: int = 0
    phase_tail: float = 0.0

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


def _evolve(gen, rho0, times, tol, store_floquet=False, **terms):
    """Body of :func:`evolve` and ``lindblad.evolve_direct``: check the
    inputs, propagate ``rho0`` by the one-period map of ``gen`` and report
    the run in :class:`Diagnostics`, with ``terms`` as its term fields."""
    t_start = _time.perf_counter()
    if tol is None:
        tol = OdeTol()
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("output times must be strictly increasing")
    if times[0] < 0.0:
        raise ValueError("output times must be nonnegative")
    rho0 = check_density_matrix(rho0)
    n = gen.dim
    if rho0.shape != (n, n):
        raise ValueError(f"state dim {rho0.shape[0]} does not match system dim {n}")

    v0 = gen.start(rho0)
    t_solve = _time.perf_counter()
    lab, images, stats, (nodes, tail) = _propagate(gen, v0[:, None], times, tol)
    solution_time = _time.perf_counter() - t_solve

    states = lab[..., 0]
    rho_f = None
    if store_floquet:
        rho_f = (images[:, :, 0] * np.exp(1j * np.outer(times, gen.gaps))).reshape(
            -1, n, n).transpose(0, 2, 1)
    traces = np.einsum("tii->t", states)
    diag = Diagnostics(
        steps_accepted=stats.steps_accepted,
        steps_rejected=stats.steps_rejected,
        rhs_evals=stats.rhs_evals,
        solution_time_s=solution_time,
        max_trace_defect=float(np.max(np.abs(traces - 1.0))),
        max_hermiticity_defect=hermiticity_defect(states),
        phase_nodes=nodes,
        phase_tail=float(tail),
        **terms,
    )
    result = EvolutionResult(times=times, states=states, diagnostics=diag, floquet_states=rho_f)
    diag.total_time_s = _time.perf_counter() - t_start
    return result


def evolve(rates, basis, rho0, times, tol=None, store_floquet=False):
    """Propagate a lab-frame density matrix under the decomposed rate matrix.

    ``rho0`` is the state at t = 0; it is rotated into the Floquet mode
    basis and propagated by the one-period map (see :func:`_propagate`) to
    ``times`` (strictly increasing, nonnegative), and lab-frame states are
    reconstructed with the Floquet mode matrix.  The step and RHS counts in
    the diagnostics are those of the one-period integration;
    ``phase_nodes`` and ``phase_tail`` are its Chebyshev node count (0 when
    the integrator stopped at every phase) and relative coefficient tail.
    """
    return _evolve(_rate_generator(rates, basis), rho0, times, tol, store_floquet,
                   term_count_static=rates.kept_static,
                   term_count_oscillating=rates.kept_oscillating,
                   n_frequency_groups=rates.n_frequency_groups,
                   dropped_terms=rates.dropped_count,
                   candidate_terms=rates.candidate_terms,
                   fourier_tail=rates.fourier_tail)

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
the rate superoperator is a sum of 4 k_max + 1 rotated-frame harmonics.  The
dissipator preserves Hermiticity, so harmonic -m is the conjugate of
harmonic m at index-transposed positions, and only m = 0 ... M are stored,
M <= 2 k_max the last harmonic with a kept entry (see :class:`RateTermSet`).
Evaluating it costs one real product with the projected store and two
complex multiplies, independent of how many distinct frequencies delta the
kept tuples have; that count, ``n_frequency_groups``, is reported for
information only.

States are propagated in the Floquet interaction picture (time-dependent
basis of Floquet states), where the coherent evolution is carried entirely
by the basis: the generator is the pure dissipator, and lab-frame states are
reconstructed as ``W(t) rho W(t)^dag`` with ``W(t)`` the Floquet state
matrix.  This makes the closed-system limit exact by construction.  Both
generators preserve Hermiticity, so they are propagated in real
coordinates, the coefficients of a state in an orthonormal basis of
Hermitian matrices: the generator, the states and every one-period map are
real (see :func:`_coordinates`).  Rotated by the quasienergy phases, one
complex multiply of each pair of coordinates, the generator is exactly
T-periodic, so long evolutions form the propagators of one period and then
jump whole periods, by baby-step giant-step powers of the one-period map.
The propagators land exactly on each stop; when the outputs have more
distinct phases than a Chebyshev grid needs, the stops are the grid's nodes
only and the phases are interpolated from those exact samples, with the
Chebyshev tail checked against the tolerance.  For n <= 4 the period is cut
at the stops into slices that are stepped side by side as one block, so a
step costs a few large NumPy calls; larger n step the period sequentially.
The direct solver (``lindblad``) stores its lab-frame generator as the same
kind of half-store of harmonics, evaluated by the same closure
(:func:`_harmonic_matrix`), and runs it through the same one-period map
(:class:`_Generator`).
"""

import functools
import time as _time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .floquet import _prefix_products, _stacked_product, _sub_propagators, fourier_coefficients
from .integrate import IntegratorStats, OdeTol, integrate_adaptive, _repeat_memo
from .qops import HERM_TOL, _powers, check_density_matrix, hermiticity_defect, unfold

__all__ = [
    "CollapseChannel",
    "RateTermSet",
    "Diagnostics",
    "EvolutionResult",
    "build_terms",
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
# Systems with n <= _SLICED_N step slices of the period side by side: that
# halves the solve of a random n = 4 system, but slows n = 8 1.5 to 4 times.
_SLICED_N = 4


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
    With R~_m the harmonic superoperators, the Floquet-picture rate matrix
    is therefore

        R(t)[p, q] = exp(1j*(gaps[p] - gaps[q])*t) * sum_m R~_m[p, q] exp(1j*m*omega*t).

    Swapping the two tuples of a pair maps its contribution at (m, p, q) to
    the conjugate at (-m, p~, q~), p~ = (a', a) the transposed index, so
    R~_{-m}[p, q] = conj(R~_m[p~, q~]): the dissipator preserves
    Hermiticity.  ``harmonics[m]`` therefore holds R~_m for m = 0 ... M
    only, shape (M + 1, n^2, n^2), M <= 2 k_max the last harmonic with a
    kept entry (0 when none has one); with B(t) the formula above summed
    over m >= 0 only, harmonic 0 weighted 1/2,
    R(t)[p, q] = B(t)[p, q] + conj(B(t)[p~, q~]), and in the real
    coordinates of :func:`_coordinates` R(t) is 2 Re(U^dag B(t) U).

    This one store serves complete, filtered and static sets alike, and
    evaluating R(t) costs the same however many distinct frequencies the
    kept tuples have.  ``deltas`` holds those distinct nonzero frequencies
    and, with ``n_frequency_groups`` and the term counts (which count every
    tuple pair, both orders), is reported for information.
    ``fourier_tail`` is the largest ``FourierOperator.tail`` of a channel
    relative to its largest coefficient: a truncation check on ``k_max``.
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
    """Harmonics m = 0 ... 2 k_max of one complete channel from samples of
    its dissipator.

    The rotated-frame operator S~(theta) = sum_k c_k exp(1j*k*theta) has
    degree k_max, so its sandwich conj(S~) (x) S~ and S~^dag S~ have degree
    2 k_max: a DFT of 4 k_max + 1 samples gives their harmonics exactly,
    harmonic m in bin m mod (4 k_max + 1).  Only bins m >= 0 are needed, so
    they are one product with those rows of the DFT matrix, which is also
    faster than an FFT of this odd length.  The sandwich samples are one
    broadcast outer product.  Returns the sandwich harmonics and those of
    S~^dag S~, flattened: shapes (2 k_max + 1, n^4) and (2 k_max + 1, n^2).
    """
    k_max = (coeffs.shape[2] - 1) // 2
    samples = 4 * k_max + 1
    keep = 2 * k_max + 1
    steps = np.arange(samples)
    theta = 2.0 * np.pi * steps / samples
    s = np.moveaxis(coeffs @ np.exp(1j * np.outer(np.arange(-k_max, k_max + 1), theta)), 2, 0)
    sandwich = (rate * s.conj())[:, :, None, :, None] * s[:, None, :, None, :]
    anti = rate * (s.conj().transpose(0, 2, 1) @ s)
    dft = np.exp(-2j * np.pi / samples * (np.outer(np.arange(keep), steps) % samples))
    dft /= samples
    return dft @ sandwich.reshape(samples, -1), dft @ anti.reshape(samples, -1)


def _add_sides(store, left, right):
    """Add the superoperator of rho -> A rho + rho B, I (x) A + B^T (x) I in
    column stacking, for every pair of (n, n) matrices A of ``left`` and B
    of ``right`` (stacks of equal length) to the (size, n^2, n^2) ``store``,
    in place; ``store`` may be any strided view, such as one with the stack
    axis last in memory.

    Viewed as (size, n, n, n, n) with entry [x, i, k, j, l] at row i*n + k,
    column j*n + l, I (x) A adds A[x, k, l] where i = j and B^T (x) I adds
    B[x, j, i] where k = l: two strided views of those diagonals.
    """
    size, n, _ = left.shape
    sx, sk, sl = store.strides
    si, sj = n * sk, n * sl
    diag_left = as_strided(store, (size, n, n, n), (sx, si + sj, sk, sl))
    diag_left += left[:, None]
    diag_right = as_strided(store, (size, n, n, n), (sx, si, sj, sk + sl))
    diag_right += right.transpose(0, 2, 1)[..., None]


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
    into its harmonic.  Either way only harmonics m >= 0 are built, up to
    the last with a kept entry (see :class:`RateTermSet`), while the term
    counts cover every pair.  Memory is bounded by the harmonic store.
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
    size = 2 * k_max + 1
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
            # Only harmonics m = k - k' >= 0 are stored; the swapped pair of
            # an m > 0 pair is its mirror, and m = 0 pairs come in both orders.
            i, j, osc = order[i[keep]], order[j[keep]], ~secular[keep]
            harm = ks[i] - ks[j]
            half = harm >= 0
            i, j, osc, harm = i[half], j[half], osc[half], harm[half]
            w = ch.rate * coeff[i] * coeff[j].conj()
            flat = ((harm * n + a_idx[j]) * n + a_idx[i]) * nn + b_idx[j] * n + b_idx[i]
            sandwich += (np.bincount(flat, w.real, sandwich.size)
                         + 1j * np.bincount(flat, w.imag, sandwich.size))
            oscillates[flat[osc]] = True
            same = a_idx[i] == a_idx[j]
            flat = (harm[same] * n + b_idx[j[same]]) * n + b_idx[i[same]]
            anti += (np.bincount(flat, w[same].real, anti.size)
                     + 1j * np.bincount(flat, w[same].imag, anti.size))

    # The anticommutator -(1/2){S^dag S, .} of every harmonic.
    harmonics = sandwich.reshape(size, nn, nn)
    anti = -0.5 * anti.reshape(size, n, n)
    _add_sides(harmonics, anti, anti)
    # Trailing empty harmonics are dropped (e.g. all m > 1 at a low cutoff).
    nonzero = np.flatnonzero(harmonics.reshape(size, -1).any(axis=1))
    top = nonzero[-1] + 1 if nonzero.size else 1
    if top < size:
        harmonics = harmonics[:top].copy()

    # The frequency m * omega + gaps[p] - gaps[q] of each entry.  Those of the
    # oscillating entries are symmetric under the mirror, which negates them:
    # cluster the positive ones, |f| at m > 0 and f at m = 0, and mirror the
    # groups.
    freqs = (np.arange(size) * omega)[:, None] + np.subtract.outer(gaps, gaps).ravel()
    oscillates = oscillates.reshape(size, -1)
    positive = np.abs(freqs[1:][oscillates[1:]])
    zeroth = freqs[0][oscillates[0]]
    reps = _cluster(np.concatenate((positive[positive > sec_tol], zeroth[zeroth > sec_tol])),
                    omega)
    return RateTermSet(
        dim=n, omega=omega, channels=channels, k_max=int(k_max),
        secular_cutoff=float(secular_cutoff), coeff_floor=float(coeff_floor),
        gaps=gaps, deltas=np.concatenate((-reps[::-1], reps)), candidate_terms=candidates,
        kept_static=kept_static, kept_oscillating=kept_osc,
        dropped_count=candidates - kept_static - kept_osc,
        fourier_tail=float(tail), harmonics=harmonics,
    )


_SQRT_HALF = np.sqrt(0.5)


@functools.lru_cache(maxsize=16)
def _pair_slots(n):
    """Flat supervector positions of an n x n matrix: the diagonal, and each
    pair p < p~ of transposed positions as ``(first, second)`` arrays
    (read-only, as they are shared between calls)."""
    i0, i1 = np.divmod(np.arange(n * n), n)
    first = np.flatnonzero(i0 < i1)
    slots = np.flatnonzero(i0 == i1), first, (first % n) * n + first // n
    for index in slots:
        index.setflags(write=False)
    return slots


def _coordinates(v):
    """Real coordinates r = U^dag v of supervectors v (axis -2).

    U is the orthonormal basis of Hermitian matrices (Alicki and Lendi,
    *Quantum Dynamical Semigroups and Applications*, LNP 286, 1987): first
    e_p for each diagonal position, then for each pair p < p~ of transposed
    positions (e_p + e_p~)/sqrt(2) and i(e_p - e_p~)/sqrt(2) side by side.
    A Hermitian matrix has real coordinates: v_p, then the pairs
    sqrt(2) (Re v_p, Im v_p), whose complex view sqrt(2) v_p turns by a
    gap phase in one multiply.  Returns complex values.
    """
    diag, first, second = _pair_slots(isqrt(v.shape[-2]))
    r = np.empty(v.shape, dtype=complex)
    r[..., :diag.size, :] = v[..., diag, :]
    a, b = v[..., first, :], v[..., second, :]
    r[..., diag.size::2, :] = (a + b) * _SQRT_HALF
    r[..., diag.size + 1::2, :] = (b - a) * (1j * _SQRT_HALF)
    return r


def _vectors(r):
    """Supervectors U r of real (or complex) coordinates r (axis -2), the
    inverse of :func:`_coordinates`; Hermitian exactly when r is real."""
    diag, first, second = _pair_slots(isqrt(r.shape[-2]))
    v = np.empty(r.shape, dtype=complex)
    v[..., diag, :] = r[..., :diag.size, :]
    a, b = r[..., diag.size::2, :], r[..., diag.size + 1::2, :]
    v[..., first, :] = (a + 1j * b) * _SQRT_HALF
    v[..., second, :] = (a - 1j * b) * _SQRT_HALF
    return v


def _start_coordinates(v, rho):
    """Coordinates of the supervector v of the matrix rho: real when rho is
    Hermitian (to ``qops.HERM_TOL``), so a density matrix propagates in
    real arithmetic, and complex otherwise."""
    r = _coordinates(v[:, None])[:, 0]
    return r.real.copy() if hermiticity_defect(rho) <= HERM_TOL else r


def _rotate(maps, times, gaps):
    """Rotate the coordinates ``maps`` (len(times), n^2, B) into the frame
    v~[p] = exp(-1j*gaps[p]*t) v[p], in place.

    The gap of p~ is minus that of p, so each pair of coordinates turns by
    the angle gaps[p] * t: its complex view is multiplied by
    exp(-1j*gaps[p]*t).  The turn is real, so a complex block turns its
    real and imaginary parts alike.
    """
    n = isqrt(maps.shape[1])
    phase = np.exp(-1j * np.multiply.outer(times, gaps[_pair_slots(n)[1]]))[..., None]
    parts = maps.view(float) if np.iscomplexobj(maps) else maps
    a, b = parts[:, n::2], parts[:, n + 1::2]
    z = a + 1j * b
    z *= phase
    a[...], b[...] = z.real, z.imag
    return maps


def _harmonic_matrix(harmonics, omega, gaps, constant):
    """Closure t -> A(t), a generator stored as a half-store of harmonics,
    in the real coordinates of :func:`_coordinates`: shape (n^2, n^2) for a
    scalar t and (*t.shape, n^2, n^2) for an array.

    ``harmonics`` holds the harmonics m = 0 ... M, shape (M + 1, n^2, n^2);
    entry (p, q) of harmonic m oscillates at m * omega + gaps[p] - gaps[q],
    and harmonic -m is the mirror of harmonic m, its conjugate at the
    transposed positions (p~, q~), as for any Hermiticity-preserving
    generator (see :class:`RateTermSet`).  The mirror of U^dag X U is its
    conjugate, so with P_m = U^dag R_m U

        A(t) = G S(t) G^T,  S(t) = Re P_0 + sum_{m >= 1} 2 Re(P_m exp(1j*m*omega*t)),

    with G = U^dag diag(exp(1j*gaps*t)) U, which turns each pair of
    coordinates by its gap.  The closure projects the store once, a few
    harmonics at a time, into the real store [2 Re P_1, -2 Im P_1, ...,
    2 Re P_M, -2 Im P_M, Re P_0], so S(t) is one real product with
    [cos omega t, sin omega t, ..., 1], the real view of the phases
    exp(1j*m*omega*t), m = 1 ... M, 0.  For an array of times those phases
    are the powers of exp(1j*omega*t), a running product
    (:func:`~flime.qops._powers`) with one ``exp`` per time; a scalar t
    takes ``exp`` of each.  G then multiplies the complex view of each pair
    of columns by exp(1j*gaps*t), always by ``exp``, and the same on the
    transpose turns the rows.  A ``constant`` generator, whose every entry
    has frequency 0, is A(0) at all t.
    """
    size, nn, _ = harmonics.shape
    n = isqrt(nn)
    # The coordinates of the rows of X and then of its columns are
    # (U^dag X conj(U))^T: (U^dag X U)^T with the row of each pair's second
    # coordinate negated, as that column of U is imaginary.  The store
    # holds the transposes, whose product is S(t)^T.
    sign = np.ones((nn, 1))
    sign[n + 1::2] = -1.0
    order = np.roll(np.arange(size), -1)  # m = 1 ... M, then 0
    store = np.empty((size, 2, nn, nn))
    chunk = max(1, (1 << 14) // (nn * nn))  # bounds the temporaries
    for lo in range(0, size, chunk):
        x = _coordinates(_coordinates(harmonics[order[lo:lo + chunk]]).swapaxes(-1, -2))
        np.multiply(x.real, 2.0 * sign, out=store[lo:lo + chunk, 0])
        np.multiply(x.imag, -2.0 * sign, out=store[lo:lo + chunk, 1])
    store[-1, 0] *= 0.5  # harmonic 0 is its own mirror
    flat = store.reshape(2 * size, nn * nn)[:-1]
    pair_gaps = gaps[_pair_slots(n)[1]]
    rotating = bool(pair_gaps.any())
    ifreq = 1j * np.concatenate((np.arange(1, size) * omega, [0.0], pair_gaps))
    ibase = 1j * np.concatenate(([omega], pair_gaps))  # the array branch's exp

    def turn(s, phase):
        # G S G^T from S^T (..., n^2, n^2) and the pair phases (..., 1, pairs)
        s[..., n:].view(complex)[...] *= phase
        s = s.swapaxes(-1, -2).copy()
        s[..., n:].view(complex)[...] *= phase
        return s

    def at(t):
        # not np.ndim(t), which costs about 1 us per call
        if not (isinstance(t, np.ndarray) and t.ndim):
            e = np.exp(t * ifreq)
            s = (e[:size].view(float)[:-1] @ flat).reshape(nn, nn)
            return turn(s, e[size:]) if rotating else s.T
        base = np.exp(np.multiply.outer(t.ravel(), ibase))
        e = np.empty((t.size, size), dtype=complex)
        _powers(base[:, :1], base[:, 0], size - 1, out=e[:, :-1])
        e[:, -1] = 1.0
        s = (e.view(float)[:, :-1] @ flat).reshape(-1, nn, nn)
        s = turn(s, base[:, None, 1:]) if rotating else s.swapaxes(-1, -2)
        return s.reshape(t.shape + (nn, nn))

    if constant:
        static = at(0.0)
        return lambda t: np.broadcast_to(static, np.shape(t) + (nn, nn))
    return at


def _rate_matrix(rates):
    """The Floquet-picture rate matrix R(t) of ``rates`` as a closure
    t -> A(t) (:func:`_harmonic_matrix`); a set that keeps no oscillating
    tuple is constant."""
    return _harmonic_matrix(rates.harmonics, rates.omega, rates.gaps, not rates.kept_oscillating)


@dataclass(frozen=True, eq=False)
class _Generator:
    """A T-periodic, Hermiticity-preserving linear generator dv/dt = A(t) v,
    as the one-period map of :func:`_propagate` needs it.

    ``matrix(t)`` is A(t) in the real coordinates of :func:`_coordinates`,
    a real matrix of shape (dim^2, dim^2) for a scalar t and
    (*t.shape, dim^2, dim^2) for an array of times.  The propagator is
    T-periodic in the frame rotated by ``gaps``: v~[p] = exp(-1j*gaps[p]*t)
    v[p] for the supervector v, a rotation of each pair of coordinates
    (:func:`_rotate`); zero gaps leave the frame as it is.  ``start`` maps a
    lab-frame matrix at t = 0, where both frames agree, to its coordinates:
    real for a Hermitian matrix, complex otherwise
    (:func:`_start_coordinates`).  ``to_lab(phases, index, rho)`` maps
    rotated-frame supervectors rho at the phases ``phases[index]``, shape
    (len(index), dim, dim, B) with rho[t, b, a] the (a, b) entry, to
    lab-frame matrices.  ``max_step`` is the absolute step cap used when
    the tolerance sets none.
    """

    matrix: object
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
    with M the Floquet mode matrix at the phase tau: two stacked products
    over all states, entry by entry for n <= 3.
    """
    modes0 = basis.modes0

    def to_lab(phases, index, rho):
        modes = basis.modes_at_many(phases)[index][:, None]
        inner = _stacked_product(rho.transpose(0, 3, 2, 1), modes.conj().swapaxes(-1, -2))
        return _stacked_product(np.broadcast_to(modes, inner.shape), inner).transpose(0, 2, 3, 1)

    def start(rho):
        return _start_coordinates(unfold(modes0.conj().T @ rho @ modes0), rho)

    return _Generator(
        matrix=_rate_matrix(rates), dim=basis.dim, gaps=rates.gaps, period=basis.period,
        # A cap of one eighth of a period when oscillating terms exist, so no
        # frequency group is stepped over entirely.
        max_step=basis.period / 8.0 if rates.kept_oscillating else np.inf,
        start=start, to_lab=to_lab)


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


def _make_rhs(gen):
    """Right-hand side dv/dt = A(t) v of ``gen`` on a flattened
    ``(dim^2, B)`` block, so one call advances B supervectors at once.  A
    stage at the previous stage's t reuses its A(t) (:func:`_repeat_memo`).
    """
    matrix = _repeat_memo(gen.matrix)
    nn = gen.dim * gen.dim

    def rhs(t, v):
        return (matrix(t) @ v.reshape(nn, -1)).ravel()

    return rhs


def _slice_maps(gen, stops, tol, cap):
    """Propagators Phi(stop, 0) of ``gen`` at the increasing ``stops``
    (nonnegative), shape (len(stops), n^2, n^2), from slices stepped side
    by side.

    [0, stops[-1]] is cut at every stop, and each interval longer than
    ``cap`` into the fewest equal parts no longer than it.  The S slice
    propagators are one block integration (:func:`floquet._sub_propagators`)
    and their running products (:func:`floquet._prefix_products`, padded
    with identities to a multiple of about sqrt(S) factors) give the maps at
    the stops.  Returns ``(maps, stats, S)``.
    """
    nn = gen.dim * gen.dim
    eye = np.eye(nn)
    if stops[-1] == 0.0:
        return eye[None], IntegratorStats(), 0
    bounds = np.concatenate(([0.0], stops[stops > 0.0]))
    widths = np.diff(bounds)
    # the factor keeps a width of exactly k caps, up to rounding, at k parts
    parts = np.ceil(widths / cap * (1.0 - 1e-12)).astype(int)
    count = int(parts.sum())
    ends = np.cumsum(parts)
    lengths = np.repeat(widths / parts, parts)
    offsets = np.arange(count) - np.repeat(ends - parts, parts)
    starts = np.repeat(bounds[:-1], parts) + offsets * lengths
    factors, stats = _sub_propagators(gen.matrix, nn, starts, lengths, tol)
    side = isqrt(count - 1) + 1
    running = np.empty((side * -(-count // side) + 1, nn, nn), dtype=factors.dtype)
    running[0] = eye
    running[1:count + 1] = factors
    running[count + 1:] = eye
    _prefix_products(running[1:])
    return running[np.append(np.zeros(stops.size - ends.size, dtype=int), ends)], stats, count


def _integrate_stops(gen, y0, stops, tol):
    """Solution of dv/dt = A(t) v, v(0) = y0 an (n^2, B) block, at the
    increasing ``stops``, flattened to shape (len(stops), n^2 B).

    For n <= ``_SLICED_N`` (4) the propagators at the stops come from
    slices stepped side by side (:func:`_slice_maps`), no slice longer than
    T/16 or the step cap; Python overhead, not flops, bounds these small
    systems.  Larger n step the block sequentially from stop to stop.  The
    step cap is the tolerance's ``max_step`` or else the generator's own.

    v(t) is analytic on [0, stops[-1]], because both generators, R(t) and
    the lab Lindbladian, are finite sums of exponentials.  With more stops
    than ``_CHEB_NODES`` only N Chebyshev-Lobatto nodes of that span are
    stops, and the stops are interpolated from those exact samples.  N is
    accepted when the largest Chebyshev coefficient in the last quarter is
    at most ``rtol * max|c| + atol``, else doubled as 2N - 1; once N reaches
    the number of stops each of them is a stop.  Returns
    ``(values, stats, nodes, tail, slices)``: stats summed over every
    attempt, the accepted N (0 for exact stops), its tail relative to
    max|c|, and the slice count S of the accepted attempt (0 when
    sequential).
    """
    total = IntegratorStats()
    max_step = tol.max_step * gen.period if tol.max_step is not None else gen.max_step
    sliced = gen.dim <= _SLICED_N
    rhs = None if sliced else _make_rhs(gen)
    slices = 0

    def run(t_out):
        nonlocal slices
        if sliced:
            maps, stats, slices = _slice_maps(gen, t_out, tol, min(gen.period / 16.0, max_step))
            out = (maps @ y0).reshape(t_out.size, -1)
        else:
            out, stats = integrate_adaptive(rhs, 0.0, y0.ravel(), t_out, rtol=tol.rtol,
                                            atol=tol.atol, max_step=max_step)
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
            return values, total, count, tail / scale if scale else 0.0, slices
        count = 2 * count - 1
    return run(stops), total, 0, 0.0, slices


def _period_powers(pmap, block, periods):
    """``pmap**j @ block`` for each of the increasing ``periods`` j, shape
    (len(periods), *block.shape), in the dtype of the inputs.

    Baby-step giant-step (Paterson and Stockmeyer, SIAM J. Comput. 2, 60
    (1973)): with m = ceil(sqrt(J + 1)), J the last period, the giant steps
    W_q = (P^m)^q block are J/m products, and every period j = q m + r with
    the same r is one stacked product P^r W_q.  The baby powers P^r are
    formed one at a time while they are applied, so about 3 sqrt(J)
    products and the powering of P^m replace J, and no stack of powers is
    held.

    The giant steps reuse P^m, so its rounding errors add up coherently
    along the stationary direction, which P does not contract: q = J/m
    giant steps multiply them by q.  P^m is therefore formed in extended
    precision (``np.longdouble``) by binary powering and rounded once; its
    log2(m) squarings amplify the extended roundings by about m, still
    below one double rounding.  At 10^5 periods of the n = 2 and n = 3
    Lindbladians of the tests the powers are then closer to exact ones than
    the period-by-period loop is.  This assumes the 80-bit x87 type of
    x86-64 Linux, where a 64 x 64 extended product costs about 90 double
    ones; where ``np.longdouble`` is a software quad (aarch64 Linux) the
    products are slower still, and where it is double (MSVC, macOS arm64)
    the squarings carry about m double roundings into P^m.

    The baby products are of n^2 x n^2 matrices and cost about m n^2
    column products, and P^m is counted as about as much again (at n = 8
    its extended squarings cost several times that); the period-by-period
    loop costs J B for B columns.  When 2 m n^2 > J B, m = 1, and the same
    code is that loop.
    """
    last = int(periods[-1])
    m = isqrt(last) + 1
    if 2 * m * pmap.shape[0] > last * block.shape[1]:
        m = 1
    dtype = np.result_type(pmap, block)
    q, r = np.divmod(periods, m)
    giants = np.empty((q[-1] + 1,) + block.shape, dtype=dtype)
    giants[0] = block
    if q[-1]:
        extended = pmap.astype(np.promote_types(pmap.dtype, np.longdouble))
        giant = np.linalg.matrix_power(extended, m).astype(pmap.dtype)
        for i in range(1, giants.shape[0]):
            giants[i] = giant @ giants[i - 1]
    out = np.empty((periods.size,) + block.shape, dtype=dtype)
    baby = pmap
    for rem, sel in enumerate(_groups(r)):
        if rem > 1:
            baby = pmap @ baby
        if sel.size:
            out[sel] = giants[q[sel]] if rem == 0 else baby @ giants[q[sel]]
    return out


def _propagate(gen, block, times, tol):
    """Propagate a block of supervectors by the one-period map of ``gen``.

    In the frame rotated by ``gen.gaps`` the propagator is T-periodic:
    Phi~(j*T + tau) = Phi~(tau) Phi~(T)^j (see :class:`_Generator`).  The
    propagators of one period are formed at every distinct phase tau and at
    T (:func:`_integrate_stops`): from slices stepped side by side for
    n <= 4, by stepping the n^2 x n^2 identity otherwise.  Later periods
    follow by powers of P = Phi~(T), by baby-step giant-step
    (:func:`_period_powers`).  When every time lies in the first period only
    the span up to the largest phase is needed, and the block itself is
    stepped on the sequential side.  Many phases are Chebyshev-interpolated
    from exact samples at a few nodes; T is a node, so P is always the
    integrated matrix.

    Everything runs in the real coordinates of :func:`_coordinates`: the
    maps are real, the frame rotation turns pairs of coordinates, and a real
    block stays real.  A complex block (the coordinates of a non-Hermitian
    matrix) is propagated by the same real maps.  The lab frame is reached
    once, through U r, at the end.

    ``block`` has shape (n^2, B) and holds coordinates at t = 0, where both
    frames agree.  Returns ``(lab, images, stats, (nodes, tail, slices))``:
    the lab-frame matrices of each column, shape (len(times), n, n, B), the
    rotated-frame coordinates, shape (len(times), n^2, B), the integrator
    statistics of the one-period integration, the Chebyshev node count (0
    for exact stops) and relative tail, and the slice count (0 on the
    sequential side).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0.0):
        raise ValueError("output times must be nonnegative")
    period = gen.period
    n = gen.dim
    nn = n * n
    periods, phases, index = _split_phases(times, period)
    jumps = periods.max() > 0
    y0 = np.eye(nn) if jumps else block
    t_out = np.append(phases, period) if jumps else phases
    flat, stats, nodes, tail, slices = _integrate_stops(gen, y0, t_out, tol)
    maps = _rotate(flat.reshape(t_out.size, nn, -1), t_out, gen.gaps)

    if jumps:
        needed, slot = np.unique(periods, return_inverse=True)
        powers = _period_powers(maps[-1], block, needed)
        # One product per phase or per period, whichever are fewer.
        images = np.empty((times.size,) + block.shape, dtype=powers.dtype)
        if phases.size <= needed.size:
            for p, sel in enumerate(_groups(index)):
                images[sel] = maps[p] @ powers[slot[sel]]
        else:
            for k, sel in enumerate(_groups(slot)):
                images[sel] = maps[index[sel]] @ powers[k]
    else:
        images = maps[index]

    lab = gen.to_lab(phases, index, _vectors(images).reshape(times.size, n, n, -1))
    return lab, images, stats, (nodes, tail, slices)


@dataclass(eq=False)
class Diagnostics:
    """Term counts, integrator statistics and quality indicators of a run.

    ``phase_nodes`` and ``phase_tail`` are the one-period map's Chebyshev
    node count (0 when the integrator stopped at every phase) and relative
    coefficient tail.  ``period_slices`` is the number S of slices stepped
    side by side for the map (n <= 4), 0 when it was integrated
    sequentially; ``steps_accepted``, ``steps_rejected`` and ``rhs_evals``
    then count block steps of those S slices.
    """

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
    period_slices: int = 0

    def as_dict(self):
        return dict(vars(self))


@dataclass(eq=False)
class EvolutionResult:
    """Lab-frame states at the requested times plus run diagnostics."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: Diagnostics

    def expectation(self, operator):
        """Tr(operator @ rho(t)) for every output time."""
        return np.einsum("ij,tji->t", np.asarray(operator, dtype=complex), self.states)


def _evolve(gen, rho0, times, tol, **terms):
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
    lab, _, stats, (nodes, tail, slices) = _propagate(gen, v0[:, None], times, tol)
    solution_time = _time.perf_counter() - t_solve

    states = lab[..., 0]
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
        period_slices=slices,
        **terms,
    )
    result = EvolutionResult(times=times, states=states, diagnostics=diag)
    diag.total_time_s = _time.perf_counter() - t_start
    return result


def evolve(rates, basis, rho0, times, tol=None):
    """Propagate a lab-frame density matrix under the decomposed rate matrix.

    ``rho0`` is the state at t = 0; it is rotated into the Floquet mode
    basis and propagated by the one-period map (see :func:`_propagate`) to
    ``times`` (strictly increasing, nonnegative), and lab-frame states are
    reconstructed with the Floquet mode matrix.  The step and RHS counts in
    the diagnostics are those of the one-period integration (see
    :class:`Diagnostics`).
    """
    return _evolve(_rate_generator(rates, basis), rho0, times, tol,
                   term_count_static=rates.kept_static,
                   term_count_oscillating=rates.kept_oscillating,
                   n_frequency_groups=rates.n_frequency_groups,
                   dropped_terms=rates.dropped_count,
                   candidate_terms=rates.candidate_terms,
                   fourier_tail=rates.fourier_tail)

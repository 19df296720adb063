"""Test oracles: independent, slow constructions of what the package computes.

The tuple-by-tuple oracles for the decomposed rate superoperator enumerate
every index pair ``(alpha, beta, k), (alpha', beta', k')`` of one channel
explicitly, so they are quadratic in the tuple count and meant for small
systems; each tuple's superoperator is a sum of Kronecker products
(:func:`sandwich_superop`).  They share only ``fourier_coefficients`` with
the harmonic store that ``build_terms`` fills.  That store keeps harmonics
m >= 0 only; :func:`full_harmonics` expands it to every m by the mirror
identity on its own, without the package's evaluation of R(t).  The
Lindblad generator as an explicit
superoperator (Kronecker products) and in matrix form (:func:`matrix_rhs`),
full-span stepping and stop-by-stop stepping of one period
(:func:`sequential_stops`) check the direct solver and the one-period
map, whose small systems step slices of the period side by side.  The
solver propagates in real coordinates; :func:`hermitian_basis` builds their
basis as an explicit unitary matrix, entry by entry.
"""

from dataclasses import dataclass

import numpy as np

from flime import fourier_coefficients, integrate_adaptive
from flime.qops import unfold
from flime.solver import _SECULAR_REL_TOL


def hermitian_basis(n):
    """The unitary U whose columns are the real-coordinate basis of the
    solver: for supervector positions p = i0 * n + i1, e_p on the diagonal
    (i0 == i1) and, for each pair i0 < i1 with transposed position p~,
    (e_p + e_p~)/sqrt(2) in column p and i(e_p - e_p~)/sqrt(2) in column p~.
    Coordinates are r = U^dag v, superoperators U^dag A U."""
    u = np.zeros((n * n, n * n), dtype=complex)
    for i0 in range(n):
        for i1 in range(n):
            p, pt = i0 * n + i1, i1 * n + i0
            if i0 == i1:
                u[p, p] = 1.0
            elif i0 < i1:
                u[p, p] = u[pt, p] = np.sqrt(0.5)
                u[p, pt] = 1j * np.sqrt(0.5)
                u[pt, pt] = -1j * np.sqrt(0.5)
    return u


def sandwich_superop(x, y):
    """Superoperator M with M @ unfold(rho) == unfold(x @ rho @ y).

    Under column stacking this is the Kronecker product transpose(y) (x) x.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return np.kron(y.T, x)


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


def _tuples(basis, channel, k_max):
    """Flattened (alpha, beta, k) indices, coefficients and rotation frequencies."""
    coeffs = fourier_coefficients(basis, channel.operator, k_max).coeffs
    n = basis.dim
    a_idx, b_idx, k_idx = (ix.ravel() for ix in np.indices((n, n, 2 * k_max + 1)))
    ks = k_idx - k_max
    eps = basis.quasienergies
    return a_idx, b_idx, ks, coeffs.reshape(-1), eps[a_idx] - eps[b_idx] + ks * basis.omega


def enumerate_terms(basis, channel, k_max, coeff_floor=0.0):
    """Yield every :class:`RateTerm` with coefficient product above the floor,
    without secular filtering."""
    a_idx, b_idx, ks, coeff, rot_freq = _tuples(basis, channel, k_max)
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


def dissipator_bruteforce(basis, channels, rho, t, k_max=20):
    """Direct tuple-by-tuple dissipator evaluation.

    Sums ``rate * (S1 rho S2^dag - (1/2){S2^dag S1, rho})`` over all index
    tuples with the time-dependent phases attached to the operators, with no
    filtering.
    """
    rho = np.asarray(rho, dtype=complex)
    n = basis.dim
    out = np.zeros((n, n), dtype=complex)
    for ch in channels:
        a_idx, b_idx, _, coeff, rot_freq = _tuples(basis, ch, k_max)
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


def full_harmonics(rates):
    """The full stack R~_m, m = -2 k_max ... 2 k_max, shape
    (4 k_max + 1, n^2, n^2), and the frequency m*omega + gaps[p] - gaps[q]
    of each entry, from the stored m >= 0 by R~_{-m}[p, q] = conj(R~_m[p~, q~])
    with p~ the transposed supervector index."""
    n = rates.dim
    half = rates.harmonics.reshape(-1, n, n, n, n)
    mirrored = half[:0:-1].transpose(0, 2, 1, 4, 3).conj()
    full = np.concatenate((mirrored, half)).reshape(-1, n * n, n * n)
    m = np.arange(-2 * rates.k_max, 2 * rates.k_max + 1) * rates.omega
    freqs = m[:, None, None] + np.subtract.outer(rates.gaps, rates.gaps)[None]
    return full, freqs


def oscillating_terms(rates):
    """Yield ``(delta, superoperator)`` for each frequency group of a rate set:
    the oscillating harmonic-store entries whose frequency is nearest delta."""
    full, freqs = full_harmonics(rates)
    oscillating = np.abs(freqs) > _SECULAR_REL_TOL * rates.omega
    nearest = np.argmin(np.abs(freqs[..., None] - rates.deltas), axis=-1)
    for g, delta in enumerate(rates.deltas):
        yield float(delta), np.sum(full, axis=0, where=oscillating & (nearest == g))


def term_counts(basis, channel, k_max, secular_cutoff, coeff_floor):
    """``(candidates, kept_static, kept_oscillating, deltas)`` of one channel
    by the filtering rule, tuple pair by tuple pair: the floor, then
    ``delta == 0`` kept, then the negligibility test.  ``deltas`` are the
    kept oscillating frequencies, merged where neighbours differ by at most
    1e-12 relative, each group by its mean."""
    tol = _SECULAR_REL_TOL * basis.omega
    candidates = static = 0
    kept = []
    for term in enumerate_terms(basis, channel, k_max, coeff_floor):
        candidates += 1
        if abs(term.delta) <= tol:
            static += 1
        elif term.negligibility <= secular_cutoff:
            kept.append(term.delta)
    groups = []
    for delta in sorted(kept):
        if groups and delta - groups[-1][-1] <= 1e-12 * max(abs(groups[-1][-1]), basis.omega):
            groups[-1].append(delta)
        else:
            groups.append([delta])
    return candidates, static, len(kept), np.array([np.mean(g) for g in groups])


def factored_matrix(rates, basis):
    """Floquet-picture rate matrix R(t) of a complete rate set from the
    single Lindblad operators S(t) = sum_k c_k exp(1j*(eps_a - eps_b + k*omega)*t)
    of each channel, as Kronecker products in column stacking: shape
    (n^2, n^2) for a scalar t, (*t.shape, n^2, n^2) for an array of times,
    one time at a time."""
    n = basis.dim
    eps = basis.quasienergies
    eye = np.eye(n, dtype=complex)
    ks = np.arange(-rates.k_max, rates.k_max + 1)
    items = [(ch.rate, fourier_coefficients(basis, ch.operator, rates.k_max).coeffs)
             for ch in rates.channels]

    def one(t):
        kph = np.exp(1j * ks * basis.omega * t)
        eph = np.exp(1j * eps * t)
        out = np.zeros((n * n, n * n), dtype=complex)
        for rate, coeffs in items:
            s = (coeffs @ kph) * np.outer(eph, eph.conj())
            sds = s.conj().T @ s
            out += rate * (np.kron(s.conj(), s) - 0.5 * np.kron(eye, sds)
                           - 0.5 * np.kron(sds.T, eye))
        return out

    def at(t):
        t = np.asarray(t, dtype=float)
        return np.array([one(x) for x in t.ravel()]).reshape(t.shape + (n * n, n * n))

    return at


def _dissipator_superop(channels, n):
    eye = np.eye(n, dtype=complex)
    d = np.zeros((n * n, n * n), dtype=complex)
    for ch in channels:
        s = ch.operator
        sds = s.conj().T @ s
        d += ch.rate * (np.kron(s.conj(), s)
                        - 0.5 * np.kron(eye, sds)
                        - 0.5 * np.kron(sds.T, eye))
    return d


def liouvillian_at(spec, t):
    """Lindblad generator as a superoperator under the column-stacking layout."""
    n = spec.dim
    h = spec.hamiltonian(t)
    eye = np.eye(n, dtype=complex)
    coherent = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    return coherent + _dissipator_superop(spec.channels, n)


def matrix_rhs(spec):
    """Right-hand side v -> unfold(-1j[H(t), rho] + dissipator) in matrix form.

    ``v`` is a flattened ``(n^2, B)`` block of supervectors (B = 1 for a
    single one), and every column is advanced by the same matrix products.
    """
    n = spec.dim
    hamiltonian = spec.hamiltonian
    ops = [(ch.rate, ch.operator, ch.operator.conj().T, ch.operator.conj().T @ ch.operator)
           for ch in spec.channels if ch.rate > 0.0]

    def rhs(t, v):
        rho = v.reshape(n, n, -1).T
        h = hamiltonian(t)
        drho = -1j * (h @ rho - rho @ h)
        for rate, s, sd, sds in ops:
            drho += rate * (s @ rho @ sd - 0.5 * (sds @ rho + rho @ sds))
        return drho.T.ravel()

    return rhs


def direct_full_span(spec, rho0, times, tol):
    """Lab-frame states from stepping the direct generator over the whole
    span, with the integrator stopping exactly at every one of ``times``."""
    n = spec.dim
    max_step = tol.max_step * spec.hamiltonian.period if tol.max_step is not None else np.inf
    vecs, _ = integrate_adaptive(matrix_rhs(spec), 0.0, unfold(rho0), times,
                                 rtol=tol.rtol, atol=tol.atol, max_step=max_step)
    return vecs.reshape(-1, n, n).transpose(0, 2, 1)


def sequential_stops(gen, y0, stops, tol):
    """Solution of dv/dt = A(t) v, v(0) = y0 an (n^2, B) block, of the
    generator ``gen`` (``solver._Generator``) at the increasing ``stops``,
    shape (len(stops), n^2, B): the flattened block stepped from stop to
    stop by one ``integrate_adaptive`` call, with A(t) formed at one time
    per stage and the step capped as the one-period map caps it."""
    nn = gen.dim * gen.dim
    max_step = tol.max_step * gen.period if tol.max_step is not None else gen.max_step

    def rhs(t, v):
        return (gen.matrix(t) @ v.reshape(nn, -1)).ravel()

    out, _ = integrate_adaptive(rhs, 0.0, y0.ravel(), stops, rtol=tol.rtol, atol=tol.atol,
                                max_step=max_step)
    return out.reshape(len(stops), nn, -1)


def sequential_powers(pmap, block, periods):
    """``pmap**j @ block`` for the increasing ``periods`` j, one product per
    period, in the precision of the inputs."""
    out = np.empty((len(periods),) + block.shape, dtype=np.result_type(pmap, block))
    w, j = block, 0
    for k, target in enumerate(periods):
        for _ in range(target - j):
            w = pmap @ w
        j = target
        out[k] = w
    return out

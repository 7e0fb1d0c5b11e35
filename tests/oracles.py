"""Independent oracles used to freeze expected values.

Everything here is deliberately coded apart from the library implementations
it checks: the Volterra memory-kernel solver for the cavity amplitude, a
second Hilbert-Schmidt sampler, a direct dissipator evaluation and the
generator matrix built from it, a map applied to a state by its column
stacking, the closed-form amplitude-damping solution,
a brute-force bath average for the central-spin model, a cyclic Jacobi
eigenvalue sweep in place of LAPACK, a step-by-step RK4 flow, the canonical
decoherence rates of a generator, and the one-pair-at-a-time measure: trace
distances and the rising steps of each pair on its own, the
SplitMix64 pair-direction stream in Python integers, and the CLI's output
writers as they were written cell by cell on csv.writer and json.dump.

It also holds the seeded random-state sampler that the tests draw their
states from (random_states and its one-state forms); the library itself
draws no random states. callable_d3_generator is a test input that the flow
tests of dynamics and measure share.
"""
import csv
import json
import math

import numpy as np

from nmflow.dynamics import GeneratorSpec
from nmflow.states import DensityMatrix


def volterra_amplitude(gamma0, lam, delta, t_max, n_steps):
    """Trapezoidal solution of the memory-kernel amplitude equation.

    dG/dt = -int_0^t K(t - t') G(t') dt' with K(tau) = (gamma0*lam/2)
    exp(-(lam - i*delta) tau), G(0) = 1. The trapezoidal history sum over an
    exponential kernel admits an exact one-step recurrence, and G is advanced
    with the (implicit) trapezoidal rule, giving a second-order scheme.

    Returns (times, G values) on the uniform grid.
    """
    c = lam - 1j * delta
    strength = 0.5 * gamma0 * lam
    h = t_max / n_steps
    decay = np.exp(-c * h)

    times = np.linspace(0.0, t_max, n_steps + 1)
    g = np.empty(n_steps + 1, dtype=complex)
    g[0] = 1.0
    memory = 0.0 + 0.0j  # trapezoidal value of int_0^{t_n} e^{-c(t_n-t')} G dt'
    gdot_prev = 0.0 + 0.0j
    denom = 1.0 + strength * h * h / 4.0
    for n in range(1, n_steps + 1):
        partial = decay * memory + 0.5 * h * decay * g[n - 1]
        g[n] = (g[n - 1] + 0.5 * h * gdot_prev - 0.5 * h * strength * partial) / denom
        memory = partial + 0.5 * h * g[n]
        gdot_prev = -strength * memory
    return times, g


def hilbert_schmidt_sample(rng, dim):
    """Second, independently coded Hilbert-Schmidt sampler (interleaved reals)."""
    reals = rng.normal(size=(dim, dim, 2))
    g = reals[..., 0] + 1j * reals[..., 1]
    w = g @ g.conj().T
    return w / np.trace(w).real


def lindblad_rhs(h, ops, rates, rho):
    """Direct evaluation of the time-local generator on a matrix."""
    out = -1j * (h @ rho - rho @ h)
    for op, rate in zip(ops, rates):
        out = out + rate * (
            op @ rho @ op.conj().T
            - 0.5 * (op.conj().T @ op @ rho + rho @ op.conj().T @ op)
        )
    return out


def generator_superoperator(gen, t):
    """d^2 x d^2 matrix of the generator at time t on column-stacked
    matrices: column j + d*k is vec(L(E_jk)), with L evaluated by
    lindblad_rhs from the operators and rates of the GeneratorSpec at t."""
    at = lambda f: f(t) if callable(f) else f
    d = gen.dim
    h = np.asarray(at(gen.hamiltonian), dtype=complex)
    ops = [np.asarray(at(op), dtype=complex) for op, _ in gen.channels]
    rates = [float(at(rate)) for _, rate in gen.channels]
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d).swapaxes(1, 2)
    return np.stack(
        [lindblad_rhs(h, ops, rates, e).reshape(-1, order="F") for e in units], axis=1
    )


def apply_map(s, rho):
    """The column-stacked map s, shape (d^2, d^2), applied to rho (a
    DensityMatrix or any d x d matrix): vec(Phi(rho)) = S vec(rho)."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return (s @ m.reshape(-1, order="F")).reshape(m.shape, order="F")


def amplitude_damping_solution(gamma0, rho0, t):
    """Closed-form constant-rate amplitude damping of a qubit state.

    Excited population decays as exp(-gamma0 t), coherences as
    exp(-gamma0 t / 2), the ground population absorbs the rest.
    """
    e = np.exp(-gamma0 * t)
    s = np.exp(-0.5 * gamma0 * t)
    out = np.empty((2, 2), dtype=complex)
    out[0, 0] = rho0[0, 0] * e
    out[0, 1] = rho0[0, 1] * s
    out[1, 0] = rho0[1, 0] * s
    out[1, 1] = 1.0 - out[0, 0]
    return out


def spin_bath_coherence_factor(coupling, n_spins, t):
    """Bath average of the dephasing phase by brute-force enumeration.

    For a maximally mixed bath the coherence picks up exp(-2i*coupling*t*m)
    with m = sum_k s_k over all 2^N configurations s_k = +-1, each weighted
    equally. Enumerates every configuration via its popcount.
    """
    configs = np.arange(2 ** n_spins, dtype=np.uint64)
    ones = np.zeros(configs.size, dtype=np.int64)
    x = configs.copy()
    while np.any(x):
        ones += (x & 1).astype(np.int64)
        x >>= 1
    m = n_spins - 2 * ones
    return np.mean(np.exp(-2j * coupling * t * m))


def jacobi_eigenvalues(m, tol=1e-13, max_sweeps=60):
    """Eigenvalues (ascending) of a Hermitian matrix by cyclic complex Jacobi.

    Each rotation zeroes one off-diagonal entry a[p, q]; sweeps repeat until
    the off-diagonal Frobenius norm falls below tol times the matrix scale.
    """
    a = np.array(m, dtype=complex)
    d = a.shape[0]
    threshold = tol * max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= threshold:
            return np.sort(np.diag(a).real)
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) <= threshold / (d * d):
                    continue
                phase = apq / abs(apq)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(apq))
                t = np.copysign(1.0, tau) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Columns transform by the rotation, rows by its adjoint.
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * phase * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * np.conj(phase) * row_p + c * row_q
    raise RuntimeError(f"Jacobi sweep did not converge in {max_sweeps} sweeps")


def rk4_flow(superoperator_at, t_grid):
    """Phi(t_k, t_0) on a uniform grid by one classical RK4 step per interval.

    superoperator_at(t) gives the d^2 x d^2 generator matrix K(t). The whole
    stage stack (every grid point and midpoint) is built first, then each
    step advances the running propagator S by dS/dt = K(t) S.
    """
    t = np.asarray(t_grid, dtype=float)
    h = t[1] - t[0]
    ks = [superoperator_at(t[0] + 0.5 * h * j) for j in range(2 * t.size - 1)]
    s = np.eye(ks[0].shape[0], dtype=complex)
    flow = [s]
    for k in range(t.size - 1):
        ka, km, kb = ks[2 * k], ks[2 * k + 1], ks[2 * k + 2]
        k1 = ka @ s
        k2 = km @ (s + 0.5 * h * k1)
        k3 = km @ (s + 0.5 * h * k2)
        k4 = kb @ (s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        flow.append(s)
    return np.stack(flow)


def canonical_rates(h, ops, rates):
    """Canonical decoherence rates of the generator with Hamiltonian h and
    (jump operator, rate) channels at one time, ascending.

    They are the eigenvalues of the decoherence matrix c_ij in an orthonormal
    traceless operator basis F_1..F_{d^2-1}, where the dissipator reads
    sum_ij c_ij (F_i rho F_j^dag - {F_j^dag F_i, rho}/2). The evolution is
    CP-divisible exactly when none is negative (Hall, Cresser, Li, Andersson,
    PRA 89, 042120 (2014)). The generator enters only through lindblad_rhs on
    the matrix units: J = sum_ab L(E_ab) kron E_ab maps F rho G^dag to
    |F>><<G| with |F>> = F.reshape(-1), and the parts of L of the form
    G rho + rho G^dag only touch |I>>, so c = V^dag J V for the orthonormal
    traceless basis vectors V.
    """
    d = h.shape[0]
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    j = sum(np.kron(lindblad_rhs(h, ops, rates, e), e) for e in units)
    # Orthonormal traceless basis: the orthogonal complement of |I>>.
    identity = np.eye(d, dtype=complex).reshape(-1, 1) / np.sqrt(d)
    q, _ = np.linalg.qr(np.hstack([identity, np.eye(d * d, dtype=complex)]))
    v = q[:, 1 : d * d]
    c = v.conj().T @ j @ v
    return np.linalg.eigvalsh(0.5 * (c + c.conj().T))


def pauli_map(flow):
    """Real Pauli-basis map M(t) = P^dag Phi(t) P[:, 1:] / 2 of a qubit flow,
    stored (4, 3, T), by complex products over slices of 1024 grid points;
    P holds the column-stacked Pauli matrices I, X, Y, Z."""
    p = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]]).T
    op = np.empty((4, 3, len(flow)))
    for k in range(0, len(flow), 1024):
        m = p.conj().T @ flow[k : k + 1024] @ p[:, 1:]
        op[..., k : k + 1024] = 0.5 * m.real.transpose(1, 2, 0)
    return op


def qubit_distance_grid(diff_vecs):
    """Trace distances of column-stacked 2x2 Hermitian differences, vectorized.

    For a Hermitian 2x2 difference the distance is max(|mean|, radius) with
    mean and radius from the closed-form eigenvalues.
    """
    p = diff_vecs[:, 0].real
    q = diff_vecs[:, 2]
    r = diff_vecs[:, 3].real
    mean = 0.5 * (p + r)
    radius = np.sqrt((0.5 * (p - r)) ** 2 + np.abs(q) ** 2)
    return np.maximum(np.abs(mean), radius)


def pair_distances(flow, pair):
    """D(t_k) of one pair under the flow Phi(t_k, 0), shape (T, d^2, d^2):
    one complex matrix-vector product, then the qubit closed form or one
    eigenvalue call per grid point."""
    d = pair.rho1.matrix.shape[0]
    diff0 = (pair.rho1.matrix - pair.rho2.matrix).reshape(-1, order="F")
    diffs = (flow.reshape(-1, d * d) @ diff0).reshape(flow.shape[0], d * d)
    if d == 2:
        return qubit_distance_grid(diffs)
    m = diffs.reshape(-1, d, d).swapaxes(1, 2)
    m = 0.5 * (m + m.swapaxes(1, 2).conj())
    return np.array([0.5 * np.sum(np.abs(np.linalg.eigvalsh(x))) for x in m])


def pair_growth(times, d_values):
    """Growth intervals (a, b, D(b) - D(a)) of one sampled D(t), one grid
    step at a time: the maximal runs of steps on which D rises by more than
    1e-13."""
    t, d = np.asarray(times).tolist(), np.asarray(d_values).tolist()
    intervals, start = [], None
    for k in range(len(d)):
        rising = k + 1 < len(d) and d[k + 1] - d[k] > 1e-13
        if rising and start is None:
            start = k
        elif not rising and start is not None:
            intervals.append((t[start], t[k], d[k] - d[start]))
            start = None
    return intervals


def pair_value(flow, pair, times):
    """(N, intervals) of one pair, or (None, reason) if its D leaves [0, 1]
    beyond 1e-8 or is not finite."""
    d = pair_distances(flow, pair)
    bad = ~(d <= 1.0 + 1e-8)
    if bad.any():
        k = int(np.argmax(bad))
        return None, f"trace distance {d[k]:.6g} exceeds 1 or is not finite at t={times[k]:.6g}"
    intervals = pair_growth(times, np.clip(d, 0.0, 1.0))
    return sum(c for _, _, c in intervals), intervals


def seeded_state(dim, seed, worker, mixed):
    """One state drawn on its own, as random_states draws it state by state:
    the stream SeedSequence((seed, worker)) (or (seed,) for worker None),
    real then imaginary normals, np.linalg.norm and np.outer for a pure
    state, G G^dag / tr for a mixed one."""
    key = (seed,) if worker is None else (seed, worker)
    rng = np.random.default_rng(np.random.SeedSequence(key))
    if mixed:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        w = g @ g.conj().T
        return w / np.trace(w).real
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


MASK64 = (1 << 64) - 1


def splitmix64(seed, j):
    """Output j of the SplitMix64 stream of seed, in Python integers masked
    to 64 bits: the state after j + 1 steps of the golden-ratio increment,
    then the mix (Steele, Lea, Flood, OOPSLA 2014)."""
    z = (seed + (j + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix_normals(seed, start, count):
    """Normals start .. start + count - 1 (start and count even) of the pair
    stream of seed, one Box-Muller pair at a time: r cos(theta), r sin(theta)
    with r = sqrt(-2 log1p(-u_2k)), theta = 2 pi u_2k+1, u_j = (output j >> 11)
    2^-53. The transcendental functions are NumPy's, called on one value at a
    time: NumPy's SIMD log1p need not round as the C library's does."""
    out = []
    for k in range(start // 2, (start + count) // 2):
        u, v = (float(splitmix64(seed, j) >> 11) * 2.0**-53 for j in (2 * k, 2 * k + 1))
        r, theta = math.sqrt(-2.0 * float(np.log1p(-u))), 2.0 * math.pi * v
        out += [r * float(np.cos(theta)), r * float(np.sin(theta))]
    return out


def state_rng(seed, worker=None):
    """Seeded generator; (seed, worker) derives an independent stream per worker."""
    key = (seed,) if worker is None else (seed, worker)
    if not all(isinstance(k, (int, np.integer)) for k in key):
        raise ValueError(f"seed and worker must be integers, got {key}")
    return np.random.default_rng(np.random.SeedSequence(key))


def random_states(dim, seeds, workers, mixed):
    """Stack (n, dim, dim) of unvalidated draws (see check_states), state k
    from the stream state_rng(seeds[k], workers[k]): a Haar pure state
    |psi><psi|, or where mixed[k] a Hilbert-Schmidt state G G^dag / tr with
    G square complex Ginibre. Each state only fills its row of normals (real
    parts first, then imaginary); the arithmetic runs stacked."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    # Pure states fill rows[0] and raw[0], mixed ones rows[1] and raw[1].
    n = len(workers)
    rows, raw = ([], []), (np.empty((n, 2 * dim)), np.empty((n, 2 * dim**2)))
    for k, (seed, worker, m) in enumerate(zip(seeds, workers, map(bool, mixed), strict=True)):
        state_rng(seed, worker).standard_normal(out=raw[m][len(rows[m])])
        rows[m].append(k)
    out = np.empty((n, dim, dim), dtype=complex)
    (pure, mixed), (x, y) = rows, raw
    if pure:
        psi = x[: len(pure), :dim] + 1j * x[: len(pure), dim:]
        # np.linalg.norm's dot products on the strided parts, bit for bit.
        psi /= np.sqrt(sum(v[:, None] @ v[:, :, None] for v in (psi.real, psi.imag)))[:, 0]
        out[pure] = psi[:, :, None] * psi.conj()[:, None, :]
    if mixed:
        g = (y[: len(mixed), : dim**2] + 1j * y[: len(mixed), dim**2 :]).reshape(-1, dim, dim)
        w = g @ g.conj().swapaxes(1, 2)
        out[mixed] = w / np.trace(w, axis1=1, axis2=2).real[:, None, None]
    return out


def random_pure_state(dim, seed, worker=None):
    """Rank-1 projector |psi><psi| with |psi| Haar-distributed on the sphere."""
    return DensityMatrix(random_states(dim, [seed], [worker], [False])[0])


def random_mixed_state(dim, seed, worker=None):
    """Hilbert-Schmidt-ensemble state: G G^dag / tr with G square complex Ginibre."""
    return DensityMatrix(random_states(dim, [seed], [worker], [True])[0])


def callable_d3_generator():
    """d = 3 generator whose Hamiltonian, jump operator and rate all depend on
    time, so that every operator is evaluated at each stage time."""
    rng = np.random.default_rng(47)
    h0, h1 = (0.5 * (a + a.conj().T) for a in (
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)))
    a, b = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
    rate = lambda t: 0.3 + 0.1 * np.cos(np.asarray(t))
    return GeneratorSpec(
        3, lambda t: h0 + np.sin(t) * h1, [(lambda t: a + np.cos(2.0 * t) * b, rate)]
    )


def format_number(x):
    """One CSV cell as the cell-by-cell writer formatted it."""
    if isinstance(x, bool):
        return "true" if x else "false"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def write_csv(path, header, rows):
    """The byte oracle of cli.write_csv: csv.writer, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_number(x) for x in row])


def records(header, rows):
    """The rows as JSON records keyed by header, NaN as null."""
    return [dict(zip(header, (None if x != x else x for x in row))) for row in rows]


def write_json(path, payload, schema_version):
    """The byte oracle of cli.write_json, with every cli.Records value of the
    payload given as records(header, rows): json.dump over the payload."""
    payload = {"schema_version": schema_version, **payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")

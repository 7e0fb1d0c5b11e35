"""Exactly solvable test models exposed as generators and analytic evaluators.

Damped two-level atom in a lossy cavity (Lorentzian reservoir): the coherence
amplitude G(t) solves G'' + (lambda - i*Delta) G' + (gamma0*lambda/2) G = 0
with G(0)=1, G'(0)=0. The decay rate gamma(t) = -2 Re(G'/G) oscillates and
goes negative at large detuning; its integral Gamma(t) = -2 ln|G(t)| stays
nonnegative, so the full map remains CP. That map is amplitude damping with
coherence factor |G(t)|, which jc_flow gives exactly on a time grid, also
across the zeros of G where the rate has poles; semigroup_flow is the case
of a constant rate. The two-time maps Phi(t_b, t_a) are amplitude damping
too, with factor |G(t_b)/G(t_a)|: jc_divisibility and semigroup_divisibility
give their CP verdicts in closed form.

Central spin dephasing in a bath of N spins (maximally mixed bath):
populations are frozen and coherences are multiplied by f(t) = cos^N(2At),
which spinbath_flow gives exactly on a time grid. The three exact flows are
one phase-covariant qubit map, streamed by _phase_covariant_flow.
The formal rate A*N*tan(2At) is singular at 2At = pi/2 mod pi.
"""
import math

import numpy as np

from .dynamics import STEP_BLOCK, DivisibilityReport, GeneratorSpec
from .exceptions import NumericalError
from .states import SIGMA_MINUS

AMPLITUDE_FLOOR = 1e-300
POLE_TOL = 1e-9


class JCParams:
    """Lorentzian-reservoir parameters: coupling gamma0, width lam, detuning delta.

    All three carry units of inverse time; the weak-coupling default is
    gamma0/lam = 0.01.
    """

    def __init__(self, gamma0=0.01, lam=1.0, delta=0.0):
        if gamma0 <= 0:
            raise ValueError(f"gamma0 must be positive, got {gamma0}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.gamma0, self.lam, self.delta = gamma0, lam, delta


def _jc_amplitude_and_derivative(params, t):
    """(G, dG/dt) in an overflow-safe two-exponential form; t scalar or array."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    c = params.lam - 1j * params.delta
    dd = np.sqrt(c * c - 2.0 * params.gamma0 * params.lam)
    if abs(dd) < 1e-8 * max(1.0, abs(c)):
        # Double-root limit: G = (1 + c t / 2) exp(-c t / 2).
        decay = np.exp(-0.5 * c * t)
        g = (1.0 + 0.5 * c * t) * decay
        gdot = -0.5 * params.gamma0 * params.lam * t * decay
        return g, gdot
    ep = np.exp(0.5 * (dd - c) * t)
    em = np.exp(-0.5 * (dd + c) * t)
    g = 0.5 * ((1.0 + c / dd) * ep + (1.0 - c / dd) * em)
    gdot = -(params.gamma0 * params.lam / (2.0 * dd)) * (ep - em)
    return g, gdot


def jc_amplitude(params, t):
    """Coherence amplitude G(t), with G(0) = 1 and |G(t)| <= 1."""
    g, _ = _jc_amplitude_and_derivative(params, t)
    return complex(g) if np.isscalar(t) or np.ndim(t) == 0 else g


def jc_rate(params, t):
    """Instantaneous decay rate gamma(t) = -2 Re(G'(t) / G(t))."""
    g, gdot = _jc_amplitude_and_derivative(params, t)
    absg = np.abs(g)
    if np.any(absg <= AMPLITUDE_FLOOR):
        raise NumericalError("amplitude zero-crossing: |G(t)| underflowed, the rate is singular")
    rate = -2.0 * np.real(gdot / g)
    return float(rate) if rate.ndim == 0 else rate


def jc_decay_exponent(params, t):
    """Integrated rate Gamma(t) = -2 ln|G(t)| (so |G|^2 = exp(-Gamma))."""
    g, _ = _jc_amplitude_and_derivative(params, t)
    absg = np.abs(g)
    if np.any(absg <= AMPLITUDE_FLOOR):
        raise NumericalError("amplitude zero-crossing: Gamma(t) diverges")
    out = -2.0 * np.log(absg)
    return float(out) if out.ndim == 0 else out


def jc_generator(params, nonnegative_rate=False):
    """d=2 generator: H = 0, single channel (sigma_minus, gamma(t)).

    nonnegative_rate=True clamps gamma at zero, giving the time-dependent
    Markovian variant of the same model.
    """
    if nonnegative_rate:
        rate = lambda t: np.maximum(0.0, jc_rate(params, t))
    else:
        rate = lambda t: jc_rate(params, t)
    return GeneratorSpec(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                         channels=[(SIGMA_MINUS, rate)])


def _phase_covariant_flow(times, coherence, damped):
    """Exact flow Phi(t_k, 0) of a phase-covariant qubit map on times, as a
    stream of (k0, block) like dynamics.flow_blocks, of at most STEP_BLOCK
    grid points per block. On column-stacked 2x2 matrices, index 0 the
    excited level, both coherences are scaled by c = coherence(t) and the
    excited population by p, the rest of it going to the ground level: p =
    c^2 for amplitude damping (damped), where c = 0 is the full decay, not
    an error, and p = 1 for pure dephasing. c is evaluated one block of
    times at a time: the complex temporaries of |G| on the whole grid raised
    the peak RSS of the README jc measure by about 1 MB."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    for k0 in range(0, times.size, STEP_BLOCK):
        c = coherence(times[k0 : k0 + STEP_BLOCK])
        p = c * c if damped else 1.0
        block = np.zeros((c.size, 4, 4), dtype=complex)
        block[:, 0, 0] = p
        block[:, 1, 1] = block[:, 2, 2] = c
        block[:, 3, 0] = 1.0 - p
        block[:, 3, 3] = 1.0
        yield k0, block


def jc_flow(params, times):
    """Exact flow of jc_generator(params) on times: amplitude damping with
    coherence factor |G(t)| (see _phase_covariant_flow)."""
    return _phase_covariant_flow(times, lambda t: np.abs(jc_amplitude(params, t)), damped=True)


def _damping_divisibility(start, end, grid, tol):
    """The DivisibilityReport (see dynamics.divisibility_report) of
    amplitude damping on the grid's intervals [t_a, t_b], from its
    coherence factors start = c(t_a) and end = c(t_b). Phi(t_b, t_a) is
    amplitude damping with factor r = c_b / c_a, whose Choi spectrum is 0,
    0, 1 + r^2 and 1 - r^2, so its least eigenvalue is min(0, 1 - r^2).
    Only c_a is divided by, never the population factor c_a^2, which
    underflows long before c_a does.

    Raises NumericalError naming the first interval whose map is undefined,
    c_a <= AMPLITUDE_FLOOR as in jc_rate, or whose eigenvalue is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = end / start
        least = np.minimum(0.0, 1.0 - r * r)
    start = np.broadcast_to(start, least.shape)
    undefined = ~(start > AMPLITUDE_FLOOR)
    bad = undefined | ~np.isfinite(least)
    if bad.any():
        k = int(np.argmax(bad))
        why = (f"undefined: the coherence factor at t={grid[k]} is {start[k]:.3g}, at most "
               f"{AMPLITUDE_FLOOR:.0e}" if undefined[k] else "not finite")
        raise NumericalError(f"interval {k} [{grid[k]}, {grid[k + 1]}]: two-time map {why}")
    return DivisibilityReport.of(grid, least, tol)


def jc_divisibility(params, grid, tol):
    """The exact DivisibilityReport of jc_generator(params) on the grid's
    intervals: coherence factors |G(t)| (see _damping_divisibility)."""
    c = np.abs(jc_amplitude(params, np.asarray(grid, dtype=float)))
    return _damping_divisibility(c[:-1], c[1:], grid, tol)


class SpinBathParams:
    """Central-spin model: coupling A (inverse time) and bath size N."""

    def __init__(self, coupling_a=1.0, n_spins=20):
        if coupling_a <= 0:
            raise ValueError(f"coupling_a must be positive, got {coupling_a}")
        if n_spins < 1:
            raise ValueError(f"n_spins must be >= 1, got {n_spins}")
        self.coupling_a, self.n_spins = coupling_a, n_spins


def spinbath_f(params, t):
    """Decoherence factor f(t) = cos^N(2At); |f| <= 1, sign from the cosine."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be nonnegative")
    out = np.cos(2.0 * params.coupling_a * t) ** params.n_spins
    return float(out) if out.ndim == 0 else out


def spinbath_trace_distance(params, a, b, t):
    """D(t) = sqrt(a^2 + f(t)^2 |b|^2) for population gap a, coherence gap b."""
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"population difference a must lie in [-1, 1], got {a}")
    f = spinbath_f(params, t)
    out = np.sqrt(a * a + f * f * abs(b) ** 2)
    return float(out) if np.ndim(out) == 0 else out


def spinbath_flow(params, times):
    """Exact flow Phi(t_k, 0) = diag(1, f, f, 1) on times: populations
    frozen, both coherences scaled by f(t_k) (see _phase_covariant_flow)."""
    return _phase_covariant_flow(times, lambda t: spinbath_f(params, t), damped=False)


def spinbath_pole_distance(params, t):
    """Distance from 2At to the nearest tan pole pi/2 mod pi."""
    x = np.mod(2.0 * params.coupling_a * np.asarray(t, dtype=float), math.pi)
    return np.abs(x - 0.5 * math.pi)


def spinbath_rate(params, t):
    """Formal dephasing rate gamma(t) = A N tan(2At); errors near the poles."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("time must be nonnegative")
    dist = spinbath_pole_distance(params, t_arr)
    if np.any(dist <= POLE_TOL):
        bad = float(np.atleast_1d(t_arr)[np.argmin(np.atleast_1d(dist))])
        k = round((2.0 * params.coupling_a * bad - 0.5 * math.pi) / math.pi)
        pole = (0.5 * math.pi + k * math.pi) / (2.0 * params.coupling_a)
        raise NumericalError(
            f"rate is singular: t={bad} lies within {POLE_TOL:.1e} of the pole t={pole}"
        )
    out = params.coupling_a * params.n_spins * np.tan(2.0 * params.coupling_a * t_arr)
    return float(out) if out.ndim == 0 else out


def semigroup_generator(gamma0):
    """Constant amplitude damping: H = 0, channel (sigma_minus, gamma0 >= 0)."""
    if gamma0 < 0:
        raise ValueError(f"semigroup rate must be nonnegative, got {gamma0}")
    return GeneratorSpec(dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                         channels=[(SIGMA_MINUS, float(gamma0))])


def semigroup_flow(gamma0, times):
    """Exact flow of semigroup_generator(gamma0) on times: amplitude damping
    with coherence factor exp(-gamma0 t / 2) (see _phase_covariant_flow)."""
    if gamma0 < 0:
        raise ValueError(f"semigroup rate must be nonnegative, got {gamma0}")
    return _phase_covariant_flow(times, lambda t: np.exp(-0.5 * gamma0 * t), damped=True)


def semigroup_divisibility(gamma0, grid, tol):
    """The exact DivisibilityReport of semigroup_generator(gamma0) on the
    grid's intervals. The semigroup is time-homogeneous, Phi(t_b, t_a) =
    Phi(t_b - t_a, 0), so its factor is exp(-gamma0 (t_b - t_a) / 2) and no
    flow value at t_a is divided by: that would fail where the flow
    underflows (see _damping_divisibility)."""
    if gamma0 < 0:
        raise ValueError(f"semigroup rate must be nonnegative, got {gamma0}")
    return _damping_divisibility(1.0, np.exp(-0.5 * gamma0 * np.diff(grid)), grid, tol)

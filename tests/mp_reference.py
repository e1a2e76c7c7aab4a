"""A 40-digit model of each scheme's gates and fidelity, for the tests only.

Each pulse's Hamiltonian is written here afresh, in the bare basis {|0>, |1>, |e>}, from the
path's fields: H = d0 |0><e| + d1 |1><e| + h.c. + detuning |e><e|, where drive k is off by its own
fraction (epsilon0 = epsilon + kappa, epsilon1 = epsilon - kappa) and the detuning by none.  Each
pulse is mpmath.expm(-1j area H) at ``DIGITS`` significant digits, and the gate is the pulses'
product in time order.  Nothing of holopath is used: neither the closed forms' tilted angles,
areas and projectors nor the oracle's schedules.  Path fields and error fractions are read as the
exact binary values of their floats, and pi is mpmath's, not the float.
"""

import mpmath
from mpmath import mpf

DIGITS = 40


def _pulses(scheme, path):
    """(area, rabi, mixing angle, (phase0, phase1), detuning) of each pulse, in time order."""
    pi, f = mpmath.pi, mpf
    if scheme == "two-loop":
        return [(pi, 1, f(lp.theta) / 2, (f(lp.phi), f(lp.phi) + f(lp.psi)), 0) for lp in (path.loop1, path.loop2)]
    if scheme == "single-loop":
        return [(pi / 2, 1, f(path.theta) / 2, (f(phi), f(phi) + f(path.psi)), 0) for phi in (path.phi, path.phi_prime)]
    gamma = f(path.gamma)
    return [(pi, mpmath.cos(gamma), f(path.alpha), (f(path.beta0), f(path.beta1)), 2 * mpmath.sin(gamma))]


def _gate(scheme, path, epsilon, kappa):
    fractions = (1 + mpf(epsilon) + mpf(kappa), 1 + mpf(epsilon) - mpf(kappa))
    total = mpmath.eye(3)
    for area, rabi, mixing, phases, detuning in _pulses(scheme, path):
        d0 = fractions[0] * rabi * mpmath.cos(mixing) * mpmath.expj(phases[0])
        d1 = fractions[1] * rabi * mpmath.sin(mixing) * mpmath.expj(phases[1])
        h = mpmath.matrix([[0, 0, d0], [0, 0, d1], [mpmath.conj(d0), mpmath.conj(d1), detuning]])
        total = mpmath.expm(-1j * area * h) * total
    return total


def _fidelity(v, ve):
    return abs(sum(mpmath.conj(v[i, j]) * ve[i, j] for i in range(3) for j in range(3))) / 3


def fidelities(scheme, path, points, digits=DIGITS):
    """|Tr(V^dag V_e)| / 3 at each (epsilon, kappa) of ``points``, as mpfs of ``digits`` digits.

    The ideal gate V is built once for all the points.
    """
    with mpmath.workdps(digits):
        ideal = _gate(scheme, path, 0, 0)
        return [_fidelity(ideal, _gate(scheme, path, epsilon, kappa)) for epsilon, kappa in points]


def quadratic_form(scheme, path, step="1e-12"):
    """(a, b, c) of 1 - F = a eps^2 + 2 b eps kappa + c kappa^2 as floats, by central differences of F.

    At 40 digits and a step of 1e-12 the differences' rounding (1e-40 / step^2) and truncation
    (step^2 times F's fourth derivatives) are both far below a float's last bit.
    """
    with mpmath.workdps(DIGITS):
        h = mpf(step)
        ideal = _gate(scheme, path, 0, 0)
        f = {(e, k): _fidelity(ideal, _gate(scheme, path, e * h, k * h)) for e in (-1, 0, 1) for k in (-1, 0, 1)}
        a = (2 * f[0, 0] - f[1, 0] - f[-1, 0]) / (2 * h * h)
        c = (2 * f[0, 0] - f[0, 1] - f[0, -1]) / (2 * h * h)
        b = -(f[1, 1] - f[1, -1] - f[-1, 1] + f[-1, -1]) / (8 * h * h)
        return float(a), float(b), float(c)

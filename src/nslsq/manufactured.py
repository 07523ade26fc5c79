"""Manufactured unit-square solution for convergence verification.

The exact velocity is the curl of psi = sin^2(pi x) sin^2(pi y) e^{-t}
(so u = (d_y psi, -d_x psi)): divergence-free, zero trace on the square,
decaying in time.  The body force closing the momentum equation is
computed with zero pressure.
"""

from __future__ import annotations

import numpy as np

PI = np.pi


def _factors(x: np.ndarray, t: float) -> tuple:
    """The sines, cosines and decay every formula below is written in, each
    evaluated once: (sin pi x, sin pi y, sin 2pi x, sin 2pi y, cos 2pi x,
    cos 2pi y, e^{-t})."""
    x = np.asarray(x)
    return (np.sin(PI * x[:, 0]), np.sin(PI * x[:, 1]),
            np.sin(2 * PI * x[:, 0]), np.sin(2 * PI * x[:, 1]),
            np.cos(2 * PI * x[:, 0]), np.cos(2 * PI * x[:, 1]), np.exp(-t))


def _velocity(sx, sy, s2x, s2y, c2x, c2y, s) -> np.ndarray:
    ux = PI * sx ** 2 * s2y * s
    uy = -PI * s2x * sy ** 2 * s
    return np.stack([ux, uy], axis=1)


def _gradient(sx, sy, s2x, s2y, c2x, c2y, s) -> np.ndarray:
    g = np.empty((len(sx), 2, 2))
    g[:, 0, 0] = PI**2 * s2x * s2y * s
    g[:, 0, 1] = 2 * PI**2 * sx**2 * c2y * s
    g[:, 1, 0] = -2 * PI**2 * c2x * sy**2 * s
    g[:, 1, 1] = -PI**2 * s2x * s2y * s
    return g


def _laplacian(sx, sy, s2x, s2y, c2x, c2y, s) -> np.ndarray:
    lx = 2 * PI**3 * s2y * (c2x - 2 * sx**2) * s
    ly = -2 * PI**3 * s2x * (c2y - 2 * sy**2) * s
    return np.stack([lx, ly], axis=1)


def exact_velocity(x: np.ndarray, t: float) -> np.ndarray:
    return _velocity(*_factors(x, t))


def exact_gradient(x: np.ndarray, t: float) -> np.ndarray:
    """Velocity gradient, shape (k, 2, 2), [c, d] = d_d u_c."""
    return _gradient(*_factors(x, t))


def exact_laplacian(x: np.ndarray, t: float) -> np.ndarray:
    return _laplacian(*_factors(x, t))


def forcing(nu: float):
    """Body force f = u_t - nu*Lap(u) + (u.grad)u with zero pressure; each
    call evaluates the sines and cosines once for all three terms."""

    def f(x, t):
        factors = _factors(x, t)
        u = _velocity(*factors)
        conv = np.einsum("kd,kcd->kc", u, _gradient(*factors))
        return -u - nu * _laplacian(*factors) + conv

    return f


def l2v_error_sq(space, grid, values: np.ndarray) -> float:
    """Squared L2(0,T;V) distance of the discrete levels 1..N to the exact
    solution, by degree-5 quadrature per level."""
    r = space.rule
    xq = r.x.reshape(-1, 2)
    total = 0.0
    for n in range(1, grid.N + 1):
        gh = space.velocity_grad_at_quad(np.asarray(values[n], dtype=np.float64))
        ge = exact_gradient(xq, grid.times()[n]).reshape(gh.shape)
        total += grid.dt * np.einsum("t,q,tqcd->", space.det, r.w, (gh - ge) ** 2)
    return float(total)

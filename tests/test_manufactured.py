import numpy as np
import pytest

from nslsq import manufactured as mf


@pytest.fixture(scope="module")
def sympy_fields():
    """Independent CAS derivation of the exact fields and forcing."""
    import sympy as sy

    x, y, t, nu = sy.symbols("x y t nu")
    psi = sy.sin(sy.pi * x) ** 2 * sy.sin(sy.pi * y) ** 2 * sy.exp(-t)
    ux = sy.diff(psi, y)
    uy = -sy.diff(psi, x)
    lap = [sy.diff(u, x, 2) + sy.diff(u, y, 2) for u in (ux, uy)]
    conv = [ux * sy.diff(u, x) + uy * sy.diff(u, y) for u in (ux, uy)]
    f = [sy.diff(u, t) - nu * l + c for u, l, c in zip((ux, uy), lap, conv)]
    args = (x, y, t)
    lam = sy.lambdify
    return {
        "u": (lam(args, ux), lam(args, uy)),
        "grad": [[lam(args, sy.diff(u, v)) for v in (x, y)] for u in (ux, uy)],
        "lap": (lam(args, lap[0]), lam(args, lap[1])),
        "f": (lam((x, y, t, nu), f[0]), lam((x, y, t, nu), f[1])),
    }


@pytest.fixture(scope="module")
def sample_points():
    rng = np.random.default_rng(2)
    return rng.uniform(0, 1, size=(40, 2)), 0.37


def test_velocity_matches_sympy(sympy_fields, sample_points):
    pts, t = sample_points
    u = mf.exact_velocity(pts, t)
    for c in range(2):
        ref = sympy_fields["u"][c](pts[:, 0], pts[:, 1], t)
        assert np.abs(u[:, c] - ref).max() < 1e-12


def test_gradient_matches_sympy(sympy_fields, sample_points):
    pts, t = sample_points
    g = mf.exact_gradient(pts, t)
    for c in range(2):
        for d in range(2):
            ref = sympy_fields["grad"][c][d](pts[:, 0], pts[:, 1], t)
            assert np.abs(g[:, c, d] - ref).max() < 1e-11


def test_laplacian_matches_sympy(sympy_fields, sample_points):
    pts, t = sample_points
    lap = mf.exact_laplacian(pts, t)
    for c in range(2):
        ref = sympy_fields["lap"][c](pts[:, 0], pts[:, 1], t)
        assert np.abs(lap[:, c] - ref).max() < 1e-10


def test_forcing_matches_sympy(sympy_fields, sample_points):
    pts, t = sample_points
    nu = 0.1
    f = mf.forcing(nu)(pts, t)
    for c in range(2):
        ref = sympy_fields["f"][c](pts[:, 0], pts[:, 1], t, nu)
        assert np.abs(f[:, c] - ref).max() < 1e-10


def test_divergence_free_and_zero_trace():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(50, 2))
    g = mf.exact_gradient(pts, 0.2)
    assert np.abs(g[:, 0, 0] + g[:, 1, 1]).max() < 1e-12
    edge = np.array([[0.0, 0.3], [1.0, 0.7], [0.4, 0.0], [0.9, 1.0]])
    assert np.abs(mf.exact_velocity(edge, 0.0)).max() < 1e-13


def test_forcing_is_the_composition_of_the_exact_fields(monkeypatch):
    """Each call of the forcing evaluates the sines and cosines once, and
    its values are bit for bit those of the exact fields composed."""
    x = np.random.default_rng(5).uniform(-0.2, 1.2, (400, 2))
    for nu, t in ((0.1, 0.0), (1 / 500, 0.37)):
        u, g = mf.exact_velocity(x, t), mf.exact_gradient(x, t)
        want = -u - nu * mf.exact_laplacian(x, t) + np.einsum("kd,kcd->kc", u, g)
        got = mf.forcing(nu)(x, t)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    calls = []
    factors = mf._factors
    monkeypatch.setattr(mf, "_factors", lambda *args: calls.append(1) or factors(*args))
    mf.forcing(0.1)(x, 0.5)
    assert len(calls) == 1

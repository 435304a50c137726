import ast
import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from weylscatter import (
    GaussianBump,
    LatticeModel,
    PoschlTeller,
    SingularResolvent,
    SquareBarrier,
    Step,
    Zero,
    boundary_pair,
    decoupled_resolvent,
    effective_support,
    green00,
    lattice_model_from_potential,
    resolvent_difference_check,
    truncated,
)
from weylscatter import lattice, oracle


def _hamiltonian(
    model: LatticeModel, nodes: slice = slice(None), z: complex | None = None
) -> np.ndarray:
    """Dense reference: H on a run of nodes, Dirichlet outside them; H - z when z is given.

    z is taken off the diagonal before the matrix is filled, so H - z has the
    bits of H.astype(complex) - z * eye.
    """
    inv_h2 = 1.0 / model.h**2
    diag = 2.0 * inv_h2 + model.v[nodes]
    if z is not None:
        diag = diag - z
    size = len(diag)
    ham = np.zeros((size, size), dtype=diag.dtype)
    np.fill_diagonal(ham, diag)
    idx = np.arange(size - 1)
    ham[idx, idx + 1] = -inv_h2
    ham[idx + 1, idx] = -inv_h2
    return ham


def _invert_into(out: np.ndarray, diag: np.ndarray, off: float) -> None:
    """Write the inverse of tridiag(off, diag, off) into out, every entry of it.

    The back sweep U X = L^-1 of the elimination, whose row i above the
    diagonal is X[i, i+1:] = c_i X[i+1, i+1:]: a dense reference that shares
    only the pivots with the check's O(N) inverse.
    """
    pivots = lattice._pivots(diag, off).tolist()
    out[-1, -1] = 1.0 / pivots[-1]
    for i in range(len(pivots) - 2, -1, -1):
        row = out[i, i + 1 :]
        np.multiply(out[i + 1, i + 1 :], -off / pivots[i], out=row)
        out[i, i] = (1.0 - off * row[0]) / pivots[i]
        out[i + 1 :, i] = row


def _resolvent(model: LatticeModel) -> np.ndarray:
    """(H - z)^-1 on the full grid, dense, by the back sweep."""
    size = 2 * model.n + 1
    out = np.empty((size, size), dtype=complex)
    _invert_into(out, *lattice._tridiagonal(model))
    return out


def _decoupled(model: LatticeModel) -> np.ndarray:
    """(H_inf - z)^-1 embedded in the full grid, dense, by the back sweep on each half-line."""
    size = 2 * model.n + 1
    mid = model.n
    diag, off = lattice._tridiagonal(model)
    out = np.zeros((size, size), dtype=complex)
    for block in (slice(None, mid), slice(mid + 1, None)):
        _invert_into(out[block, block], diag[block], off)
    return out


def _continuum_g00(p, lam):
    """-1/(m_l + m_r) at a real energy below the spectrum, from the m-solver."""
    m_l, m_r = boundary_pair(p, lam)
    return green00(m_l.m, m_r.m)


def test_zero_potential_at_minus_one():
    model = LatticeModel(n=200, h=0.05, v=np.zeros(401), z=-1.0)
    report = resolvent_difference_check(model)
    g00 = _continuum_g00(Zero(), -1.0)
    assert report.sv_ratio <= 1e-10
    assert report.coeff_resid <= 1e-8
    assert report.entry_resid <= 1e-10
    # free-line G00(-1) = -1/(m_l + m_r) = 1/2, discrete value O(h^2) away
    assert g00 == pytest.approx(0.5, abs=1e-12)
    assert abs(report.g00 - g00) < 1e-3


def test_barrier_at_complex_energy():
    b = SquareBarrier(height=2.0, half_width=0.5)
    model = lattice_model_from_potential(b, 200, 0.05, 2 + 1j)
    report = resolvent_difference_check(model)
    assert report.sv_ratio <= 1e-10
    assert report.coeff_resid <= 1e-8
    a_full = _hamiltonian(model) - model.z * np.eye(2 * model.n + 1)
    assert np.linalg.cond(a_full) <= report.condition <= 4.0 * np.linalg.cond(a_full)


def test_rank_one_entry_restatement():
    model = LatticeModel(n=80, h=0.1, v=np.zeros(161), z=0.5 + 1.5j)
    report = resolvent_difference_check(model)
    assert report.entry_resid <= 1e-10


def test_decoupling_exact_zero_blocks():
    b = SquareBarrier(height=2.0, half_width=0.5)
    model = lattice_model_from_potential(b, 120, 0.05, 2 + 1j)
    r_inf = decoupled_resolvent(model)
    mid = model.n
    assert np.all(r_inf[:mid, mid:] == 0.0)
    assert np.all(r_inf[mid:, :mid] == 0.0)
    assert np.all(r_inf[mid, :] == 0.0)
    assert np.all(r_inf[:, mid] == 0.0)
    # the blocks, filled from the check's O(N) inverses, against the back sweep
    dense = _decoupled(model)
    assert np.abs(r_inf - dense).max() <= 1e-12 * np.abs(dense).max()


@pytest.mark.parametrize("z", [2 + 1j, -0.5 + 1.5j, -1.0])
def test_shifted_hamiltonian_bits(z):
    # the dense reference H - z and its decoupled blocks, built with z off the
    # diagonal, hold the bits of the dense expressions they stand for
    b = SquareBarrier(height=2.0, half_width=0.5)
    model = lattice_model_from_potential(b, 40, 0.05, z)
    size, mid = 2 * model.n + 1, model.n
    ham = _hamiltonian(model)
    dense = ham.astype(complex) - model.z * np.eye(size)
    assert _hamiltonian(model, z=model.z).tobytes() == dense.tobytes()
    for nodes in (slice(None, mid), slice(mid + 1, None)):
        block = ham[nodes, nodes] - model.z * np.eye(mid)
        assert _hamiltonian(model, nodes, model.z).tobytes() == block.tobytes()


def _random_models(seed, count=20):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(60, 140))
        h = float(rng.uniform(0.04, 0.12))
        xs = h * np.arange(-n, n + 1)
        # random smooth bump mixture, bounded below by construction
        v = np.zeros_like(xs)
        for _ in range(int(rng.integers(1, 4))):
            amp = rng.uniform(-2.0, 3.0)
            cen = rng.uniform(-1.5, 1.5)
            sig = rng.uniform(0.4, 1.2)
            v += amp * np.exp(-((xs - cen) ** 2) / (2 * sig**2))
        z = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.5, 2.5))
        yield LatticeModel(n=n, h=h, v=v, z=z)


def test_random_models_rank_one():
    for model in _random_models(2024):
        report = resolvent_difference_check(model)
        assert report.sv_ratio <= 1e-10
        assert report.coeff_resid <= 1e-8


# verify's lattice: mesh 0.05, box max(support + 1, 8), z drawn as verify draws it
RANK_ONE_POTENTIALS = {
    "barrier": SquareBarrier(height=2.0, half_width=0.5),
    "gaussian": GaussianBump(amplitude=1.0, sigma=1.0),
    "pt2_truncated": truncated(PoschlTeller(nu=2), 1e-12),
}


def _verify_models(p, seed, count=3, z_cont=False):
    h = 0.05
    n = int(math.ceil(max(effective_support(p, 1e-6) + 1.0, 8.0) / h))
    rng = np.random.default_rng(seed)
    for _ in range(count):
        z = complex(rng.uniform(-1.0, 3.0), rng.uniform(0.5, 2.5))
        yield lattice_model_from_potential(p, n, h, z)
    if z_cont:
        yield lattice_model_from_potential(p, n, h, min(-1.0, p.lower_bound - 1.0))


def _assembled_difference(model):
    """D assembled from the row blocks that the check reduces, mirrored below them.

    The blocks are looked up on the module as the check looks them up, so a
    patch of them reaches both.
    """
    size = 2 * model.n + 1
    dense = np.zeros((size, size), dtype=complex)
    for start, block in lattice._difference_blocks(*lattice._inverses(model)):
        stop = start + len(block)
        dense[start:stop, start:] = block
        dense[start:, start:stop] = block.T
    return dense


def _exact_sv_ratio(model):
    """sv2/sv1 of the check's own resolvent difference, from a full SVD.

    D has the bits the check reduces.  A LAPACK inverse in place of the
    elimination would measure how far two inverses disagree, near 1e-14.
    """
    svals = np.linalg.svd(_assembled_difference(model), compute_uv=False)
    return float(svals[1] / svals[0])


@pytest.mark.parametrize("name", sorted(RANK_ONE_POTENTIALS))
def test_sv_ratio_bounds_the_exact_ratio(name):
    for model in _verify_models(RANK_ONE_POTENTIALS[name], seed=31):
        report = resolvent_difference_check(model)
        assert _exact_sv_ratio(model) <= report.sv_ratio <= 1e-10, model.z


@pytest.mark.parametrize("name", sorted(RANK_ONE_POTENTIALS))
def test_rank_two_difference_fails_the_bound(name, monkeypatch):
    # a 1e-6 symmetric pair off the origin row and column and off the
    # half-line blocks, where D is the resolvent, makes D rank two; the
    # blocks hold (row, col) right of their squares, which stands for both
    exact = lattice._difference_blocks

    def perturbed(full, left, right):
        mid = len(left.pivots)
        row, col = mid - 5, mid + 3
        for start, block in exact(full, left, right):
            if start <= row < start + len(block):
                block[row - start, col - start] += 1e-6
            yield start, block

    monkeypatch.setattr(lattice, "_difference_blocks", perturbed)
    for model in _verify_models(RANK_ONE_POTENTIALS[name], seed=32):
        report = resolvent_difference_check(model)
        dense = _assembled_difference(model)
        assert dense[model.n + 3, model.n - 5] == dense[model.n - 5, model.n + 3]
        assert 1e-10 < _exact_sv_ratio(model) <= report.sv_ratio, model.z


def _block_models():
    for name in sorted(RANK_ONE_POTENTIALS):
        yield from _verify_models(RANK_ONE_POTENTIALS[name], seed=39, count=2, z_cont=True)
    # unequal tails, at a real z below min v and at a complex one
    step = Step(left_value=2.0, right_value=-1.0)
    for z in (-1.5, 0.5 + 1j):
        yield lattice_model_from_potential(step, 160, 0.05, z)
    # a Gaussian of sigma 10 on verify's lattice: dim 2145
    yield from _verify_models(GaussianBump(amplitude=1.0, sigma=10.0), seed=40, count=1)


def test_difference_blocks_match_dense_difference():
    # the blocks the check reduces against the dense resolvent less the dense
    # decoupled one, on verify's models, z_cont included, a step and a wide bump
    models = list(_block_models())
    assert max(model.n for model in models) >= 1000
    for model in models:
        mid = model.n
        full, left, right = lattice._inverses(model)
        diff = _resolvent(model)
        # the O(N) pieces the coefficient comes from: the origin column and the solves
        rhs = np.cos(np.arange(len(diff))) + 1j
        assert np.abs(full.column(mid) - diff[:, mid]).max() <= 1e-12 * np.abs(diff[:, mid]).max()
        expected = np.einsum("ij,j->i", diff, rhs)
        assert np.abs(full.solve(rhs) - expected).max() <= 1e-12 * np.abs(expected).max()
        diff -= _decoupled(model)
        scale = np.abs(diff).max()
        rows = 0
        for start, block in lattice._difference_blocks(full, left, right):
            assert start + len(block) == len(diff) - rows
            assert np.abs(block - diff[start : start + len(block), start:]).max() <= 1e-12 * scale
            rows += len(block)
        assert rows == len(diff)


def test_check_memory_is_linear_in_n():
    # dim 2001: the dense difference alone would take 61 MiB, a row block 1 MiB
    budget = 8 * 2**20
    model = LatticeModel(n=1000, h=0.05, v=np.zeros(2001), z=1.0 + 1.0j)
    tracemalloc.start()
    try:
        report = resolvent_difference_check(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, peak
    assert report.sv_ratio <= 1e-10


def _elimination_models():
    for name in sorted(RANK_ONE_POTENTIALS):
        yield from _verify_models(RANK_ONE_POTENTIALS[name], seed=34, z_cont=True)
    yield from _random_models(35)


def _assert_inverts(inverse, dense):
    size = len(dense)
    reference = np.linalg.inv(dense)
    assert np.abs(inverse - reference).max() <= 1e-12 * np.abs(reference).max()
    assert np.abs(dense @ inverse - np.eye(size)).max() <= 1e-12


def test_elimination_matches_dense_inverse():
    # the full resolvent and both Dirichlet half-line blocks, against LAPACK
    # inverses of the dense matrices, at complex z and verify's real z_cont
    for model in _elimination_models():
        mid = model.n
        _assert_inverts(_resolvent(model), _hamiltonian(model, z=model.z))
        decoupled = _decoupled(model)
        for nodes in (slice(None, mid), slice(mid + 1, None)):
            _assert_inverts(decoupled[nodes, nodes], _hamiltonian(model, nodes, model.z))


def test_pivot_bounds():
    # Im z > 0: Im u_i <= -Im z;  real z < min v: u_i >= 1/h^2 + v_i - z > 0
    rng = np.random.default_rng(36)
    for model in _random_models(37):
        z_real = float(model.v.min()) - rng.uniform(0.01, 3.0)
        for z in (model.z, complex(z_real)):
            shifted = dataclasses.replace(model, z=z)
            pivots = np.array(lattice._pivots(*lattice._tridiagonal(shifted)))
            if z.imag > 0:
                assert np.all(pivots.imag <= -z.imag)
            else:
                assert np.all(pivots.imag == 0.0)
                floor = 1.0 / model.h**2 + model.v - z.real
                assert np.all(pivots.real >= floor) and np.all(floor > 0.0)


def test_non_finite_pivot_is_singular():
    v = np.zeros(21)
    v[3] = np.inf
    model = LatticeModel(n=10, h=0.1, v=v, z=1j)
    with pytest.raises(SingularResolvent):
        decoupled_resolvent(model)
    with pytest.raises(SingularResolvent):
        resolvent_difference_check(model)


def test_check_makes_no_dense_linear_algebra(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("the lattice check called numpy.linalg")

    for name in ("inv", "solve", "svd", "eig", "eigh", "eigvals", "eigvalsh", "lstsq", "cond"):
        monkeypatch.setattr(np.linalg, name, refused)
    for model in _verify_models(RANK_ONE_POTENTIALS["barrier"], seed=38, count=1, z_cont=True):
        assert resolvent_difference_check(model).sv_ratio <= 1e-10


def test_mesh_convergence_second_order():
    p = GaussianBump(amplitude=1.0, sigma=1.0)
    g00 = _continuum_g00(p, -1.0)
    errs = []
    for h in (0.1, 0.05, 0.025):
        n = int(round(12.0 / h))
        model = lattice_model_from_potential(p, n, h, -1.0)
        report = resolvent_difference_check(model)
        errs.append(abs(report.g00 - g00))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert min(orders) >= 1.8, orders


def _exact_condition(model):
    """max/min |lambda_i - z| over the eigenvalues of H: cond_2(H - z) of a normal matrix."""
    dist = np.abs(np.linalg.eigvalsh(_hamiltonian(model)) - model.z)
    return float(dist.max() / dist.min())


@pytest.mark.parametrize("name", sorted(RANK_ONE_POTENTIALS) + ["random"])
def test_condition_bound_brackets_the_exact_condition(name):
    # verify's models, its real z_cont included, and random samples
    if name == "random":
        models = _random_models(7)
    else:
        models = _verify_models(RANK_ONE_POTENTIALS[name], seed=33, count=20, z_cont=True)
    for model in models:
        exact = _exact_condition(model)
        assert exact <= resolvent_difference_check(model).condition <= 4.0 * exact, model.z


def test_weight_convention_recorded():
    model = LatticeModel(n=50, h=0.1, v=np.zeros(101), z=-1.0)
    report = resolvent_difference_check(model)
    assert "sqrt(h)" in report.convention


def test_singular_resolvent_at_eigenvalue():
    # z at a discrete eigenvalue of the well: a real one lies above min(v)
    # and is refused as a model, and one a hair above the axis is hopeless
    well = SquareBarrier(height=-5.0, half_width=1.0)
    model = lattice_model_from_potential(well, 150, 0.05, -6.0)
    eig = np.linalg.eigvalsh(_hamiltonian(model))
    z_bad = float(eig[eig < -0.5][0])
    with pytest.raises(ValueError):
        LatticeModel(n=150, h=0.05, v=model.v, z=z_bad)
    bad = LatticeModel(n=150, h=0.05, v=model.v, z=complex(z_bad, 1e-14))
    with pytest.raises(SingularResolvent):
        resolvent_difference_check(bad)


def test_model_validation():
    with pytest.raises(ValueError):
        LatticeModel(n=0, h=0.1, v=[0.0], z=-1.0)
    with pytest.raises(ValueError):
        LatticeModel(n=2, h=0.1, v=[0.0] * 4, z=-1.0)
    with pytest.raises(ValueError):
        LatticeModel(n=2, h=0.1, v=[0.0] * 5, z=1.0)  # real z inside the spectrum
    with pytest.raises(ValueError):
        LatticeModel(n=2, h=0.1, v=[-1.0] * 5, z=-0.5)  # real z not below min(v)
    with pytest.raises(ValueError):
        lattice_model_from_potential(SquareBarrier(height=2.0, half_width=0.5), 10, 0.05, -1.0)


def test_model_refuses_non_integral_size():
    # n = 3.5 used to be accepted, with 2n + 1 = 8 samples
    with pytest.raises(ValueError, match="^n: "):
        LatticeModel(n=3.5, h=0.1, v=[0.0] * 8, z=-1.0)
    with pytest.raises(ValueError, match="^h: "):
        LatticeModel(n=3, h=True, v=[0.0] * 7, z=-1.0)


@pytest.mark.parametrize("module", [oracle, lattice], ids=lambda m: m.__name__)
def test_route_imports_only_errors_and_potential(module):
    # the oracle and the lattice are independent routes: neither reaches the
    # m-solver, the scattering algebra or another route, and the lattice
    # takes no continuum value in
    package = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.add(node.module or "")
        elif isinstance(node, ast.ImportFrom):
            assert not node.module.startswith("weylscatter"), node.module
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("weylscatter") for alias in node.names)
    assert package == {"errors", "potential"}

"""WENO5 Euler right-hand side: pointwise oracles, decomposition
independence, accuracy on a smooth advected wave."""

import tracemalloc

import numpy as np
import pytest

from mrflow.euler import (EosDomainError, EulerPipeline, GasConstants,
                          TILE_BYTES, WENO_EPS, cfl_time_step, flux, pressure,
                          sound_speed, state_fields, _face_flux, _weno5_left)
from mrflow import mesh
from mrflow.mesh import NEUMANN, PERIODIC, REFLECT, Decomposition, UniformGrid
from mrflow.transport import run_spmd, run_spmd_sockets
from mrflow.vectors import ManyVector

GAS = GasConstants.from_gamma(1.4)


def test_gas_constants():
    # gamma is stored as given: no round trip through other constants
    gammas = [1.4, 5.0 / 3.0] + np.random.default_rng(20).uniform(
        1.0, 3.0, 1000).tolist()
    for g in gammas:
        assert GasConstants.from_gamma(g).gamma == g, g.hex()


def test_pressure_hand_value():
    # rho=2, m=(2,0,0), et=3: kinetic 1, internal 2, p = 0.4*2
    p = pressure(GAS, np.array(2.0), np.array(2.0), np.array(0.0),
                 np.array(0.0), np.array(3.0))
    assert p == pytest.approx(0.8, rel=1e-15)
    assert sound_speed(GAS, 2.0, 0.8) == pytest.approx(np.sqrt(0.56), rel=1e-15)


def test_pressure_domain_error():
    with pytest.raises(EosDomainError):
        pressure(GAS, np.array(1.0), np.array(2.0), np.array(0.0),
                 np.array(0.0), np.array(1.0))
    # the error carries the first offending element in C order
    et = np.full((2, 3), 5.0)
    et[1, 0], et[1, 2] = -0.5, -2.0
    one, zero = np.ones((2, 3)), np.zeros((2, 3))
    with pytest.raises(EosDomainError, match="-0.5") as info:
        pressure(GAS, one, zero, zero, zero, et)
    assert info.value.index == (1, 0) and info.value.value == -0.5
    # NaN fails the check too
    with pytest.raises(EosDomainError, match="nan") as info:
        pressure(GAS, np.ones(3), np.zeros(3), np.zeros(3), np.zeros(3),
                 np.array([1.0, np.nan, 1.0]))
    assert info.value.index == (1,) and np.isnan(info.value.value)


def test_flux_matches_direct_formulas():
    rng = np.random.default_rng(11)
    w = np.empty((7, 4))
    w[0] = rng.uniform(0.5, 2.0, 4)
    w[1:4] = rng.standard_normal((3, 4))
    w[4] = 10.0 + rng.uniform(0, 1, 4)
    w[5:] = rng.uniform(0, 1, (2, 4))
    rho, m, et = w[0], w[1:4], w[4]
    p = 0.4 * (et - (m * m).sum(axis=0) / (2 * rho))
    for axis in range(3):
        out = flux(w, p, axis)
        v = m[axis] / rho
        np.testing.assert_allclose(out[0], m[axis], rtol=1e-15)
        expect_m = m * v
        expect_m[axis] += p
        np.testing.assert_allclose(out[1:4], expect_m, rtol=1e-14)
        np.testing.assert_allclose(out[4], v * (et + p), rtol=1e-14)
        np.testing.assert_allclose(out[5:], w[5:] * v, rtol=1e-15)


def test_max_wave_speed():
    # one face along x with its six stencil cells, fields first
    w = np.zeros((5, 6))
    w[0] = 1.0
    w[4] = 2.5  # p = 1, c = sqrt(1.4)
    w[1, 3] = 2.0  # one cell with v_x = 2
    p = pressure(GAS, *w)
    lam = np.abs(w[1] / w[0]) + sound_speed(GAS, w[0], p)
    c = np.sqrt(1.4 * 1.0)
    # fastest cell: |v|+c with its own (larger) sound speed
    p3 = 0.4 * (2.5 - 2.0)
    fastest = max(c, 2.0 + np.sqrt(1.4 * p3))
    assert lam.max() == pytest.approx(fastest, rel=1e-14)
    # the face's Lax-Friedrichs speed is that maximum over its stencil
    f = flux(w, p, 0)

    def face(speeds):
        return _face_flux(w.T, f.T, speeds[:, None], WENO_EPS)
    np.testing.assert_array_equal(face(lam), face(np.full(6, lam.max())))
    assert not np.array_equal(face(lam), face(np.full(6, c)))


def _weno_left_oracle(f, eps):
    """Textbook WENO-JS, written against the implementation: explicit
    coefficient tables and normalized weights per candidate."""
    f = np.asarray(f, dtype=float)
    interp = np.array([[2.0, -7.0, 11.0, 0.0, 0.0],
                       [0.0, -1.0, 5.0, 2.0, 0.0],
                       [0.0, 0.0, 2.0, 5.0, -1.0]]) / 6.0
    q = interp @ f
    d1 = np.array([f[0] - 2 * f[1] + f[2],
                   f[1] - 2 * f[2] + f[3],
                   f[2] - 2 * f[3] + f[4]])
    d2 = np.array([f[0] - 4 * f[1] + 3 * f[2],
                   f[1] - f[3],
                   3 * f[2] - 4 * f[3] + f[4]])
    beta = 13.0 / 12.0 * d1 ** 2 + 0.25 * d2 ** 2
    gamma = np.array([0.1, 0.6, 0.3])
    w = gamma / (eps + beta) ** 2
    w /= w.sum()
    return float(w @ q)


def _weno5_left_reference(f0, f1, f2, f3, f4, eps):
    """Left-biased WENO5 value at the face just right of cell f2, as plain
    expressions: the form `_weno5_left` evaluates in place, step for step."""
    p0 = (2.0 * f0 - 7.0 * f1 + 11.0 * f2) / 6.0
    p1 = (-f1 + 5.0 * f2 + 2.0 * f3) / 6.0
    p2 = (2.0 * f2 + 5.0 * f3 - f4) / 6.0
    b0 = (13.0 / 12.0) * (f0 - 2.0 * f1 + f2) ** 2 + 0.25 * (f0 - 4.0 * f1 + 3.0 * f2) ** 2
    b1 = (13.0 / 12.0) * (f1 - 2.0 * f2 + f3) ** 2 + 0.25 * (f1 - f3) ** 2
    b2 = (13.0 / 12.0) * (f2 - 2.0 * f3 + f4) ** 2 + 0.25 * (3.0 * f2 - 4.0 * f3 + f4) ** 2
    a0 = 0.1 / (eps + b0) ** 2
    a1 = 0.6 / (eps + b1) ** 2
    a2 = 0.3 / (eps + b2) ** 2
    asum = a0 + a1 + a2
    return (a0 * p0 + a1 * p1 + a2 * p2) / asum


def _weno5(*f):
    """`_weno5_left` on one stencil of five scalars."""
    f = [np.array([x], dtype=float) for x in f]
    scratch = [np.empty(1) for _ in range(5)]
    return _weno5_left(f, WENO_EPS, scratch, np.empty(1))[0]


def test_weno5_left_against_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = rng.standard_normal(5) * rng.choice([1e-3, 1.0, 1e3])
        got = _weno5(*f)
        assert got == pytest.approx(_weno_left_oracle(f, WENO_EPS), rel=1e-13)


def test_weno5_reproduces_constants_exactly():
    assert _weno5(4.0, 4.0, 4.0, 4.0, 4.0) == 4.0


def test_face_flux_consistency_on_uniform_state():
    # three faces along x, eight extended cells, fields first
    w = np.zeros((5, 8))
    w[0] = 1.2
    w[1] = 0.6
    w[4] = 3.0
    p = pressure(GAS, *w)
    lam = np.abs(w[1] / w[0]) + sound_speed(GAS, w[0], p)
    f = flux(w, p, 0)
    face = _face_flux(w.T, f.T, lam[:, None], WENO_EPS)
    assert face.shape == (3, 5)
    np.testing.assert_allclose(face, f.T[:3], rtol=1e-14)


def _untiled_face_flux(w, f, lam, eps):
    """The split-flux reconstruction on whole shifted views, in one go,
    with the expression form of WENO5."""
    n = len(lam) - 5
    speed = lam[:n]
    for k in range(1, 6):
        speed = np.maximum(speed, lam[k:k + n])
    plus = [0.5 * (f[k:k + n] + speed * w[k:k + n]) for k in range(5)]
    minus = [0.5 * (f[k:k + n] - speed * w[k:k + n]) for k in range(5, 0, -1)]
    return (_weno5_left_reference(*plus, eps)
            + _weno5_left_reference(*minus, eps))


def _face_inputs(shape, seed, scale=1.0, strided=False):
    """Random states, fluxes and speeds of a (cells, fields, ...) block,
    states and fluxes times `scale` (a number or an array of the block's
    shape); `strided` returns transposed views of fields-last memory."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 2.0, shape) * scale
    f = rng.standard_normal(shape) * scale
    lam = rng.uniform(0.1, 3.0, (shape[0], 1) + shape[2:])
    if strided:
        return tuple(np.ascontiguousarray(a.T).T for a in (w, f, lam))
    return w, f, lam


def test_face_flux_tiles_are_bitwise_untiled():
    # 42 faces of 15 fields x 16 x 16: ten tiles of 4 and a partial 2
    shape = (47, 15, 16, 16)
    mixed = np.random.default_rng(3).choice([1e-3, 1.0, 1e3], shape)
    for strided in (True, False):
        args = _face_inputs(shape, 7, mixed, strided)
        assert TILE_BYTES // args[0][0].nbytes == 4
        got = _face_flux(*args, WENO_EPS)
        assert got.shape == (42, 15, 16, 16)
        assert np.array_equal(got, _untiled_face_flux(*args, WENO_EPS))


# the x-axis blocks of the benchmark's hydro, reacting and stiff-sockets
# workloads and of criterion 01: 1 face, 4 faces and whole-block tiles
WORKLOAD_BLOCKS = {"hydro": (38, 15, 32, 32), "reacting": (22, 15, 16, 16),
                   "stiff-sockets": (14, 15, 8, 8), "criterion-01": (134, 5, 4, 4)}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
@pytest.mark.parametrize("block", WORKLOAD_BLOCKS)
def test_face_flux_is_bitwise_expression_reference(block, strided, scale):
    args = _face_inputs(WORKLOAD_BLOCKS[block], 11, scale, strided)
    assert np.array_equal(_face_flux(*args, WENO_EPS),
                          _untiled_face_flux(*args, WENO_EPS))


@pytest.mark.parametrize("block", ["hydro", "reacting"])
def test_face_flux_temporaries_stay_tile_sized(block):
    args = _face_inputs(WORKLOAD_BLOCKS[block], 13)
    tracemalloc.start()
    try:
        out = _face_flux(*args, WENO_EPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes <= 16 * TILE_BYTES


def _state(shape, n_chem, fill):
    rho = np.full(shape, fill["rho"])
    mx = np.full(shape, fill.get("mx", 0.0))
    my = np.full(shape, fill.get("my", 0.0))
    mz = np.full(shape, fill.get("mz", 0.0))
    et = np.full(shape, fill["et"])
    chem = np.zeros(shape + (n_chem,))
    return ManyVector([rho, mx, my, mz, et, chem])


def _nan_ghosts(pipe):
    """NaN-fill the pipeline's extended arrays, so that a ghost the
    exchange or a boundary fill leaves unset poisons the result."""
    for ext in pipe.ext:
        ext.fill(np.nan)
    return pipe


def _rhs_worker(comm, shape, n_tasks, n_chem, bc):
    grid = UniformGrid(shape, ((0.0, 1.0),) * 3)
    d = Decomposition(grid, n_tasks, comm.rank, (bc,) * 6)
    (x0, x1), (y0, y1), (z0, z1) = d.extents
    x = grid.centers(0)[x0:x1, None, None]
    y = grid.centers(1)[None, y0:y1, None]
    z = grid.centers(2)[None, None, z0:z1]
    rho = 2.0 + 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.0 * z
    mx = 0.4 * rho
    my = 0.1 * np.cos(2 * np.pi * z) * np.ones_like(rho)
    mz = 0.05 * np.sin(2 * np.pi * y) * np.ones_like(rho)
    et = 10.0 + 0.5 * rho
    chem = np.stack([0.5 * rho] * n_chem, axis=-1) if n_chem else \
        np.zeros(rho.shape + (0,))
    state = ManyVector([rho, mx, my, mz, et, chem])
    pipe = _nan_ghosts(EulerPipeline(comm, d, GAS, n_chem))
    out = pipe(0.0, state)
    return d.extents, [a.copy() for a in out.arrays]


def _assemble(results, shape, n_chem):
    fields = [np.zeros(shape) for _ in range(5)]
    chem = np.zeros(shape + (n_chem,))
    for extents, arrays in results:
        sl = tuple(slice(lo, hi) for lo, hi in extents)
        for f, a in zip(fields, arrays[:5]):
            f[sl] = a
        chem[sl] = arrays[5]
    return fields + [chem]


@pytest.mark.parametrize("n_tasks", [2, 4])
def test_rhs_bitwise_decomposition_independent(n_tasks):
    shape, n_chem = (8, 6, 6), 2
    for bc in (PERIODIC, NEUMANN, REFLECT):
        serial = _assemble(run_spmd(1, _rhs_worker, shape, 1, n_chem, bc),
                           shape, n_chem)
        multi = _assemble(run_spmd(n_tasks, _rhs_worker, shape, n_tasks,
                                   n_chem, bc), shape, n_chem)
        for a, b in zip(serial, multi):
            np.testing.assert_array_equal(a, b, err_msg=bc)


def test_rhs_with_halo_slabs_larger_than_a_socket_buffer():
    # each x-face slab is 15 fields x 3 x 32 x 32 doubles, 368,640 bytes,
    # above a common default socket send buffer of 212,992 bytes
    shape, n_chem = (32, 32, 32), 10
    serial = _assemble(run_spmd(1, _rhs_worker, shape, 1, n_chem, PERIODIC),
                       shape, n_chem)
    for runner in (run_spmd, run_spmd_sockets):
        halves = _assemble(runner(2, _rhs_worker, shape, 2, n_chem, PERIODIC),
                           shape, n_chem)
        assert all(np.array_equal(a, b) for a, b in zip(serial, halves)), \
            runner.__name__


def _oracle_rhs(w, bcs, spacing, cell):
    """-div F at `cell` of the (nf, nx, ny, nz) state w, built from the
    6-cell stencils of its six faces, assembled cell by cell with `flux`
    and `_weno5_left_reference`. Ghost cells mirror owned ones per axis
    bc; reflect flips the face-perpendicular momentum."""
    shape = w.shape[1:]

    def state(idx):
        idx, sign = list(idx), np.ones(len(w))
        for a, n in enumerate(shape):
            if 0 <= idx[a] < n:
                continue
            if bcs[a] == PERIODIC:
                idx[a] %= n
                continue
            idx[a] = -1 - idx[a] if idx[a] < 0 else 2 * n - 1 - idx[a]
            if bcs[a] == REFLECT:
                sign[1 + a] = -1.0
        return w[(slice(None),) + tuple(idx)] * sign

    def face(axis, i):
        """Split-flux WENO5 value at face i - 1/2 along `axis`."""
        ws, fs, lams = [], [], []
        for k in range(i - 3, i + 3):
            idx = list(cell)
            idx[axis] = k
            c = state(idx)
            p = pressure(GAS, *c[:5])
            ws.append(c)
            fs.append(flux(c, p, axis))
            lams.append(abs(c[1 + axis] / c[0]) + sound_speed(GAS, c[0], p))
        lam = max(lams)
        plus = [0.5 * (f + lam * c) for f, c in zip(fs, ws)]
        minus = [0.5 * (f - lam * c) for f, c in zip(fs, ws)]
        return (_weno5_left_reference(*plus[:5], WENO_EPS)
                + _weno5_left_reference(*minus[:0:-1], WENO_EPS))

    div = None
    for axis, h in enumerate(spacing):
        term = (face(axis, cell[axis] + 1) - face(axis, cell[axis])) / h
        div = term if div is None else div + term
    return -div


def test_rhs_matches_per_cell_stencil_oracle():
    shape, n_chem = (8, 7, 7), 2
    bcs = (REFLECT, PERIODIC, NEUMANN)
    rng = np.random.default_rng(23)
    rho = rng.uniform(0.5, 2.0, shape)
    m = 0.5 * rng.standard_normal((3,) + shape)
    et = (m * m).sum(axis=0) / (2 * rho) + rng.uniform(1.0, 3.0, shape)
    chem = rng.uniform(0.0, 1.0, shape + (n_chem,))
    w = np.concatenate([np.stack([rho, *m, et]), np.moveaxis(chem, -1, 0)])

    def fn(comm):
        grid = UniformGrid(shape, ((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)))
        d = Decomposition(grid, 1, 0, sum(((bc, bc) for bc in bcs), ()))
        state = ManyVector([rho.copy(), *m.copy(), et.copy(), chem.copy()])
        out = _nan_ghosts(EulerPipeline(comm, d, GAS, n_chem))(0.0, state)
        return grid.spacing, np.concatenate(
            [np.stack(out.arrays[:5]), np.moveaxis(out.arrays[5], -1, 0)])
    spacing, rhs = run_spmd(1, fn)[0]
    # two boundary cells (low x with near-low z; high x, y wrap, high z)
    # and one cell whose stencils stay inside the owned cells
    for cell in [(0, 3, 1), (7, 0, 6), (4, 3, 3)]:
        np.testing.assert_array_equal(
            rhs[(slice(None),) + cell], _oracle_rhs(w, bcs, spacing, cell),
            err_msg=str(cell))


def test_tiled_rhs_same_on_one_and_two_tasks():
    # 15 fields: the 40-cell x axis runs in ten tiles of 4 faces and one of
    # 1 on one task and in five of 4 and one of 1 on each 20-cell half; y
    # and z run in tiles of 1 face on one task and of 3 on each half
    shape, n_chem = (40, 16, 16), 10
    serial = _assemble(run_spmd(1, _rhs_worker, shape, 1, n_chem, PERIODIC),
                       shape, n_chem)
    halves = _assemble(run_spmd(2, _rhs_worker, shape, 2, n_chem, PERIODIC),
                       shape, n_chem)
    assert all(np.array_equal(a, b) for a, b in zip(serial, halves))
    for n_tasks in (1, 2):
        with pytest.raises(EosDomainError,
                           match=rf"^rank {n_tasks - 1}: nonpositive internal "
                                 r"energy -0\.25 at global cell \(31, 5, 7\)$"):
            run_spmd(n_tasks, _bad_cell_worker, shape, (PERIODIC,) * 6,
                     (31, 5, 7), -0.25, n_chem)


def _bad_cell_worker(comm, shape, bcs, bad, value=-0.25, n_chem=0):
    d = Decomposition(UniformGrid(shape, ((0.0, 1.0),) * 3), comm.size,
                      comm.rank, bcs)
    state = _state(d.local_shape, n_chem, {"rho": 1.0, "et": 2.0})
    if bad is not None and all(lo <= i < hi for i, (lo, hi) in zip(bad, d.extents)):
        state.arrays[4][tuple(i - lo for i, (lo, _) in zip(bad, d.extents))] = value
    EulerPipeline(comm, d, GAS, n_chem)(0.0, state)


def test_eos_error_names_rank_and_global_cell():
    # (11, 2, 3) lies inside rank 1's x range 8..15, away from the 3-deep
    # slabs it sends to rank 0, so only rank 1's owned pass can see it
    with pytest.raises(EosDomainError,
                       match=r"^rank 1: nonpositive internal energy -0\.25 "
                             r"at global cell \(11, 2, 3\)$"):
        run_spmd(2, _bad_cell_worker, (16, 6, 6), (PERIODIC,) * 6, (11, 2, 3))


def test_eos_error_names_nan_cell():
    with pytest.raises(EosDomainError,
                       match=r"^rank 1: nonpositive internal energy nan "
                             r"at global cell \(11, 2, 3\)$"):
        run_spmd(2, _bad_cell_worker, (16, 6, 6), (PERIODIC,) * 6, (11, 2, 3),
                 np.nan)


def test_unfilled_ghost_slab_is_named(monkeypatch):
    # with no boundary fill the NaN ghosts reach the EOS; -x is checked first
    monkeypatch.setattr(mesh, "apply_boundary", lambda *args: None)

    def fn(comm):
        d = Decomposition(UniformGrid((6, 6, 6)), 1, 0, (NEUMANN,) * 6)
        state = _state((6, 6, 6), 0, {"rho": 1.0, "et": 2.0})
        _nan_ghosts(EulerPipeline(comm, d, GAS, 0))(0.0, state)
    with pytest.raises(EosDomainError,
                       match=r"^rank 0: nonpositive internal energy nan "
                             r"at ghost slab -x$"):
        run_spmd(1, fn)


def _negate_physical_ghosts(monkeypatch):
    """Make the boundary fill write the negated mirror, which puts
    et = -2 in every physical ghost slab of a uniform et = 2 state."""
    mirror = mesh.apply_boundary

    def negated_mirror(ext, face, bc):
        mirror(ext, face, bc)
        ghost = ext[-mesh.HALO_DEPTH:] if face % 2 else ext[:mesh.HALO_DEPTH]
        np.negative(ghost, out=ghost)
    monkeypatch.setattr(mesh, "apply_boundary", negated_mirror)


def test_eos_error_in_ghost_slab_names_face(monkeypatch):
    # the ghosts fail the EOS; -x is checked first
    _negate_physical_ghosts(monkeypatch)
    with pytest.raises(EosDomainError,
                       match=r"^rank 0: nonpositive internal energy -2 "
                             r"at ghost slab -x$"):
        run_spmd(1, _bad_cell_worker, (6, 6, 6), (NEUMANN,) * 6, None)


def test_eos_error_names_owned_cell_before_ghost_slab(monkeypatch):
    # the -x ghosts come first in memory, but a bad owned cell on the
    # same rank is named instead
    _negate_physical_ghosts(monkeypatch)
    with pytest.raises(EosDomainError,
                       match=r"^rank 0: nonpositive internal energy -0\.25 "
                             r"at global cell \(3, 2, 4\)$"):
        run_spmd(1, _bad_cell_worker, (6, 6, 6), (NEUMANN,) * 6, (3, 2, 4))


def test_uniform_state_has_zero_rhs():
    def fn(comm):
        grid = UniformGrid((6, 6, 6), ((0.0, 1.0),) * 3)
        d = Decomposition(grid, 1, 0, (PERIODIC,) * 6)
        state = _state((6, 6, 6), 1, {"rho": 1.3, "mx": 0.7, "et": 9.0})
        state.arrays[5][..., 0] = 0.25
        pipe = _nan_ghosts(EulerPipeline(comm, d, GAS, 1))
        return pipe(0.0, state).arrays
    # exactly +0: the sign is in the face difference, not a negation
    for a in run_spmd(1, fn)[0]:
        assert np.all(a == 0.0) and not np.signbit(a).any()


def _advection_rhs_error(comm, n):
    """L1 error of the density RHS against the analytic derivative for
    rho = 2 + sin(2 pi x) advected at unit velocity, uniform pressure."""
    shape = (n, 4, 4)
    grid = UniformGrid(shape, ((0.0, 1.0),) * 3)
    d = Decomposition(grid, 1, comm.rank, (PERIODIC,) * 6)
    x = grid.centers(0)[:, None, None]
    rho = 2.0 + np.sin(2 * np.pi * x) * np.ones(shape)
    mx = rho.copy()          # v = 1
    et = 2.5 + 0.5 * rho     # p = 1 everywhere
    state = ManyVector([rho, mx, np.zeros(shape), np.zeros(shape), et,
                        np.zeros(shape + (0,))])
    pipe = EulerPipeline(comm, d, GAS, 0)
    out = pipe(0.0, state)
    exact = -2 * np.pi * np.cos(2 * np.pi * x) * np.ones(shape)
    return float(np.mean(np.abs(out.arrays[0] - exact)))


def test_rhs_fifth_order_on_smooth_wave():
    e32 = run_spmd(1, _advection_rhs_error, 32)[0]
    e64 = run_spmd(1, _advection_rhs_error, 64)[0]
    order = np.log2(e32 / e64)
    assert order > 4.5, f"observed spatial order {order:.2f}"


def test_state_fields_are_views():
    state = _state((4, 4, 4), 2, {"rho": 1.0, "et": 1.0})
    fields = state_fields(state)
    assert len(fields) == 7
    fields[0][0, 0, 0] = 42.0
    assert state.arrays[0][0, 0, 0] == 42.0
    fields[6][1, 1, 1] = 7.0
    assert state.arrays[5][1, 1, 1, 1] == 7.0


def test_cfl_time_step_hand_value():
    state = _state((4, 4, 4), 0, {"rho": 1.0, "mx": 1.0, "et": 3.0})
    h = cfl_time_step(GAS, state, (0.1, 0.1, 0.1), cfl=0.4)
    assert h == pytest.approx(0.4 * 0.1 / (1.0 + np.sqrt(1.4)), rel=1e-14)

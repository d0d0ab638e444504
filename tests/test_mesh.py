"""Grid, decomposition, halo exchange, physical boundary fills."""

import numpy as np
import pytest

from mrflow.mesh import (DIRICHLET, HALO_DEPTH, NEUMANN, PERIODIC, REFLECT,
                         Decomposition, HaloExchanger, MeshError, UniformGrid,
                         apply_boundary, decode_halo_message,
                         dims_create, encode_halo_message, local_extents)
from mrflow.mesh import HaloBuffer
from mrflow.transport import ChannelTransport, Communicator, ProtocolError, run_spmd

BOUNDS = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))


def test_grid_spacing_and_centers():
    g = UniformGrid((4, 5, 8), ((0.0, 2.0), (0.0, 1.0), (-1.0, 1.0)))
    assert g.spacing == (0.5, 0.2, 0.25)
    np.testing.assert_allclose(g.centers(0), [0.25, 0.75, 1.25, 1.75])
    assert g.n_cells == 4 * 5 * 8


def test_grid_validation():
    with pytest.raises(MeshError):
        UniformGrid((0, 4, 4), BOUNDS)
    with pytest.raises(MeshError):
        UniformGrid((4, 4, 4), ((0.0, 0.0), (0.0, 1.0), (0.0, 1.0)))


def test_dims_create_known_layouts():
    assert dims_create(36) == (4, 3, 3)
    assert dims_create(1) == (1, 1, 1)
    assert dims_create(8) == (2, 2, 2)
    assert dims_create(12) == (3, 2, 2)
    assert dims_create(7) == (7, 1, 1)
    assert dims_create(80) == (5, 4, 4)
    with pytest.raises(MeshError):
        dims_create(0)


def test_dims_create_ties_nonincreasing():
    for n in range(1, 65):
        px, py, pz = dims_create(n)
        assert px * py * pz == n
        assert px >= py >= pz


def test_local_extents_values():
    assert local_extents(100, 4)[0] == (0, 25)
    assert local_extents(10, 3) == [(0, 4), (4, 7), (7, 10)]
    sizes = [hi - lo for lo, hi in local_extents(10, 4)]
    assert sizes == [3, 3, 2, 2]
    assert local_extents(6, 1) == [(0, 6)]
    with pytest.raises(MeshError):
        local_extents(2, 3)


def test_decomposition_tiles_grid():
    grid = UniformGrid((12, 10, 8), BOUNDS)
    for n_tasks in (1, 2, 3, 4, 8, 12):
        seen = np.zeros(grid.shape, dtype=int)
        for rank in range(n_tasks):
            d = Decomposition(grid, n_tasks, rank, (PERIODIC,) * 6)
            (x0, x1), (y0, y1), (z0, z1) = d.extents
            seen[x0:x1, y0:y1, z0:z1] += 1
        assert seen.min() == 1 and seen.max() == 1


def test_decomposition_neighbors():
    grid = UniformGrid((8, 8, 8), BOUNDS)
    # 8 tasks -> 2x2x2; rank 0 at coords (0,0,0)
    d = Decomposition(grid, 8, 0, (PERIODIC,) * 6)
    assert d.layout == (2, 2, 2)
    assert d.coords == (0, 0, 0)
    # periodic: low faces wrap to the high-coordinate task on each axis
    assert d.neighbors == (4, 4, 2, 2, 1, 1)
    d2 = Decomposition(grid, 8, 0, (NEUMANN,) * 6)
    assert d2.neighbors == (None, 4, None, 2, None, 1)
    assert d2.neighbors[0] is None and d2.neighbors[1] is not None


def test_bc_validation():
    grid = UniformGrid((8, 8, 8), BOUNDS)
    with pytest.raises(MeshError, match="both"):
        Decomposition(grid, 1, 0,
                      (PERIODIC, NEUMANN, PERIODIC, PERIODIC, PERIODIC, PERIODIC))
    with pytest.raises(MeshError):
        Decomposition(grid, 1, 0, (PERIODIC,) * 5)
    with pytest.raises(MeshError, match="unknown"):
        Decomposition(grid, 1, 0, ("nonsense",) * 6)


def test_layout_cannot_exceed_grid():
    with pytest.raises(MeshError, match="exceeds"):
        Decomposition(UniformGrid((2, 2, 2), BOUNDS), 27, 0, (PERIODIC,) * 6)


def test_local_extent_must_cover_halo_depth():
    # (8,6,4) over 2x2x2 leaves 2-cell z slices, too thin for 3 ghosts
    with pytest.raises(MeshError, match="halo"):
        Decomposition(UniformGrid((8, 6, 4), BOUNDS), 8, 0, (PERIODIC,) * 6)


def _global_field(shape, n_fields):
    i, j, k = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    base = i + 100.0 * j + 10000.0 * k
    return np.stack([base + 1e6 * f for f in range(n_fields)])


def _oracle_slab(padded, extents, face):
    (x0, x1), (y0, y1), (z0, z1) = extents
    h = HALO_DEPTH
    ix = slice(x0 + h, x1 + h)
    iy = slice(y0 + h, y1 + h)
    iz = slice(z0 + h, z1 + h)
    axis, hi = face // 2, face % 2
    ghost = {
        0: (slice(x0, x0 + h), iy, iz),
        1: (slice(x1 + h, x1 + 2 * h), iy, iz),
        2: (ix, slice(y0, y0 + h), iz),
        3: (ix, slice(y1 + h, y1 + 2 * h), iz),
        4: (ix, iz, slice(z0, z0 + h))[0:0],  # unused, see below
    }
    if face < 4:
        sel = ghost[face]
    elif face == 4:
        sel = (ix, iy, slice(z0, z0 + h))
    else:
        sel = (ix, iy, slice(z1 + h, z1 + 2 * h))
    return padded[(slice(None),) + sel]


def _exchange_worker(comm, shape, n_tasks, n_fields):
    grid = UniformGrid(shape, BOUNDS)
    d = Decomposition(grid, n_tasks, comm.rank, (PERIODIC,) * 6)
    g = _global_field(shape, n_fields)
    (x0, x1), (y0, y1), (z0, z1) = d.extents
    fields = [g[f, x0:x1, y0:y1, z0:z1].copy() for f in range(n_fields)]
    ex = HaloExchanger(comm, d, n_fields)
    handle = ex.begin(fields, poison=True)
    halo = handle.finish()
    return d.extents, [s.copy() for s in halo.slabs]


@pytest.mark.parametrize("n_tasks", [1, 2, 4, 8])
def test_periodic_exchange_matches_global_oracle(n_tasks):
    shape, n_fields = (8, 6, 6), 3
    g = _global_field(shape, n_fields)
    padded = np.pad(g, ((0, 0),) + ((HALO_DEPTH, HALO_DEPTH),) * 3, mode="wrap")
    for extents, slabs in run_spmd(n_tasks, _exchange_worker, shape, n_tasks,
                                   n_fields):
        for face in range(6):
            np.testing.assert_array_equal(
                slabs[face], _oracle_slab(padded, extents, face),
                err_msg=f"face {face} extents {extents}")


def _self_comm():
    return Communicator(ChannelTransport(1), 0, 1)


def test_exchange_protocol_errors():
    grid = UniformGrid((6, 6, 6), BOUNDS)
    d = Decomposition(grid, 1, 0, (PERIODIC,) * 6)
    fields = [np.zeros((6, 6, 6))]
    ex = HaloExchanger(_self_comm(), d, 1)
    with pytest.raises(ProtocolError, match="expected 1 fields"):
        ex.begin([fields[0], fields[0]])
    handle = ex.begin(fields)
    with pytest.raises(ProtocolError, match="not finished"):
        ex.begin(fields)
    handle.finish()
    with pytest.raises(ProtocolError, match="twice"):
        handle.finish()


def test_halo_message_codec():
    slab = np.arange(24.0).reshape(2, 3, 2, 2)
    buf = encode_halo_message(4, slab)
    back = decode_halo_message(buf, 4, slab.shape)
    np.testing.assert_array_equal(back, slab)
    with pytest.raises(ProtocolError, match="face"):
        decode_halo_message(buf, 5, slab.shape)
    with pytest.raises(ProtocolError, match="shape"):
        decode_halo_message(buf, 4, (2, 3, 2, 1))


def _linear_x_fields(n):
    f = np.broadcast_to(np.arange(float(n))[:, None, None], (n, n, n)).copy()
    return [f]


def test_neumann_mirror_orientation():
    halo = HaloBuffer((6, 6, 6), 1)
    fields = _linear_x_fields(6)
    apply_boundary(halo, fields, 0, NEUMANN)
    # nearest ghost mirrors cell 0, deepest mirrors cell 2
    np.testing.assert_array_equal(halo.slabs[0][0, :, 0, 0], [2.0, 1.0, 0.0])
    apply_boundary(halo, fields, 1, NEUMANN)
    np.testing.assert_array_equal(halo.slabs[1][0, :, 0, 0], [5.0, 4.0, 3.0])


def test_dirichlet_odd_extension():
    halo = HaloBuffer((6, 6, 6), 1)
    fields = [np.full((6, 6, 6), 7.0)]
    apply_boundary(halo, fields, 2, DIRICHLET)
    assert np.all(halo.slabs[2] == -7.0)


def test_reflect_flips_perpendicular_momentum_only():
    halo = HaloBuffer((6, 6, 6), 5)
    consts = [2.0, 3.0, 4.0, 5.0, 6.0]  # rho, mx, my, mz, et
    fields = [np.full((6, 6, 6), c) for c in consts]
    apply_boundary(halo, fields, 0, REFLECT)   # x face: flip mx
    got = [halo.slabs[0][f, 0, 0, 0] for f in range(5)]
    assert got == [2.0, -3.0, 4.0, 5.0, 6.0]
    apply_boundary(halo, fields, 5, REFLECT)   # z face: flip mz
    got = [halo.slabs[5][f, 0, 0, 0] for f in range(5)]
    assert got == [2.0, 3.0, 4.0, -5.0, 6.0]


def test_apply_boundary_rejects_periodic():
    halo = HaloBuffer((6, 6, 6), 1)
    with pytest.raises(ProtocolError):
        apply_boundary(halo, _linear_x_fields(6), 0, PERIODIC)


def test_physical_faces_filled_during_finish():
    grid = UniformGrid((6, 6, 6), BOUNDS)
    d = Decomposition(grid, 1, 0, (NEUMANN,) * 6)
    fields = _linear_x_fields(6)
    ex = HaloExchanger(_self_comm(), d, 1)
    halo = ex.begin(fields, poison=True).finish()
    np.testing.assert_array_equal(halo.slabs[0][0, :, 2, 2], [2.0, 1.0, 0.0])
    assert not any(np.isnan(s).any() for s in halo.slabs)

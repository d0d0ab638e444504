"""Grid, decomposition, halo exchange, physical boundary fills."""

import threading

import numpy as np
import pytest

from mrflow.mesh import (HALO_DEPTH, NEUMANN, PERIODIC, REFLECT,
                         Decomposition, HaloExchanger, MeshError, UniformGrid,
                         apply_boundary, dims_create, extend, extended_arrays,
                         local_extents)
from mrflow.transport import Communicator, ProtocolError, run_spmd

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
    with pytest.raises(MeshError, match="degenerate"):
        UniformGrid((4, 4, 4), ((0.0, np.inf), (0.0, 1.0), (0.0, 1.0)))


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


@pytest.mark.parametrize("n_tasks,rank", [(1, -1), (1, 1), (2, -1), (2, 2)])
def test_rank_outside_layout_is_rejected(n_tasks, rank):
    with pytest.raises(MeshError, match=f"rank {rank} .* {n_tasks} tasks"):
        Decomposition(UniformGrid((8, 8, 8), BOUNDS), n_tasks, rank,
                      (PERIODIC,) * 6)


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


def _extended(fields):
    # NaN ghosts: an exchange that leaves one unset fails the oracle checks
    ext = extended_arrays(fields[0].shape, len(fields))
    for e in ext:
        e.fill(np.nan)
    extend(fields, ext)
    return ext


def _exchange_worker(comm, shape, n_tasks, n_fields):
    grid = UniformGrid(shape, BOUNDS)
    d = Decomposition(grid, n_tasks, comm.rank, (PERIODIC,) * 6)
    g = _global_field(shape, n_fields)
    (x0, x1), (y0, y1), (z0, z1) = d.extents
    ext = _extended([g[f, x0:x1, y0:y1, z0:z1] for f in range(n_fields)])
    HaloExchanger(comm, d).begin(ext).finish()
    return d.extents, ext


@pytest.mark.parametrize("n_tasks", [1, 2, 4, 8])
def test_periodic_exchange_matches_global_oracle(n_tasks):
    shape, n_fields = (8, 6, 6), 3
    g = _global_field(shape, n_fields)
    padded = np.pad(g, ((0, 0),) + ((HALO_DEPTH, HALO_DEPTH),) * 3, mode="wrap")
    for extents, ext in run_spmd(n_tasks, _exchange_worker, shape, n_tasks,
                                 n_fields):
        for axis in range(3):
            # owned cells plus the ghosts on either side along `axis`
            sel = [slice(lo + HALO_DEPTH, hi + HALO_DEPTH) for lo, hi in extents]
            lo, hi = extents[axis]
            sel[axis] = slice(lo, hi + 2 * HALO_DEPTH)
            np.testing.assert_array_equal(
                ext[axis], np.moveaxis(padded[(slice(None), *sel)], 1 + axis, 0),
                err_msg=f"axis {axis} extents {extents}")


def _self_comm():
    return Communicator(0, {})


def test_exchange_protocol_errors():
    grid = UniformGrid((6, 6, 6), BOUNDS)
    d = Decomposition(grid, 1, 0, (PERIODIC,) * 6)
    ext = _extended([np.zeros((6, 6, 6))])
    ex = HaloExchanger(_self_comm(), d)
    handle = ex.begin(ext)
    with pytest.raises(ProtocolError, match="not finished"):
        ex.begin(ext)
    handle.finish()
    with pytest.raises(ProtocolError, match="twice"):
        handle.finish()


def _mismatch_worker(comm, sent):
    # task 0 exchanges 1 field and task 1 exchanges 2
    n_fields = 1 + comm.rank
    d = Decomposition(UniformGrid((12, 6, 6), BOUNDS), 2, comm.rank,
                      (PERIODIC,) * 6)
    handle = HaloExchanger(comm, d).begin(
        _extended([np.zeros(d.local_shape)] * n_fields))
    sent.wait(timeout=30)  # no task closes its ends before both have sent
    with pytest.raises(ProtocolError) as info:
        handle.finish()
    return str(info.value)


def test_halo_shape_mismatch_names_tasks_and_shapes():
    # each task's first receive is its +x ghost slab, the peer's -x layers
    assert run_spmd(2, _mismatch_worker, threading.Barrier(2)) == [
        "task 0: expected tag 'halo:1:1:1x3x6x6' from task 1,"
        " got 'halo:1:1:2x3x6x6'",
        "task 1: expected tag 'halo:1:1:2x3x6x6' from task 0,"
        " got 'halo:1:1:1x3x6x6'",
    ]


def _linear_x_fields(n):
    f = np.broadcast_to(np.arange(float(n))[:, None, None], (n, n, n)).copy()
    return [f]


def _mirror_check(bc):
    """Fill each face in turn and compare its ghost layers against a
    symmetric pad of the owned fields; reflect also negates momentum
    field 1 + axis in the ghosts."""
    shape = (6, 5, 4)
    g = _global_field(shape, 5)
    for face in range(6):
        axis, h = face // 2, HALO_DEPTH
        ext = _extended(list(g))
        apply_boundary(ext[axis], face, bc)
        pad = [(0, 0)] * 4
        pad[1 + axis] = (h, h)
        oracle = np.moveaxis(np.pad(g, pad, mode="symmetric"), 1 + axis, 0)
        if bc == REFLECT:
            oracle[:h, 1 + axis] *= -1.0
            oracle[-h:, 1 + axis] *= -1.0
        ghosts = slice(-h, None) if face % 2 else slice(0, h)
        np.testing.assert_array_equal(ext[axis][ghosts], oracle[ghosts],
                                      err_msg=f"face {face}")


def test_neumann_mirror_orientation():
    _mirror_check(NEUMANN)


def test_reflect_flips_perpendicular_momentum_only():
    _mirror_check(REFLECT)


def test_apply_boundary_rejects_periodic():
    ext = _extended(_linear_x_fields(6))
    with pytest.raises(ProtocolError):
        apply_boundary(ext[0], 0, PERIODIC)


def test_physical_faces_filled_during_finish():
    grid = UniformGrid((6, 6, 6), BOUNDS)
    d = Decomposition(grid, 1, 0, (NEUMANN,) * 6)
    ext = _extended(_linear_x_fields(6))
    HaloExchanger(_self_comm(), d).begin(ext).finish()
    # nearest ghost mirrors cell 0, deepest mirrors cell 2
    np.testing.assert_array_equal(ext[0][:HALO_DEPTH, 0, 2, 2], [2.0, 1.0, 0.0])
    assert not any(np.isnan(e).any() for e in ext)

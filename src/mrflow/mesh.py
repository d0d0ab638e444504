"""Uniform cell-centered grids, block decomposition, and halo exchange.

Faces are numbered 0..5 as (-x, +x, -y, +y, -z, +z); axis = face // 2,
high side = face % 2, opposite = face ^ 1.

Each task keeps one ghost-extended array per axis, shaped
(n_axis + 6, n_fields, other two axes): the owned cells are copied in
once per exchange, and the exchange and the physical boundary fills
write the 3-deep ghost layers on either side in place.

A halo message is the slab in C order as native float64 (both ends of
a socket pair are on one host); its tag `halo:{seq}:{receiving face}:
{nf}x{d0}x{d1}x{d2}` names the exchange, the face and the slab's shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import ProtocolError

HALO_DEPTH = 3
FACE_NAMES = ("-x", "+x", "-y", "+y", "-z", "+z")

PERIODIC = "periodic"
NEUMANN = "neumann"      # homogeneous: ghost = mirror
REFLECT = "reflect"      # neumann, except face-perpendicular momentum flips

BC_KINDS = (PERIODIC, NEUMANN, REFLECT)


class MeshError(ValueError):
    pass


@dataclass(frozen=True)
class UniformGrid:
    """Cell-centered uniform grid: center_i = lo + (i + 1/2) * dx."""
    shape: tuple          # (nx, ny, nz) cells
    bounds: tuple = (((0.0, 1.0)), (0.0, 1.0), (0.0, 1.0))

    def __post_init__(self):
        if any(n < 1 for n in self.shape):
            raise MeshError(f"grid shape must be positive, got {self.shape}")
        for lo, hi in self.bounds:
            if not hi > lo:
                raise MeshError(f"degenerate bounds {self.bounds}")

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.bounds, self.shape))

    def centers(self, axis: int) -> np.ndarray:
        lo, hi = self.bounds[axis]
        n = self.shape[axis]
        dx = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * dx

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))


def dims_create(n_tasks: int) -> tuple:
    """Factor n_tasks into three per-axis counts, as close to equal as
    possible (minimal max/min ratio, then smaller max, then smaller mid).
    Ties assign nonincreasing factors to (x, y, z)."""
    if n_tasks < 1:
        raise MeshError("n_tasks must be >= 1")
    best = None
    for a in range(1, n_tasks + 1):
        if n_tasks % a:
            continue
        rem = n_tasks // a
        for b in range(1, rem + 1):
            if rem % b:
                continue
            c = rem // b
            tri = tuple(sorted((a, b, c), reverse=True))
            key = (tri[0] / tri[2], tri[0], tri[1])
            if best is None or key < best[0]:
                best = (key, tri)
    return best[1]


def local_extents(n_cells: int, n_parts: int) -> list:
    """Split n_cells into n_parts contiguous ranges, sizes differing by
    at most one, remainder cells going to the lowest coordinates."""
    if n_parts < 1 or n_cells < n_parts:
        raise MeshError(f"cannot split {n_cells} cells across {n_parts} tasks")
    base, rem = divmod(n_cells, n_parts)
    out = []
    lo = 0
    for c in range(n_parts):
        size = base + (1 if c < rem else 0)
        out.append((lo, lo + size))
        lo += size
    return out


def _check_bcs(bcs):
    if len(bcs) != 6:
        raise MeshError("need one boundary condition per face (6)")
    for bc in bcs:
        if bc not in BC_KINDS:
            raise MeshError(f"unknown boundary condition {bc!r}")
    for axis in range(3):
        lo, hi = bcs[2 * axis], bcs[2 * axis + 1]
        if (lo == PERIODIC) != (hi == PERIODIC):
            raise MeshError(f"periodic axis {axis} must be periodic on both faces")


class Decomposition:
    """One task's slice of the global grid plus its neighbor table."""

    def __init__(self, grid: UniformGrid, n_tasks: int, rank: int, bcs):
        _check_bcs(bcs)
        self.grid = grid
        self.rank = rank
        self.bcs = tuple(bcs)
        self.layout = dims_create(n_tasks)
        if any(p > n for p, n in zip(self.layout, grid.shape)):
            raise MeshError(f"layout {self.layout} exceeds grid {grid.shape}")
        if any(n // p < HALO_DEPTH for p, n in zip(self.layout, grid.shape)):
            raise MeshError(
                f"local extents of {grid.shape} over {self.layout} are "
                f"thinner than the {HALO_DEPTH}-cell halo")
        px, py, pz = self.layout
        self.coords = (rank // (py * pz), (rank // pz) % py, rank % pz)
        axis_extents = [local_extents(grid.shape[a], self.layout[a])
                        for a in range(3)]
        self.extents = tuple(axis_extents[a][self.coords[a]] for a in range(3))
        self.local_shape = tuple(hi - lo for lo, hi in self.extents)
        self.neighbors = tuple(self._neighbor(f) for f in range(6))

    @staticmethod
    def rank_of(coords, layout) -> int:
        px, py, pz = layout
        cx, cy, cz = coords
        return (cx * py + cy) * pz + cz

    def _neighbor(self, face: int):
        axis, hi = face // 2, face % 2
        step = 1 if hi else -1
        c = list(self.coords)
        c[axis] += step
        if 0 <= c[axis] < self.layout[axis]:
            return self.rank_of(c, self.layout)
        if self.bcs[face] == PERIODIC:
            c[axis] %= self.layout[axis]
            return self.rank_of(c, self.layout)
        return None


# ---------------------------------------------------------------------------
# ghost-extended arrays and halo exchange

def extended_arrays(local_shape, n_fields: int) -> list:
    """One array per axis, (n_axis + 6, n_fields, other two axes): the
    owned cells sit at [3:-3] along the first axis, between ghosts."""
    return [np.empty((n + 2 * HALO_DEPTH, n_fields)
                     + local_shape[:axis] + local_shape[axis + 1:])
            for axis, n in enumerate(local_shape)]


def extend(fields, out):
    """Copy the owned fields into the interior of each extended array."""
    for axis, ext in enumerate(out):
        for i, f in enumerate(fields):
            ext[HALO_DEPTH:-HALO_DEPTH, i] = np.moveaxis(f, axis, 0)


def _slab(ext, face: int, ghost: bool) -> np.ndarray:
    """View of the ghost layers of `face`, or of the owned layers next to
    it, in that axis's extended array, laid out as on the wire."""
    # the ghosts are the three outermost layers, the owned edge the next three
    depth = HALO_DEPTH if ghost else 2 * HALO_DEPTH
    start = len(ext) - depth if face % 2 else depth - HALO_DEPTH
    return np.moveaxis(ext[start:start + HALO_DEPTH], 0, 1 + face // 2)


def _halo_tag(seq: int, face: int, slab: np.ndarray) -> str:
    return f"halo:{seq}:{face}:{'x'.join(map(str, slab.shape))}"


class ExchangeHandle:
    """Pending halo exchange; finish() must be called exactly once."""

    def __init__(self, exchanger, ext, poison):
        self._ex = exchanger
        self._ext = ext
        self._poison = poison
        self._finished = False

    def finish(self):
        """Fill every ghost layer; a poisoned exchange then checks that
        none was left unset."""
        if self._finished:
            raise ProtocolError("exchange handle finished twice")
        self._finished = True
        ext, decomp, seq = self._ext, self._ex.decomp, self._ex._seq
        pending = [f for f in range(6) if decomp.neighbors[f] is not None]
        # one peer can feed both faces of an axis (1- and 2-task layouts);
        # its messages arrive in ITS send order, so recv by sender face f^1
        for face in sorted(pending, key=lambda f: f ^ 1):
            ghost = _slab(ext[face // 2], face, ghost=True)
            raw = self._ex.comm.recv(decomp.neighbors[face],
                                     _halo_tag(seq, face, ghost))
            ghost[...] = np.frombuffer(raw).reshape(ghost.shape)
        for face in range(6):
            if decomp.neighbors[face] is None:
                apply_boundary(ext[face // 2], face, decomp.bcs[face])
            if self._poison and np.isnan(_slab(ext[face // 2], face, True)).any():
                raise RuntimeError(
                    f"ghost slab {FACE_NAMES[face]} left unset by the exchange")
        self._ex._open = False


class HaloExchanger:
    """Fills the ghost layers of one task's extended arrays."""

    def __init__(self, comm, decomp: Decomposition, n_fields: int):
        self.comm = comm
        self.decomp = decomp
        self.n_fields = n_fields
        self._seq = 0
        self._open = False

    def begin(self, ext, poison: bool = False) -> ExchangeHandle:
        """Send each neighbor face's owned layers straight from `ext`;
        receives complete in finish(). poison NaN-fills the ghosts."""
        if self._open:
            raise ProtocolError("previous exchange not finished")
        if ext[0].shape[1] != self.n_fields:
            raise ProtocolError(
                f"expected {self.n_fields} fields, got {ext[0].shape[1]}")
        self._open = True
        self._seq += 1
        for face in range(6):
            if poison:
                _slab(ext[face // 2], face, ghost=True).fill(np.nan)
            dst = self.decomp.neighbors[face]
            if dst is None:
                continue
            owned = _slab(ext[face // 2], face, ghost=False)
            self.comm.send(dst, _halo_tag(self._seq, face ^ 1, owned),
                           owned.tobytes())
        return ExchangeHandle(self, ext, poison)


def apply_boundary(ext, face: int, bc: str):
    """Fill the ghost layers of one physical face in its axis's extended
    array by mirroring the owned layers next to it.

    Of the three boundary kinds, periodic faces are filled by the
    exchange; neumann: ghost = mirror; reflect: neumann for everything
    except the face-perpendicular momentum row, whose sign flips. Field
    order is (rho, mx, my, mz, et, chem...), so the perpendicular
    momentum is field 1 + axis.
    """
    if bc == PERIODIC:
        raise ProtocolError("periodic faces are filled by the exchange")
    axis = face // 2
    ghost = _slab(ext, face, ghost=True)
    ghost[...] = np.flip(_slab(ext, face, ghost=False), axis=1 + axis)
    if bc == REFLECT:
        ghost[1 + axis] = -ghost[1 + axis]

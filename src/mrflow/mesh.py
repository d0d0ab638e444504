"""Uniform cell-centered grids, block decomposition, and halo exchange.

Faces are numbered 0..5 as (-x, +x, -y, +y, -z, +z); axis = face // 2,
high side = face % 2, opposite = face ^ 1.

Neighbor messages use one wire format for every transport:
  face id (1 byte) | field count (u16 LE) | slab dims (3 x u32 LE) |
  payload (field count * prod(dims) float64 LE, C order, field-major).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .transport import ProtocolError

HALO_DEPTH = 3
FACE_NAMES = ("-x", "+x", "-y", "+y", "-z", "+z")

PERIODIC = "periodic"
NEUMANN = "neumann"      # homogeneous: ghost = mirror
REFLECT = "reflect"      # neumann, except face-perpendicular momentum flips

BC_KINDS = (PERIODIC, NEUMANN, REFLECT)

_MSG_HEADER = struct.Struct("<BH3I")


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


def dims_create(n_tasks: int, grid=None) -> tuple:
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
        if any(n // p < HALO_DEPTH for p, n in zip(self.layout, grid.shape)
               if p > 1) or any(p == 1 and n < HALO_DEPTH
                                for p, n in zip(self.layout, grid.shape)):
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
# halo buffers and exchange

def _slab_shape(local_shape, axis):
    s = list(local_shape)
    s[axis] = HALO_DEPTH
    return tuple(s)


class HaloBuffer:
    """Six ghost slabs, each (n_fields, slab shape), three cells deep."""

    def __init__(self, local_shape, n_fields: int):
        self.local_shape = tuple(local_shape)
        self.n_fields = n_fields
        self.slabs = [np.zeros((n_fields,) + _slab_shape(local_shape, f // 2))
                      for f in range(6)]

    def poison(self):
        for s in self.slabs:
            s.fill(np.nan)


def _own_slab(fields, face: int) -> np.ndarray:
    """Stack the 3-deep boundary slab of owned cells next to `face`."""
    axis, hi = face // 2, face % 2
    n = fields[0].shape[axis]
    sl = [slice(None)] * 3
    sl[axis] = slice(n - HALO_DEPTH, n) if hi else slice(0, HALO_DEPTH)
    return np.stack([f[tuple(sl)] for f in fields])


def encode_halo_message(face: int, slab: np.ndarray) -> bytes:
    nf = slab.shape[0]
    dims = slab.shape[1:]
    head = _MSG_HEADER.pack(face, nf, *dims)
    return head + np.ascontiguousarray(slab, dtype="<f8").tobytes()


def decode_halo_message(buf: bytes, expect_face: int, expect_shape) -> np.ndarray:
    face, nf, d0, d1, d2 = _MSG_HEADER.unpack_from(buf)
    if face != expect_face:
        raise ProtocolError(f"halo message for face {face}, expected {expect_face}")
    if (nf,) + (d0, d1, d2) != tuple(expect_shape):
        raise ProtocolError(
            f"halo slab shape {(nf, d0, d1, d2)} != expected {tuple(expect_shape)}")
    payload = np.frombuffer(buf, dtype="<f8", offset=_MSG_HEADER.size)
    return payload.reshape((nf, d0, d1, d2))


class ExchangeHandle:
    """Pending halo exchange; finish() must be called exactly once."""

    def __init__(self, exchanger, fields, seq, poison):
        self._ex = exchanger
        self._fields = fields
        self._seq = seq
        self._finished = False
        decomp = exchanger.decomp
        self._pending = [f for f in range(6) if decomp.neighbors[f] is not None]
        if poison:
            exchanger.halo.poison()

    def finish(self) -> HaloBuffer:
        if self._finished:
            raise ProtocolError("exchange handle finished twice")
        self._finished = True
        halo, decomp = self._ex.halo, self._ex.decomp
        # one peer can feed both faces of an axis (1- and 2-task layouts);
        # its messages arrive in ITS send order, so recv by sender face f^1
        for face in sorted(self._pending, key=lambda f: f ^ 1):
            src = decomp.neighbors[face]
            tag = f"halo:{self._seq}:{face}"
            raw = self._ex.comm.recv(src, tag)
            slab = decode_halo_message(raw, face, halo.slabs[face].shape)
            halo.slabs[face][...] = slab
        for face in range(6):
            if decomp.neighbors[face] is None:
                apply_boundary(halo, self._fields, face, decomp.bcs[face])
        self._ex._open = False
        return halo


class HaloExchanger:
    """Issues overlapped halo exchanges for one task's field set."""

    def __init__(self, comm, decomp: Decomposition, n_fields: int):
        self.comm = comm
        self.decomp = decomp
        self.halo = HaloBuffer(decomp.local_shape, n_fields)
        self._seq = 0
        self._open = False

    def begin(self, fields, poison: bool = False) -> ExchangeHandle:
        """Send all six face slabs; receives complete in finish()."""
        if self._open:
            raise ProtocolError("previous exchange not finished")
        if len(fields) != self.halo.n_fields:
            raise ProtocolError(
                f"expected {self.halo.n_fields} fields, got {len(fields)}")
        self._open = True
        self._seq += 1
        for face in range(6):
            dst = self.decomp.neighbors[face]
            if dst is None:
                continue
            dst_face = face ^ 1
            msg = encode_halo_message(dst_face, _own_slab(fields, face))
            self.comm.send(dst, f"halo:{self._seq}:{dst_face}", msg)
        return ExchangeHandle(self, fields, self._seq, poison)


def apply_boundary(halo: HaloBuffer, fields, face: int, bc: str):
    """Fill one physical-face ghost slab from mirrored interior cells.

    Of the three boundary kinds, periodic faces are filled by the
    exchange; neumann: ghost = mirror; reflect: neumann for everything
    except the face-perpendicular momentum row, whose sign flips. Field
    order is (rho, mx, my, mz, et, chem...), so the perpendicular
    momentum is field 1 + axis.
    """
    if bc == PERIODIC:
        raise ProtocolError("periodic faces are filled by the exchange")
    axis = face // 2
    mirror = np.flip(_own_slab(fields, face), axis=1 + axis)
    if bc == REFLECT:
        mirror[1 + axis] = -mirror[1 + axis]
    elif bc != NEUMANN:
        raise MeshError(f"unknown boundary condition {bc!r}")
    halo.slabs[face][...] = mirror

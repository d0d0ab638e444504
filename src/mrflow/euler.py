"""Compressible Euler fluxes and fifth-order WENO finite differencing.

State fields, in canonical order: rho, mx, my, mz, et, then n_c advected
chemical fields. Face fluxes are built from point values with local
Lax-Friedrichs splitting, component-wise WENO5 reconstruction, and a
conservative difference. Each right-hand-side evaluation works on one
ghost-extended array per axis (see mesh.extended_arrays), allocated
once per pipeline:

  extend (copy the owned fields in) -> exchange (fill the ghosts) ->
  per axis: pointwise pressure, flux and wave speed -> reconstruct
  faces -> difference

The reconstruction reads the six stencil positions as shifted views of
the extended array, one tile of faces at a time: a tile holds as many
faces as fit in TILE_BYTES, at one face row of states each, and at least
one. Every arithmetic step writes in place into scratch arrays of one
tile, allocated once per call, so the working set stays in a core's L2
cache and no temporary of the block's size is made.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FACE_NAMES, HALO_DEPTH, HaloExchanger, extend, extended_arrays
from .profiling import Profile, Region
from .vectors import ManyVector

IRHO, IMX, IMY, IMZ, IET, ICHEM = 0, 1, 2, 3, 4, 5

WENO_EPS = 1e-6
# optimal linear weights for the left-biased face reconstruction
_W_IDEAL = (0.1, 0.6, 0.3)
TILE_BYTES = 128 * 1024  # reconstruction tile budget, in bytes of states


class EosDomainError(RuntimeError):
    """Nonpositive internal energy handed to the equation of state.

    `index` is the first offending element (C order) of the checked
    arrays and `value` its internal energy.
    """

    def __init__(self, message, index=(), value=float("nan")):
        super().__init__(message)
        self.index = index
        self.value = value


@dataclass(frozen=True)
class GasConstants:
    """Ideal gas: `GasConstants(gamma)`, the ratio of specific heats,
    stored exactly as given."""
    gamma: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "GasConstants":
        return cls(gamma)


def kinetic_energy(rho, mx, my, mz):
    return (mx * mx + my * my + mz * mz) / (2.0 * rho)


def pressure(gas: GasConstants, rho, mx, my, mz, et):
    """p = (gamma - 1) * (et - |m|^2 / (2 rho)); nonpositive internal
    energy raises EosDomainError."""
    internal = et - kinetic_energy(rho, mx, my, mz)
    bad = np.logical_not(internal > 0.0)  # NaN fails too
    if np.any(bad):
        index = np.unravel_index(np.argmax(bad), np.shape(bad))
        value = float(np.asarray(internal)[index])
        raise EosDomainError(f"nonpositive internal energy {value:.6g}",
                             index, value)
    return (gas.gamma - 1.0) * internal


def sound_speed(gas: GasConstants, rho, p):
    return np.sqrt(gas.gamma * p / rho)


def flux(w, p, axis: int):
    """Analytic flux along `axis` for states stacked on the first axis,
    given their pressure p."""
    m = w[IMX:IET]
    v = m[axis] / w[IRHO]
    out = np.empty_like(w)
    out[IRHO] = m[axis]
    np.multiply(m, v, out=out[IMX:IET])
    out[IMX + axis] += p
    out[IET] = v * (w[IET] + p)
    np.multiply(w[ICHEM:], v, out=out[ICHEM:])
    return out


# ---------------------------------------------------------------------------
# WENO5 reconstruction

def _weno5_left(f, eps, s, out):
    """Left-biased WENO5 value at the face just right of cell f[2], into
    `out`, with the five arrays `s` of its shape as scratch.

    Evaluates the textbook form, operation for operation and left to right:
      p0 = (2 f0 - 7 f1 + 11 f2) / 6,  p1 = (-f1 + 5 f2 + 2 f3) / 6,
      p2 = (2 f2 + 5 f3 - f4) / 6,
      b0 = 13/12 (f0 - 2 f1 + f2)^2 + 1/4 (f0 - 4 f1 + 3 f2)^2,
      b1 = 13/12 (f1 - 2 f2 + f3)^2 + 1/4 (f1 - f3)^2,
      b2 = 13/12 (f2 - 2 f3 + f4)^2 + 1/4 (3 f2 - 4 f3 + f4)^2,
      a_r = d_r / (eps + b_r)^2,  out = (a0 p0 + a1 p1 + a2 p2) / (a0 + a1 + a2)
    with every step written in place, so no temporary is allocated.
    """
    f0, f1, f2, f3, f4 = f
    a0, a1, a2, t, u = s
    mul, add, sub = np.multiply, np.add, np.subtract

    def weight(a, b, d):    # a <- d / (eps + 13/12 a^2 + 1/4 b^2)^2
        mul(13.0 / 12.0, np.square(a, out=a), out=a)
        add(a, mul(0.25, np.square(b, out=b), out=b), out=a)
        np.divide(d, np.square(add(eps, a, out=a), out=a), out=a)

    add(sub(f0, mul(2.0, f1, out=a0), out=a0), f2, out=a0)
    add(sub(f0, mul(4.0, f1, out=t), out=t), mul(3.0, f2, out=u), out=t)
    weight(a0, t, _W_IDEAL[0])
    add(sub(f1, mul(2.0, f2, out=a1), out=a1), f3, out=a1)
    weight(a1, sub(f1, f3, out=t), _W_IDEAL[1])
    add(sub(f2, mul(2.0, f3, out=a2), out=a2), f4, out=a2)
    add(sub(mul(3.0, f2, out=t), mul(4.0, f3, out=u), out=t), f4, out=t)
    weight(a2, t, _W_IDEAL[2])
    # out <- a0 p0 + a1 p1 + a2 p2, each candidate built in t
    add(sub(mul(2.0, f0, out=t), mul(7.0, f1, out=u), out=t),
        mul(11.0, f2, out=u), out=t)
    mul(a0, np.divide(t, 6.0, out=t), out=out)
    add(add(np.negative(f1, out=t), mul(5.0, f2, out=u), out=t),
        mul(2.0, f3, out=u), out=t)
    add(out, mul(a1, np.divide(t, 6.0, out=t), out=t), out=out)
    sub(add(mul(2.0, f2, out=t), mul(5.0, f3, out=u), out=t), f4, out=t)
    add(out, mul(a2, np.divide(t, 6.0, out=t), out=t), out=out)
    return np.divide(out, add(add(a0, a1, out=a0), a2, out=a0), out=out)


def _face_flux(w, f, lam, eps):
    """Split-flux WENO5 value at each face along one axis.

    w, f: (n + 5, nf, ...) states and fluxes; lam: (n + 5, 1, ...) their
    |v_axis| + c. That axis comes first and carries three ghost cells on
    each side, so face i - 1/2 of owned cell i reads extended cells
    i..i+5: each stencil position is one shifted view, and the local
    Lax-Friedrichs speed is the running maximum over six of them.

    The faces run in tiles of max(1, TILE_BYTES // w[0].nbytes), the last
    one possibly partial. Each tile builds its split fluxes and WENO
    steps in place in scratch arrays of one tile, allocated once per
    call and small enough to stay in cache, and writes its faces of the
    output; each element gets the same operations, bit for bit, whatever
    the tile.
    """
    n = len(lam) - 5
    tile = min(n, max(1, TILE_BYTES // w[0].nbytes))
    out = np.empty((n,) + f.shape[1:])
    scratch = np.empty((11, tile) + f.shape[1:])  # 5 split, 5 WENO, 1 half
    speed_row = np.empty((tile,) + lam.shape[1:])
    for s in range(0, n, tile):
        m = min(tile, n - s)
        buf, speed = scratch[:, :m], speed_row[:m]
        split, weno, half = buf[:5], buf[5:10], buf[10]
        np.maximum(lam[s:s + m], lam[s + 1:s + 1 + m], out=speed)
        for k in range(2, 6):
            np.maximum(speed, lam[s + k:s + k + m], out=speed)
        # upwind-from-left uses cells i-3..i+1; upwind-from-right mirrors
        for sign, ks, res in ((np.add, range(5), out[s:s + m]),
                              (np.subtract, range(5, 0, -1), half)):
            for x, k in zip(split, ks):
                np.multiply(speed, w[s + k:s + k + m], out=x)
                np.multiply(0.5, sign(f[s + k:s + k + m], x, out=x), out=x)
            _weno5_left(split, eps, weno, res)
        np.add(out[s:s + m], half, out=out[s:s + m])
    return out


# ---------------------------------------------------------------------------
# right-hand side pipeline

def state_fields(state: ManyVector):
    """Views of the 5 + n_c scalar fields in canonical order."""
    rho, mx, my, mz, et, chem = state.arrays
    fields = [rho, mx, my, mz, et]
    fields.extend(chem[..., j] for j in range(chem.shape[-1]))
    return fields


class EulerPipeline:
    """Slow right-hand side: f(t, w) = -div F(w), with no source term.

    Owns the halo exchanger and the extended arrays for one task. A call
    sums each field's divergence over the axes straight into the output,
    one face difference at a time through one cell-sized scratch array,
    then negates the output in place. Timing lands in regions: MPI
    for the halo exchange, Packing for copying the owned fields into the
    extended arrays, FDWENO for pointwise fluxes and reconstruction,
    Euler for the whole divergence build, SlowRhs for the full call.
    """

    def __init__(self, comm, decomp, gas: GasConstants, n_chem: int,
                 profile=None):
        self.decomp = decomp
        self.gas = gas
        self.profile = profile if profile is not None else Profile()
        self.exchanger = HaloExchanger(comm, decomp)
        self.ext = extended_arrays(decomp.local_shape, 5 + n_chem)

    # one conservative-difference evaluation
    def __call__(self, t: float, state: ManyVector) -> ManyVector:
        prof = self.profile
        with prof.region(Region.SLOW_RHS):
            out = state.clone_empty()
            with prof.region(Region.EULER):
                with prof.region(Region.PACKING):
                    extend(state_fields(state), self.ext)
                with prof.region(Region.MPI):
                    self.exchanger.begin(self.ext).finish()
                # axis terms accumulated in x, y, z order
                term = np.empty(self.decomp.local_shape)
                for axis, (w, h) in enumerate(zip(self.ext,
                                                  self.decomp.grid.spacing)):
                    with prof.region(Region.FDWENO):
                        face = _face_flux(w, *self._pointwise(w, axis), WENO_EPS)
                    hi, lo = (np.moveaxis(face[s], 0, 1 + axis)
                              for s in (np.s_[1:], np.s_[:-1]))
                    for o, a, b in zip(state_fields(out), hi, lo):
                        np.divide(np.subtract(a, b, out=term), h, out=term)
                        if axis:
                            o += term
                        else:
                            o[...] = term
            for o in out.arrays:
                np.negative(o, out=o)
        return out

    def _pointwise(self, w, axis):
        """Flux along `axis` and |v_axis| + c (with a unit field axis) of
        the extended states w. A failed equation-of-state check names the
        rank and the global cell, or the ghost slab if no owned cell fails."""
        fields = w.swapaxes(0, 1)
        rho = fields[IRHO]
        try:
            p = pressure(self.gas, *fields[:ICHEM])
        except EosDomainError as exc:
            try:
                pressure(self.gas, *fields[:ICHEM, HALO_DEPTH:-HALO_DEPTH])
                where = "ghost slab " + FACE_NAMES[
                    2 * axis + (exc.index[0] >= HALO_DEPTH)]
            except EosDomainError as own:
                exc, index = own, list(own.index[1:])
                index.insert(axis, own.index[0])    # back to (x, y, z) order
                where = "global cell " + str(tuple(
                    lo + int(i) for (lo, _), i in zip(self.decomp.extents, index)))
            raise EosDomainError(f"rank {self.decomp.rank}: {exc} at {where}",
                                 exc.index, exc.value) from None
        c = sound_speed(self.gas, rho, p)
        f = flux(fields, p, axis).swapaxes(0, 1)
        return f, (np.abs(fields[IMX + axis] / rho) + c)[:, None]


def cfl_time_step(gas: GasConstants, state: ManyVector, spacing,
                  cfl: float = 0.4) -> float:
    """Largest advective step for this task's cells (reduce across tasks
    before use)."""
    rho, mx, my, mz, et, _ = state.arrays
    p = pressure(gas, rho, mx, my, mz, et)
    c = sound_speed(gas, rho, p)
    limit = np.inf
    for axis, (m, h) in enumerate(zip((mx, my, mz), spacing)):
        lam = np.abs(m / rho) + c
        limit = min(limit, h / float(lam.max()))
    return cfl * limit

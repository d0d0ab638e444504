"""Compressible Euler fluxes and fifth-order WENO finite differencing.

State fields, in canonical order: rho, mx, my, mz, et, then n_c advected
chemical fields. Face fluxes are built from point values with local
Lax-Friedrichs splitting, component-wise WENO5 reconstruction, and a
conservative difference. Pressure, flux and wave speed are pointwise, so
each is computed once per cell (and axis), and the reconstruction reads
the six stencil positions as shifted views of ghost-extended arrays.
Each right-hand-side evaluation overlaps halo traffic with owned work:

  begin exchange -> owned pointwise quantities -> finish exchange ->
  ghost pointwise quantities -> reconstruct faces -> divergence

The owned pass reads owned cells only and never touches ghost storage,
which is what makes the overlap legal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import FACE_NAMES, HaloExchanger
from .profiling import Region, null_profile
from .vectors import ManyVector

IRHO, IMX, IMY, IMZ, IET, ICHEM = 0, 1, 2, 3, 4, 5

WENO_EPS = 1e-6
# optimal linear weights for the left-biased face reconstruction
_W_IDEAL = (0.1, 0.6, 0.3)


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
    """Ideal-gas parameters; gamma = 1 + R/c_v always holds."""
    R: float
    c_v: float

    @property
    def gamma(self) -> float:
        return 1.0 + self.R / self.c_v

    @classmethod
    def from_gamma(cls, gamma: float) -> "GasConstants":
        c_v = 1.5
        return cls(R=(gamma - 1.0) * c_v, c_v=c_v)


def kinetic_energy(rho, mx, my, mz):
    return (mx * mx + my * my + mz * mz) / (2.0 * rho)


def pressure(gas: GasConstants, rho, mx, my, mz, et):
    """p = (gamma - 1) * (et - |m|^2 / (2 rho)); nonpositive internal
    energy raises EosDomainError."""
    internal = et - kinetic_energy(rho, mx, my, mz)
    bad = internal <= 0.0
    if np.any(bad):
        index = np.unravel_index(np.argmax(bad), np.shape(bad))
        value = float(np.asarray(internal)[index])
        raise EosDomainError(f"nonpositive internal energy {value:.6g}",
                             index, value)
    return (gas.gamma - 1.0) * internal


def sound_speed(gas: GasConstants, rho, p):
    return np.sqrt(gas.gamma * p / rho)


def flux(gas: GasConstants, w, p, axis: int):
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

def _weno5_left(f0, f1, f2, f3, f4, eps):
    """Left-biased WENO5 value at the face just right of cell f2."""
    p0 = (2.0 * f0 - 7.0 * f1 + 11.0 * f2) / 6.0
    p1 = (-f1 + 5.0 * f2 + 2.0 * f3) / 6.0
    p2 = (2.0 * f2 + 5.0 * f3 - f4) / 6.0
    b0 = (13.0 / 12.0) * (f0 - 2.0 * f1 + f2) ** 2 + 0.25 * (f0 - 4.0 * f1 + 3.0 * f2) ** 2
    b1 = (13.0 / 12.0) * (f1 - 2.0 * f2 + f3) ** 2 + 0.25 * (f1 - f3) ** 2
    b2 = (13.0 / 12.0) * (f2 - 2.0 * f3 + f4) ** 2 + 0.25 * (3.0 * f2 - 4.0 * f3 + f4) ** 2
    a0 = _W_IDEAL[0] / (eps + b0) ** 2
    a1 = _W_IDEAL[1] / (eps + b1) ** 2
    a2 = _W_IDEAL[2] / (eps + b2) ** 2
    asum = a0 + a1 + a2
    return (a0 * p0 + a1 * p1 + a2 * p2) / asum


def _face_flux(w, f, lam, eps):
    """Split-flux WENO5 value at each face along one axis.

    w, f: (n + 6, nf, ...) states and fluxes; lam: (n + 6, 1, ...) their
    |v_axis| + c. That axis comes first and carries three ghost cells on
    each side, so face i - 1/2 of owned cell i reads extended cells
    i..i+5: each stencil position is one shifted view, and the local
    Lax-Friedrichs speed is the running maximum over six of them.
    """
    n = len(lam) - 5
    speed = lam[:n]
    for k in range(1, 6):
        speed = np.maximum(speed, lam[k:k + n])
    # upwind-from-left uses cells i-3..i+1; upwind-from-right mirrors
    plus = [0.5 * (f[k:k + n] + speed * w[k:k + n]) for k in range(5)]
    minus = [0.5 * (f[k:k + n] - speed * w[k:k + n]) for k in range(5, 0, -1)]
    return _weno5_left(*plus, eps) + _weno5_left(*minus, eps)


def _extend(lo, owned, hi, axis):
    """Ghost, owned and ghost cells joined along array axis 1 + axis,
    with that axis moved first."""
    return np.concatenate([np.moveaxis(a, 1 + axis, 0) for a in (lo, owned, hi)])


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

    Owns the halo exchanger for one task. Timing lands in regions: MPI
    for transport waits, Packing for the stacking and ghost-extension
    copies, FDWENO for pointwise fluxes and reconstruction, Euler for
    the whole divergence build, SlowRhs for the full call.
    """

    def __init__(self, comm, decomp, gas: GasConstants, n_chem: int,
                 profile=None, debug: bool = False):
        self.decomp = decomp
        self.gas = gas
        self.profile = profile if profile is not None else null_profile()
        self.debug = debug
        self.exchanger = HaloExchanger(comm, decomp, 5 + n_chem)

    # one conservative-difference evaluation
    def __call__(self, t: float, state: ManyVector) -> ManyVector:
        prof = self.profile
        with prof.region(Region.SLOW_RHS):
            with prof.region(Region.EULER):
                div = self._divergence(state)
            out = state.clone_empty()
            for o, d in zip(state_fields(out), div):
                np.multiply(d, -1.0, out=o)
        return out

    def _divergence(self, state: ManyVector):
        prof = self.profile
        fields = state_fields(state)
        with prof.region(Region.MPI):
            handle = self.exchanger.begin(fields, poison=self.debug)
        with prof.region(Region.PACKING):
            owned = np.stack(fields)
        with prof.region(Region.FDWENO):
            inner = self._pointwise(owned, range(3))
        with prof.region(Region.MPI):
            slabs = handle.finish().slabs
        if self.debug:
            for face, slab in enumerate(slabs):
                if np.any(np.isnan(slab)):
                    raise RuntimeError(
                        f"ghost slab {FACE_NAMES[face]} left unset by the exchange")
        with prof.region(Region.FDWENO):
            ghost = [self._pointwise(slab, (face // 2,), face)[0]
                     for face, slab in enumerate(slabs)]
        # conservative difference, axis terms accumulated in x, y, z order
        div = None
        for axis, h in enumerate(self.decomp.grid.spacing):
            lo, hi = 2 * axis, 2 * axis + 1
            with prof.region(Region.PACKING):
                w = _extend(slabs[lo], owned, slabs[hi], axis)
                f, lam = (_extend(*parts, axis)
                          for parts in zip(ghost[lo], inner[axis], ghost[hi]))
            with prof.region(Region.FDWENO):
                face = _face_flux(w, f, lam, WENO_EPS)
            term = np.moveaxis(np.diff(face, axis=0) / h, 0, 1 + axis)
            if div is None:
                div = term
            else:
                div += term
        return div

    def _pointwise(self, w, axes, face=None):
        """[(flux, |v_axis| + c)] of the (nf, ...) states w for each axis in
        `axes`; the wave speed keeps a unit field axis. w holds the owned
        cells, or the ghost slab of `face`; a failed equation-of-state
        check names the rank and the global cell or the face."""
        rho = w[IRHO]
        try:
            p = pressure(self.gas, *w[:ICHEM])
        except EosDomainError as exc:
            if face is None:
                where = "global cell " + str(tuple(
                    lo + int(i) for (lo, _), i in zip(self.decomp.extents, exc.index)))
            else:
                where = f"ghost slab {FACE_NAMES[face]}"
            raise EosDomainError(f"rank {self.decomp.rank}: {exc} at {where}",
                                 exc.index, exc.value) from None
        c = sound_speed(self.gas, rho, p)
        return [(flux(self.gas, w, p, axis), (np.abs(w[IMX + axis] / rho) + c)[None])
                for axis in axes]


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

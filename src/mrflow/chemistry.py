"""Chemical species, initial conditions, units, and the reaction network.

Ten advected chemistry fields ride along with the fluid: eight mass
densities, the electron density, and the specific gas energy e_g
(internal energy per gram, proportional to temperature). e_g is stored
twice in effect -- once inside the total fluid energy, once as a
chemistry slot -- and the two copies are reconciled whenever control
passes between the slow (advection) and fast (reaction) integrators:

  entering a fast solve:   e_g <- (e_t - |m|^2/(2 rho)) / rho
  leaving a fast solve:    e_t += rho * (chemical heating of the stage)
                           e_g <- (e_t - |m|^2/(2 rho)) / rho

so after every slow phase the slot agrees with the fluid to roundoff,
and with zero rates (k1 = k2 = q = 0) the transfer is pure roundoff and total
energy stays conserved.

The reaction network itself is a two-species hydrogen-recombination
surrogate acting on (H, H2, e_g) with mass exchanged as 2H <-> H2; the
temperature feedback theta = e_g/e_ref makes it stiff. The fast solver
sees only those three fields, as one block; the other twelve feel only
their constant forcing r over a fast interval: v + (tau - tau_a) r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .euler import IET, IRHO, kinetic_energy
from .vectors import ManyVector

SPECIES = ("H", "H+", "H-", "H2", "H2+", "He", "He+", "He++", "e-", "e_g")
N_SPECIES = len(SPECIES)
IH, IHP, IHM, IH2, IH2P, IHE, IHEP, IHEPP, IE, IEG = range(N_SPECIES)
FAST_SLOTS = (IH, IH2, IEG)      # the network's fields, in its row order

# atomic weights used by the number-density and electron formulas
W_H = 1.00794
W_H2 = 2.01588
W_HE = 4.002602
NUMBER_PREFACTOR = 5.988e23      # particles per gram per unit weight
K_BOLTZMANN = 1.3806488e-16      # erg/K

RHO_BACKGROUND = 1.67e-22        # g/cm^3
T_BACKGROUND = 10.0              # K


@dataclass(frozen=True)
class UnitSystem:
    """Nondimensionalization scales (CGS base)."""
    mass: float = 3.0e70          # g
    length: float = 3.0857e30     # cm
    time: float = 1.0e11          # s

    @property
    def density(self) -> float:
        return self.mass / self.length ** 3

    @property
    def velocity(self) -> float:
        return self.length / self.time

    @property
    def momentum_density(self) -> float:
        return self.density * self.velocity

    @property
    def energy_density(self) -> float:
        return self.density * self.velocity ** 2

    @property
    def specific_energy(self) -> float:
        return self.velocity ** 2


def nondimensionalize(units: UnitSystem, rho, m, et, chem):
    """Scale CGS fields into code units (new arrays)."""
    rho_n = rho / units.density
    m_n = [mi / units.momentum_density for mi in m]
    et_n = et / units.energy_density
    chem_n = chem.copy()
    chem_n[..., :IE + 1] /= units.density
    chem_n[..., IEG] /= units.specific_energy
    return rho_n, m_n, et_n, chem_n


# ---------------------------------------------------------------------------
# initial conditions

def clump_table(seed: int, n_clumps: int, grid) -> np.ndarray:
    """Deterministic clump list, identical on every task.

    Columns: center x/y/z, amplitude in [0, 5), radius in [3, 6) cell
    widths. One named 64-bit generator (PCG64) seeded once; the draw
    order (positions, amplitudes, radii) is pinned.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    lo = np.array([b[0] for b in grid.bounds])
    hi = np.array([b[1] for b in grid.bounds])
    pos = lo + rng.uniform(size=(n_clumps, 3)) * (hi - lo)
    amp = rng.uniform(0.0, 5.0, n_clumps)
    rad = rng.uniform(3.0, 6.0, n_clumps) * grid.spacing[0]
    return np.column_stack([pos, amp, rad])


def _local_centers(grid, extents):
    """X, Y, Z of the local cell centres and r_c^2 from the domain centre."""
    X, Y, Z = np.meshgrid(*(grid.centers(axis)[lo:hi]
                            for axis, (lo, hi) in enumerate(extents)),
                          indexing="ij")
    xc = [0.5 * (b[0] + b[1]) for b in grid.bounds]
    return X, Y, Z, (X - xc[0]) ** 2 + (Y - xc[1]) ** 2 + (Z - xc[2]) ** 2


def density_field(grid, extents, clumps: np.ndarray) -> np.ndarray:
    """rho0 * (1 + 5 exp(-20 r_c^2) + sum_i s_i exp(-2 (r_i/rad_i)^2)),
    rho0 = RHO_BACKGROUND."""
    X, Y, Z, r2 = _local_centers(grid, extents)
    shape = 1.0 + 5.0 * np.exp(-20.0 * r2)
    for cx, cy, cz, amp, rad in clumps:
        d2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
        shape += amp * np.exp(-2.0 * d2 / rad ** 2)
    return RHO_BACKGROUND * shape


def temperature_field(grid, extents) -> np.ndarray:
    """T0 * (1 + 5 exp(-20 ||x - x_c||^2)), T0 = T_BACKGROUND."""
    r2 = _local_centers(grid, extents)[3]
    return T_BACKGROUND * (1.0 + 5.0 * np.exp(-20.0 * r2))


def species_init(rho: np.ndarray, temperature: np.ndarray,
                 gamma: float = 5.0 / 3.0) -> np.ndarray:
    """CGS chemistry fields from the local density and temperature.

    The eight mass species sum to rho exactly: H is defined as rho minus
    the others, with the subtrahend accumulated smallest-first so the
    round trip stays below half an ulp of rho.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho <= 0.0):
        raise ValueError("species_init needs positive density everywhere")
    chem = np.zeros(rho.shape + (N_SPECIES,))
    trace = 1e-40 * rho
    h2 = 1e-12 * rho
    hep = trace
    hepp = trace
    he = 0.24 * rho - hep - hepp
    # ascending-magnitude accumulation keeps the mass closure exact
    small = ((trace + trace) + trace) + hep + hepp   # H+, H-, H2+, He+, He++
    others = (small + h2) + he
    h = rho - others
    chem[..., IH] = h
    chem[..., IHP] = trace
    chem[..., IHM] = trace
    chem[..., IH2] = h2
    chem[..., IH2P] = trace
    chem[..., IHE] = he
    chem[..., IHEP] = hep
    chem[..., IHEPP] = hepp
    chem[..., IE] = (chem[..., IHP] / W_H + chem[..., IHEP] / W_HE
                     + 2.0 * chem[..., IHEPP] / W_HE - chem[..., IHM] / W_H
                     + chem[..., IH2P] / W_H2)
    n_number = NUMBER_PREFACTOR * (
        chem[..., IH2] / W_H2 + chem[..., IH2P] / W_H2
        + chem[..., IHP] / W_H + chem[..., IHM] / W_H
        + chem[..., IHEP] / W_HE + chem[..., IHEPP] / W_HE
        + chem[..., IHE] / W_HE + chem[..., IH] / W_H)
    chem[..., IEG] = K_BOLTZMANN * temperature * n_number / (rho * (gamma - 1.0))
    return chem


# ---------------------------------------------------------------------------
# energy bookkeeping between slow and fast phases

def sync_gas_energy(state):
    """Refresh the chemistry e_g slot from the fluid: (e_t - kinetic) / rho."""
    rho, mx, my, mz, et, chem = state.arrays
    chem[..., IEG] = (et - kinetic_energy(rho, mx, my, mz)) / rho


class EnergyBookkeeping:
    """Stage hooks (see module doc): prepare lifts the H, H2 and e_g
    block and its forcing out of the state (the fields left out count as
    zeros in norms: the global length stays the state's), which stays
    untouched until finalize moves the other fields, writes the block
    back and moves the heating."""

    def prepare(self, state, forcing, t):
        sync_gas_energy(state)
        self._rho, self._r_rho, self._t = (state.arrays[IRHO],
                                           forcing.arrays[IRHO], t)
        return _lift(state), _lift(forcing)

    def density(self, t):
        """rho at time t of the interval: rho_a + (t - tau_a) r_rho."""
        return self._rho + (t - self._t) * self._r_rho

    def finalize(self, state, forcing, fast, d_tau):
        rho, chem, block = state.arrays[IRHO], state.arrays[5], fast.arrays[0]
        heating = block[-1] - (chem[..., IEG]   # e_g: the last row
                               + d_tau * forcing.arrays[5][..., IEG])
        for v, r in zip(state.arrays, forcing.arrays):
            v += d_tau * r
        for j, row in zip(FAST_SLOTS, block):
            chem[..., j] = row
        state.arrays[IET] += rho * heating
        sync_gas_energy(state)


def _lift(v):
    """v's H, H2 and e_g as one contiguous block."""
    block = np.stack([v.arrays[5][..., j] for j in FAST_SLOTS])
    return ManyVector([block], v.global_length, v.comm, v.batched_reductions)


# ---------------------------------------------------------------------------
# surrogate reaction network

@dataclass
class SurrogateNetwork:
    """Stiff H2-formation surrogate on y = (H, H2, e_g) with mass 2H <-> H2.

        dH/dt   = -2 k1 H^2 + 2 k2 H2 theta
        dH2/dt  =    k1 H^2 -   k2 H2 theta
        de_g/dt = q (k1 H^2 -   k2 H2 theta) / rho
        theta   = e_g / e_ref

    H + 2 H2 is exactly conserved along every trajectory. All inputs are
    code units; e_ref defaults to 1 and is normally set to the run's
    initial mean e_g.
    """
    k1: float = 1.0e2
    k2: float = 1.0e4
    q: float = 1.0e-2
    e_ref: float = 1.0

    FIELDS = tuple(SPECIES[j] for j in FAST_SLOTS)

    def rates(self, y):
        """Net rate k1 H^2 - k2 H2 theta of 2H -> H2 in each cell."""
        h, h2, eg = y
        return self.k1 * h * h - self.k2 * h2 * (eg / self.e_ref)

    def rhs(self, rho, y) -> np.ndarray:
        """Time derivatives of y as one new (3,) + shape array."""
        return self._per_rate(rho, self.rates(y))

    def jacobian_values(self, rho, y) -> np.ndarray:
        """The (3, 3) + shape block over FIELDS, [r][c] = d f_r / d y_c:
        rhs's weights times the gradient of the rate."""
        h, h2, eg = y
        grad = np.broadcast_arrays(2.0 * self.k1 * h,             # d/dH
                                   -(self.k2 * (eg / self.e_ref)),  # d/dH2
                                   -(self.k2 * h2 / self.e_ref))    # d/de_g
        return self._per_rate(rho, np.stack(grad))

    def _per_rate(self, rho, x):
        """(-2 x, x, q x / rho) along a new leading axis: what each field
        gets from x, a rate or its derivative."""
        out = np.multiply.outer((-2.0, 1.0, self.q), x)
        out[2] /= rho
        return out

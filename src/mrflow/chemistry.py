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
and with reactions disabled the transfer is pure roundoff and total
energy stays conserved.

The reaction network itself is a two-species hydrogen-recombination
surrogate acting on (H, H2, e_g) with mass exchanged as 2H <-> H2; the
temperature feedback theta = e_g/e_ref makes it stiff. Its analytic
Jacobian fills a fixed sparsity pattern inside the (5+n_c)^2 cell block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .euler import IET, IRHO, kinetic_energy

SPECIES = ("H", "H+", "H-", "H2", "H2+", "He", "He+", "He++", "e-", "e_g")
N_SPECIES = len(SPECIES)
IH, IHP, IHM, IH2, IH2P, IHE, IHEP, IHEPP, IE, IEG = range(N_SPECIES)

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
    outs = []
    for axis in range(3):
        lo, hi = extents[axis]
        outs.append(grid.centers(axis)[lo:hi])
    return np.meshgrid(*outs, indexing="ij")


def density_field(grid, extents, clumps: np.ndarray,
                  rho0: float = RHO_BACKGROUND) -> np.ndarray:
    """rho0 * (1 + 5 exp(-20 r_c^2) + sum_i s_i exp(-2 (r_i/rad_i)^2))."""
    X, Y, Z = _local_centers(grid, extents)
    xc = [0.5 * (b[0] + b[1]) for b in grid.bounds]
    r2 = (X - xc[0]) ** 2 + (Y - xc[1]) ** 2 + (Z - xc[2]) ** 2
    shape = 1.0 + 5.0 * np.exp(-20.0 * r2)
    for cx, cy, cz, amp, rad in clumps:
        d2 = (X - cx) ** 2 + (Y - cy) ** 2 + (Z - cz) ** 2
        shape += amp * np.exp(-2.0 * d2 / rad ** 2)
    return rho0 * shape


def temperature_field(grid, extents, t0: float = T_BACKGROUND) -> np.ndarray:
    """T0 * (1 + 5 exp(-20 ||x - x_c||^2))."""
    X, Y, Z = _local_centers(grid, extents)
    xc = [0.5 * (b[0] + b[1]) for b in grid.bounds]
    r2 = (X - xc[0]) ** 2 + (Y - xc[1]) ** 2 + (Z - xc[2]) ** 2
    return t0 * (1.0 + 5.0 * np.exp(-20.0 * r2))


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

def gas_energy_from_fluid(rho, mx, my, mz, et):
    """Specific internal energy (e_t - kinetic) / rho."""
    return (et - kinetic_energy(rho, mx, my, mz)) / rho


def sync_gas_energy(state):
    """Refresh the chemistry e_g slot from the fluid fields."""
    rho, mx, my, mz, et, chem = state.arrays
    chem[..., IEG] = gas_energy_from_fluid(rho, mx, my, mz, et)


class EnergyBookkeeping:
    """Stage hooks reconciling the two stored energies (see module doc)."""

    def __init__(self):
        self._eg_entry = None

    def prepare(self, state, forcing):
        sync_gas_energy(state)
        self._eg_entry = state.arrays[5][..., IEG].copy()

    def finalize(self, state, forcing, d_tau):
        rho = state.arrays[IRHO]
        chem = state.arrays[5]
        r_eg = forcing.arrays[5][..., IEG]
        heating = chem[..., IEG] - (self._eg_entry + d_tau * r_eg)
        state.arrays[IET] += rho * heating
        sync_gas_energy(state)
        self._eg_entry = None


# ---------------------------------------------------------------------------
# surrogate reaction network

@dataclass
class SurrogateNetwork:
    """Stiff H2-formation surrogate on (H, H2, e_g) with mass 2H <-> H2.

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

    # block-local (row, col) coordinates of the nonzero Jacobian entries;
    # the block is (5 + n_c) wide with fluid fields first
    PATTERN = (
        (5 + IH, 5 + IH), (5 + IH, 5 + IH2), (5 + IH, 5 + IEG),
        (5 + IH2, 5 + IH), (5 + IH2, 5 + IH2), (5 + IH2, 5 + IEG),
        (5 + IEG, IRHO), (5 + IEG, 5 + IH), (5 + IEG, 5 + IH2),
        (5 + IEG, 5 + IEG),
    )

    def rates(self, rho, chem):
        h = chem[..., IH]
        h2 = chem[..., IH2]
        theta = chem[..., IEG] / self.e_ref
        forward = self.k1 * h * h
        backward = self.k2 * h2 * theta
        return forward, backward

    def rhs(self, rho, chem) -> np.ndarray:
        """Time derivatives of the chemistry slots (same shape as chem)."""
        out = np.zeros_like(chem)
        forward, backward = self.rates(rho, chem)
        net = forward - backward
        out[..., IH] = -2.0 * net
        out[..., IH2] = net
        out[..., IEG] = self.q * net / rho
        return out

    def jacobian_values(self, rho, chem) -> np.ndarray:
        """Entries matching PATTERN, stacked on the last axis."""
        h = chem[..., IH]
        h2 = chem[..., IH2]
        theta = chem[..., IEG] / self.e_ref
        k1, k2, q = self.k1, self.k2, self.q
        d_f_h = 2.0 * k1 * h            # d(forward)/dH
        d_b_h2 = k2 * theta             # d(backward)/dH2
        d_b_eg = k2 * h2 / self.e_ref   # d(backward)/de_g
        net = k1 * h * h - k2 * h2 * theta
        cols = (
            -2.0 * d_f_h, 2.0 * d_b_h2, 2.0 * d_b_eg,
            d_f_h, -d_b_h2, -d_b_eg,
            -q * net / (rho * rho), q * d_f_h / rho,
            -q * d_b_h2 / rho, -q * d_b_eg / rho,
        )
        return np.stack([np.broadcast_to(c, np.shape(h)) for c in cols], axis=-1)

    def single_cell_ode(self, rho: float = 1.0):
        """(f, jac) over y = (H, H2, e_g) for one cell; test helper."""
        def f(t, y):
            chem = np.zeros(N_SPECIES)
            chem[IH], chem[IH2], chem[IEG] = y
            d = self.rhs(rho, chem)
            return np.array([d[IH], d[IH2], d[IEG]])

        def jac(t, y):
            chem = np.zeros(N_SPECIES)
            chem[IH], chem[IH2], chem[IEG] = y
            vals = self.jacobian_values(rho, chem)
            idx = {(5 + IH): 0, (5 + IH2): 1, (5 + IEG): 2}
            out = np.zeros((3, 3))
            for (r, c), v in zip(self.PATTERN, vals):
                if r in idx and c in idx:
                    out[idx[r], idx[c]] = v
            return out

        return f, jac

"""The surrogate network in one cell as a small dense ODE, for checks
against scipy references and finite differences; the network on its
three-field block and on the fluid + chemistry state as one block, and
a scalar Newton engine, for solver tests."""

import numpy as np

from mrflow.chemistry import FAST_SLOTS, IEG, SPECIES
from mrflow.euler import IRHO
from mrflow.newton import NewtonEngine
from mrflow.vectors import ManyVector

STATE_FIELDS = ("rho", "mx", "my", "mz", "et") + SPECIES


def single_cell_ode(net, rho: float = 1.0):
    """(f, jac) over y = (H, H2, e_g) for one cell of network `net`."""
    def f(t, y):
        return np.array(net.rhs(rho, y))

    def jac(t, y):
        return net.jacobian_values(rho, y)

    return f, jac


def network_on_fields(net, rho: float = 1.0):
    """(f, newton) of `net` on a (H, H2, e_g) block at density rho, as
    the run's fast problem is posed."""
    def f(t, v):
        return ManyVector([net.rhs(rho, v.arrays[0])], v.global_length,
                          v.comm, v.batched_reductions)

    newton = NewtonEngine(lambda t, v: net.jacobian_values(rho, v.arrays[0]),
                          net.FIELDS)
    return f, newton


def one_cell(values, global_length=None):
    """A block of one cell, one row per field."""
    return ManyVector([np.reshape(np.asarray(values, dtype=float),
                                  (-1, 1, 1, 1))], global_length)


def full_state_block(v):
    """The 15 fields of a fluid + chemistry ManyVector as one block."""
    block = np.concatenate([np.stack(v.arrays[:5]),
                            np.moveaxis(v.arrays[5], -1, 0)])
    return ManyVector([block], v.global_length, v.comm, v.batched_reductions)


def store_full_state_block(state, v):
    """Write a full_state_block v back into the fluid + chemistry state."""
    block = v.arrays[0]
    for a, row in zip(state.arrays[:5], block):
        a[...] = row
    state.arrays[5][...] = np.moveaxis(block[5:], 0, -1)


def network_on_full_state(net):
    """(f, jacobian, names) of `net` on the full_state_block of a fluid +
    chemistry state: zero rows but for H, H2 and e_g, where the network
    acts at the density the block holds. The density is an unknown
    here, so the dense 15 x 15 Jacobian has a density column."""
    rows = [5 + j for j in FAST_SLOTS]

    def f(t, v):
        block = v.arrays[0]
        out = v.clone_empty().fill(0.0)
        out.arrays[0][rows] = net.rhs(block[IRHO], block[rows])
        return out

    def jacobian(t, v):
        block = v.arrays[0]
        rho = block[IRHO]
        y = block[rows]
        jac = np.zeros((len(STATE_FIELDS),) * 2 + rho.shape)
        jac[np.ix_(rows, rows)] = net.jacobian_values(rho, y)
        jac[5 + IEG, IRHO] = -net.q * net.rates(y) / (rho * rho)
        return jac

    return f, jacobian, STATE_FIELDS


def scalar_newton(dfdy, engine=NewtonEngine):
    """`engine` on a one-row block whose Jacobian is dfdy(t) in every cell."""
    return engine(lambda t, v: np.full((1,) + v.arrays[0].shape, dfdy(t)),
                  ("y",))

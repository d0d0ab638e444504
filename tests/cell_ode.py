"""The surrogate network in one cell as a small dense ODE, for checks
against scipy references and finite differences; the network on its
three fields and on the fluid + chemistry state, and a scalar Newton
engine, for solver tests."""

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
    """(f, newton) of `net` on a vector of (H, H2, e_g) at density rho,
    as the run's fast problem is posed."""
    def f(t, v):
        return ManyVector(net.rhs(rho, v.arrays), v.global_length, v.comm,
                          v.batched_reductions)

    newton = NewtonEngine(lambda t, v: net.jacobian_values(rho, v.arrays),
                          net.FIELDS)
    return f, newton


def one_cell(values, global_length=None):
    """A vector of one cell, one array per field."""
    return ManyVector([np.full((1, 1, 1), float(x)) for x in values],
                      global_length)


def one_field_views(v):
    """The 15 fields of a fluid + chemistry ManyVector as one view each."""
    chem = v.arrays[5]
    return ManyVector(v.arrays[:5] + [chem[..., j]
                                      for j in range(chem.shape[-1])],
                      v.global_length, v.comm, v.batched_reductions)


def network_on_full_state(net):
    """(f, jacobian, names) of `net` on the one_field_views of a fluid +
    chemistry state: zero rows but for H, H2 and e_g, where the network
    acts at the density the vector holds. The density is an unknown
    here, so the dense 15 x 15 Jacobian has a density column."""
    rows = [5 + j for j in FAST_SLOTS]

    def f(t, v):
        out = v.clone_empty().fill(0.0)
        dydt = net.rhs(v.arrays[IRHO], [v.arrays[r] for r in rows])
        for r, d in zip(rows, dydt):
            out.arrays[r][...] = d
        return out

    def jacobian(t, v):
        rho = v.arrays[IRHO]
        y = [v.arrays[r] for r in rows]
        jac = np.zeros((len(STATE_FIELDS),) * 2 + rho.shape)
        jac[np.ix_(rows, rows)] = net.jacobian_values(rho, y)
        jac[5 + IEG, IRHO] = -net.q * net.rates(y) / (rho * rho)
        return jac

    return f, jacobian, STATE_FIELDS


def scalar_newton(dfdy, engine=NewtonEngine):
    """`engine` on a 1-array vector whose Jacobian is dfdy(t) in every cell."""
    return engine(lambda t, v: np.full((1, 1) + v.arrays[0].shape, dfdy(t)),
                  ("y",))

"""The surrogate network in one cell as a small dense ODE, for checks
against scipy references and finite differences, and on the fluid +
chemistry state of one or more cells, for solver tests."""

import numpy as np

from mrflow.chemistry import FAST_SLOTS, IEG
from mrflow.euler import IRHO


def single_cell_ode(net, rho: float = 1.0):
    """(f, jac) over y = (H, H2, e_g) for one cell of network `net`."""
    def f(t, y):
        return np.array(net.rhs(rho, y))

    def jac(t, y):
        out = np.zeros((3, 3))
        for (r, c), v in zip(net.PATTERN, net.jacobian_values(rho, y)):
            out[r, c] += v
        return out

    return f, jac


def network_on_full_state(net):
    """(f, jacobian, pattern) of `net` on a fluid + chemistry ManyVector:
    zero fluid rows, the network on the H, H2 and e_g slots at the
    density the vector holds, the other chemistry slots zero. The
    density is an unknown here, so the e_g row has a density column."""
    def fields(v):
        return [v.arrays[5][..., j] for j in FAST_SLOTS]

    def f(t, v):
        out = v.clone_empty().fill(0.0)
        for j, d in zip(FAST_SLOTS, net.rhs(v.arrays[0], fields(v))):
            out.arrays[5][..., j] = d
        return out

    def jacobian(t, v):
        rho = v.arrays[0]
        d_rho = -net.q * net.rates(fields(v)) / (rho * rho)
        return np.concatenate([net.jacobian_values(rho, fields(v)),
                               d_rho[..., None]], axis=-1)

    pattern = tuple((5 + FAST_SLOTS[r], 5 + FAST_SLOTS[c])
                    for r, c in net.PATTERN) + ((5 + IEG, IRHO),)
    return f, jacobian, pattern

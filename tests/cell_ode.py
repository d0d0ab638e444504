"""One cell of the surrogate network as a small dense ODE, for checks
against scipy references and finite differences."""

import numpy as np

from mrflow.chemistry import IEG, IH, IH2, N_SPECIES


def single_cell_ode(net, rho: float = 1.0):
    """(f, jac) over y = (H, H2, e_g) for one cell of network `net`."""
    def f(t, y):
        chem = np.zeros(N_SPECIES)
        chem[IH], chem[IH2], chem[IEG] = y
        d = net.rhs(rho, chem)
        return np.array([d[IH], d[IH2], d[IEG]])

    def jac(t, y):
        chem = np.zeros(N_SPECIES)
        chem[IH], chem[IH2], chem[IEG] = y
        vals = net.jacobian_values(rho, chem)
        idx = {(5 + IH): 0, (5 + IH2): 1, (5 + IEG): 2}
        out = np.zeros((3, 3))
        for (r, c), v in zip(net.PATTERN, vals):
            if r in idx and c in idx:
                out[idx[r], idx[c]] = v
        return out

    return f, jac

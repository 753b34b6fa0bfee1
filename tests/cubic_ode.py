"""Solutions of the cubic first integral (u')^2 = (a1 - u)(a2 - u)(a3 - u)
from its roots: the sn^2 solution and the two constant ones.

`profiles.kappa_sq` writes the same solution in the (m, w, A, s0)
parametrization; the tests check the two against each other and against
an RK4 oracle.
"""

import math
from typing import Callable

import numpy as np

from elastica.elliptic import M_MAX, _shape_like, sn
from elastica.errors import DomainError

__all__ = ["solve_cubic_ode", "cubic_constant_solutions"]


def solve_cubic_ode(a1: float, a2: float, a3: float, s0: float = 0.0) -> Callable:
    """Nonconstant solution u of (u')^2 = (a1-u)(a2-u)(a3-u).

    u(s) = a3 - (a3-a2) sn^2(sqrt(a3-a1) s/2 + s0, (a3-a2)/(a3-a1)),
    taking values in [a2, a3].  Requires a1 <= 0 <= a2 < a3; for a2 == a3
    use cubic_constant_solutions (the modulus expression degenerates 0/0).
    """
    if not all(map(math.isfinite, (a1, a2, a3, s0))):
        raise DomainError("roots and phase must be finite")
    if not (a1 <= 0.0 <= a2 < a3):
        raise DomainError(
            f"need a1 <= 0 <= a2 < a3, got ({a1}, {a2}, {a3}); "
            "constant solutions u=a2, u=a3 are exposed separately"
        )
    mod = (a3 - a2) / (a3 - a1)
    if M_MAX < mod < 1.0:
        raise DomainError(f"degenerate modulus {mod} too close to 1")
    rate = 0.5 * math.sqrt(a3 - a1)

    def u(s):
        z = rate * np.asarray(s, dtype=float) + s0
        sn_z = sn(z, mod)
        return _shape_like(s, a3 - (a3 - a2) * sn_z**2)

    return u


def cubic_constant_solutions(a1: float, a2: float, a3: float) -> tuple[Callable, Callable]:
    """The constant solutions u = a2 and u = a3 of the cubic ODE."""
    if not all(map(math.isfinite, (a1, a2, a3))):
        raise DomainError("roots must be finite")
    if not (a1 <= 0.0 <= a2 <= a3):
        raise DomainError(f"need a1 <= 0 <= a2 <= a3, got ({a1}, {a2}, {a3})")

    def make(val):
        def u(s):
            return _shape_like(s, np.full_like(np.asarray(s, dtype=float), val))
        return u

    return make(a2), make(a3)

"""Curve helpers that only the tests call.

The figure-eight closure test, the sampled open leaf, the Fenchel chain
Bbar >= TC^2 >= 4 pi^2, and writing a curve CSV to a file.  No library
or CLI path calls them, so no CLI process compiles them.
"""

import math
from dataclasses import dataclass

import numpy as np

from elastica.curves import _require_count, canonical_leaf, eval_planar
from elastica.discrete import DiscreteCurve, curve_to_csv, normalized_energy
from elastica.elliptic import comp_E, comp_K
from elastica.errors import MAX_COUNT, DomainError

__all__ = ["check_closure", "build_leaf", "FenchelReport", "fenchel_floor_check", "save_curve_csv"]

_EIGHT_TOL = 1e-9  # |2E(m) - K(m)| below which a wavelike curve closes (a figure-eight)
_FENCHEL_TOL = 1e-9  # rounding allowance of the chain Bbar >= TC^2 >= 4 pi^2


def check_closure(family: str, m: float) -> bool:
    """Whether the family closes up at modulus m.

    Wavelike curves close exactly when 2E(m) = K(m), taken as
    |2E(m) - K(m)| < 1e-9 (_EIGHT_TOL); orbitlike ones never do, since
    2E(m) + (m-2)K(m) < 0 throughout (0,1).
    """
    if family not in ("wavelike", "orbitlike"):
        raise DomainError(f"closure test applies to wavelike/orbitlike, not {family!r}")
    if not 0.0 < m < 1.0:
        raise DomainError("need m in (0,1)")
    if family == "orbitlike":
        return False
    return abs(2.0 * comp_E(m) - comp_K(m)) < _EIGHT_TOL


def build_leaf(N: int) -> DiscreteCurve:
    """Open polyline with N+1 arclength-uniform samples of the leaf."""
    _require_count(N, 2, "N", MAX_COUNT)
    leaf = canonical_leaf()
    x, y = eval_planar(leaf.elastica, np.linspace(0.0, leaf.length, N + 1))
    return DiscreteCurve(np.column_stack([x, y]), closed=False)


@dataclass(frozen=True)
class FenchelReport:
    Bbar: float
    TC: float
    passed: bool


def fenchel_floor_check(c: DiscreteCurve) -> FenchelReport:
    """Checks the chain Bbar >= TC^2 >= 4 pi^2 for a closed curve, up to 1e-9 (_FENCHEL_TOL)."""
    if not c.closed:
        raise DomainError("the energy floor applies to closed curves")
    rep = normalized_energy(c)
    ok = rep.Bbar >= rep.TC**2 - _FENCHEL_TOL and rep.TC >= 2.0 * math.pi - _FENCHEL_TOL
    return FenchelReport(Bbar=rep.Bbar, TC=rep.TC, passed=bool(ok))


def save_curve_csv(c: DiscreteCurve, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(curve_to_csv(c))

"""The leaf experiment of the minimizer, for tests.

Pinned minimization with P0 = P1 from several seeded starts should land on
the leaf constant varpi*.  Only the tests run it; the acceptance criterion
runs its own loop, so it lives here rather than in the library.
"""

from dataclasses import dataclass, field

import numpy as np

from elastica.curves import varpi_star
from elastica.errors import _require_count
from elastica.minimize import MinimizeOptions, MinimizeResult, PinnedProblem, minimize_pinned


@dataclass(frozen=True)
class LeafMinimalityReport:
    N: int
    seeds: int
    min_Bbar: float
    median_Bbar: float
    deviation: float  # min_Bbar / varpi* - 1
    passed: bool
    results: tuple[MinimizeResult, ...] = field(repr=False, default=())


def verify_leaf_minimality(N: int, seeds: int) -> LeafMinimalityReport:
    """Pinned minimization with P0 = P1 from several random starts, each
    with the default MinimizeOptions budget.

    The minimum normalized energy over seeds should land on the leaf value
    varpi* (within 1%); no seed may end below it by more than the same
    discretization margin.
    """
    _require_count(N, 100, "N")
    _require_count(seeds, 1, "seeds")
    results = []
    for seed in range(seeds):
        prob = PinnedProblem(np.zeros(2), np.zeros(2), 1.0, N)
        results.append(minimize_pinned(prob, MinimizeOptions(seed=seed)))
    bbars = np.array([r.Bbar for r in results])
    vp = varpi_star()
    min_b = float(np.min(bbars))
    return LeafMinimalityReport(
        N=N,
        seeds=seeds,
        min_Bbar=min_b,
        median_Bbar=float(np.median(bbars)),
        deviation=min_b / vp - 1.0,
        passed=bool(abs(min_b / vp - 1.0) <= 0.01 and np.all(bbars >= vp * (1 - 0.01))),
        results=tuple(results),
    )

"""Helpers shared by the workload modules."""

from __future__ import annotations

GOLDEN = 0.6180339887498949  # (sqrt(5) - 1) / 2
SILVER = 0.4142135623730951  # sqrt(2) - 1
ROOT3 = 0.7320508075688772  # sqrt(3) - 1


def golden(offset: float, j: int, step: float = GOLDEN) -> float:
    """j-th point of the additive low-discrepancy sequence offset + j*step
    (mod 1).  Cost-driving parameters use these with fixed offsets: any run
    of consecutive tasks covers [0, 1) evenly, and every seed measures the
    same cost mix, while the seed sets phases, poses and task order."""
    return (offset + j * step) % 1.0

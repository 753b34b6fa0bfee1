"""Exception types, and the input rules shared across the package.

The CLI maps these onto process exit codes (see `elastica.cli`), so library
code should raise the most specific one that applies rather than a bare
ValueError/RuntimeError.

The input rules are written here once, each raising DomainError that names
the parameter: counts within MAX_COUNT (`_require_count`, `_step_count`),
finite values (`_require_finite`), finite real numbers (`_require_real`),
finite values > 0 (`_require_positive`), and finite 2- or 3-vectors of one
dimension (`_require_vectors`), stored read-only (`_frozen`).
"""

import math

import numpy as np

# largest step, sample or vertex count an operation allocates for up front;
# above it DomainError, before anything is allocated or looped over
MAX_COUNT = 10**7


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleError(RuntimeError):
    """A requested construction is provably or numerically infeasible.

    Distinct from DomainError: the inputs are admissible, but no object with
    the requested properties exists (e.g. an odd number of leaves through one
    point in the plane, or a spherical tangent chain whose residual cannot be
    driven below tolerance).
    """


class StepSizeError(RuntimeError):
    """A fixed-step integration's local error estimate exceeded its bound."""


def _require_count(n, least: int, name: str, most: float = math.inf) -> None:
    if not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"need an integer {name} >= {least}")
    if n > most:
        raise DomainError(f"{name} = {n} exceeds the cap of {most}")


def _step_count(span: float, h: float) -> int:
    """round(span / h), at least 1, for a span and step already checked
    positive; DomainError when span / h is not at most MAX_COUNT, before
    anything is allocated."""
    steps = span / h
    if not steps <= MAX_COUNT:
        raise DomainError(f"span / h = {steps:.6g} steps exceeds the cap of {MAX_COUNT}")
    return max(1, int(round(steps)))


def _require_finite(x, name: str) -> np.ndarray:
    """x as a float array, every entry of which must be finite."""
    u = np.asarray(x, dtype=float)
    if not np.isfinite(u).all():
        raise DomainError(f"{name} must be finite" + (f", got {x}" if u.ndim == 0 else ""))
    return u


def _require_real(x: float, name: str) -> None:
    if not math.isfinite(x):  # TypeError for None, a string or a sequence
        raise DomainError(f"{name} must be finite, got {x}")


def _require_positive(x: float, name: str) -> None:
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"{name} must be a finite value > 0, got {x}")


def _require_vectors(obj, *names: str) -> None:
    """Store obj's named fields on it as read-only float arrays: finite 2- or
    3-vectors, each of the first one's dimension."""
    arrs = [np.array(getattr(obj, name), dtype=float) for name in names]
    for name, a in zip(names, arrs):
        if a.shape not in ((2,), (3,)) or not np.isfinite(a).all():
            raise DomainError(f"{name} must be a finite 2- or 3-vector")
        if a.shape != arrs[0].shape:
            raise DomainError(f"{name} must have the dimension of {names[0]}")
        object.__setattr__(obj, name, _frozen(a))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr

"""Exception types, and the size cap, shared across the package.

The CLI maps these onto process exit codes (see `elastica.cli`), so library
code should raise the most specific one that applies rather than a bare
ValueError/RuntimeError.
"""

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

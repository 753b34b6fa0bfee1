"""Table-driven input contracts: the pieces shared by the module tests.

A contract table maps (public name, parameter) to (call, documented).
call(v) evaluates the name with that parameter set to v and every other
argument valid; documented maps each value of BAD_FLOATS that has a
documented result to a check(out, call) of that result.  Every other value
must raise DomainError.
"""

import inspect
import math

import numpy as np
import pytest

from elastica.errors import DomainError

BAD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -1.0]


def float_parameters(module, records=()) -> set:
    """(name, parameter) for every parameter of a function or class in
    module.__all__ that is annotated float (alone, optional or in a tuple)
    or not annotated (the arclength/argument arrays), except the parameters
    of the output records named in `records`."""
    return {
        (name, par.name)
        for name in module.__all__
        if name not in records and callable(obj := getattr(module, name))
        for par in inspect.signature(obj).parameters.values()
        if "float" in str(par.annotation) or par.annotation is inspect.Parameter.empty
    }


def check_contract(table: dict, key: tuple, value: float) -> None:
    call, documented = table[key]
    check = documented.get(value)
    if check is None:
        with pytest.raises(DomainError):
            call(value)
    else:
        check(call(value), call)


def contract_cases(table: dict):
    """Parametrize a test(key, value) over every entry and every BAD_FLOATS value."""
    def wrap(test):
        test = pytest.mark.parametrize("value", BAD_FLOATS, ids=str)(test)
        return pytest.mark.parametrize("key", list(table), ids=[".".join(k) for k in table])(test)
    return wrap


def is_(expected, rtol=1e-14):
    """The result equals expected."""
    return lambda out, call: np.testing.assert_allclose(out, expected, rtol=rtol, atol=1e-300)


def mirrored(*signs):
    """The result at -1 is the result at +1 times signs (odd/even symmetry)."""
    return lambda out, call: np.testing.assert_allclose(
        out, np.multiply(signs, call(1.0)), rtol=1e-14, atol=1e-300)


def small(bound):
    """The result is a residual below bound in magnitude."""
    def check(out, call):
        assert np.all(np.abs(out) < bound)
    return check


def finite(out, call):
    assert np.all(np.isfinite(out))

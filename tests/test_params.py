"""One rule for numeric arguments (corrconc.params): an integer is what
operator.index accepts, a real is any numbers.Real, and a bool is neither."""

import sys

import numpy as np
import pytest

from corrconc import (
    ModelParams,
    TailBoundKind,
    central_even_moment_bound,
    coverage_interval,
    density_at,
    log_gamma,
    log_gamma_ratio,
    moment,
    symmetric_gamma_ratio,
    symmetric_gamma_ratio_stirling,
    tail_bound,
)

P = ModelParams(rho=0.5, n=10)
KIND = TailBoundKind.AGGRESSIVE

# (call, raw argument): each call is made with kind(raw).
CALLS = [
    (lambda v: ModelParams(rho=0.5, n=v), 10),
    (lambda v: ModelParams(rho=v, n=10), 0.25),
    (lambda v: central_even_moment_bound(v, P), 3),
    (lambda v: moment(v, P).value, 2),
    (log_gamma, 5.5),
    (lambda v: log_gamma_ratio(v, 2.5), 5.5),
    (lambda v: log_gamma_ratio(2.5, v), 5.5),
    (symmetric_gamma_ratio, 5.5),
    (symmetric_gamma_ratio_stirling, 5.5),
    (lambda v: tail_bound(KIND, P, v), 1.5),
    (lambda v: coverage_interval(KIND, P, v), 0.05),
    (lambda v: density_at(P, v), 0.25),
]


def _outcome(call, value):
    # repr tells an int from an np.int64 and a float from an np.float32.
    try:
        return repr(call(value))
    except (TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("kind", [np.int64, np.float32, np.float64, bool])
def test_numpy_scalars_act_as_python_numbers_and_bools_are_refused(kind):
    # ModelParams(rho=0.5, n=np.int64(10)) and coverage_interval at
    # np.float32(0.05) were refused, and log_gamma(True) returned 0.0.
    for call, raw in CALLS:
        value = kind(raw)
        if kind is bool:
            with pytest.raises(TypeError):
                call(value)
        else:
            assert _outcome(call, value) == _outcome(call, value.item()), (call, raw)


# Every real argument of CALLS, the sample size, and r inside a sequence.
BEYOND_FLOATS = [call for call, raw in CALLS if isinstance(raw, float)] + [
    lambda v: ModelParams(rho=0.5, n=v),
    lambda v: density_at(P, [0.25, v]),
]


@pytest.mark.parametrize("value", [10**400, -(10**400)])
@pytest.mark.parametrize("call", BEYOND_FLOATS)
def test_numbers_beyond_the_float_range_are_refused(call, value):
    # float(10**400) raises OverflowError; it is refused like any other
    # value out of range, and n is refused above sys.float_info.max.
    with pytest.raises(ValueError):
        call(value)


def test_sample_size_up_to_the_float_range():
    largest = int(sys.float_info.max)
    assert ModelParams(rho=0.5, n=largest).n == largest
    with pytest.raises(ValueError):
        ModelParams(rho=0.5, n=largest + 1)

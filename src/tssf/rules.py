"""The input rules: one for each kind of number and array a caller passes.

A count (k, folds, seeds, repetitions, sizes) passes :func:`_check_count`
and a magnitude (reg, grid values, variances, an intercept)
:func:`_check_magnitude`. An array passes one of three rules, and a bad
one raises :class:`~tssf.errors.InvalidInput` naming its argument before
any cast:

- real numbers (trials, matrices, scores, features, filters):
  :func:`_real_array` returns float64. A complex, object, string or
  ragged input is rejected, never cast to its real part or parsed: the
  first three raise ``InvalidInput``, a ragged sequence ``DimMismatch``.
- labels: :func:`_labels`, each exactly -1 or +1 by value (``1.0`` is
  +1; ``1.5``, 255 and 257 are named, not wrapped or truncated to int8).
  :func:`_check_labels` is the rule of every fit: this, and both classes.
- session ids: :func:`_session_ids` returns uint32, each an integer in
  ``[0, 2**32)`` by value, so -1 does not wrap and 0.7 is not truncated.

Labels and session ids are real numbers first. A bool array counts as
its 0s and 1s, as numpy computes with it. An object array counts only
if every entry is a real number, as in the array numpy builds from a
list holding an integer past 64 bits: each entry becomes the float
nearest it, or an infinity past the float range. Conversions of arrays
the library computed itself are not caller input and stay where they are.
"""

import math
import numbers

import numpy as np

from .errors import DegenerateModel, DimMismatch, InvalidInput

_FLOAT = np.dtype(np.float64)


def _check_count(value, name, low=1, high=None):
    # the one count rule (k, folds, seeds, sizes): an integer, not a bool, in [low, high]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidInput(f"{name} must be {bound}, got {value}")


def _check_magnitude(value, name, bound="positive"):
    # the one magnitude rule: a finite real, not a bool, "positive" or ">= 0" unless None
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInput(f"{name} must be a real number, got {value!r}")
    value = _int_float(value)
    above = {"positive": value > 0, ">= 0": value >= 0, None: True}[bound]
    if not (above and math.isfinite(value)):
        raise InvalidInput(f"{name} must be {bound + ' and ' if bound else ''}finite")


def _int_float(value):
    # float(value), an infinity for an int beyond the float range
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _numbers(x, name):
    # x as an array of real numbers, not cast: kind "b", "i", "u" or "f"
    try:
        a = np.asarray(x)
    except ValueError:  # numpy's word for a ragged sequence
        raise DimMismatch(f"{name} must all have the same shape") from None
    if a.dtype.kind in "biuf":
        return a
    if a.dtype == object and all(isinstance(v, numbers.Real) for v in a.flat):
        return np.array([_int_float(v) for v in a.flat]).reshape(a.shape)
    raise InvalidInput(f"{name} must be an array of real numbers, got dtype {a.dtype}")


def _real_array(x, name):
    # the real-array rule: x as float64; a float64 ndarray is returned as it is
    if type(x) is np.ndarray and x.dtype is _FLOAT:  # most calls: no other test
        return x
    return np.asarray(_numbers(x, name), dtype=_FLOAT)


def _labels(labels, dtype=None):
    # the label rule: each exactly -1 or +1 by value (the first other one
    # named), then cast to dtype if given
    a = _numbers(labels, "labels")
    bad = (a != 1) & (a != -1)  # NaN is neither
    if bad.any():
        raise InvalidInput(f"labels must be -1 or +1, got {a[bad][0].item()!r}")
    return a if dtype is None else np.asarray(a, dtype=dtype)


def _check_labels(labels):
    # the label rule of every fit, the linear models' included: _labels,
    # and both classes present; returns the labels as an array
    labels = _labels(labels)
    if np.unique(labels).size < 2:
        raise DegenerateModel("training labels hold a single class; need both -1 and +1")
    return labels


def _session_ids(ids):
    # the session-id rule: each an integer in [0, 2**32), the EEGT file's
    # u32 field, by value; then cast to uint32
    a = _numbers(ids, "session ids")
    ok = (a >= 0) & (a < 2**32) & (a == np.floor(a) if a.dtype.kind == "f" else True)
    if not ok.all():
        bad = a[~ok][0].item()
        if isinstance(bad, float) and not bad.is_integer():
            raise InvalidInput(f"session id must be an integer, got {bad!r}")
        raise InvalidInput("session id must be >= 0 and < 2**32")
    return np.asarray(a, dtype=np.uint32)

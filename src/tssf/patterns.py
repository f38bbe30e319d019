"""Spatial pattern recovery: the encoding-model counterpart of filters.

A filter extracts a source from the sensors; the matching pattern shows
how that source projects back onto them, which is what a human inspects
to decide whether a component is brain activity or an artifact. Patterns
are recovered from the filters and the data covariance as
``A = cov @ F @ (F.T @ cov @ F)^{-1}``, which for square invertible F
reduces to the inverse transpose of F.
"""

import numpy as np
import scipy.linalg

from .dataio import _csv_text
from .errors import DimMismatch, InvalidInput
from .manifold import ensure_spd
from .rules import _real_array


def compute_patterns(filters, data_cov):
    """Recover spatial patterns from spatial filters.

    Parameters
    ----------
    filters : ndarray, shape (C, K)
        Full column rank; column order is preserved, so pattern j
        corresponds to filter j.
    data_cov : ndarray, shape (C, C)
        SPD data covariance (use the arithmetic mean of the training
        trial covariances).

    Returns
    -------
    ndarray, shape (C, K)
        One pattern column per filter column.

    Raises
    ------
    InvalidInput, NotPositiveDefinite
        On filters that are not a finite C x K matrix of full column rank,
        or a data covariance that is not SPD.
    """
    f = _real_array(filters, "filters")
    if f.ndim != 2:
        raise InvalidInput("filters must be a C x K matrix")
    if not np.isfinite(f).all():  # the rank test's SVD would not converge
        raise InvalidInput("filters have a non-finite entry")
    cov = ensure_spd(data_cov, name="data covariance")
    if cov.shape[0] != f.shape[0]:
        raise DimMismatch("filters and covariance disagree on channel count")
    if f.shape[1] > f.shape[0] or np.linalg.matrix_rank(f) < f.shape[1]:
        raise InvalidInput("filters must have full column rank")
    projected = cov @ f
    gram = f.T @ projected
    gram = 0.5 * (gram + gram.T)
    return scipy.linalg.solve(gram, projected.T, assume_a="pos").T


def patterns_to_csv(patterns, channel_names):
    """Render a (C, K) pattern array as CSV: one row per channel, one column per component."""
    if len(channel_names) != patterns.shape[0]:
        raise DimMismatch("need one channel name per pattern row")
    header = ["channel"] + [f"comp{i}" for i in range(patterns.shape[1])]
    return _csv_text(header, ([name, *row] for name, row in zip(channel_names, patterns)))

"""Common Spatial Patterns baseline, one tangent-space linear function.

CSP filters maximize the between-class variance ratio: they are the
generalized eigenvectors of the two class-mean covariances, so the tangent
filters (:func:`~tssf.tssf.tangent_filters`) of mean+'s tangent vector at
mean-. The same filters solve the "discriminative" form GED(mean+ - mean-,
mean+ + mean-) with eigenvalues mapped through (l - 1) / (l + 1); that
identity, the chain that places CSP in the tangent-space framework, is
checked by acceptance test 05 in ``tests/test_acceptance.py``.
"""

import numpy as np

from .dataio import _check_count, _check_training_set
from .manifold import _congruence, _from_eig, _half_powers, _spd_eigh
from .manifold import frechet_mean  # noqa: F401  (re-exported)
from .tssf import _check_above_rounding, _ranked_bank


def fit_csp(covs, labels, k):
    """Fit CSP filters from per-trial covariances.

    Parameters
    ----------
    covs : array-like, shape (T, C, C)
    labels : array-like of {-1, +1}, shape (T,)
    k : int
        Number of components, ``1 <= k <= C``, as for every filter source.

    Returns
    -------
    TssfModel
        Intercept 0, reference mean-; ``full_beta`` are the log generalized
        eigenvalues.

    Notes
    -----
    Components are ranked by descending ``|log eigenvalue|``, as
    ``tangent_filters`` ranks every bank, and the first ``k`` kept. That is
    not K/2 from each end of the spectrum: on the eval trials of the
    perfbench workloads (seeds 1-3), k = 6 split 2/4 or 4/2 on 5 of 6 sets.

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape, label value or ``k``; on single-class labels, or
        when every ``|log eigenvalue|`` is at most ``SPD_TOL`` (class means
        equal to rounding).
    """
    covs, labels = _check_training_set(covs, labels)
    _check_count(k, "k", high=covs.shape[1])
    mean_pos, mean_neg = covs[labels == 1].mean(axis=0), covs[labels == -1].mean(axis=0)
    _, inv_half = _half_powers(mean_neg)
    # manifold._logm, keeping its eigenvalues: the generalized eigenvalues
    w, v = _spd_eigh(_congruence(inv_half, mean_pos), "class-mean covariance")
    log_eig = np.log(w)
    # equal class means: every filter's variance ratio is 1 to rounding
    _check_above_rounding(log_eig, "log generalized eigenvalue", "class-mean")
    return _ranked_bank(mean_neg, inv_half, _from_eig(log_eig, v), k)

"""Common Spatial Patterns baseline.

CSP filters maximize the between-class variance ratio and come from the
generalized eigendecomposition of the two class-mean covariances. The
same filters solve the "discriminative" form GED(mean+ - mean-,
mean+ + mean-) with eigenvalues mapped through (l - 1) / (l + 1); that
identity, the chain that places CSP in the tangent-space framework, is
checked by acceptance test 05 in ``tests/test_acceptance.py``.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import _check_k, _check_training_set
from .errors import DegenerateModel
from .manifold import SPD_TOL, _component_order, ged
from .manifold import frechet_mean  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class CspModel:
    """CSP filter bank, ranked like a :class:`~tssf.tssf.TssfModel`.

    ``full_filters`` are all C generalized eigenvectors of (class mean +,
    class mean -) in ranked order, ``filters`` their K-column prefix, and
    ``full_beta`` the log-eigenvalues: the coefficients of the filters of
    mean +'s tangent vector at mean -.
    """

    filters: np.ndarray
    full_filters: np.ndarray
    full_beta: np.ndarray


def fit_csp(covs, labels, k):
    """Fit CSP filters from per-trial covariances.

    Parameters
    ----------
    covs : array-like, shape (T, C, C)
    labels : array-like of {-1, +1}, shape (T,)
    k : int
        Number of components, ``1 <= k <= C``, as for every filter source.

    Notes
    -----
    Components are ranked by descending ``|log eigenvalue|`` (ties by
    descending eigenvalue, then position), as in ``extract_tssf``, and the
    first ``k`` kept. That is not K/2 from each end of the spectrum: on all
    eval trials of the perfbench workloads eval-c8-grid and eval-c64-fixed
    (seeds 1-3), k = 4 kept 1 positive and 3 negative log-eigenvalues on
    one set, and k = 6 split 2/4 or 4/2 on 5 of the 6.

    Raises
    ------
    InvalidInput, DegenerateModel
        On a bad shape, label value or ``k``; on single-class labels, or
        when every ``|log eigenvalue|`` is at most ``SPD_TOL`` (class means
        equal to rounding).
    """
    covs, labels = _check_training_set(covs, labels)
    _check_k(k, covs.shape[1])
    mean_pos, mean_neg = covs[labels == 1].mean(axis=0), covs[labels == -1].mean(axis=0)
    solution = ged(mean_pos, mean_neg)
    log_eig = np.log(solution.eigenvalues)
    if not np.abs(log_eig).max() > SPD_TOL:
        # equal class means: every filter's variance ratio is 1 to rounding
        raise DegenerateModel(
            f"no |log generalized eigenvalue| exceeds {SPD_TOL:g}: the class-mean "
            "covariances are equal to rounding, so no filter tells the classes apart"
        )
    order = _component_order(log_eig)
    bank = solution.eigenvectors[:, order]
    return CspModel(filters=bank[:, :k], full_filters=bank, full_beta=log_eig[order])

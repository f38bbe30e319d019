"""Common Spatial Patterns baseline and its relation to tangent-space filters.

CSP filters maximize the between-class variance ratio and come from the
generalized eigendecomposition of the two class-mean covariances. The
same filters solve the "discriminative" form GED(mean+ - mean-,
mean+ + mean-) with eigenvalues mapped through (l - 1) / (l + 1);
:func:`csp_tssf_equivalence_report` checks that identity numerically and
reports the residual of the class-mean/tangent-mean exponential relation
that links CSP to an LDA-based tangent-space filter.
"""

from dataclasses import dataclass

import numpy as np

from .dataio import _check_training_set
from .errors import InvalidInput
from .manifold import (
    _component_order,
    exp_map_at,
    frechet_mean,
    ged,
    log_map_at,
    subspace_angle_by_cluster,
)


@dataclass(frozen=True)
class CspModel:
    """CSP filter bank.

    ``eigenvalues`` holds all C generalized eigenvalues of
    (class mean +, class mean -) in descending order; ``selection`` the
    indices (into that order) of the kept components; ``filters`` the
    corresponding columns.
    """

    filters: np.ndarray
    eigenvalues: np.ndarray
    selection: np.ndarray

    @property
    def k(self):
        return self.filters.shape[1]

    @property
    def n_channels(self):
        return self.filters.shape[0]


def _class_means(covs, labels):
    return covs[labels == 1].mean(axis=0), covs[labels == -1].mean(axis=0)


def fit_csp(covs, labels, k):
    """Fit CSP filters from per-trial covariances.

    Parameters
    ----------
    covs : array-like, shape (T, C, C)
    labels : array-like of {-1, +1}, shape (T,)
    k : int
        Even number of components, ``2 <= k <= C``.

    Notes
    -----
    Components are selected by descending ``|log eigenvalue|`` (ties by
    descending eigenvalue, then position), which picks K/2 from each end
    of the spectrum when the spectrum is balanced -- the classic
    "both ends" rule expressed as one ordering.
    """
    covs, labels = _check_training_set(covs, labels)
    mean_pos, mean_neg = _class_means(covs, labels)
    c = mean_pos.shape[0]
    if k % 2 != 0:
        raise InvalidInput("k must be even (filters come in pairs)")
    if not 2 <= k <= c:
        raise InvalidInput(f"k must be in [2, {c}], got {k}")
    solution = ged(mean_pos, mean_neg)
    selection = _component_order(np.log(solution.eigenvalues))[:k]
    return CspModel(
        filters=solution.eigenvectors[:, selection],
        eigenvalues=solution.eigenvalues,
        selection=selection,
    )


@dataclass(frozen=True)
class CspEquivalenceReport:
    """Numerical check of the CSP <-> discriminative-GED identity.

    ``principal_angle`` is the worst principal angle between the
    eigenvector sets of GED(mean+, mean-) and
    GED(mean+ - mean-, mean+ + mean-); ``eigenvalue_map_deviation`` the
    worst error of the eigenvalue map l' = (l - 1)/(l + 1). Both are
    algebraic identities and should sit at rounding level.
    ``mean_shift_residual`` is the relative residual
    ``||(mean+ - mean-) - Expm_m(S+ - S-)||_F / ||mean+ - mean-||_F``
    of the assumption tying CSP to an identity-scatter LDA in the tangent
    space at the Frechet mean m; it is reported, not asserted, because it
    genuinely fails for most data.
    """

    principal_angle: float
    eigenvalue_map_deviation: float
    mean_shift_residual: float
    degenerate: bool


def csp_tssf_equivalence_report(covs, labels):
    """Evaluate the CSP equivalence chain on a binary dataset."""
    covs, labels = _check_training_set(covs, labels)
    mean_pos, mean_neg = _class_means(covs, labels)
    diff = mean_pos - mean_neg
    common = mean_pos + mean_neg
    degenerate = np.linalg.norm(diff) <= 1e-12 * np.linalg.norm(common)

    ratio = ged(mean_pos, mean_neg)
    discr = ged(diff, common)
    angle = subspace_angle_by_cluster(
        ratio.eigenvectors, discr.eigenvectors, ratio.eigenvalues
    )
    mapped = (ratio.eigenvalues - 1.0) / (ratio.eigenvalues + 1.0)
    map_dev = float(np.max(np.abs(np.sort(mapped)[::-1] - discr.eigenvalues)))

    mean_all = frechet_mean(covs)
    tangents = log_map_at(mean_all, covs)
    shift = tangents[labels == 1].mean(axis=0) - tangents[labels == -1].mean(axis=0)
    if degenerate:
        residual = np.nan
    else:
        reproj = exp_map_at(mean_all, shift)
        residual = float(np.linalg.norm(diff - reproj) / np.linalg.norm(diff))
    return CspEquivalenceReport(
        principal_angle=float(angle),
        eigenvalue_map_deviation=map_dev,
        mean_shift_residual=residual,
        degenerate=bool(degenerate),
    )

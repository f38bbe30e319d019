"""Primitives on the manifold of symmetric positive definite matrices.

Everything here operates on plain float ndarrays: an SPD matrix is a dense
symmetric C x C array with strictly positive eigenvalues, a tangent element
is a symmetric (possibly indefinite) C x C array, and a tangent vector is
the sqrt(2)-weighted half-vectorization of a tangent element. All functions
are pure and safe to call concurrently.

Matrix arguments may be stacks: ``sym_eig``, ``ensure_spd``, ``logm``,
``expm``, ``powm``, ``vec`` and ``log_map_at``/``exp_map_at`` (in their
second argument) take ``(..., C, C)`` arrays and work on each matrix of
the stack; ``frechet_mean`` takes a ``(T, C, C)`` stack of points.
``airm_distance``, ``inner_product_at`` and ``ged`` take single matrices.

Matrix functions (``logm``/``expm``/``powm``) share one eigendecomposition
route and check definiteness from the eigenvalues it computes, so they are
mutually consistent. Every whitening by ``m^{-1/2}`` and un-whitening by
``m^{1/2}`` is one congruence, ``_congruence``, whose result is exactly
symmetric: the same whitening rounds the same way wherever it is done, and
``log_map_at``/``exp_map_at`` return exactly symmetric matrices. The order and sign conventions of :func:`sym_eig`
apply to the eigenvectors it returns (and so to :func:`ged`); matrix
functions do not depend on them.

Every public function checks each matrix argument by one rule, in this
order, and names the first matrix that fails ("covariance 3 ..."): it
holds real numbers (``rules._real_array``: a complex Hermitian matrix is
rejected, not cast to its real part), it is square, every entry is
finite, and it is symmetric within ``SYM_RTOL`` of its largest entry
(``InvalidInput``). Where SPD is required, its smallest eigenvalue
exceeds ``SPD_TOL`` times its largest (``NotPositiveDefinite``). No
function takes a tolerance.
"""

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, DimMismatch, InvalidInput, NotPositiveDefinite, _where
from .rules import _check_magnitude, _real_array

SYM_RTOL = 1e-12
SPD_TOL = 1e-10
FRECHET_MAX_UPDATES = 50  # updates of the mean before frechet_mean gives up
FRECHET_TOL = 1e-10  # whitened residual at which frechet_mean stops


def _check_symmetric(a, name="matrix", stack=True):
    a = _real_array(a, name)
    if a.ndim < 2 or (a.ndim > 2 and not stack) or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    # a non-finite entry first: an infinite one would make the symmetry
    # tolerance infinite, and a symmetric pair of them passes array_equal
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        raise InvalidInput(f"{name}{_where(_first_failure(finite))} has a non-finite entry")
    # most inputs are exactly symmetric (syrk products, symmetrized
    # iterates); only the others pay for the tolerance test's temporaries.
    # The tolerance is relative to each matrix's largest entry, so it means
    # the same in any data units.
    at = a.swapaxes(-1, -2)
    if not np.array_equal(a, at):
        scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
        ok = np.all(np.abs(a - at) <= SYM_RTOL * scale, axis=(-2, -1))
        if not ok.all():
            fault = f"is not symmetric within {SYM_RTOL:g} of its largest entry"
            raise InvalidInput(f"{name}{_where(_first_failure(ok))} {fault}")
    return a


def _check_finite(a, name):
    # the real-array rule, and no NaN or inf entry: for arrays that are not
    # symmetric matrices (eigenvectors, eigenvalues)
    a = _real_array(a, name)
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} has a non-finite entry")
    return a


def _first_failure(ok):
    # index of the first False of a per-matrix bool array (() for one matrix)
    return tuple(int(n) for n in np.unravel_index(np.argmin(ok), ok.shape))


def _check_same_dim(a, b):
    if a.shape[-2:] != b.shape[-2:]:
        raise DimMismatch(f"dimension mismatch: {a.shape} vs {b.shape}")


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix with fixed conventions.

    Parameters
    ----------
    a : ndarray, shape (..., C, C)
        Symmetric matrix or stack of them.

    Returns
    -------
    eigenvalues : ndarray, shape (..., C)
        Sorted in descending order (ties keep LAPACK's original order).
    eigenvectors : ndarray, shape (..., C, C)
        Orthonormal columns matching ``eigenvalues``; the sign of each
        column is fixed so its largest-magnitude entry is positive.
    """
    w, v = np.linalg.eigh(_check_symmetric(a))
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, -1)
    v = np.take_along_axis(v, order[..., None, :], -1)
    # sign convention: largest-magnitude entry of each column positive
    picks = np.argmax(np.abs(v), axis=-2)
    signs = np.sign(np.take_along_axis(v, picks[..., None, :], -2))  # unit columns: never 0
    return w, v * signs


def _check_definite(w, name, floor=0.0):
    # w: ascending eigenvalues of each matrix of a stack; a matrix is SPD
    # when its smallest eigenvalue exceeds SPD_TOL times the magnitude of
    # its largest (so the largest is positive too), and `floor`; NaN fails
    ok = w[..., 0] > np.maximum(SPD_TOL * np.abs(w[..., -1]), floor)
    if not ok.all():
        i = _first_failure(ok)
        rule = f"tolerance {SPD_TOL:g}" + (f" or floor {floor:.3e}" if floor else "")
        fault = f"is not positive definite: eigenvalue range [{w[i][0]:.3e}, {w[i][-1]:.3e}]"
        raise NotPositiveDefinite(name, f"{fault} fails {rule}", i)


def _spd_eigh(a, name="matrix", floor=0.0):
    # ascending eigenpairs of every matrix of a stack, checked SPD above
    # `floor`. LAPACK may not converge on a NaN or inf entry: that matrix is
    # named then, so the scoring path carries no finiteness check of its own
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        finite = np.isfinite(a).all(axis=(-2, -1))
        if finite.all():
            raise
        raise NotPositiveDefinite(name, "has a non-finite entry", _first_failure(finite)) from None
    _check_definite(w, name, floor)
    return w, v


def _from_eig(w, v):
    # v diag(w) v^T for every matrix of a stack
    return (v * w[..., None, :]) @ v.swapaxes(-1, -2)


def _congruence(f, x):
    # F^T X F for one symmetric X or every matrix of a stack, made exactly
    # symmetric: the covariance of the filtered trial F^T x, and for a
    # symmetric F (a half power) every whitening and un-whitening F X F
    y = f.T @ x @ f
    return 0.5 * (y + y.swapaxes(-1, -2))


def _diag_logm(a, name="matrix", floor=0.0):
    # the diagonal of logm(a) for every matrix of a stack, (V o V) log(lam)
    # of its eigenpairs, so no log matrix is built; NotPositiveDefinite names
    # the first matrix not SPD above `floor`. eigh reads only the lower
    # triangle, so a may carry rounding-level asymmetry.
    w, v = _spd_eigh(a, name, floor)
    return ((v * v) @ np.log(w)[..., None])[..., 0]


def ensure_spd(a, name="matrix"):
    """Validate that ``a`` is SPD at ``SPD_TOL`` and return it as floats.

    Inputs failing the check are rejected, never silently regularized. A
    stack is checked matrix by matrix, and the error names the first
    failing index. A Cholesky certificate spares the eigenvalues of a
    clearly SPD stack.
    """
    a = _check_symmetric(a, name)
    if not _certified_spd(a):
        _check_definite(np.linalg.eigvalsh(a), name)
    return a


def _certified_spd(a):
    # True if cholesky(a - 2 SPD_TOL tr(a) I) succeeds for every matrix: then
    # lam_min > 2 SPD_TOL tr(a) >= 2 SPD_TOL lam_max, with a margin far above
    # Cholesky's backward error (Higham, Accuracy and Stability of Numerical
    # Algorithms, 2nd ed., sec. 10.1), so every matrix passes _check_definite
    trace = a.trace(0, -2, -1)
    if not (np.isfinite(trace) & (trace > 0)).all():
        return False
    try:
        np.linalg.cholesky(a - (2.0 * SPD_TOL * trace)[..., None, None] * np.eye(a.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _logm(a, name="matrix"):
    w, v = _spd_eigh(a, name)
    return _from_eig(np.log(w), v)


def logm(a):
    """Matrix logarithm of an SPD matrix (eigenvalue route)."""
    return _logm(_check_symmetric(a))


def expm(s):
    """Matrix exponential of a symmetric matrix; the result is SPD."""
    w, v = np.linalg.eigh(_check_symmetric(s))
    return _from_eig(np.exp(w), v)


def powm(a, p):
    """Real matrix power ``a ** p`` of an SPD matrix, ``p`` finite and nonzero."""
    _check_magnitude(p, "power p", None)
    if p == 0:
        raise InvalidInput("power p must be nonzero")
    w, v = _spd_eigh(_check_symmetric(a))
    return _from_eig(w**p, v)


def airm_distance(a, b):
    """Affine-invariant Riemannian distance between two SPD matrices.

    Computed as ``|| log eig(a^{-1/2} b a^{-1/2}) ||_2`` via the
    generalized eigenvalues of ``(b, a)``. Symmetric in its arguments and
    invariant under congruence by any invertible matrix.
    """
    a = _check_symmetric(a, "a", stack=False)
    b = _check_symmetric(b, "b", stack=False)
    _check_same_dim(a, b)
    ensure_spd(a, "a")
    ensure_spd(b, "b")
    w = scipy.linalg.eigh(b, a, eigvals_only=True)
    if not w[0] > 0:  # both SPD, but their condition numbers multiply past 1/eps
        raise NotPositiveDefinite(f"(b, a) too ill-conditioned: generalized eigenvalue {w[0]:.3e}")
    return float(np.linalg.norm(np.log(w)))


def frechet_mean(points):
    """Frechet (Karcher) mean of SPD matrices under the affine-invariant metric.

    Initialized at the arithmetic mean. Each iteration whitens the points at
    the current mean ``m`` and takes their logs
    ``L_t = logm(m^{-1/2} points[t] m^{-1/2})``. Their mean ``G`` is minus
    the gradient of the Karcher cost in whitened coordinates (the unit-step
    fixed-point iteration steps by ``G``). The update
    ``m <- m^{1/2} expm(X) m^{1/2}`` takes the curvature-corrected step
    ``X = H^{-1} G``::

        H[X] = X + (S X + X S - 2 mean_t L_t X L_t) / 12,   S = mean_t L_t^2.

    ``H`` is the two-term series of the exact Karcher Hessian
    ``mean_t phi(ad_{L_t/2})``, ``phi(z) = z coth z``, in whitened
    coordinates. Since ``1 <= z coth z <= 1 + z^2/3``, ``H`` is SPD with
    ``H >= I``, and it bounds the exact Hessian from above, so the step is a
    damped Newton step; that keeps widely spread sets convergent. ``H`` is
    built from the logs the iteration already has (no further
    eigendecomposition), and ``H X = G`` is solved by conjugate gradients to
    a relative residual of 1e-3. The residual falls by a factor of about
    1e3 per iteration: on 64-channel EEG-like covariances, 5 log sweeps take
    it from about 1 to below 1e-12.

    Converged when the whitened residual ``||G||_F`` drops below
    ``FRECHET_TOL`` (1e-10). That norm is the length of the mean tangent in
    the metric at ``m``, so it does not change when every point is scaled
    (or transformed by any congruence): ``frechet_mean(s * P)`` is
    ``s * frechet_mean(P)`` whatever the data units.

    Parameters
    ----------
    points : array-like, shape (T, C, C)
        SPD matrices (a stack, or a sequence of C x C arrays).

    Returns
    -------
    ndarray, shape (C, C)
        The mean; its whitened residual is below ``FRECHET_TOL``.

    Raises
    ------
    ConvergenceFailure
        If the residual is still above ``FRECHET_TOL`` after
        ``FRECHET_MAX_UPDATES`` (50) updates (the exception carries it).
    """
    return _frechet_mean_and_logs(points)[0]


def _frechet_mean_and_logs(points):
    # frechet_mean, and the whitened logs of the points at it (the last sweep's)
    pts = _real_array(points, "points")
    if pts.ndim != 3 or pts.shape[0] == 0:
        raise InvalidInput(f"need a non-empty (T, C, C) stack of points, got shape {pts.shape}")
    pts = _check_symmetric(pts, "point")

    mean = pts.mean(axis=0)
    for step in range(FRECHET_MAX_UPDATES + 1):
        half, inv_half = _half_powers(mean)
        w = _congruence(inv_half, pts)
        logs = logm(w)
        del w  # logm's four (T, C, C) stacks set the peak: keep no other
        grad = logs.mean(axis=0)
        residual = np.linalg.norm(grad)
        if residual < FRECHET_TOL:
            return mean, logs
        if step < FRECHET_MAX_UPDATES:
            mean = _congruence(half, expm(_curvature_step(logs, grad)))
        del logs  # not even the last sweep's logs while the next logm runs
    raise ConvergenceFailure(
        f"Frechet mean did not converge in {FRECHET_MAX_UPDATES} iterations "
        f"(residual {residual:.3e} > {FRECHET_TOL:g})",
        residual=residual,
    )


def _karcher_hessian(logs):
    # X -> H[X] = X + (S X + X S - 2 mean_t L_t X L_t) / 12 for the whitened
    # logs L_t; S = mean_t L_t^T L_t = mean_t L_t^2 is one (T C, C) product
    t, c, _ = logs.shape
    flat = logs.reshape(t * c, c)
    s = flat.T @ flat / t

    def hess(x):
        sx = s @ x
        # not _congruence: the factors are a stack of L_t about one x
        return x + (sx + sx.T - 2.0 * (logs @ x @ logs).mean(axis=0)) / 12.0

    return hess


def _curvature_step(logs, grad):
    # X = H^{-1} grad by conjugate gradients over symmetric C x C matrices
    # (Frobenius inner product), stopped at ||r|| <= 1e-3 ||grad||; C(C+1)/2
    # iterations reach the exact solution in exact arithmetic. The result is
    # made exactly symmetric for expm.
    hess = _karcher_hessian(logs)
    stop = (1e-3 * np.linalg.norm(grad)) ** 2
    x = np.zeros_like(grad)
    r = p = grad
    rr = np.sum(r * r)
    for _ in range(vec_dim(grad.shape[0])):
        hp = hess(p)
        alpha = rr / np.sum(p * hp)
        x = x + alpha * p
        r = r - alpha * hp
        rr, rr_old = np.sum(r * r), rr
        if rr <= stop:
            break
        p = r + (rr / rr_old) * p
    return 0.5 * (x + x.T)


def _half_powers(a):
    # a^{1/2} and a^{-1/2} of an SPD matrix (or stack), from one eigh
    w, v = _spd_eigh(a)
    sq = np.sqrt(w)
    return _from_eig(sq, v), _from_eig(1.0 / sq, v)


def log_map_at(ref, x):
    """Logarithmic map of SPD ``x`` at reference point ``ref``.

    Returns the symmetric tangent element
    ``ref^{1/2} logm(ref^{-1/2} x ref^{-1/2}) ref^{1/2}``.
    """
    ref = _check_symmetric(ref, "ref", stack=False)
    x = _check_symmetric(x, "x")
    _check_same_dim(ref, x)
    half, inv_half = _half_powers(ref)
    return _congruence(half, _logm(_congruence(inv_half, x)))


def exp_map_at(ref, s):
    """Exponential map of tangent element ``s`` at reference point ``ref``."""
    ref = _check_symmetric(ref, "ref", stack=False)
    s = _check_symmetric(s, "s")
    _check_same_dim(ref, s)
    half, inv_half = _half_powers(ref)
    return _congruence(half, expm(_congruence(inv_half, s)))


def vec_dim(c):
    """Length of the half-vectorization of a C x C symmetric matrix."""
    return c * (c + 1) // 2


@functools.lru_cache(maxsize=None)
def _tril(c):
    # row-major lower-triangle indices of a C x C matrix and the vec
    # weights (1 on the diagonal, sqrt(2) off it); shared, so read-only
    rows, cols = np.tril_indices(c)
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    for arr in (rows, cols, weights):
        arr.setflags(write=False)
    return rows, cols, weights


def _vec(s):
    rows, cols, weights = _tril(s.shape[-1])
    return s[..., rows, cols] * weights


def vec(s):
    """Half-vectorize a symmetric matrix, off-diagonals scaled by sqrt(2).

    Entries are taken row-major over the lower triangle:
    (0,0), (1,0), (1,1), (2,0), ... The scaling makes the Euclidean dot
    product of two vectorizations equal the trace inner product of the
    matrices. A ``(..., C, C)`` stack gives ``(..., C(C+1)/2)``.
    """
    return _vec(_check_symmetric(s))


def unvec(v):
    """Inverse of :func:`vec`; exact to one unit in the last place.

    (Scaling off-diagonals by sqrt(2) and back is not always bit-exact
    in binary floating point.)
    """
    v = _real_array(v, "tangent vector")
    if v.ndim != 1:
        raise InvalidInput("tangent vector must be 1-D")
    c = int((np.sqrt(8 * v.size + 1) - 1) / 2)
    if vec_dim(c) != v.size:
        raise InvalidInput(f"length {v.size} is not of the form C(C+1)/2")
    rows, cols, weights = _tril(c)
    s = np.zeros((c, c))
    s[rows, cols] = v / weights
    s[cols, rows] = s[rows, cols]
    return s


def inner_product_at(ref, s1, s2):
    """Inner product of two tangent elements in the metric at ``ref``.

    ``Tr(ref^{-1/2} s1 ref^{-1/2} . ref^{-1/2} s2 ref^{-1/2})`` -- a
    symmetric bilinear form, positive definite in ``s1 = s2``.
    """
    ref = _check_symmetric(ref, "ref", stack=False)
    s1 = _check_symmetric(s1, "s1", stack=False)
    s2 = _check_symmetric(s2, "s2", stack=False)
    _check_same_dim(ref, s1)
    _check_same_dim(s1, s2)
    _, inv_half = _half_powers(ref)
    return float(np.sum(_congruence(inv_half, s1) * _congruence(inv_half, s2)))


@dataclass(frozen=True)
class GedResult:
    """Solution of the generalized eigenproblem ``a F = b F diag(d)``.

    ``eigenvectors`` (columns of F) satisfy ``F.T @ b @ F = I`` and
    ``F.T @ a @ F = diag(eigenvalues)``; eigenvalues are sorted
    descending. Eigenvalues are positive exactly when ``a`` is SPD.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray


def ged(a, b):
    """Generalized eigendecomposition of ``(a, b)`` by whitening with ``b``.

    Parameters
    ----------
    a : ndarray, shape (C, C)
        Symmetric; may be indefinite.
    b : ndarray, shape (C, C)
        SPD.

    Returns
    -------
    GedResult
        ``eigenvectors = b^{-1/2} V`` and eigenvalues from
        ``sym_eig(b^{-1/2} a b^{-1/2})``, so the result is deterministic
        (descending eigenvalues, sign convention of :func:`sym_eig`).
    """
    a = _check_symmetric(a, "a", stack=False)
    b = _check_symmetric(b, "b", stack=False)
    _check_same_dim(a, b)
    _, inv_half = _half_powers(b)
    w, v = sym_eig(_congruence(inv_half, a))
    return GedResult(eigenvectors=inv_half @ v, eigenvalues=w)


def subspace_angle_by_cluster(f1, f2, eigenvalues):
    """Largest principal angle between matched eigenvector sets.

    Columns of ``f1`` and ``f2`` must be ordered consistently with
    ``eigenvalues``. Nearby eigenvalues (relative gap below 1e-6)
    are grouped into one cluster, and the angle is computed between the
    subspaces each cluster spans, which is the comparison that stays
    well-posed when eigenvalues are degenerate.
    """
    f1, f2 = _check_finite(f1, "f1"), _check_finite(f2, "f2")
    eigenvalues = _check_finite(eigenvalues, "eigenvalues")
    if f1.shape != f2.shape or f1.shape[1] != eigenvalues.size:
        raise DimMismatch("eigenvector sets and eigenvalues must align")
    worst = 0.0
    start = 0
    for stop in range(1, eigenvalues.size + 1):
        boundary = stop == eigenvalues.size or (
            abs(eigenvalues[stop] - eigenvalues[stop - 1])
            > 1e-6 * max(1.0, abs(eigenvalues[stop - 1]))
        )
        if boundary:
            angles = scipy.linalg.subspace_angles(f1[:, start:stop], f2[:, start:stop])
            if angles.size:
                worst = max(worst, float(angles.max()))
            start = stop
    return worst

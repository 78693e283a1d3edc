"""Dense symmetric linear algebra, chi-square tail probabilities, and the one
rule for a value a caller passes the package, which `_count`, `_real` and
`as_array` alone apply; each refusal is a TypeError or ValueError naming it.

Matrices and vectors are plain float64 numpy arrays (row-major, dense);
problem sizes here are a handful of regressors, so there is no sparse
path. All functions are pure and safe to call concurrently. Each public
function validates its arguments on every call.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

_EPS = float(np.finfo(float).eps)
_SYM_RTOL = 1e-10
_MAX_DF = 10**6  # chi2_sf sums df//2 terms


def _count(v, name: str, least: int | None = None) -> int:
    """v as an int of at least `least` if given: what operator.index takes, but no bool."""
    try:
        count = None if isinstance(v, bool) else operator.index(v)
    except TypeError:
        count = None
    if count is None:
        raise TypeError(f"{name} must be an integer, got {type(v).__name__}")
    if least is not None and count < least:
        raise ValueError(f"{name} must be at least {least}, got {count}")
    return count


def _real(v, name: str) -> float:
    """v as a float: a numbers.Real other than a bool, which a float can hold."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {type(v).__name__}")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{name} is too large to convert to float") from None


def as_array(v, ndim: int | None, name: str) -> np.ndarray:
    """v as a float64 array, which numpy must read with a bool, integer or real
    dtype; with ndim 1 or 2, also of that many dimensions (a scalar is a vector
    of one), with at least one entry, all of them finite."""
    try:
        arr = np.asarray(v)
    except ValueError:  # nesting that numpy cannot make rectangular
        raise TypeError(f"{name} must be an array of numbers, got ragged nesting") from None
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"{name} must be an array of numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if ndim is None:
        return arr
    if arr.ndim == 0 and ndim == 1:
        arr = arr.reshape(1)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {('one', 'two')[ndim - 1]}-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError(f"{name} must have at least one {('entry', 'row and one column')[ndim - 1]}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _inverse_eigs(a) -> tuple[np.ndarray, np.ndarray]:
    """Check that a is a finite, square, symmetric matrix, eigendecompose it
    and invert its nonzero spectrum.

    Eigenvalues at or below max(dim) * eps * |lambda|_max count as exact
    zeros, matching the MATLAB pinv default, so rank-deficient systems get
    minimum-norm solutions instead of noise amplification.
    """
    a = as_array(a, 2, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    # a - a.T is exactly antisymmetric in IEEE arithmetic, so its largest entry
    # is also its largest magnitude
    if float((a - a.T).max()) > _SYM_RTOL * max(float(np.abs(a).max()), 1e-300):
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    # eigh's spectrum ascends, so |lambda|_max is at one of its two ends
    cutoff = max(a.shape) * _EPS * max(-float(eigvals[0]), float(eigvals[-1]))
    inv = np.divide(1.0, eigvals, out=np.zeros_like(eigvals), where=np.abs(eigvals) > cutoff)
    return inv, eigvecs


def solve_psd(a, b) -> np.ndarray:
    """Solve a symmetric positive-semidefinite system in the least-squares sense.

    Returns the x minimizing ||a x - b||_2; when a is singular this is the
    minimum-norm solution (pseudoinverse semantics). Deterministic for
    identical inputs.
    """
    inv, eigvecs = _inverse_eigs(a)
    b = as_array(b, 1, "b")
    if b.shape[0] != inv.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {inv.shape[0]}x{inv.shape[0]}, "
            f"vector has length {b.shape[0]}"
        )
    return eigvecs @ (inv * (eigvecs.T @ b))


def pinv_psd(a) -> np.ndarray:
    """Pseudoinverse of a symmetric positive-semidefinite matrix.

    Same spectral truncation as solve_psd; the result is symmetrized so
    roundoff cannot leak asymmetry into downstream covariance matrices.
    """
    inv, eigvecs = _inverse_eigs(a)
    pinv = (eigvecs * inv) @ eigvecs.T
    return 0.5 * (pinv + pinv.T)


def chi2_sf(x, df) -> float:
    """Survival function 1 - CDF of the chi-square distribution.

    For an integer df the tail is a finite sum (Abramowitz & Stegun 1964,
    26.4.4-26.4.5). With h = x/2 and a = j + (df mod 2)/2 for
    j = 0 .. df//2 - 1,

        Q = [erfc(sqrt(h)) if df is odd] + sum_j h^a e^-h / Gamma(a + 1),

    each term formed as exp(a log h - h - lgamma(a + 1)). So df = 1 is
    exactly erfc(sqrt(x/2)) and df = 2 exactly exp(-x/2). Every term is
    positive: nothing cancels and nothing iterates to convergence, at a cost
    of df//2 terms (about 0.3 ms at df = 2000; df counts dropped design
    columns, so the fit before it always costs more). The rounding error
    grows roughly like eps * h * log h, to about 3e-11 absolute at df = 50,000.

    Parameters
    ----------
    x : nonnegative real
        Point at which to evaluate the upper tail.
    df : integer from 1 to 1,000,000
        Degrees of freedom. The bound caps a call at 500,000 terms; a test
        that drops more columns would need a design wider than memory holds.
    """
    df = _count(df, "df", 1)
    if df > _MAX_DF:
        raise ValueError(f"df must be at most {_MAX_DF}, got {df}")
    x = _real(x, "x")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"chi2_sf requires finite x >= 0, got {x}")
    half = 0.5 * x
    if half == 0.0:
        return 1.0
    odd = df % 2
    log_half = math.log(half)
    q = 0.0
    # from the top index down: where Q is near 1 the terms shrink with j, so
    # the smallest are added first
    for j in reversed(range(df // 2)):
        a = j + 0.5 * odd
        q += math.exp(a * log_half - half - math.lgamma(a + 1.0))
    if odd:
        q += math.erfc(math.sqrt(half))
    return min(q, 1.0)


def _chi2_sf_df1(q: np.ndarray) -> np.ndarray:
    """chi2_sf(q_i, 1) for every entry of an array of finite q_i >= 0: the same
    erfc(sqrt(q/2)) per point, bit for bit, without a checked call per point."""
    return np.array(list(map(math.erfc, np.sqrt(0.5 * q).tolist())))

"""Bit parity of the spectral solve: `solve_psd` and `pinv_psd` on the current
`_inverse_eigs` against the same public functions on a copy of the earlier,
mask-based `_inverse_eigs` kept below. Results are compared as bytes, errors by
type and text, warnings by category and text, over a seeded sweep of about
3,000 matrices."""

import warnings

import numpy as np
import pytest

from logitkit import numerics, pinv_psd, solve_psd

_EPS = float(np.finfo(float).eps)
_RTOL = numerics._SYM_RTOL


def _mask_inverse_eigs(a):
    # the reference: symmetry from max |a - a.T|, the cutoff from max |lambda|,
    # and the inverse spectrum scattered through a boolean mask
    a = numerics.as_array(a, 2, "a")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = float(np.abs(a).max())
    if float(np.abs(a - a.T).max()) > _RTOL * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric within tolerance")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (a + a.T))
    cutoff = max(a.shape) * _EPS * float(np.abs(eigvals).max())
    inv = np.zeros_like(eigvals)
    keep = np.abs(eigvals) > cutoff
    inv[keep] = 1.0 / eigvals[keep]
    return inv, eigvecs


def _outcome(call):
    # what a call gives: its result's dtype, shape and bytes, or its error's type
    # and text, plus every warning it raised, by category and text
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
            got = ("result", out.dtype.str, out.shape, out.tobytes())
        except (TypeError, ValueError) as exc:
            got = ("error", type(exc).__name__, str(exc))
    return got, [(w.category.__name__, str(w.message)) for w in caught]


def _from_spectrum(rng, eigvals, rotate=True):
    # the symmetric matrix with this spectrum, in a random basis or on the diagonal
    eigvals = np.asarray(eigvals, float)
    if not rotate:
        return np.diag(eigvals)
    q, _ = np.linalg.qr(rng.standard_normal((eigvals.size, eigvals.size)))
    a = (q * eigvals) @ q.T
    return 0.5 * (a + a.T)


def _spectrum(rng, kind, n):
    mags = 10.0 ** rng.uniform(-3.0, 3.0, n)
    if kind == "psd":
        return mags
    if kind == "rank-deficient":
        mags[rng.permutation(n)[: int(rng.integers(1, n + 1))]] = 0.0
        return mags
    if kind == "indefinite":
        signs = rng.choice([-1.0, 1.0], n)
        signs[0], signs[-1] = -1.0, 1.0
        return mags * signs if n > 1 else -mags
    if kind == "negative-definite":
        return -mags
    return np.zeros(n)  # zero


_KINDS = ("psd", "rank-deficient", "indefinite", "negative-definite", "zero")


def _scaled():
    # every kind at scale 10^k for k = -150 .. 150, sizes 1 to 6
    rng = np.random.default_rng(180)
    for k in range(-150, 151):
        for i, kind in enumerate(_KINDS):
            n = 1 + (k + i) % 6
            yield _from_spectrum(rng, _spectrum(rng, kind, n) * 10.0**k, rotate=bool(k % 3))


def _at_the_cutoff():
    # the smallest magnitude at 0.5, 1 and 2 times max(dim) * eps * |lambda|_max,
    # with |lambda|_max and the smallest each positive or negative; on the
    # diagonal eigh returns the spectrum exactly, so 1x is the cutoff itself
    rng = np.random.default_rng(181)
    for factor in (0.5, 1.0, 2.0):
        for n in range(2, 7):
            for k in (-150, -60, -3, 0, 5, 80, 150):
                for top_sign, sign in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                    top = top_sign * rng.uniform(1.0, 10.0) * 10.0**k
                    eigvals = np.r_[top, rng.uniform(0.1, 1.0, n - 2) * top, 0.0]
                    eigvals[-1] = sign * factor * n * _EPS * abs(top)
                    for rotate in (False, True):
                        yield _from_spectrum(rng, rng.permutation(eigvals), rotate)


def _asymmetric():
    # one off-diagonal entry moved by 0.4, 0.6, 1 and 1.2 times _SYM_RTOL * max |a|
    rng = np.random.default_rng(182)
    for factor in (0.4, 0.6, 1.0, 1.2):
        for n in range(2, 7):
            for k in (-150, -20, 0, 20, 150):
                for kind in _KINDS[:4]:
                    a = _from_spectrum(rng, _spectrum(rng, kind, n) * 10.0**k)
                    i, j = rng.choice(n, 2, replace=False)
                    a[i, j] += rng.choice([-1.0, 1.0]) * factor * _RTOL * np.abs(a).max()
                    yield a


def _edges():
    # 1x1 and tiny, subnormal, huge and near-overflow entries; then the refusals
    # that come before the spectrum: not square, not finite, not two-dimensional
    for v in (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-310, 1e-300, 1e300, 1.7e308, -1.7e308):
        yield np.array([[v]])
    for n in range(1, 7):
        yield np.zeros((n, n))
        yield np.full((n, n), 1e-310)
        yield np.full((n, n), 1.7e308)
        yield np.eye(n) * 1e308 - np.eye(n)[::-1] * 1e308 * (n > 1)
        yield np.diag(np.r_[1.7e308, np.ones(n - 1)])
        yield np.diag(np.r_[1e-320, np.ones(n - 1) * 1e-300])
    yield np.ones((2, 3))
    yield np.array([[1.0, np.nan], [np.nan, 1.0]])
    yield np.array([[np.inf]])
    yield np.ones(3)
    yield np.ones((1, 1, 1))
    yield np.empty((0, 0))
    yield [[1, 2], [2, 5]]
    yield [[True, False], [False, True]]


def _random_fill():
    # symmetric matrices with independent Gaussian entries at random scales
    rng = np.random.default_rng(183)
    for _ in range(640):
        n = int(rng.integers(1, 7))
        g = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-150, 151)
        yield 0.5 * (g + g.T)


_FAMILIES = {
    "scaled": _scaled,
    "at the cutoff": _at_the_cutoff,
    "asymmetric": _asymmetric,
    "edges": _edges,
    "random": _random_fill,
}


def _check_family(monkeypatch, matrices):
    rng = np.random.default_rng(184)
    count = 0
    for a in matrices:
        size = np.shape(a)[0] if np.ndim(a) else 1
        # a right-hand side of the matching length, and now and then a wrong one
        b = rng.standard_normal(size + (count % 97 == 0))
        calls = (lambda: solve_psd(a, b), lambda: pinv_psd(a))
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_inverse_eigs", _mask_inverse_eigs)
            expected = [_outcome(call) for call in calls]
        got = [_outcome(call) for call in calls]
        assert got == expected, f"matrix {count}: {a!r}"
        count += 1
    return count


@pytest.mark.parametrize("family", list(_FAMILIES))
def test_spectral_inverse_is_bit_identical_to_the_mask_reference(monkeypatch, family):
    assert _check_family(monkeypatch, _FAMILIES[family]()) > 0


def test_the_sweep_holds_about_three_thousand_matrices():
    assert sum(sum(1 for _ in make()) for make in _FAMILIES.values()) >= 3000

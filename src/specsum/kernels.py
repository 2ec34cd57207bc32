"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these functions (the line
search evaluates the value kernel once per trial step).  They are
vectorized numpy; ``BACKEND`` names that implementation in trace
headers.  Every call is deterministic.

A kernel called with ``idx`` an ascending run lo, lo+1, ..., hi inside
0..N-1 (every S=1 draw, every full-index call and any draw that
happens to be consecutive) reads those rows in place, through a slice;
any other ``idx`` (a permutation, a draw with duplicates or gaps)
gathers a copy of its rows first.  Both paths sum the same rows in the
same order, so they give the same bits.

``quad_value`` takes the products A_i (x-b_i) through ``matmul`` and
sums them against x-b_i in one ``vdot``; ``quad_gradient`` keeps its
two-operand ``einsum``, which ``matmul`` does not speed up.

The three logistic kernels share one chain.  ``_margins`` takes
z = -y * (F @ x) and e = exp(-|z|), each built in place on one array.
A value takes each loss log(1 + exp(z)) as max(z, 0) + log1p(e), the
formula numpy's ``logaddexp(0, z)`` evaluates, on numpy's vectorized
``maximum`` and ``log1p``.  A gradient takes the stable sigmoid(z) as
exp(min(z, 0)) / (1 + e), without a branch, and writes it over z and e.
``logistic_report``, the full-index value and gradient of one trace row,
computes the margins once for both.  So the report carries the bits of
``logistic_value`` and ``logistic_gradient`` on the full index, and
holds at most four arrays of N floats at a time; a full-index gradient
holds two.
"""

import numpy as np

BACKEND = "numpy"


def _rows(idx, N):
    """``slice(lo, hi + 1)`` when ``idx`` is the run lo..hi inside 0..N-1,
    so indexing reads the rows in place; ``idx`` itself otherwise."""
    if idx.size:
        lo, hi = int(idx[0]), int(idx[-1])
        if (0 <= lo and hi < N and hi - lo == idx.size - 1
                and (idx.size == 1 or bool(np.all(idx[1:] > idx[:-1])))):
            return slice(lo, hi + 1)
    return idx


def quad_value(A, b, idx, x):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``."""
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
    return 0.5 * float(np.vdot(dx, Adx)) / idx.size


def quad_gradient(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    return np.einsum("ijk,ik->j", A[r], dx) / idx.size


def _margins(F, y, x):
    """Margins z = -y * (F @ x) and e = exp(-|z|), each built in place in
    one array of its own; ``e`` never overflows."""
    z = F @ x
    z *= y
    np.negative(z, out=z)
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    return z, e


def _log1p_exp(z, e):
    """log(1 + exp(z)) per element, given ``e`` = exp(-|z|): the formula
    numpy's ``logaddexp(0, z)`` evaluates, max(z, 0) + log1p(e)."""
    loss = np.log1p(e)
    loss += np.maximum(z, 0.0)
    return loss


def _logistic_value(z, e, lam, x):
    """Mean loss over the rows of margins ``z`` plus lam/2*||x||^2, given
    ``e`` = exp(-|z|); leaves ``z`` and ``e`` unchanged."""
    return float(np.mean(_log1p_exp(z, e))) + 0.5 * lam * float(x @ x)


def _logistic_grad(z, e, F, y, lam, x):
    """Mean loss gradient over the rows of margins ``z`` plus lam*x, given
    ``e`` = exp(-|z|); overwrites ``z`` and ``e``.  The stable sigmoid(z)
    is exp(min(z, 0)) / (1 + e): for z < 0, min(z, 0) is -|z| exactly,
    and for z >= 0, exp(0) is exactly 1."""
    sig = np.minimum(z, 0.0, out=z)
    np.exp(sig, out=sig)
    e += 1.0
    sig /= e
    sig *= y
    np.negative(sig, out=sig)
    return (sig @ F) / sig.size + lam * x


def logistic_value(feats, labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``."""
    r = _rows(idx, labels.size)
    return _logistic_value(*_margins(feats[r], labels[r], x), lam, x)


def logistic_gradient(feats, labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``."""
    r = _rows(idx, labels.size)
    F, y = feats[r], labels[r]
    return _logistic_grad(*_margins(F, y, x), F, y, lam, x)


def logistic_report(feats, labels, lam, x):
    """Full value and gradient, from one pass over the data in place."""
    z, e = _margins(feats, labels, x)
    return _logistic_value(z, e, lam, x), _logistic_grad(z, e, feats, labels, lam, x)

"""Hot numeric kernels: subsample-averaged values and gradients.

Every solver iteration funnels through these functions (the line
search evaluates the value kernel once per trial step).  They are
vectorized numpy; ``BACKEND`` names that implementation in trace
headers.  Every call is deterministic.

A kernel called with ``idx`` an ascending run lo, lo+1, ..., hi inside
0..N-1 (every full-index call and any draw that happens to be
consecutive) reads those rows in place, through a slice; any other
``idx`` (a permutation, a draw with duplicates or gaps) gathers a copy
of its rows first.  Both paths sum the same rows in the same order, so
they give the same bits.

A quadratic kernel called with one index i (every S=1 draw) reads A_i
as one 2-D matrix and takes one matrix-vector product A_i (x-b_i)
(``_one_row``): the gradient is that product, and the value is its dot
with x-b_i, with the bits of the batch value over the one-row stack.
Given a ``point``, its caller's dict for one (batch, iterate), the call
keeps x-b_i and the product there or takes them from it, so a value and
a gradient at one point compute the product once; the gradient is the
point's own array (see Ownership in the ``solvers`` docstring).  A
batch of several indices ignores ``point``: its value takes the
products through ``matmul`` and one ``vdot``, and its gradient the
two-operand ``einsum``, kept for its bits: ``matmul`` then a sum over
the batch was faster at three of four shapes measured, but it sums in
another order.

The three logistic kernels share one chain, and take the negated
labels -y, which ``LogisticProblem`` builds once, so the label sign is
folded into it.  ``_margins`` turns the products F @ x into the margins
z = -y * (F @ x) with one multiplication in place and takes
e = exp(-|z|) in one array of its own.  A value takes each loss
log(1 + exp(z)) as max(z, 0) + log1p(e), the formula numpy's
``logaddexp(0, z)`` evaluates, on numpy's vectorized ``maximum`` and
``log1p``, and their mean as their sum over their count, which is
``np.mean``'s quotient.  A gradient takes the stable sigmoid(z) as
exp(min(z, 0)) / (1 + e), without a branch, writes it over z and e,
and multiplies it by -y.  A product with a negated +-1 is the negated
product, so the fold moves no bit but the sign of a NaN.

``logistic_report`` gives the full-index value and gradient of a stack
of c trace rows, X of shape (c, n).  It reads the features twice per
stack, in the two matrix products Z = X @ F' and C @ F, and runs the
chain above on one row of Z at a time, so each row's temporaries stay
in cache.  For a one-row stack both products are the matrix-vector
products of the estimators, so the report carries the bits of
``logistic_value`` and ``logistic_gradient`` on the full index; rows of
a larger stack agree with their one-row reports to rounding.  A stack
holds Z, its c arrays of N margins, and at most three arrays of N
floats more, so a stack of 16 peaks at about 1.2 times its Z; a
full-index gradient holds two.
"""

import numpy as np

BACKEND = "numpy"


def _rows(idx, N):
    """``slice(lo, hi + 1)`` when ``idx`` is the run lo..hi inside 0..N-1,
    so indexing reads the rows in place; ``idx`` itself otherwise.  The
    quadratic kernels read a one-index call as one 2-D row instead
    (``_one_row``); a one-index logistic call still reads its row
    through a slice."""
    if idx.size:
        lo, hi = int(idx[0]), int(idx[-1])
        if (0 <= lo and hi < N and hi - lo == idx.size - 1
                and (idx.size == 1 or bool(np.all(idx[1:] > idx[:-1])))):
            return slice(lo, hi + 1)
    return idx


def _one_row(A, b, i, x, point):
    """x - b_i and A_i (x - b_i) for the one index ``i``; with a ``point``,
    the evaluation dict of (i, x), taken from it when it holds them and
    kept in it otherwise."""
    if point is None:
        dx = x - b[i]
        return dx, A[i] @ dx
    if "Adx" not in point:
        dx = x - b[i]
        point["dx"], point["Adx"] = dx, A[i] @ dx
    return point["dx"], point["Adx"]


def quad_value(A, b, idx, x, point=None):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``; a
    value of -inf is returned as inf.  ``point`` serves one-index calls
    (see ``_one_row``)."""
    if idx.size == 1:
        dx, Adx = _one_row(A, b, idx[0], x, point)
        v = 0.5 * float(dx.dot(Adx))
    else:
        r = _rows(idx, b.shape[0])
        dx = x[None, :] - b[r]
        Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
        v = 0.5 * float(np.vdot(dx, Adx)) / idx.size
    # each term is >= 0 on SPD data; past overflow vdot can keep a first
    # -inf product, which is still an overflow, not a decrease
    return np.inf if v == -np.inf else v


def quad_gradient(A, b, idx, x, point=None):
    """Mean of A_i (x-b_i) over the indices in ``idx``; for one index and
    a ``point``, the point's own array (see ``_one_row``)."""
    if idx.size == 1:
        return _one_row(A, b, idx[0], x, point)[1]
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    return np.einsum("ijk,ik->j", A[r], dx) / idx.size


def _margins(z, neg_y):
    """Margins z = -y * (F @ x), built in place on the products ``z`` =
    F @ x from the negated labels ``neg_y``, and e = exp(-|z|) in one
    array of its own; ``e`` never overflows."""
    z *= neg_y
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
    ``e`` = exp(-|z|); leaves ``z`` and ``e`` unchanged.  The mean is
    ``np.mean``'s own quotient, without its Python wrapper."""
    loss = _log1p_exp(z, e)
    return float(np.add.reduce(loss) / loss.size) + 0.5 * lam * float(x @ x)


def _loss_slopes(z, e, neg_y):
    """-y * sigmoid(z), the loss derivative of each row, given ``e`` =
    exp(-|z|) and the negated labels ``neg_y``, written over ``z``;
    overwrites ``e``.  The stable sigmoid(z) is exp(min(z, 0)) / (1 + e):
    for z < 0, min(z, 0) is -|z| exactly, and for z >= 0, exp(0) is
    exactly 1."""
    sig = np.minimum(z, 0.0, out=z)
    np.exp(sig, out=sig)
    e += 1.0
    sig /= e
    sig *= neg_y
    return sig


def logistic_value(feats, neg_labels, lam, idx, x):
    """Mean regularized logistic loss over the indices in ``idx``, given
    the negated labels."""
    r = _rows(idx, neg_labels.size)
    return _logistic_value(*_margins(feats[r] @ x, neg_labels[r]), lam, x)


def logistic_gradient(feats, neg_labels, lam, idx, x):
    """Mean regularized logistic loss gradient over ``idx``, given the
    negated labels."""
    r = _rows(idx, neg_labels.size)
    F, neg_y = feats[r], neg_labels[r]
    return (_loss_slopes(*_margins(F @ x, neg_y), neg_y) @ F) / neg_y.size + lam * x


def logistic_report(feats, neg_labels, lam, X):
    """Full values, shape (c,), and gradients, shape (c, n), of the c
    iterates stacked in ``X``, from two matrix products over the data,
    given the negated labels."""
    Z = X @ feats.T
    f = np.empty(len(X))
    for i, z in enumerate(Z):
        z, e = _margins(z, neg_labels)
        f[i] = _logistic_value(z, e, lam, X[i])
        _loss_slopes(z, e, neg_labels)
    G = Z @ feats
    G /= neg_labels.size
    G += lam * X
    return f, G

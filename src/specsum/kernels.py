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

``quad_value`` takes the products A_i (x-b_i) through ``matmul`` and
sums them against x-b_i in one ``vdot``; ``quad_gradient`` keeps its
two-operand ``einsum``, which ``matmul`` does not speed up.  A quadratic
kernel called with one index (every S=1 draw) reads A_i as one 2-D
matrix: the value takes the matrix-vector product A_i @ (x-b_i), the
gradient the einsum "jk,k->j".  These give the bits of the batch
formulas over the one-row stack, without their overhead for a batch of
one.  A gradient must not take A_i @ (x-b_i): its bits differ from the
einsum's.

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
    quadratic kernels read a one-index call as one 2-D row instead; a
    one-index logistic call still reads its row through a slice."""
    if idx.size:
        lo, hi = int(idx[0]), int(idx[-1])
        if (0 <= lo and hi < N and hi - lo == idx.size - 1
                and (idx.size == 1 or bool(np.all(idx[1:] > idx[:-1])))):
            return slice(lo, hi + 1)
    return idx


def quad_value(A, b, idx, x):
    """Mean of 0.5*(x-b_i)' A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == 1:
        i = idx[0]
        dx = x - b[i]
        return 0.5 * float(np.vdot(dx, A[i] @ dx))
    r = _rows(idx, b.shape[0])
    dx = x[None, :] - b[r]
    Adx = np.matmul(A[r], dx[:, :, None])[:, :, 0]
    return 0.5 * float(np.vdot(dx, Adx)) / idx.size


def quad_gradient(A, b, idx, x):
    """Mean of A_i (x-b_i) over the indices in ``idx``."""
    if idx.size == 1:
        i = idx[0]
        return np.einsum("jk,k->j", A[i], x - b[i])
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

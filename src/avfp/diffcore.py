"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive is one entry of the op table, name -> (forward, vjp).
The basic set is elementwise add/sub/mul (either operand may be 0-d),
matmul, tanh/sigmoid/exp/log/softplus, full reductions sum/mean,
concat and slice along a static axis, broadcast, and a hard clip.
Fused primitives with hand-written backward rules carry the model's
hot paths:

  affine        W @ x + b for each row x of a batch
  gauss_logpdf  log N(x; mean, diag(exp(log_var))), summed per row
  gauss_kl      KL between two diagonal Gaussians, summed per row
  gru_scan      a GRU over the rows of a time-major packed batch,
                given their input projections W @ x + b
  latent_scan   a whole latent chain over packed rows: an optional
                GRU, a Gaussian head, its log-variance clip and the
                reparameterized sample, with the exogenous inputs'
                projections computed once for all rows

The Gaussian ops also take one vector.  The scans step only the
recurrence in their loops and backpropagate through time by hand,
forming every weight gradient with one product over all rows.  A GRU
step is one matrix product: the previous step's [h, z] rows times K,
U's and z's weights stacked so that the product's columns are every
recurrent term of the gates at once.

Every primitive checks its result for NaN/Inf and raises instead of
propagating silently.  A Tape is an append-only record of primitive
applications; backward() walks it once in reverse and returns a map
from leaf-tensor uid to gradient, and replay() re-runs every forward
and demands bit-identical values.

Forward evaluation with no tape open is plain numpy and carries no
recording overhead, which is what prediction and rollout paths use.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import expit

LN_2PI = float(np.log(2.0 * np.pi))


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


class TapeError(RuntimeError):
    """Gradient requested through a value that is not on the tape."""


_uid_counter = itertools.count(1)
_active_tape = None  # the innermost open Tape; None while no_tape is open


def _check_finite(op: str, *arrs: np.ndarray) -> None:
    # fast path: any NaN/Inf element makes the sum of squares non-finite
    # (a dot product is cheaper than a sum); the elementwise re-check
    # only guards against overflow of the squares themselves
    for arr in arrs:
        if arr.ndim == 0:
            ok = math.isfinite(float(arr))
        else:
            flat = arr.ravel()
            ok = math.isfinite(float(flat.dot(flat)))
        if not ok and not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite result from '{op}'")


class Tensor:
    """Immutable view of a C-contiguous float64 array, optionally taped.

    data holds the values (row-major), uid identifies the tensor for
    gradient lookup, const marks values that never need gradients, and
    (tape, node_id) link an op result to its node on the recording
    tape.  Leaves never link to a tape: the tape maps their uids.
    """

    __slots__ = ("data", "uid", "const", "tape", "node_id")

    def __init__(self, data, const: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        _check_finite("tensor", arr)
        self.data = arr
        self.uid = next(_uid_counter)
        self.const = const
        self.tape = None
        self.node_id = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, uid={self.uid})"

    # -- operator sugar; scalars are lifted to 0-d constants ------------
    def __add__(self, other):
        return apply_primitive("add", self, _lift(other))

    def __radd__(self, other):
        return apply_primitive("add", _lift(other), self)

    def __sub__(self, other):
        return apply_primitive("sub", self, _lift(other))

    def __rsub__(self, other):
        return apply_primitive("sub", _lift(other), self)

    def __mul__(self, other):
        return apply_primitive("mul", self, _lift(other))

    def __rmul__(self, other):
        return apply_primitive("mul", _lift(other), self)

    def __neg__(self):
        return apply_primitive("mul", self, _lift(-1.0))

    def __matmul__(self, other):
        return apply_primitive("matmul", self, _lift(other))

    def sum(self):
        return apply_primitive("sum", self)

    def mean(self):
        return apply_primitive("mean", self)

    def slice(self, start: int, stop: int, axis: int = 0):
        return apply_primitive("slice", self, start=start, stop=stop, axis=axis)

    def clip(self, lo: float, hi: float):
        return apply_primitive("clip", self, lo=lo, hi=hi)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, const=True)


def constant(x) -> Tensor:
    """An array as a constant tensor, excluded from gradient maps (inputs,
    noise, targets); a Tensor passes through unchanged and keeps its
    gradient."""
    return _lift(x)


def parameter(x) -> Tensor:
    """Trainable tensor; backward() reports a gradient under its uid."""
    return Tensor(x, const=False)


class Tape:
    """Append-only record of primitive applications.

    Nodes are stored as parallel lists (op name, parent node ids, cached
    forward value, op-specific aux data, static keyword arguments).
    Leaves are enrolled lazily on first use and found again through the
    tape's own uid -> node map, so a leaf tensor never keeps a tape
    alive.  Entering the context makes the tape the active recorder;
    tapes may nest, the innermost one records.
    """

    __slots__ = ("ops", "parents", "values", "aux", "kws", "leaves", "_prev",
                 "__weakref__")

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.values: list[np.ndarray] = []
        self.aux: list = []
        self.kws: list[dict | None] = []
        self.leaves: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def __enter__(self):
        global _active_tape
        self._prev, _active_tape = _active_tape, self
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = self._prev
        return False

    def _leaf(self, t: Tensor) -> int:
        if t.tape is self:
            return t.node_id
        nid = self.leaves.get(t.uid)
        if nid is None:
            nid = self._record("leaf", (), t.data, (t.uid, t.const), None)
            self.leaves[t.uid] = nid
        return nid

    def _record(self, op: str, pids: tuple[int, ...], value: np.ndarray,
                aux, kw: dict | None) -> int:
        nid = len(self.ops)
        self.ops.append(op)
        self.parents.append(pids)
        self.values.append(value)
        self.aux.append(aux)
        self.kws.append(kw)
        return nid


class no_tape:
    """Context that suspends recording (stop-gradient evaluation)."""

    __slots__ = ("_prev",)

    def __enter__(self):
        global _active_tape
        self._prev, _active_tape = _active_tape, None
        return self

    def __exit__(self, *exc):
        global _active_tape
        _active_tape = self._prev
        return False


# ---------------------------------------------------------------------------
# the op table
#
# forward(*input arrays, **static args) -> (output, aux); aux is whatever
# the backward rule needs beyond the inputs and the output.
# vjp(output adjoint, input arrays, output, aux) -> one adjoint
# contribution per input.  Neither may modify its arguments.


def _shape_match(op, a, b):
    # equal shapes, or one 0-d operand that numpy broadcasts
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ValueError(f"'{op}' shape mismatch: {a.shape} vs {b.shape}")


def _unbroadcast(c, x):
    """An adjoint contribution summed down to its 0-d input's shape."""
    return c.sum() if x.shape == () and c.shape != () else c


def _add(a, b):
    _shape_match("add", a, b)
    return a + b, None


def _add_vjp(g, vals, out, aux):
    a, b = vals
    return _unbroadcast(g, a), _unbroadcast(g, b)


def _sub(a, b):
    _shape_match("sub", a, b)
    return a - b, None


def _sub_vjp(g, vals, out, aux):
    a, b = vals
    return _unbroadcast(g, a), _unbroadcast(-g, b)


def _mul(a, b):
    _shape_match("mul", a, b)
    return a * b, None


def _mul_vjp(g, vals, out, aux):
    a, b = vals
    return _unbroadcast(g * b, a), _unbroadcast(g * a, b)


def _matmul(a, b):
    if a.ndim == 2 and b.ndim in (1, 2):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul inner dims: {a.shape} @ {b.shape}")
    elif a.ndim == 1 and b.ndim == 1:
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"matmul inner dims: {a.shape} @ {b.shape}")
    else:
        raise ValueError(f"matmul ranks unsupported: {a.ndim} @ {b.ndim}")
    return a @ b, None


def _matmul_vjp(g, vals, out, aux):
    a, b = vals
    if a.ndim == 1:  # dot of two vectors, g is scalar
        return g * b, g * a
    if b.ndim == 1:
        return np.multiply.outer(g, b), a.T @ g
    return g @ b.T, a.T @ g


def _tanh(x):
    return np.tanh(x), None


def _tanh_vjp(g, vals, out, aux):
    return (g * (1.0 - out * out),)


def _sigmoid(x):
    return expit(x), None


def _sigmoid_vjp(g, vals, out, aux):
    return (g * out * (1.0 - out),)


def _exp(x):
    return np.exp(x), None


def _exp_vjp(g, vals, out, aux):
    return (g * out,)


def _log(x):
    if np.any(x <= 0.0):
        raise ValueError("log of non-positive value")
    return np.log(x), None


def _log_vjp(g, vals, out, aux):
    return (g / vals[0],)


def _softplus(x):
    # max(x, 0) + log1p(exp(-|x|)): exact for large |x|, no overflow
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), None


def _softplus_vjp(g, vals, out, aux):
    return (g * expit(vals[0]),)


def _sum(x):
    return x.sum(), None


def _sum_vjp(g, vals, out, aux):
    return (np.broadcast_to(g, vals[0].shape),)


def _mean(x):
    return x.mean(), None


def _mean_vjp(g, vals, out, aux):
    return (np.broadcast_to(g / vals[0].size, vals[0].shape),)


def _concat(*parts, axis=0):
    nd = parts[0].ndim
    if nd == 0 or any(p.ndim != nd for p in parts) or not -nd <= axis < nd:
        raise ValueError(f"concat of ranks {[p.ndim for p in parts]} "
                         f"along axis {axis} unsupported")
    return np.concatenate(parts, axis=axis), axis


def _concat_vjp(g, vals, out, aux):
    lead = (slice(None),) * (aux % g.ndim)  # basic slicing: views, no copies
    pieces, off = [], 0
    for v in vals:
        n = v.shape[aux]
        pieces.append(g[lead + (slice(off, off + n),)])
        off += n
    return pieces


def _slice(x, start, stop, axis=0):
    # entries start:stop along a static axis
    if not 0 <= axis < x.ndim:
        raise ValueError(f"slice along axis {axis} of a {x.ndim}-d input")
    if not (0 <= start <= stop <= x.shape[axis]):
        raise ValueError(f"slice [{start}:{stop}] out of range for {x.shape}")
    cut = (slice(None),) * axis + (slice(start, stop),)
    return x[cut].copy(), cut


def _slice_vjp(g, vals, out, aux):
    gx = np.zeros_like(vals[0])
    gx[aux] = g
    return (gx,)


def _broadcast(x, shape):
    shape = tuple(shape)
    if x.shape == ():
        return np.full(shape, float(x), dtype=np.float64), None
    if x.ndim == 1 and len(shape) == 2 and shape[1] == x.shape[0]:
        return np.ascontiguousarray(np.broadcast_to(x, shape)), None
    raise ValueError(f"broadcast {x.shape} -> {shape} unsupported")


def _broadcast_vjp(g, vals, out, aux):
    return (g.sum() if vals[0].shape == () else g.sum(axis=0),)


def _clip(x, lo, hi):
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise ValueError(f"clip bounds out of order: [{lo}, {hi}]")
    return np.clip(x, lo, hi), (lo, hi)


def _clip_vjp(g, vals, out, aux):
    lo, hi = aux
    x = vals[0]
    return (g * ((x > lo) & (x < hi)),)


def _affine(W, x, b):
    # x is a row batch (N, n), and each row gets W @ row + b; W is a
    # matrix, or a row vector giving one scalar per row
    n = x.shape[1] if x.ndim == 2 else -1
    if W.ndim == 2:
        ok = W.shape[1] == n and b.shape == (W.shape[0],)
    else:
        ok = W.shape == (n,) and b.shape == ()
    if not ok:
        raise ValueError(
            f"affine shapes unsupported: {W.shape} @ {x.shape} + {b.shape}")
    return x @ W.T + b, None


def _affine_vjp(g, vals, out, aux):
    W, x, _ = vals  # g holds one adjoint per row of x
    gx = np.multiply.outer(g, W) if W.ndim == 1 else g @ W
    return g.T @ x, gx, g.sum(axis=0)


def _gauss_logpdf(x, mean, log_var):
    # one density of a vector, or one per row of a matrix
    if not x.shape == mean.shape == log_var.shape or x.ndim not in (1, 2):
        raise ValueError(f"gauss_logpdf shape mismatch: {x.shape}, "
                         f"{mean.shape}, {log_var.shape}")
    d = x - mean
    inv_var = np.exp(-log_var)
    quad = (d * d * inv_var).sum(axis=-1)
    out = (quad + log_var.sum(axis=-1)) * -0.5 + (-0.5 * LN_2PI * x.shape[-1])
    return out, (d, inv_var)


def _gauss_logpdf_vjp(g, vals, out, aux):
    d, inv_var = aux
    g = np.expand_dims(g, -1)
    g_mean = g * d * inv_var
    return -g_mean, g_mean, (g * 0.5) * (d * d * inv_var - 1.0)


def _gauss_kl(q_mean, q_log_var, p_mean, p_log_var):
    # one KL of vector Gaussians, or one per row of matrices
    if (not q_mean.shape == q_log_var.shape == p_mean.shape == p_log_var.shape
            or q_mean.ndim not in (1, 2)):
        raise ValueError("gauss_kl shape mismatch")
    diff_lv = q_log_var - p_log_var
    dm = q_mean - p_mean
    ratio = np.exp(diff_lv)
    inv_p = np.exp(-p_log_var)
    inner = ratio + dm * dm * inv_p - 1.0 - diff_lv
    return inner.sum(axis=-1) * 0.5, (dm, ratio, inv_p)


def _gauss_kl_vjp(g, vals, out, aux):
    dm, ratio, inv_p = aux
    g = np.expand_dims(g, -1)
    g_mean = g * dm * inv_p
    g_lv = (g * 0.5) * (ratio - 1.0)
    return g_mean, g_lv, -g_mean, -g_lv - (g * 0.5) * (dm * dm * inv_p)


# ---------------------------------------------------------------------------
# whole-sequence scans
#
# Both scans run over a time-major packed layout (objectives.Batch):
# step t owns rows spans[t] = (lo, hi), one per sequence still running,
# longest first, so the rows of step t continue the first hi - lo rows of
# step t - 1.  What needs no recurrent state runs once over all rows: the
# input projections before the step loop, the gate derivatives and every
# weight gradient after it.  The loops keep only the recurrent products,
# one per GRU step forward and one backward, and the elementwise work
# between them, written into stacked buffers.


def _prev_rows(spans, n_rows: int) -> np.ndarray:
    """For each row after the first step, the row of the same sequence
    one step earlier; raises unless spans pack n_rows rows time-major."""
    bounds = np.array(spans, dtype=np.int64).reshape(-1, 2)
    counts = bounds[:, 1] - bounds[:, 0]
    if (len(counts) == 0 or bounds[0, 0] != 0 or bounds[-1, 1] != n_rows
            or counts.min() < 1 or np.any(counts[1:] > counts[:-1])
            or np.any(bounds[1:, 0] != bounds[:-1, 1])):
        raise ValueError(f"spans do not pack {n_rows} rows time-major")
    step = np.repeat(np.arange(len(counts) - 1), counts[1:])
    return np.arange(counts[0], n_rows) - counts[step]


def _gru_matrix(U, Wz=None):
    """K = [[U_ru^T, 0, U_c^T], [W_z,ru^T, W_z,c^T, 0]], such that a row
    [h, z] @ K is [U_ru h + W_z,ru z, W_z,c z, U_c h]: the reset and
    update gates' recurrent terms, the candidate's z input and U_c h.
    Wz is W's z columns with n zero rows appended (pre's layout, see
    _gru_step); without it, K has h's rows only."""
    n = U.shape[1]
    K = np.zeros((n + (0 if Wz is None else Wz.shape[1]), 4 * n))
    K[:n, :2 * n] = U[:2 * n].T
    K[:n, 3 * n:] = U[2 * n:].T
    if Wz is not None:
        K[n:] = Wz.T
    return K


def _first_block(h0, n0, K):
    """The [h, z] rows the first step starts from: h0 and z = 0."""
    blk = np.zeros((n0, K.shape[0]))
    blk[:, :K.shape[1] // 4] = h0
    return blk


def _gru_step(blk, K, pre, h):
    """One gated recurrent update, gates packed [reset; update; cand]:
    the step's rows blk = [h_prev, z_prev] become rows h.  pre holds the
    other inputs' pre-activations [W @ x + b, 0] on entry (a zero block
    under U_c h, so that one add of whole rows completes it) and on exit
    the reset and update gates' pre-activations, the candidate's and
    U_c h_prev: what the backward pass reads."""
    n = h.shape[1]
    pre += blk @ K
    # expit reads a strided block of several rows at half its speed on
    # contiguous memory, which a copy first more than pays for
    ru = expit(np.ascontiguousarray(pre[:, :2 * n]))
    pre_c = pre[:, 2 * n:3 * n]
    pre_c += ru[:, :n] * pre[:, 3 * n:]
    hp = blk[:, :n]
    np.subtract(np.tanh(pre_c), hp, out=h)
    h *= ru[:, n:]
    h += hp


def _gru_factors(pre, hp):
    """The gate derivatives of every row at once: ks as (rows, 4, n)
    blocks, such that dh * ks (an adjoint row dh repeated over the four
    blocks) is the adjoint of a step's blk @ K + [W @ x + b, 0] (see
    _gru_step), and keep = 1 - u."""
    n = hp.shape[1]
    ru = expit(np.ascontiguousarray(pre[:, :2 * n]))   # see _gru_step
    r, u = ru[:, :n], ru[:, n:]
    keep = 1.0 - u
    ks = np.empty((hp.shape[0], 4, n))
    kr, ku, kc, kh = ks[:, 0], ks[:, 1], ks[:, 2], ks[:, 3]
    np.tanh(pre[:, 2 * n:3 * n], out=kc)          # c
    np.subtract(kc, hp, out=ku)
    ku *= u
    ku *= keep                                    # (c - h) u (1 - u)
    np.multiply(kc, kc, out=kc)
    np.subtract(1.0, kc, out=kc)
    kc *= u                                       # u (1 - c^2)
    np.multiply(kc, r, out=kh)                    # u (1 - c^2) r
    np.multiply(kh, pre[:, 3 * n:], out=kr)
    kr *= 1.0 - r                                 # U_c h u (1 - c^2) r (1 - r)
    return ks, keep


def _gru_step_vjp(dh, ks, keep, KT, ds):
    """Backward through one step: writes the adjoint of blk @ K + [W @ x
    + b, 0] (as (rows, 4, n) blocks) into ds and returns that of the
    step's rows blk = [h_prev, z_prev], with one product; the adjoint of
    W @ x + b is ds's first three blocks."""
    np.multiply(ks, dh[:, None, :], out=ds)
    d = ds.reshape(len(dh), -1) @ KT
    d[:, :dh.shape[1]] += dh * keep
    return d


def _gru_dU(dS, hp):
    """The gradient of U from the stacked adjoints of the steps' sums."""
    n = hp.shape[1]
    return np.concatenate((dS[:, :2].reshape(len(hp), 2 * n).T @ hp,
                           dS[:, 3].T @ hp))


def _hprev(h0, H, prev):
    """The state each row's step starts from: h0 at the first step."""
    n0 = H.shape[0] - len(prev)
    return np.concatenate((np.broadcast_to(h0, (n0, H.shape[1])), H[prev]))


def _gru_scan(U, h0, S, spans):
    # rows S of input pre-activations W @ x + b; h0 is one initial state
    # for every sequence or one row per sequence of the first step
    n_rows = S.shape[0] if S.ndim == 2 else -1
    n = U.shape[-1] if U.ndim else 0
    prev = _prev_rows(spans, n_rows)
    if (U.shape != (3 * n, n) or S.shape != (n_rows, 3 * n)
            or h0.shape not in ((n,), (spans[0][1], n))):
        raise ValueError(f"gru_scan shapes unsupported: U {U.shape}, "
                         f"h0 {h0.shape}, S {S.shape}")
    K = _gru_matrix(U)
    H = np.empty((n_rows, n))
    pre = np.zeros((n_rows, 4 * n))
    pre[:, :3 * n] = S
    blk = _first_block(h0, spans[0][1], K)
    for lo, hi in spans:
        if lo:
            blk = H[plo:plo + hi - lo]
        _gru_step(blk, K, pre[lo:hi], H[lo:hi])
        plo = lo
    # The gates saturate, so an overflow in S or U @ h would leave a
    # finite output.  Every entry of both reaches pre, and a NaN/Inf
    # there stays NaN/Inf (r > 0, or r * inf is NaN), so this check also
    # covers them.
    _check_finite("gru_scan", pre)
    return H, (spans, prev, K, pre)


def _gru_scan_vjp(g, vals, out, aux):
    U, h0, S = vals
    spans, prev, K, pre = aux
    n_rows, n = out.shape
    hp = _hprev(h0, out, prev)
    ks, keep = _gru_factors(pre, hp)
    KT = np.ascontiguousarray(K.T)
    dH = np.array(g)
    dS = np.empty((n_rows, 4, n))
    for t in range(len(spans) - 1, -1, -1):
        lo, hi = spans[t]
        dhp = _gru_step_vjp(dH[lo:hi], ks[lo:hi], keep[lo:hi], KT, dS[lo:hi])
        if t:
            plo = spans[t - 1][0]
            dH[plo:plo + hi - lo] += dhp
    return (_gru_dU(dS, hp), dhp.sum(axis=0) if h0.ndim == 1 else dhp,
            dS[:, :3].reshape(n_rows, -1))


LATENT_INPUTS = ("xu", "eps", "h0", "W", "U", "b", "W1", "b1",
                 "Wm", "bm", "Wv", "bv")


def _latent_columns(n_h: int, n_z: int, sample: bool) -> dict[str, slice]:
    """The columns of each output block of latent_scan, in order.  h
    sits right before the sample (the mean without noise), so a step's
    rows [h, z] are one block, the next step's [h_prev, z_prev]."""
    widths = ([("mean", n_z), ("log_var", n_z)] if sample else []) + (
        [("h", n_h)] if n_h else []) + [("z" if sample else "mean", n_z),
                                        ("z_prev", n_z)]
    cols, off = {}, 0
    for name, w in widths:
        cols[name] = slice(off, off + w)
        off += w
    return cols


def _col_blocks(M, order, width) -> dict:
    """The column blocks of M named in order, of the given widths."""
    if M.ndim != 2 or M.shape[1] != sum(width[k] for k in order):
        raise ValueError(f"latent_scan: {M.shape} weights for input blocks "
                         f"{tuple(order)}")
    out, off = {}, 0
    for k in order:
        out[k] = M[:, off:off + width[k]]
        off += width[k]
    return out


def _head_layers(p, lv_scale):
    """The Gaussian head as (M, m, F, f): an output layer M, m giving
    [mean, log_var * lv_scale] rows (no log-variance without eps) and
    the first layer F, f on the head's input (M, m itself without W1)."""
    M, m = p["Wm"], p["bm"]
    if "eps" in p:
        M = np.concatenate((M, p["Wv"] * lv_scale))
        m = np.concatenate((m, p["bv"] * lv_scale))
    return (M, m) + ((p["W1"], p["b1"]) if "W1" in p else (M, m))


def _projection(x, blocks, b):
    """x @ W_x.T + b for the "xu" column block of W, or b on every row
    when W has none: the part of a layer computed once for all rows."""
    if "xu" not in blocks:
        return np.broadcast_to(b, (x.shape[0], b.shape[0]))
    out = x @ blocks["xu"].T
    out += b
    return out


def _latent_scan(*arrays, names, spans, gru_in, head_in, clip, pin_first):
    # One latent chain over packed rows.  Per step, with z_prev the
    # previous sample of the same sequence (zeros at the first step):
    #   h       = GRU(h_prev, input blocks gru_in)  (if W is given, else
    #                                                  gru_in is ignored)
    #   feat    = tanh(W1 @ input blocks head_in + b1)   (the blocks, without W1)
    #   mean    = Wm @ feat + bm
    #   log_var = clip(Wv @ feat + bv)
    #   z       = mean + exp(log_var / 2) * eps          (mean, without eps)
    # The input blocks are "xu" (the exogenous rows, whose projections
    # are computed once for all rows), "z" (z_prev) and "h".  With
    # pin_first the first step's mean and log_var are 0, so its z is eps.
    # The loop writes h, mean, log_var and z straight into the output,
    # whose h columns sit right before z's (the mean's without eps), so
    # that the GRU reads [h_prev, z_prev] as one block of the previous
    # step's rows (see _gru_step).
    p = dict(zip(names, arrays))
    sample, gru, hidden = "eps" in p, "W" in p, "W1" in p
    need = {"xu", "Wm", "bm"} | ({"Wv", "bv"} if sample else set()) | (
        {"h0", "U", "b"} if gru else set()) | ({"b1"} if hidden else set())
    if (len(p) != len(names) or not need <= set(p) <= set(LATENT_INPUTS)
            or sample != ("Wv" in p) or gru != ("U" in p)):
        raise ValueError(f"latent_scan inputs unsupported: {names}")
    xu = p["xu"]
    n_rows, n_z = xu.shape[0], p["Wm"].shape[0]
    n_h = p["U"].shape[1] if gru else 0
    width = {"xu": xu.shape[1], "z": n_z, "h": n_h}
    prev = _prev_rows(spans, n_rows)
    n0 = spans[0][1]
    # The log-variance rows are halved (exactly, a power of two): the
    # loop clips half the log-variance and exponentiates it directly.
    M, m, F, f = _head_layers(p, 0.5)
    Fc = _col_blocks(F, head_in, width)
    # W with n_h zero rows appended, so that its products fill pre's
    # layout (see _gru_step) directly
    Wc = (_col_blocks(np.pad(p["W"], ((0, n_h), (0, 0))), gru_in, width)
          if gru else {})
    if (m.shape != (M.shape[0],) or f.shape != (F.shape[0],)
            or (hidden and M.shape[1] != F.shape[0])
            or (sample and p["eps"].shape != (n_rows, n_z))
            or (gru and (p["U"].shape != (3 * n_h, n_h)
                         or p["b"].shape != (3 * n_h,)
                         or p["h0"].shape != (n_h,)))):
        raise ValueError(f"latent_scan shapes unsupported: "
                         f"{[(k, p[k].shape) for k in names]}")

    cols = _latent_columns(n_h, n_z, sample)
    out = np.zeros((n_rows, cols["z_prev"].stop))
    H = out[:, cols["h"]] if gru else None
    Z = out[:, cols["z" if sample else "mean"]]
    # [mean, log_var] are adjacent output columns, which the head's output
    # layer fills at once; the log-variance columns hold half of it
    # before the clip until the loop ends.
    ML = out[:, cols["mean"].start:cols["mean"].start + M.shape[0]]
    PA = np.zeros((n_rows, F.shape[0])) if hidden else ML  # first layer
    FEAT = np.zeros_like(PA) if hidden else None
    A0 = _projection(xu, Fc, f)
    FzT, FhT = (np.ascontiguousarray(Fc[b].T) if b in Fc else None
                for b in ("z", "h"))
    MT = M.T
    if sample:
        eps = p["eps"]
        LVH = np.zeros((n_rows, n_z))   # half log-variance after the clip
        lv_lo, lv_hi = clip[0] * 0.5, clip[1] * 0.5
    if gru:
        # one product per step: the previous step's [h, z] output columns
        # times K give every recurrent term of the gates (see _gru_step)
        K = _gru_matrix(p["U"], Wc.get("z"))
        HZ = out[:, cols["h"].start:cols["h"].start + K.shape[0]]
        pre = _projection(xu, Wc, np.pad(p["b"], (0, n_h)))
        if "xu" not in Wc:  # a broadcast of b, which the loop adds into
            pre = pre.copy()
        blk = _first_block(p["h0"], n0, K)
    zp = np.zeros((n0, n_z))
    for t, (lo, hi) in enumerate(spans):
        if t:
            zp = Z[plo:plo + hi - lo]
            if gru:
                blk = HZ[plo:plo + hi - lo]
        if gru:
            _gru_step(blk, K, pre[lo:hi], H[lo:hi])
        ml = ML[lo:hi]
        if t or not pin_first:
            a = PA[lo:hi]
            if FzT is None:
                np.matmul(H[lo:hi], FhT, out=a)
            else:
                np.matmul(zp, FzT, out=a)
                if FhT is not None:
                    a += H[lo:hi] @ FhT
            a += A0[lo:hi]
            if hidden:
                np.matmul(np.tanh(a, out=FEAT[lo:hi]), MT, out=ml)
                ml += m
        if sample:
            lvh = np.maximum(ml[:, n_z:], lv_lo, out=LVH[lo:hi])
            np.minimum(lvh, lv_hi, out=lvh)
            z = np.exp(lvh, out=Z[lo:hi])
            z *= eps[lo:hi]
            z += ml[:, :n_z]
        plo = lo
    # every pre-activation that feeds a saturating function: the gates,
    # the hidden tanh layer and the log-variance clip (see _gru_scan)
    _check_finite("latent_scan", PA, ML, *((pre,) if gru else ()))
    if sample:
        np.multiply(LVH, 2.0, out=out[:, cols["log_var"]])
    out[n0:, cols["z_prev"]] = Z[prev]
    aux = dict(names=names, spans=spans, gru_in=gru_in, head_in=head_in,
               clip=clip, pin_first=pin_first, prev=prev, width=width, Wc=Wc,
               cols=cols, FEAT=FEAT,
               gru=(K, pre) if gru else None)
    return out, aux


def _latent_scan_vjp(g, vals, out, aux):
    p = dict(zip(aux["names"], vals))
    spans, prev, Wc, cols = aux["spans"], aux["prev"], aux["Wc"], aux["cols"]
    M, _, F, _ = _head_layers(p, 1.0)
    Fc = _col_blocks(F, aux["head_in"], aux["width"])
    FEAT = aux["FEAT"]
    sample, gru, hidden = "eps" in p, "W" in p, "W1" in p
    xu = p["xu"]
    n_rows, n_z = xu.shape[0], p["Wm"].shape[0]
    n0 = spans[0][1]
    n_h = p["U"].shape[1] if gru else 0
    H = out[:, cols["h"]] if gru else None

    G = {name: g[:, c] for name, c in cols.items()}
    # the adjoint of the [h, z] columns: dH and dZ are views of one
    # buffer, so a step's adjoint of [h_prev, z_prev] is one add
    zc = cols["z" if sample else "mean"]
    dHZ = np.array(g[:, zc.start - n_h:zc.stop])
    dH, dZ = dHZ[:, :n_h], dHZ[:, n_h:]
    if sample:
        lv_lo, lv_hi = aux["clip"]
        LV = out[:, cols["log_var"]]
        inside = (LV > lv_lo) & (LV < lv_hi)   # where the clip passes
        std = np.exp(LV * 0.5)
        dML = np.concatenate((G["mean"], G["log_var"] * inside), axis=1)
        k_lv = 0.5 * std * p["eps"] * inside    # d log_var / d z
    else:
        dML = dZ
    dZ[prev] += G["z_prev"][n0:]
    if hidden:  # starts as tanh' and becomes the adjoint row by row
        dA = FEAT * FEAT
        np.subtract(1.0, dA, out=dA)
    else:
        dA = dML
    Fz, Fh = Fc.get("z"), Fc.get("h")
    if gru:
        K, pre = aux["gru"]
        KT = np.ascontiguousarray(K.T)
        hp = _hprev(p["h0"], H, prev)
        ks, keep = _gru_factors(pre, hp)
        dS = np.empty((n_rows, 4, n_h))

    for t in range(len(spans) - 1, -1, -1):
        lo, hi = spans[t]
        dzp = None
        if t or not aux["pin_first"]:
            dml = dML[lo:hi]
            if sample:
                dz = dZ[lo:hi]
                dml[:, :n_z] += dz
                dml[:, n_z:] += dz * k_lv[lo:hi]
            da = dml
            if hidden:
                da = dA[lo:hi]
                da *= dml @ M
            if Fh is not None:
                dH[lo:hi] += da @ Fh
            if Fz is not None:
                dzp = da @ Fz
        else:   # the pinned first step ran no head
            dML[lo:hi] = 0.0
            dA[lo:hi] = 0.0
        if gru:
            d = _gru_step_vjp(dH[lo:hi], ks[lo:hi], keep[lo:hi], KT, dS[lo:hi])
        if t:
            plo = spans[t - 1][0]
            if gru:
                dHZ[plo:plo + hi - lo, :K.shape[0]] += d
            if dzp is not None:
                dZ[plo:plo + hi - lo] += dzp

    blocks = {"xu": xu, "z": out[:, cols["z_prev"]], "h": H}
    grads = {"xu": np.zeros_like(xu)}
    dF = np.concatenate([dA.T @ blocks[k] for k in aux["head_in"]], axis=1)
    df = dA.sum(axis=0)
    if hidden:
        grads["W1"], grads["b1"] = dF, df
        dF, df = dML.T @ FEAT, dML.sum(axis=0)
    grads["Wm"], grads["bm"] = dF[:n_z], df[:n_z]
    if sample:
        grads["Wv"], grads["bv"] = dF[n_z:], df[n_z:]
        grads["eps"] = dZ * std
    if "xu" in Fc:
        grads["xu"] += dA @ Fc["xu"]
    if gru:
        dS3 = dS[:, :3].reshape(n_rows, -1)     # the adjoint of W @ x + b
        grads["W"] = np.concatenate([dS3.T @ blocks[k] for k in aux["gru_in"]],
                                    axis=1)
        grads["U"] = _gru_dU(dS, hp)
        grads["b"] = dS3.sum(axis=0)
        grads["h0"] = d[:, :n_h].sum(axis=0)
        if "xu" in Wc:
            grads["xu"] += dS.reshape(n_rows, -1) @ Wc["xu"]
    return [grads[k] for k in aux["names"]]


_OPS = {
    "add": (_add, _add_vjp),
    "sub": (_sub, _sub_vjp),
    "mul": (_mul, _mul_vjp),
    "matmul": (_matmul, _matmul_vjp),
    "tanh": (_tanh, _tanh_vjp),
    "sigmoid": (_sigmoid, _sigmoid_vjp),
    "exp": (_exp, _exp_vjp),
    "log": (_log, _log_vjp),
    "softplus": (_softplus, _softplus_vjp),
    "sum": (_sum, _sum_vjp),
    "mean": (_mean, _mean_vjp),
    "concat": (_concat, _concat_vjp),
    "slice": (_slice, _slice_vjp),
    "broadcast": (_broadcast, _broadcast_vjp),
    "clip": (_clip, _clip_vjp),
    "affine": (_affine, _affine_vjp),
    "gauss_logpdf": (_gauss_logpdf, _gauss_logpdf_vjp),
    "gauss_kl": (_gauss_kl, _gauss_kl_vjp),
    "gru_scan": (_gru_scan, _gru_scan_vjp),
    "latent_scan": (_latent_scan, _latent_scan_vjp),
}

PRIMITIVES = tuple(_OPS)


def apply_primitive(op: str, *inputs, **kw) -> Tensor:
    """Apply one primitive, record it on the active tape if any.

    inputs are Tensors; kw carries the op's static arguments (slice
    bounds, concat axis, broadcast shape, clip range).  The result is
    checked for finiteness before it is returned.
    """
    entry = _OPS.get(op)
    if entry is None:
        raise ValueError(f"unknown primitive '{op}'")
    out, aux = entry[0](*[t.data for t in inputs], **kw)
    out = np.asarray(out, dtype=np.float64)
    _check_finite(op, out)

    result = Tensor.__new__(Tensor)
    result.data = out
    result.uid = next(_uid_counter)
    result.const = False
    result.tape = None
    result.node_id = None

    tape = _active_tape
    if tape is not None:
        pids = tuple([tape._leaf(t) for t in inputs])
        result.tape = tape
        result.node_id = tape._record(op, pids, out, aux, kw or None)
    return result


# module-level aliases
def tanh(t: Tensor) -> Tensor:
    return apply_primitive("tanh", t)


def sigmoid(t: Tensor) -> Tensor:
    return apply_primitive("sigmoid", t)


def exp(t: Tensor) -> Tensor:
    return apply_primitive("exp", t)


def log(t: Tensor) -> Tensor:
    return apply_primitive("log", t)


def softplus(t: Tensor) -> Tensor:
    return apply_primitive("softplus", t)


def concat(parts, axis: int = 0) -> Tensor:
    """The parts joined along axis; a single part is returned as is."""
    if len(parts) == 1:
        return parts[0]
    return apply_primitive("concat", *parts, axis=axis)


def broadcast_to(t: Tensor, shape) -> Tensor:
    return apply_primitive("broadcast", t, shape=tuple(shape))


def affine(W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("affine", W, x, b)


def gru_scan(U: Tensor, h0: Tensor, S: Tensor, spans) -> Tensor:
    """The stacked states of a GRU over packed rows S = W @ x + b."""
    return apply_primitive("gru_scan", U, h0, S, spans=tuple(spans))


def latent_scan(inputs: dict[str, Tensor], spans, gru_in, head_in, clip,
                pin_first=False) -> dict[str, Tensor]:
    """One latent chain over packed rows, as one tape node (see
    _latent_scan); inputs are keyed by LATENT_INPUTS names.  Returns its
    output column blocks: h (with a GRU), mean, log_var and z (with
    eps; without, z is the mean) and z_prev."""
    rows = apply_primitive(
        "latent_scan", *inputs.values(), names=tuple(inputs),
        spans=tuple(spans), gru_in=tuple(gru_in), head_in=tuple(head_in),
        clip=tuple(clip), pin_first=pin_first)
    n_h = inputs["U"].shape[1] if "U" in inputs else 0
    cols = _latent_columns(n_h, inputs["Wm"].shape[0], "eps" in inputs)
    out = {k: rows.slice(c.start, c.stop, axis=1) for k, c in cols.items()}
    out.setdefault("z", out["mean"])
    return out


def gauss_logpdf(x: Tensor, mean: Tensor, log_var: Tensor) -> Tensor:
    return apply_primitive("gauss_logpdf", x, mean, log_var)


def gauss_kl(q_mean: Tensor, q_log_var: Tensor,
             p_mean: Tensor, p_log_var: Tensor) -> Tensor:
    return apply_primitive("gauss_kl", q_mean, q_log_var, p_mean, p_log_var)


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar taped value w.r.t. every non-const leaf.

    Returns {leaf tensor uid: gradient array}, gradient shapes matching
    the leaves.  Raises TapeError if loss was not recorded on this tape
    and ValueError if it is not scalar.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise TapeError("loss is not a node on this tape")
    if loss.data.shape != ():
        raise ValueError("backward expects a scalar loss")

    ops, parents, values, aux = tape.ops, tape.parents, tape.values, tape.aux
    adj: list = [None] * len(ops)
    adj[loss.node_id] = np.ones((), dtype=np.float64)
    grads: dict[int, np.ndarray] = {}

    # Adjoints are never updated in place: a contribution may be a view
    # of another node's adjoint or of a taped value.
    for i in range(loss.node_id, -1, -1):
        g = adj[i]
        if g is None:
            continue
        adj[i] = None
        op = ops[i]
        if op == "leaf":
            uid, is_const = aux[i]
            if not is_const:
                grads[uid] = np.array(g, dtype=np.float64)
            continue
        ps = parents[i]
        contribs = _OPS[op][1](g, [values[p] for p in ps], values[i], aux[i])
        for pid, c in zip(ps, contribs):
            cur = adj[pid]
            adj[pid] = c if cur is None else cur + c
    return grads


def replay(tape: Tape) -> None:
    """Re-execute every node from recorded inputs; bit-exact or raises.

    Determinism check: the tape caches forward values, and rerunning
    the same kernels on the same inputs must reproduce them exactly.
    """
    for i, op in enumerate(tape.ops):
        if op == "leaf":
            continue
        vals = [tape.values[p] for p in tape.parents[i]]
        out, _ = _OPS[op][0](*vals, **(tape.kws[i] or {}))
        if not np.array_equal(np.asarray(out, dtype=np.float64), tape.values[i]):
            raise AssertionError(f"replay mismatch at node {i} ('{op}')")


# ---------------------------------------------------------------------------
# finite-difference verification


def grad_check(f, params, step: float = 1e-6) -> float:
    """Max relative error between reverse-mode and central differences.

    f maps a list of Tensors to a scalar Tensor.  Every coordinate of
    every param is perturbed by +-step; the relative error for one
    coordinate is |ad - cd| / (|cd| + 1e-12); the max over coordinates
    is returned.
    """
    with Tape() as tape:
        out = f(params)
    grads = backward(tape, out)

    worst = 0.0
    for k, p in enumerate(params):
        g = grads.get(p.uid, np.zeros_like(p.data))
        flat = p.data.ravel()
        for j in range(flat.size):
            orig = flat[j]

            def eval_at(v: float) -> float:
                probe = p.data.copy()
                probe.ravel()[j] = v
                trial = list(params)
                trial[k] = Tensor(probe)
                return f(trial).item()

            cd = (eval_at(orig + step) - eval_at(orig - step)) / (2.0 * step)
            ad = float(g.ravel()[j])
            err = abs(ad - cd) / (abs(cd) + 1e-12)
            worst = max(worst, err)
    return worst

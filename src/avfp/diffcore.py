"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive is one entry of the op table, name -> (forward, vjp).
The basic set is elementwise add/sub/mul (either operand may be 0-d),
matmul, tanh/sigmoid/exp/log/softplus, reductions sum (of all entries
or along a static axis) and mean, slice along a static axis, and a
hard clip.
Fused primitives with hand-written backward rules carry the model's
hot paths:

  affine        W @ x + b for each row x of a batch
  gauss_logpdf  log N(x; mean, diag(exp(log_var))), summed per row
  gauss_kl      KL between two diagonal Gaussians, summed per row
  gauss_bound   the evidence bound's per-row terms from a sampling
                scan's output: the emission head's log-density of the
                observations and the KL of the posterior against the
                transition-prior head, N(0, I) at the first step
  latent_scan   a whole latent chain over the rows of a time-major
                packed batch, given its weights and input rows: a GRU,
                a Gaussian head with its log-variance clip and the
                reparameterized sample, or either alone; its output
                column blocks (ScanRows) are sliced when first read

gauss_logpdf and gauss_kl also take one vector.  The scan steps only the
recurrence in its loop and backpropagates through time by hand,
forming every weight gradient with one product over all rows.  Inside
it each time step's values are one contiguous feature-major block,
(features, running rows), and a step's whole pre-activation (every
gate's W x + W_z z + U h + b, and the head's first layer on x and z) is
one product of the previous step's block [x; 1; h; z] with a matrix
built once per call, which the backward pass reuses along with the
gates that the forward pass keeps.  Its reset and update rows are
negated: a step divides by 1 + e^(-a), one exp and one add, where the
gates r, u = 1 / (1 + e^(-a)) would multiply.

Every primitive checks its result for NaN/Inf and raises instead of
propagating silently.  A Tape is an append-only record of primitive
applications; backward() walks it once in reverse and returns a map
from leaf-tensor uid to gradient, releasing each node's cached value
and aux as soon as the walk has passed it, so a walked tape is
consumed.  replay() re-runs every forward and demands bit-identical
values; it needs those cached values, so it belongs before backward().

Forward evaluation with no tape open is plain numpy and carries no
recording overhead; prediction and rollout paths use it, and it runs
every scan mode.  A tape records a scan with a head only sampling
unpinned from constant noise and exogenous rows, and gauss_bound only
on constant observations: the chains that training differentiates.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from contextlib import nullcontext

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
    """A C-contiguous float64 array, optionally taped.  Ops never write
    to data; Adam updates its group's parameters in place (training._pack).

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
        return apply_primitive("mul", self, _MINUS_ONE)

    def __matmul__(self, other):
        return apply_primitive("matmul", self, _lift(other))

    def sum(self, axis: int | None = None):
        return apply_primitive("sum", self, axis=axis)

    def mean(self):
        return apply_primitive("mean", self)

    def slice(self, start: int, stop: int, axis: int = 0):
        return apply_primitive("slice", self, start=start, stop=stop, axis=axis)

    def clip(self, lo: float, hi: float):
        return apply_primitive("clip", self, lo=lo, hi=hi)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, const=True)


_MINUS_ONE = Tensor(np.broadcast_to(-1.0, ()), const=True)   # read-only


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
    backward() consumes the tape, setting each op node's value and aux
    to None as it walks, so replay() comes before it.
    Leaves are enrolled lazily on first use and found again through the
    tape's own uid -> node map, so a leaf tensor never keeps a tape
    alive.  Entering the context makes the tape the active recorder;
    tapes may nest, the innermost one records.
    """

    __slots__ = ("ops", "parents", "values", "aux", "kws", "leaves", "walked",
                 "_prev", "__weakref__")

    def __init__(self):
        self.ops: list[str] = []
        self.parents: list[tuple[int, ...]] = []
        self.values: list[np.ndarray] = []
        self.aux: list = []
        self.kws: list[dict | None] = []
        self.leaves: dict[int, int] = {}
        self.walked = False   # whether backward() has dropped values

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

    def _record(self, op: str, inputs, value: np.ndarray, aux,
                kw: dict | None) -> int:
        """Append op's node on inputs, enrolling each new leaf; its id."""
        ops, parents, values, auxs, kws = (
            self.ops, self.parents, self.values, self.aux, self.kws)
        pids = []
        for t in inputs:
            if t.tape is self:
                pids.append(t.node_id)
                continue
            nid = self.leaves.get(t.uid)
            if nid is None:
                nid = self.leaves[t.uid] = len(ops)
                ops.append("leaf")
                parents.append(())
                values.append(t.data)
                auxs.append((t.uid, t.const))
                kws.append(None)
            pids.append(nid)
        ops.append(op)
        parents.append(tuple(pids))
        values.append(value)
        auxs.append(aux)
        kws.append(kw)
        return len(ops) - 1


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
# contribution per input (None for an input known to be constant).
# Neither may modify its arguments.


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


def _sum(x, axis=None):
    # all entries, or along one static axis
    if axis is not None and not 0 <= axis < x.ndim:
        raise ValueError(f"sum along axis {axis} of a {x.ndim}-d input")
    return x.sum(axis=axis), axis


def _sum_vjp(g, vals, out, aux):
    if aux is not None:   # g regains the summed axis, of length 1
        g = g.reshape(g.shape[:aux] + (1,) + g.shape[aux:])
    return (np.full(vals[0].shape, g),)


def _mean(x):
    return x.mean(), None


def _mean_vjp(g, vals, out, aux):
    return (np.full(vals[0].shape, g / vals[0].size),)


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
    quad = d * d * inv_var
    out = (quad.sum(-1) + log_var.sum(-1)) * -0.5 + (-0.5 * LN_2PI * x.shape[-1])
    return out, (d, inv_var, quad)


def _logpdf_adjoints(g, d, inv_var, quad):
    """gauss_logpdf's mean and log-variance adjoints from its aux, g the
    output adjoint with a trailing axis."""
    g_mean = g * d * inv_var
    return g_mean, (g * 0.5) * (quad - 1.0)


def _gauss_logpdf_vjp(g, vals, out, aux):
    g_mean, g_lv = _logpdf_adjoints(g[..., None], *aux)
    return -g_mean, g_mean, g_lv


def _gauss_kl(q_mean, q_log_var, p_mean, p_log_var):
    # one KL of vector Gaussians, or one per row of matrices
    if (not q_mean.shape == q_log_var.shape == p_mean.shape == p_log_var.shape
            or q_mean.ndim not in (1, 2)):
        raise ValueError("gauss_kl shape mismatch")
    diff_lv = q_log_var - p_log_var
    dm = q_mean - p_mean
    ratio = np.exp(diff_lv)
    inv_p = np.exp(-p_log_var)
    quad = dm * dm * inv_p
    inner = ratio + quad - 1.0 - diff_lv
    return inner.sum(axis=-1) * 0.5, (dm, ratio, inv_p, quad)


def _gauss_kl_vjp(g, vals, out, aux):
    dm, ratio, inv_p, quad = aux
    g = g[..., None]
    g_mean = g * dm * inv_p
    g_half = g * 0.5
    g_lv = g_half * (ratio - 1.0)
    return g_mean, g_lv, -g_mean, -g_lv - g_half * quad


def _gauss_head(p, head, z, hist, clip):
    """The Gaussian head named head ("pri." or "dec.") of p on rows [z,
    hist] (z alone without hist), as affine, tanh and clip compute it:
    its mean and log_var, and (input, tanh layer, clip mask or None when
    nothing is clipped) for the VJP."""
    inp = feat = z if hist is None else np.concatenate((z, hist), axis=1)
    if head + "W1" in p:
        pre = _affine(p[head + "W1"], inp, p[head + "b1"])[0]
        _check_finite("gauss_bound", pre)   # tanh would hide an overflow,
        feat = np.tanh(pre)
    lv, inside = _affine(p[head + "Wv"], feat, p[head + "bv"])[0], None
    lo, hi = clip
    if lv.size and not (lo < lv.min() and lv.max() < hi):   # NaN fails both
        _check_finite("gauss_bound", lv)    # and so would the clip
        inside = (lv > lo) & (lv < hi)
        lv = np.minimum(np.maximum(lv, lo), hi)
    return _affine(p[head + "Wm"], feat, p[head + "bm"])[0], lv, (inp, feat, inside)


def _head_vjp(p, head, inp, feat, inside, g_mean, g_lv, grads, fixed):
    """The adjoint of a head's input rows from those of its mean and
    clipped log-variance (see _gauss_head); its weights' go into grads,
    but for a layer whose weights and bias are both in fixed."""
    def back(layer, g, x):   # the adjoint of x through one affine layer
        W, b = head + "W" + layer, head + "b" + layer
        if W in fixed and b in fixed:
            return g @ p[W]
        grads[W], g_x, grads[b] = _affine_vjp(g, (p[W], x, None), None, None)
        return g_x

    g_feat = (back("v", g_lv if inside is None else g_lv * inside, feat)
              + back("m", g_mean, feat))
    if head + "W1" not in p:
        return g_feat
    return back("1", g_feat * (1.0 - feat * feat), inp)


# the input names gauss_bound takes: both heads' weights, each head with
# or without its hidden layer, and the prior's summaries "hist" or not
_BOUND_INPUTS = {
    frozenset(h + w for h in ("pri.", "dec.") for w in ("Wm", "bm", "Wv", "bv")
              + (("W1", "b1") if h in hidden else ())) | extra
    for hidden in ((), ("pri.",), ("dec.",), ("pri.", "dec."))
    for extra in (frozenset(), frozenset({"hist"}))}


def _gauss_bound(rows, x, *arrays, names, cols, first, clip, fixed):
    # For each row of a latent_scan output block rows, whose columns cols
    # are the posterior's mean and log_var, the sample z and z_prev: log
    # N(x; dec head) in row 0 of the output, KL(posterior || pri head) in
    # row 1.  The heads read z and z_prev, with the prior's summaries
    # "hist" if given; the first `first` rows (the first step) take N(0,
    # I) as their prior.  The inputs named in fixed are constants, which
    # get no adjoint.
    p = dict(zip(names, arrays))
    hist, n, n_z = p.get("hist"), len(rows), cols[0][1] - cols[0][0]
    if (len(p) != len(names) or frozenset(p) not in _BOUND_INPUTS
            or not 0 < first <= n or {b - a for a, b in cols} != {n_z}
            or min(cols)[0] < 0 or max(cols)[1] > rows.shape[1]
            # a prior head of one output would broadcast; gauss_logpdf and
            # _affine check the rest
            or {p["pri.Wm"].shape[0], p["pri.Wv"].shape[0]} != {n_z}):
        raise ValueError(f"gauss_bound inputs unsupported: {rows.shape}, "
                         f"{names}, {cols}, first {first}")
    q_mean, q_lv, z, z_prev = [rows[:, a:b] for a, b in cols]
    d_mean, d_lv, dec = _gauss_head(p, "dec.", z, hist, clip)
    p_mean, p_lv = np.zeros((2,) + q_mean.shape)
    p_mean[first:], p_lv[first:], pri = _gauss_head(
        p, "pri.", z_prev[first:], None if hist is None else hist[first:], clip)
    out = np.empty((2, n))
    out[0], lp_aux = _gauss_logpdf(x, d_mean, d_lv)
    out[1], kl_aux = _gauss_kl(q_mean, q_lv, p_mean, p_lv)
    return out, (names, cols, first, fixed, dec, pri, lp_aux, kl_aux)


def _gauss_bound_vjp(g, vals, out, aux):
    # no adjoint toward x, a constant
    names, cols, first, fixed, dec, pri, lp_aux, kl_aux = aux
    p, grads = dict(zip(names, vals[2:])), {}
    g_dec = _head_vjp(p, "dec.", *dec, *_logpdf_adjoints(g[0][:, None], *lp_aux),
                      grads, fixed)
    gq_mean, gq_lv, gp_mean, gp_lv = _gauss_kl_vjp(g[1], None, None, kl_aux)
    g_pri = _head_vjp(p, "pri.", *pri, gp_mean[first:], gp_lv[first:], grads,
                      fixed)
    n_z = gq_mean.shape[1]
    g_rows = np.zeros(vals[0].shape)
    for (a, b), c in zip(cols, (gq_mean, gq_lv, g_dec[:, :n_z])):
        g_rows[:, a:b] = c
    g_rows[first:, cols[3][0]:cols[3][1]] = g_pri[:, :n_z]
    if "hist" in p:
        grads["hist"] = np.zeros(p["hist"].shape)
        grads["hist"][first:] = g_pri[:, n_z:]
        grads["hist"] += g_dec[:, n_z:]
    return [g_rows, None] + [None if k in fixed else grads[k] for k in names]


# ---------------------------------------------------------------------------
# whole-sequence scans
#
# The scan runs over a time-major packed layout (objectives.Batch): each
# step holds one row per sequence still running, longest first, so the
# rows of a step continue the first rows of the step before.  The layout
# is given as its runs of steps of equal width, (first row, end row,
# width) each, in order and with strictly falling widths; _ScanParts
# checks them and derives back from them: the rows one step earlier of
# every row after the first step, as one block of rows per run.  Inside a
# scan every per-step value is stored feature-major: a step's block is a
# (features, width) array, and the steps of a run form one (steps,
# features, width) array, filled from and read back to the row-major
# inputs and outputs with one transposed copy per run.  A state block [x;
# 1; h; z] holds a step's outputs h and z and the next step's exogenous
# inputs x with a row of ones, so that a step's pre-activations are one
# product of the previous block with a matrix built once per call,
# biases riding on the ones row; the backward pass reads the same
# matrices.  Their reset and update rows are negated, giving -a, so a
# step divides by 1 + e^(-a) where the gates r, u = 1 / (1 + e^(-a))
# would multiply; where e^(-a) overflows (silently, under np.errstate)
# the division gives the gate's exact limit 0.  A run's first step reads
# the first width columns of the previous block.  What needs no recurrent
# state runs outside the step loops: the gate derivatives once per run,
# from the kept gates, and every weight gradient as one product over all
# rows.  A step indexes only views and scratch blocks bound once per run
# (and a tape's kept gates) and multiplies with a matrix's bound .dot
# into C-contiguous row blocks: the bits of np.matmul, at less cost per
# call than it or np.dot.  Its other calls take array operands (the +1
# and the clip read blocks filled once per call) and a positional out,
# both cheaper per call (np.maximum and np.minimum need out=).  One
# _ScanParts is a call's whole description, built by the forward pass
# and read by the backward pass as its aux.


def _run_rows(X, run):
    """The rows of one run (first row, end row, width) of a row-major
    array as a (steps, columns, width) view of it."""
    a, b, w = run
    return X[a:b].reshape(-1, w, X.shape[1]).transpose(0, 2, 1)


def _blocks(X, run):
    """One run's rows of X as contiguous step blocks."""
    return np.ascontiguousarray(_run_rows(X, run))


def _hprev(h0, H, back):
    """The state each row's step starts from: h0 at the first step."""
    hp = np.empty(H.shape)
    hp[:back[0][2]] = h0
    for a, e, w in back:
        hp[a + w:e + w] = H[a:e]
    return hp


def _col_blocks(M, order, width) -> dict:
    """The column blocks of M named in order, of the given widths."""
    if M.ndim != 2 or M.shape[1] != sum(width[k] for k in order):
        raise ValueError(f"scan: {M.shape} weights for input blocks "
                         f"{tuple(order)}")
    out, off = {}, 0
    for k in order:
        out[k] = M[:, off:off + width[k]]
        off += width[k]
    return out


class _ScanParts:
    """One scan call's description, and the only place its inputs are checked:
    its exogenous column blocks xs and its other inputs p by name, its flags
    and sizes, its layout (runs, checked, and back), its output columns
    (cols and hz_cols, see _scan_columns), the state layout and the step
    matrices.  The forward pass builds it and, for a call a tape records
    (headless, or sampling unpinned: see latent_scan), adds each run's step
    blocks of the GRU's gates [r; u; c; U_c h] and of the hidden layer
    (GATES, FEAT); the backward pass reads it as the tape's aux.

    A state block's rows are [x; 1; h; z]: rows[name] for "xu", "one",
    "h" and "z".  KT @ block (of the previous step) is a step's
    pre-activations, pre, with a GRU its reset and update gates' -a
    (those rows negated, exactly), its candidate's W x + b and U_c h
    (see _latent_scan), then, when the head reads x or z, its first
    layer on those blocks plus its bias.  Its part on h is Fh; a head
    that reads h alone is FhB = [f, F_h] on the block's [1; h] rows.  Mf
    = [M, m] maps [feat; 1] to [mean, log_var / 2] (without a hidden
    layer, it is F, f).  Wc and Fc are W's and F's column blocks.
    """

    def __init__(self, arrays, names, runs, gru_in, head_in, clip,
                 pin_first):
        n_xs = len(arrays) - len(names)
        xs, p = arrays[:n_xs], dict(zip(names, arrays[n_xs:]))
        head = bool(head_in)
        gru = "W" in p or not head
        sample, hidden = head and "eps" in p, head and "W1" in p
        need = ({"h0", "W", "U", "b"} if gru else set()) | (
            {"Wm", "bm"} if head else set()) | (
            {"eps", "Wv", "bv"} if sample else set()) | (
            {"W1", "b1"} if hidden else set())
        if (len(p) != len(names) or set(p) != need or sample and clip is None
                or pin_first and not sample
                or not set(gru_in) <= {"xu", "z"} or not head and gru_in != ("xu",)
                or not set(head_in) <= {"xu", "z", "h"}
                or "h" in head_in and not gru):
            raise ValueError(f"latent_scan inputs unsupported: {names}")
        n_rows = xs[0].shape[0] if xs and xs[0].ndim == 2 else -1
        ends = [0] + [b for _, b, _ in runs]
        if not runs or ends[-1] != n_rows or any(
                a != e or w < 1 or b - a < w or (b - a) % w
                or k and w >= runs[k - 1][2]
                for k, ((a, b, w), e) in enumerate(zip(runs, ends))):
            raise ValueError(f"runs do not pack {n_rows} rows time-major")
        # a row reaches back by its run's width from the run's second step
        # to the next run's first: rows a:e precede rows a + w:e + w
        self.runs = runs
        self.back = [(a, b + v - w, w) for (a, b, w), (*_, v)
                     in zip(runs, [*runs[1:], (0, 0, 0)])]
        n_h = p["U"].shape[-1] if gru and p["U"].ndim else 0
        n_z = p["Wm"].shape[0] if head and p["Wm"].ndim else 0
        n_feat = p["W1"].shape[0] if hidden else 0
        want = dict(h0=(n_h,), U=(3 * n_h, n_h), b=(3 * n_h,), b1=(n_feat,),
                    bm=(n_z,), bv=(n_z,), eps=(n_rows, n_z))
        if (any(x.ndim != 2 or x.shape[0] != n_rows for x in xs)
                or any(p[k].shape != s for k, s in want.items() if k in p)
                or gru and p["W"].shape[:1] != (3 * n_h,)
                or head and p["Wm"].ndim != 2
                or hidden and p["Wm"].shape[1] != n_feat
                or sample and p["Wv"].shape != p["Wm"].shape):
            raise ValueError(f"latent_scan shapes unsupported: "
                             f"{[x.shape for x in xs]}, "
                             f"{[(k, a.shape) for k, a in p.items()]}")
        self.xs, self.p, self.names, self.n_rows = xs, p, names, n_rows
        self.gru, self.head, self.sample, self.hidden = gru, head, sample, hidden
        self.gru_in, self.head_in = gru_in, head_in
        self.clip = clip
        self.n_h, self.n_z, self.n_feat = n_h, n_z, n_feat
        self.cols, self.hz_cols = _scan_columns(n_h, n_z, sample)
        self.GATES, self.FEAT = [], []
        n_x = sum(x.shape[1] for x in xs)
        width = {"xu": n_x, "h": n_h, "z": n_z}
        off = n_x + 1 + n_h
        rows = self.rows = {"xu": slice(0, n_x), "one": slice(n_x, n_x + 1),
                            "h": slice(n_x + 1, off), "z": slice(off, off + n_z)}
        off = self.n_state = off + n_z
        self.prev_in = [k for k in head_in if k != "h"]
        self.reads_h = "h" in head_in
        self.Wc = _col_blocks(p["W"], gru_in, width) if gru else {}
        self.Fc, self.n_a, self.Mf = {}, 0, None
        if head:
            # [M, m] gives [mean, log_var / 2] (no log-variance without eps)
            Mf = self.Mf = np.empty(((1 + sample) * n_z, p["Wm"].shape[1] + 1))
            Mf[:n_z, :-1], Mf[:n_z, -1] = p["Wm"], p["bm"]
            if sample:
                np.multiply(p["Wv"], 0.5, Mf[n_z:, :-1])
                np.multiply(p["bv"], 0.5, Mf[n_z:, -1])
            F, f = (p["W1"], p["b1"]) if hidden else (Mf[:, :-1], Mf[:, -1])
            self.Fc, self.n_a = _col_blocks(F, head_in, width), F.shape[0]
        self.Fh = self.FhB = None
        if self.reads_h:
            self.Fh = np.ascontiguousarray(self.Fc["h"])
            if not self.prev_in:
                self.FhB = np.concatenate((f[:, None], self.Fc["h"]), axis=1)
        n_pre = 4 * n_h + (self.n_a if self.prev_in else 0)
        KT = self.KT = np.zeros((n_pre, off))
        if gru:
            for k, Wk in self.Wc.items():
                KT[:3 * n_h, rows[k]] = Wk
            KT[:3 * n_h, rows["one"].start] = p["b"]
            KT[:2 * n_h, rows["h"]] = p["U"][:2 * n_h]
            KT[3 * n_h:4 * n_h, rows["h"]] = p["U"][2 * n_h:]
            KT[:2 * n_h] *= -1.0   # the gates' -a (see _latent_scan)
        for k in self.prev_in:
            KT[4 * n_h:, rows[k]] = self.Fc[k]
        if self.prev_in:
            KT[4 * n_h:, rows["one"].start] = f


def _gru_factors(gates, hp):
    """The gate derivatives of a run's steps, from its kept gates [r; u;
    c; U_c h], as (steps, 5, n, width) blocks [1 - u, kr, ku, kc, kh]:
    dh times them (repeated over the five) is the adjoint of h_prev
    through 1 - u and of pre's four gate blocks (see the step loop)."""
    n = hp.shape[1]
    ks = np.empty((gates.shape[0], 5, n, gates.shape[2]))
    keep, kr, ku, kc, kh = (ks[:, j] for j in range(5))
    r, u, c, uch = (gates[:, j * n:(j + 1) * n] for j in range(4))
    np.subtract(1.0, u, out=keep)
    np.subtract(c, hp, out=ku)
    ku *= u
    ku *= keep                                    # (c - h) u (1 - u)
    np.multiply(c, c, out=kc)
    np.subtract(1.0, kc, out=kc)
    kc *= u                                       # u (1 - c^2)
    np.multiply(kc, r, out=kh)                    # u (1 - c^2) r
    np.multiply(kh, uch, out=kr)
    kr *= 1.0 - r                                 # U_c h u (1 - c^2) r (1 - r)
    return ks


def _scan_columns(n_h: int, n_z: int, sample: bool):
    """The columns of each output block of a scan, in order, and the
    columns of its [h, z] blocks.  h sits right before the sample (the
    mean without noise), so that a step's [h, z] outputs are adjacent
    columns, as in the state block.  Blocks of zero width are left out:
    h without a GRU, and everything but h without a head (n_z = 0)."""
    blocks = [("mean", n_z), ("log_var", n_z)] if sample else []
    blocks += [("h", n_h), ("z" if sample else "mean", n_z), ("z_prev", n_z)]
    cols, off = {}, 0
    for name, w in blocks:
        if w:
            cols[name] = slice(off, off + w)
            off += w
    lead = 2 * n_z if sample else 0
    return cols, slice(lead, lead + n_h + n_z)


def _latent_scan(*arrays, names, runs, gru_in, head_in, clip, pin_first,
                 keep):
    # One latent chain over packed rows.  Per step, with z_prev the
    # previous sample of the same sequence (zeros at the first step):
    #   h       = GRU(h_prev, input blocks gru_in)  (if W is given, else
    #                                                  gru_in is ignored)
    #   feat    = tanh(W1 @ input blocks head_in + b1)   (the blocks, without W1)
    #   mean    = Wm @ feat + bm
    #   log_var = clip(Wv @ feat + bv)
    #   z       = mean + exp(log_var / 2) * eps          (mean, without eps)
    # The leading arrays are the column blocks of the exogenous rows, which
    # form the input block "xu" in their order; the others are the inputs
    # named in names.  The input blocks are "xu", "z" (z_prev) and "h".
    # Without head_in no head runs, the GRU is required, and h is the whole
    # output.  pin_first needs eps: the first step's mean and log_var are
    # 0, so its z is eps.  A step's product with the previous state block
    # gives the GRU's pre-activations and the head's first layer on xu and
    # z; the head's part on h reads the step's own block (see _ScanParts).
    # Only with keep do a run's gates and hidden layer outlive it, for the
    # backward, which serves the chains that latent_scan lets a tape record.
    sp = _ScanParts(arrays, names, runs, gru_in, head_in, clip, pin_first)
    p, runs = sp.p, sp.runs
    gru, head, sample, hidden = sp.gru, sp.head, sp.sample, sp.hidden
    n_h, n_z, n_hid, rows, KT = sp.n_h, sp.n_z, sp.n_feat, sp.rows, sp.KT
    hs, zs, a_rows = rows["h"], rows["z"], slice(4 * n_h, None)
    one_h = slice(rows["one"].start, hs.stop)
    prev_in, reads_h, cols = sp.prev_in, sp.reads_h, sp.cols
    out = np.zeros((sp.n_rows, max(c.stop for c in cols.values())))
    w0 = runs[0][2]
    if sample:
        # the log-variance rows of the head's output are halved (exactly, a
        # power of two): the loop clips half the log-variance, between
        # bounds filled once, and exponentiates it directly
        CLIP = np.empty((2, n_z * w0))
        CLIP[0], CLIP[1] = clip[0] * 0.5, clip[1] * 0.5
        eps = p["eps"]
    # the block the first step reads: x_0 (filled below), 1, h0 and z = 0
    blk = np.zeros((sp.n_state, w0))
    blk[rows["one"]] = 1.0
    if gru:
        blk[hs] = p["h0"][:, None]
        ones_buf = np.ones(2 * n_h * w0)   # the 1 of 1 + e^(-a)
    GATES, FEAT, kt_dot = sp.GATES, sp.FEAT, KT.dot
    tanh, add, subtract, divide, multiply = (
        np.tanh, np.add, np.subtract, np.divide, np.multiply)
    # np_exp: the name exp is the module's exp primitive
    np_exp, copyto, maximum, minimum = np.exp, np.copyto, np.maximum, np.minimum
    fh_dot = (sp.Fh if prev_in else sp.FhB).dot if reads_h else None
    mf_dot = sp.Mf.dot if hidden else None
    # one pre-activation block for every run: the check reads it per run
    pre_buf = np.empty(max(b - a for a, b, _ in runs) * KT.shape[0])
    with np.errstate(over="ignore") if gru else nullcontext():
        for k, run in enumerate(runs):
            a, b, w = run
            s = (b - a) // w
            # the kept blocks first: the run's others are then freed above them
            if keep and gru:   # the gates [r; u; c; U_c h] of each step
                G = np.empty((s, 4 * n_h, w))
            if hidden:
                FE = np.zeros((s, n_hid + 1, w))
            S = np.empty((s, sp.n_state, w))
            S[:, rows["one"]] = 1.0
            off = 0
            for x in sp.xs:    # each step's inputs go into the block before it
                c = x.shape[1]
                blk[off:off + c, :w] = x[a:a + w].T
                if s > 1:
                    copyto(S[:-1, off:off + c], _run_rows(x, (a + w, b, w)))
                off += c
            pre = pre_buf[:(b - a) * KT.shape[0]].reshape(s, KT.shape[0], w)
            checked = [pre]
            # each step below indexes these views and scratch blocks only
            H, Z = S[:, hs], S[:, zs]
            if gru:
                PRU, PC = pre[:, :2 * n_h], pre[:, 2 * n_h:3 * n_h]
                PUC, RUC = pre[:, 3 * n_h:4 * n_h], np.empty((n_h, w))
                if keep:
                    GRU, GR = G[:, :2 * n_h], G[:, :n_h]
                    GU, GC = G[:, n_h:2 * n_h], G[:, 2 * n_h:3 * n_h]
                else:
                    RU = np.empty((2 * n_h, w))
                    R, U = RU[:n_h], RU[n_h:]
                ONE = ones_buf[:2 * n_h * w].reshape(2 * n_h, w)
                hp = blk[hs, :w]
            # the steps before `first` run no head: all without one, and the
            # pinned first step, whose sample is its noise (N(0, I))
            first = int(pin_first and not k) if head else s
            if head:
                if prev_in:
                    A_run = pre[:, a_rows]
                    if reads_h:
                        FHH = np.empty((sp.n_a, w))
                else:
                    A_run = np.zeros((s, sp.n_a, w))
                    checked.append(A_run)
                    OH = S[:, one_h]
                ML = A_run
                if hidden:
                    FE[:, n_hid] = 1.0
                    HID = FE[:, :n_hid]
                    if keep:
                        FEAT.append(FE)
                    if sample:
                        ML = np.zeros((s, 2 * n_z, w))
                        checked.append(ML)
                    ML_out = ML if sample else Z
                if sample:
                    E = _blocks(eps, run)
                    LVH = np.zeros((s, n_z, w))   # half log-variance, clipped
                    LO, HI = CLIP[:, :n_z * w].reshape(2, n_z, w)
                    MEAN, HLV = ML[:, :n_z], ML[:, n_z:]
                    if first:
                        Z[0] = E[0]
            inp = blk[:, :w]
            for i in range(s):
                kt_dot(inp, pre[i])
                if gru:   # gates [reset; update; cand], h = hp + u (c - hp)
                    h = H[i]
                    if keep:
                        RU, R, U, c = GRU[i], GR[i], GU[i], GC[i]
                    else:
                        c = h
                    np_exp(PRU[i], RU)
                    add(RU, ONE, RU)    # 1 / r and 1 / u
                    pc = PC[i]
                    divide(PUC[i], R, RUC)
                    add(pc, RUC, pc)    # the candidate's pre-activation
                    tanh(pc, c)
                    subtract(c, hp, h)
                    divide(h, U, h)
                    add(h, hp, h)
                    hp = h
                if i >= first:
                    a_t = A_run[i]
                    if not prev_in:
                        fh_dot(OH[i], a_t)
                    elif reads_h:
                        fh_dot(H[i], FHH)
                        add(a_t, FHH, a_t)
                    if hidden:
                        tanh(a_t, HID[i])
                        mf_dot(FE[i], ML_out[i])
                    elif not sample:
                        copyto(Z[i], a_t)
                    if sample:
                        lvh = maximum(HLV[i], LO, out=LVH[i])
                        minimum(lvh, HI, out=lvh)
                        z = np_exp(lvh, Z[i])
                        multiply(z, E[i], z)
                        add(z, MEAN[i], z)
                inp = S[i]
            blk = inp
            # every pre-activation that feeds a saturating function: the
            # gates, the head's hidden tanh layer and the log-variance clip.
            # An overflow there would leave a finite output, and every input
            # entry a step reads reaches pre.
            _check_finite("latent_scan", *checked)
            if keep and gru:   # r, u; U_c h, contiguous, stands in for pre
                np.reciprocal(GRU, out=GRU)
                np.copyto(G[:, 3 * n_h:], PUC)
                GATES.append(G)
            np.copyto(_run_rows(out[:, sp.hz_cols], run), S[:, hs.start:])
            if sample:
                np.copyto(_run_rows(out[:, cols["mean"]], run), ML[:, :n_z])
                np.multiply(LVH, 2.0, out=_run_rows(out[:, cols["log_var"]], run))
    if head:
        if pin_first:
            out[:w0, cols["mean"].start:cols["log_var"].stop] = 0.0
        zp, zc = cols["z_prev"], cols["z" if sample else "mean"]
        for a, e, w in sp.back:
            out[a + w:e + w, zp] = out[a:e, zc]
    return out, sp


def _latent_scan_vjp(g, vals, out, sp):
    # sp is the forward's _ScanParts: its inputs split as xs and p are vals.
    # A taped scan with a head samples unpinned from constant eps and xs
    # (see latent_scan); constant weights get adjoints, which backward drops.
    xs, p, runs, back, cols = sp.xs, sp.p, sp.runs, sp.back, sp.cols
    GATES, FEAT, n_rows = sp.GATES, sp.FEAT, sp.n_rows
    gru, head, hidden = sp.gru, sp.head, sp.hidden
    n_h, n_z, prev_in, reads_h = sp.n_h, sp.n_z, sp.prev_in, sp.reads_h
    a_rows = slice(5 * n_h, None)    # after the (1 - u) dh block and the gates
    # Kin maps a step's adjoint blocks [(1 - u) dh; d pre] to those of the
    # [h; z] rows of the block it read: the identity block passes (1 - u)
    # dh on to h_prev, and KT's h and z columns take d pre back
    Kin = np.zeros((n_h + n_z, n_h + sp.KT.shape[0]))
    Kin[:, n_h:] = sp.KT[:, sp.rows["h"].start:].T
    if gru:
        np.fill_diagonal(Kin[:, :n_h], 1.0)
        Kin[:, n_h:3 * n_h] *= -1.0   # d a of KT's negated gate rows
    kin_dot, add, multiply, copyto = Kin.dot, np.add, np.multiply, np.copyto
    if hidden:
        mt_dot = np.ascontiguousarray(sp.Mf[:, :-1].T).dot
    if reads_h:
        fht_dot = np.ascontiguousarray(sp.Fh.T).dot

    # the adjoint of each step's [h; z] outputs, run by run; a z_prev
    # row's goes to the previous row of its sequence (see back)
    DHZ = [_blocks(g[:, sp.hz_cols], run) for run in runs]
    if gru:
        H = out[:, cols["h"]]
        hp = _hprev(p["h0"], H, back)
    if head:
        zp = g[:, cols["z_prev"]]
        for k, (a, b, w) in enumerate(runs):
            DHZ[k][:-1, n_h:] += _run_rows(zp, (a + w, b, w))
            if k:   # the first step follows the previous run's last
                DHZ[k - 1][-1, n_h:, :w] += zp[a:a + w].T
        # the head's output is [mean, log_var / 2], as in the forward pass,
        # so the log-variance adjoints are doubled (exactly)
        lv_lo, lv_hi = sp.clip
        LV = out[:, cols["log_var"]]
        inside = (LV > lv_lo) & (LV < lv_hi)   # where the clip passes
        dML = np.concatenate((g[:, cols["mean"]],
                              2.0 * g[:, cols["log_var"]] * inside), axis=1)
        # d z / d [mean, log_var / 2], which the loop multiplies by dz
        k_z = np.concatenate(
            (np.ones_like(LV), np.exp(LV * 0.5) * p["eps"] * inside), axis=1)
    dS = np.empty((n_rows, Kin.shape[1]))
    if head and not prev_in:
        dA = np.empty((n_rows, sp.n_a))
    if hidden:
        feat = np.empty((n_rows, FEAT[0].shape[1]))
    for k in range(len(runs) - 1, -1, -1):
        run = runs[k]
        a, b, w = run
        s = (b - a) // w
        DHZk = DHZ[k]
        ds = np.zeros((s, dS.shape[1], w))
        if gru:
            ks = _gru_factors(GATES[k], _run_rows(hp, run))
            ds5 = ds[:, :5 * n_h].reshape(s, 5, n_h, w)
        if head:
            DA = ds[:, a_rows] if prev_in else np.zeros((s, sp.n_a, w))
            if hidden:
                D = np.square(FEAT[k][:, :-1])
                np.subtract(1.0, D, out=D)         # tanh'
            if reads_h:
                FHD = np.empty((n_h, w))
            DML = _blocks(dML, run)
            KZ = _blocks(k_z, run).reshape(s, 2, n_z, w)
            KZD = np.empty((2 * n_z, w))   # KZ[i] * dz, also in KZ's shape
            KZD2 = KZD.reshape(2, n_z, w)
        # each step below indexes these views and scratch blocks only
        DH, DZ = DHZk[:, :n_h], DHZk[:, n_h:]
        d = np.empty((Kin.shape[0], w))   # the [h; z] adjoints a step passes
        for i in range(s - 1, -1, -1):
            dh = DH[i]
            if head:
                dml = DML[i]
                multiply(KZ[i], DZ[i], KZD2)
                add(dml, KZD, dml)
                da = DA[i]
                if hidden:
                    mt_dot(dml, da)
                    multiply(da, D[i], da)
                else:
                    copyto(da, dml)
                if reads_h:
                    fht_dot(da, FHD)
                    add(dh, FHD, dh)
            if gru:
                multiply(ks[i], dh, ds5[i])
            kin_dot(ds[i], d)
            if i:
                add(DHZk[i - 1], d, DHZk[i - 1])
        if k:
            DHZ[k - 1][-1][:, :w] += d
        np.copyto(_run_rows(dS, run), ds)
        if head and not prev_in:
            np.copyto(_run_rows(dA, run), DA)
        if hidden:
            np.copyto(_run_rows(dML, run), DML)
            np.copyto(_run_rows(feat, run), FEAT[k])
        # free this run's blocks before the next run's are made
        ds = ds5 = ks = DA = D = DML = KZ = None

    named = {"z": out[:, cols["z_prev"]] if head else None,
             "h": H if gru else None}

    def inputs(order):   # the input rows of the blocks in order
        return [x for key in order for x in (xs if key == "xu" else [named[key]])]

    dpre = dS[:, n_h:]
    grads = {}
    if gru:
        dg = dpre[:, :3 * n_h]
        grads["W"] = np.concatenate([dg.T @ x for x in inputs(sp.gru_in)],
                                    axis=1)
        grads["U"] = np.concatenate((dpre[:, :2 * n_h].T @ hp,
                                     dpre[:, 3 * n_h:4 * n_h].T @ hp))
        grads["b"] = dg.sum(axis=0)
        grads["h0"] = d[:n_h].sum(axis=1)
    if head:
        if prev_in:
            dA = dpre[:, 4 * n_h:]
        dF = np.concatenate([dA.T @ x for x in inputs(sp.head_in)], axis=1)
        df = dA.sum(axis=0)
        if hidden:
            grads["W1"], grads["b1"] = dF, df
            dMf = dML.T @ feat
            dF, df = dMf[:, :-1], dMf[:, -1]
        grads["Wm"], grads["bm"] = dF[:n_z], df[:n_z]
        # back from half log-variance units, exactly
        grads["Wv"], grads["bv"] = dF[n_z:] * 0.5, df[n_z:] * 0.5
    dxs = [None] * len(xs)
    if not head:   # its GRU reads the rows as one block
        dxs = np.split(dpre[:, :3 * n_h] @ sp.Wc["xu"],
                       np.cumsum([x.shape[1] for x in xs[:-1]]), axis=1)
    return dxs + [grads.get(k) for k in sp.names]


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
    "slice": (_slice, _slice_vjp),
    "clip": (_clip, _clip_vjp),
    "affine": (_affine, _affine_vjp),
    "gauss_logpdf": (_gauss_logpdf, _gauss_logpdf_vjp),
    "gauss_kl": (_gauss_kl, _gauss_kl_vjp),
    "gauss_bound": (_gauss_bound, _gauss_bound_vjp),
    "latent_scan": (_latent_scan, _latent_scan_vjp),
}

PRIMITIVES = tuple(_OPS)


def apply_primitive(op: str, *inputs, **kw) -> Tensor:
    """Apply one primitive, record it on the active tape if any.

    inputs are Tensors; kw carries the op's static arguments (a sum's
    axis, slice bounds, clip range, a fused op's layout).  The result is
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
    tape = result.tape = _active_tape
    result.node_id = (None if tape is None
                      else tape._record(op, inputs, out, aux, kw or None))
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


def affine(W: Tensor, x: Tensor, b: Tensor) -> Tensor:
    return apply_primitive("affine", W, x, b)


class ScanRows(Mapping):
    """A latent_scan's output node rows by column block: h (with a GRU),
    mean, log_var and z (with eps; without, z is the mean) and z_prev;
    without a head, h alone, the node itself.  A block is sliced when
    first read (untaped for an untaped scan), so a tape records only the
    blocks that something reads."""

    def __init__(self, rows: Tensor, cols: dict[str, slice]):
        self.rows, self.cols, self._read = rows, cols, {}

    def __getitem__(self, name: str) -> Tensor:
        c = self.cols[name]
        if c.stop - c.start == self.rows.shape[1]:
            return self.rows
        if c.start not in self._read:
            with no_tape() if self.rows.tape is None else nullcontext():
                self._read[c.start] = self.rows.slice(c.start, c.stop, axis=1)
        return self._read[c.start]

    def __iter__(self):
        return iter(self.cols)

    def __len__(self) -> int:
        return len(self.cols)


def latent_scan(xs, params: dict[str, Tensor], runs, gru_in, head_in=(),
                clip=None, pin_first=False) -> ScanRows:
    """One latent chain over packed rows, as one tape node (see
    _latent_scan): xs lists the column blocks of the exogenous rows,
    params holds the other inputs by name, and runs the rows' layout as
    runs of steps of equal width (see objectives.Batch).  A tape records
    a scan with a head only unpinned, sampling with constant eps from
    constant rows xs; a headless scan's rows may take gradients."""
    taped, eps = _active_tape is not None, params.get("eps")
    if taped and head_in and (pin_first or eps is None or not eps.const
                              or not all(x.const for x in xs)):
        raise ValueError("a taped latent_scan with a head needs constant eps "
                         "and exogenous rows, and no pinned first step")
    rows = apply_primitive(
        "latent_scan", *xs, *params.values(), names=tuple(params),
        runs=tuple(runs), gru_in=tuple(gru_in), head_in=tuple(head_in),
        clip=clip if clip is None else tuple(clip), pin_first=pin_first,
        keep=taped)
    n_h = params["U"].shape[1] if "U" in params else 0
    n_z = params["Wm"].shape[0] if head_in else 0
    cols, _ = _scan_columns(n_h, n_z, "eps" in params)
    if "mean" in cols:
        cols.setdefault("z", cols["mean"])
    return ScanRows(rows, cols)


def gauss_logpdf(x: Tensor, mean: Tensor, log_var: Tensor) -> Tensor:
    return apply_primitive("gauss_logpdf", x, mean, log_var)


def gauss_kl(q_mean: Tensor, q_log_var: Tensor,
             p_mean: Tensor, p_log_var: Tensor) -> Tensor:
    return apply_primitive("gauss_kl", q_mean, q_log_var, p_mean, p_log_var)


def gauss_bound(scan: ScanRows, x: Tensor, heads: dict[str, Tensor],
                hist: Tensor | None, first: int, clip) -> Tensor:
    """log N(x; dec head) and KL(posterior || pri head) of each row of a
    sampling scan's output as the two rows of one node (_gauss_bound);
    heads holds the "pri." and "dec." weights, hist the prior's summaries;
    a constant among them gets no adjoint, nor does x, constant if taped."""
    if _active_tape is not None and not x.const:
        raise ValueError("a taped gauss_bound needs constant observations x")
    inputs = heads if hist is None else {"hist": hist, **heads}
    cols = tuple((scan.cols[k].start, scan.cols[k].stop)
                 for k in ("mean", "log_var", "z", "z_prev"))
    return apply_primitive("gauss_bound", scan.rows, x, *inputs.values(),
                           names=tuple(inputs), cols=cols, first=first,
                           clip=tuple(clip), fixed=frozenset(
                               k for k, t in inputs.items() if t.const))


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Gradients of a scalar taped value w.r.t. every non-const leaf.

    Returns {leaf tensor uid: gradient array}, gradient shapes matching
    the leaves.  Raises TapeError if loss was not recorded on this tape
    and ValueError if it is not scalar.

    The walk consumes the tape: it drops each node's value and aux once
    the node's VJP has run, or as soon as it reaches a node with no
    adjoint, so the adjoints never pile up on top of the whole forward
    record.  The ops, parents, kws and leaves stay, so len(tape) does
    not change.  replay() belongs before backward(); a later backward()
    on the same tape first re-runs the recorded forward to rebuild what
    the earlier walk dropped.
    """
    if loss.tape is not tape or loss.node_id is None:
        raise TapeError("loss is not a node on this tape")
    if loss.data.shape != ():
        raise ValueError("backward expects a scalar loss")

    ops, parents, values, aux = tape.ops, tape.parents, tape.values, tape.aux
    if tape.walked:   # rebuild what a past walk dropped
        for i, value in enumerate(values):
            if value is None:
                values[i], aux[i] = _forward(tape, i)
    tape.walked = True
    adj: list = [None] * len(ops)
    adj[loss.node_id] = np.ones((), dtype=np.float64)
    grads: dict[int, np.ndarray] = {}

    # Adjoints are never updated in place: a contribution may be a view
    # of another node's adjoint or of a taped value.  A node's value is
    # read only by its own VJP and its consumers', which come later on
    # the tape, so it can go once the walk has passed it.
    for i in range(loss.node_id, -1, -1):
        g, adj[i] = adj[i], None
        op = ops[i]
        if op == "leaf":
            uid, is_const = aux[i]
            if g is not None and not is_const:
                grads[uid] = np.array(g, dtype=np.float64)
            continue
        if g is not None:
            ps = parents[i]
            contribs = _OPS[op][1](g, [values[p] for p in ps], values[i],
                                   aux[i])
            for pid, c in zip(ps, contribs):
                if c is not None:   # None: no adjoint toward a constant
                    cur = adj[pid]
                    adj[pid] = c if cur is None else cur + c
        values[i] = aux[i] = None
    return grads


def _forward(tape: Tape, i: int) -> tuple[np.ndarray, object]:
    """Node i's forward value and aux, recomputed from its parents."""
    out, aux = _OPS[tape.ops[i]][0](*[tape.values[p] for p in tape.parents[i]],
                                    **(tape.kws[i] or {}))
    return np.asarray(out, dtype=np.float64), aux


def replay(tape: Tape) -> None:
    """Re-execute every node from recorded inputs; bit-exact or raises.

    Determinism check: the tape caches forward values, and rerunning
    the same kernels on the same inputs must reproduce them exactly.
    It needs those cached values, which backward() drops as it walks,
    so it raises TapeError on a tape that has been walked.
    """
    if tape.walked:
        raise TapeError("replay needs the forward values that backward "
                        "releases; replay the tape before walking it")
    for i, op in enumerate(tape.ops):
        if op == "leaf":
            continue
        if not np.array_equal(_forward(tape, i)[0], tape.values[i]):
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
        g = grads[p.uid] if p.uid in grads else np.zeros_like(p.data)
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

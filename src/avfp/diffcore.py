"""Dense float64 tensors with tape-based reverse-mode differentiation.

Every primitive is one entry of the op table, name -> (forward, vjp).
The basic set is elementwise add/sub/mul (either operand may be 0-d),
matmul, tanh/sigmoid/exp/log/softplus, full reductions sum/mean,
concat along a static axis, slice of the leading axis, broadcast, and a
hard clip.  Four fused primitives with hand-written backward rules carry
the model's hot paths.  affine and gru_cell take a batch of rows; the
Gaussian ops take a batch of rows or one vector:

  affine        W @ x + b for each row x
  gru_cell      one gated recurrent update per row, gates packed
                [reset; update; cand]: one W @ x + b and one U @ h
  gauss_logpdf  log N(x; mean, diag(exp(log_var))), summed per row
  gauss_kl      KL between two diagonal Gaussians, summed per row

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

    def slice(self, start: int, stop: int):
        return apply_primitive("slice", self, start=start, stop=stop)

    def clip(self, lo: float, hi: float):
        return apply_primitive("clip", self, lo=lo, hi=hi)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x, const=True)


def constant(x) -> Tensor:
    """Tensor excluded from gradient maps (inputs, noise, targets)."""
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


def _slice(x, start, stop):
    # rows start:stop of the leading axis
    if x.ndim == 0:
        raise ValueError("slice of a 0-d input")
    if not (0 <= start <= stop <= x.shape[0]):
        raise ValueError(f"slice [{start}:{stop}] out of range for {x.shape}")
    return x[start:stop].copy(), (start, stop)


def _slice_vjp(g, vals, out, aux):
    s, e = aux
    gx = np.zeros_like(vals[0])
    gx[s:e] = g
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


def _gru_cell(W, U, b, h, x):
    # a row batch of states h (B, n) with inputs x (B, m)
    n = h.shape[1] if h.ndim == 2 else 0
    if (n == 0 or x.ndim != 2 or x.shape[0] != h.shape[0]
            or W.shape != (3 * n, x.shape[1]) or U.shape != (3 * n, n)
            or b.shape != (3 * n,)):
        raise ValueError(
            f"gru_cell shapes unsupported: W {W.shape}, U {U.shape}, "
            f"b {b.shape}, h {h.shape}, x {x.shape}")
    s = x @ W.T + b
    t = h @ U.T
    tc = t[:, 2 * n:]
    pre_ru = s[:, :2 * n] + t[:, :2 * n]
    ru = expit(pre_ru)
    r, u = ru[:, :n], ru[:, n:]
    pre_c = s[:, 2 * n:] + r * tc
    # The gates saturate, so an overflow in W @ x + b or U @ h would leave
    # a finite output.  Every entry of both reaches pre_ru or pre_c, and
    # a NaN/Inf there stays NaN/Inf (r > 0, or r * inf is NaN), so this
    # check also covers them.
    _check_finite("gru_cell", pre_ru, pre_c)
    c = np.tanh(pre_c)
    return (1.0 - u) * h + u * c, (r, u, c, tc)


def _gru_cell_vjp(g, vals, out, aux):
    W, U, _, h, x = vals
    r, u, c, tc = aux
    d_pre_c = g * u * (1.0 - c * c)
    d_pre_r = d_pre_c * tc * r * (1.0 - r)
    d_pre_u = g * (c - h) * u * (1.0 - u)
    ds = np.concatenate((d_pre_r, d_pre_u, d_pre_c), axis=1)
    dt = np.concatenate((d_pre_r, d_pre_u, d_pre_c * r), axis=1)
    return (ds.T @ x, dt.T @ h, ds.sum(axis=0),
            g * (1.0 - u) + dt @ U, ds @ W)


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
    "gru_cell": (_gru_cell, _gru_cell_vjp),
    "gauss_logpdf": (_gauss_logpdf, _gauss_logpdf_vjp),
    "gauss_kl": (_gauss_kl, _gauss_kl_vjp),
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


def gru_cell(W: Tensor, U: Tensor, b: Tensor, h: Tensor, x: Tensor) -> Tensor:
    return apply_primitive("gru_cell", W, U, b, h, x)


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

"""Tape, primitives, backward pass, and finite-difference agreement."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from avfp import diffcore as dc
from avfp.diffcore import (
    NonFiniteError,
    Tape,
    TapeError,
    Tensor,
    apply_primitive,
    backward,
    grad_check,
    no_tape,
    replay,
)


def test_tensor_is_float64_contiguous():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)


def test_tensor_rejects_nonfinite():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.inf])
    with pytest.raises(NonFiniteError):
        Tensor([np.nan])


def test_forward_values_pinned():
    # fixed reference points for the nonlinearities
    assert dc.sigmoid(Tensor(0.0)).item() == 0.5
    sp = dc.softplus(Tensor(-30.0)).item()
    assert 0.0 < sp <= 1e-12
    assert dc.softplus(Tensor(0.0)).item() == pytest.approx(np.log(2.0), abs=1e-15)
    assert dc.tanh(Tensor(0.0)).item() == 0.0


def test_softplus_no_overflow():
    big = dc.softplus(Tensor([800.0, -800.0]))
    assert big.data[0] == 800.0
    assert big.data[1] == 0.0


def test_add_shape_mismatch_raises():
    with pytest.raises(ValueError):
        apply_primitive("add", Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


def test_log_domain_error():
    with pytest.raises(ValueError):
        dc.log(Tensor([1.0, 0.0]))


def test_overflow_is_loud():
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            dc.exp(Tensor(1000.0))


def test_scalar_broadcast_sugar():
    t = Tensor([1.0, 2.0, 3.0])
    assert np.allclose((t * 2.0).data, [2.0, 4.0, 6.0])
    assert np.allclose((1.0 - t).data, [0.0, -1.0, -2.0])
    assert np.allclose((-t).data, [-1.0, -2.0, -3.0])


@pytest.mark.parametrize("op", ["+", "-", "*"])
@pytest.mark.parametrize("scalar_first", [False, True])
def test_scalar_operand_gradcheck(op, scalar_first):
    rng = np.random.default_rng(17)
    params = [Tensor(np.array(rng.uniform(0.5, 1.5))),
              Tensor(rng.uniform(0.5, 1.5, 5))]
    if scalar_first:
        params.reverse()
    binop = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
             "*": lambda a, b: a * b}[op]
    w = dc.constant(rng.uniform(0.5, 1.5, 5))

    def f(ps):
        return (binop(ps[0], ps[1]) * w).sum()

    assert grad_check(f, params) < 1e-6
    with Tape() as tape:
        out = f(params)
    grads = backward(tape, out)
    assert {p.uid: grads[p.uid].shape for p in params} == \
        {p.uid: p.shape for p in params}


def test_scalar_operand_records_no_broadcast():
    t = dc.parameter([1.0, 2.0, 3.0])
    with Tape() as tape:
        out = t * 2.0
        loss = (1.0 - out).sum()
    assert tape.ops.count("leaf") == 3  # t and the two lifted scalars
    assert backward(tape, loss)[t.uid].tolist() == [-2.0, -2.0, -2.0]


def test_matmul_shapes():
    a = Tensor(np.arange(6.0).reshape(2, 3))
    v = Tensor([1.0, 1.0, 1.0])
    assert (a @ v).shape == (2,)
    b = Tensor(np.ones((3, 4)))
    assert (a @ b).shape == (2, 4)
    assert (v @ v).shape == ()
    with pytest.raises(ValueError):
        _ = a @ Tensor(np.ones((2, 2)))


def test_no_tape_means_no_recording():
    x = Tensor([1.0, 2.0])
    y = dc.tanh(x)
    assert y.tape is None and y.node_id is None


def test_negation_factor_is_read_only():
    """Every negation multiplies by one shared -1 constant, so a write to
    it (or to the value a tape keeps for it) must raise, not change every
    later negation."""
    x = Tensor(np.array([1.0, -2.0]))
    with Tape() as tape:
        y = -x
    with pytest.raises(ValueError, match="read-only"):
        tape.values[tape.leaves[dc._MINUS_ONE.uid]][...] = 2.0
    assert np.array_equal((-x).data, y.data) and np.array_equal(y.data,
                                                                [-1.0, 2.0])


def test_tape_records_and_leaf_memoizes():
    p = Tensor([1.0, 2.0])
    with Tape() as tape:
        y = (p * p).sum()
        z = (p + p).sum()
        _ = y + z
    leaf_nodes = [i for i, op in enumerate(tape.ops) if op == "leaf"]
    assert len(leaf_nodes) == 1  # p enrolled once
    replay(tape)


def test_no_tape_context_suspends_recording():
    p = Tensor([1.0])
    with Tape() as tape:
        a = p * 2.0
        with no_tape():
            b = p * 3.0
        assert b.tape is None
    assert a.tape is tape


def test_backward_simple_chain():
    p = Tensor([1.0, -2.0, 3.0])
    with Tape() as tape:
        loss = (p * p).sum()
    g = backward(tape, loss)
    assert np.allclose(g[p.uid], 2.0 * p.data)


def test_backward_requires_scalar_and_taped_loss():
    p = Tensor([1.0])
    with Tape() as tape:
        vec = p * 2.0
        scalar = vec.sum()
    with pytest.raises(ValueError):
        backward(tape, vec)
    with Tape() as other:
        (p * 1.0).sum()
    with pytest.raises(TapeError):
        backward(other, scalar)
    off_tape = dc.tanh(Tensor(1.0))
    with pytest.raises(TapeError):
        backward(tape, off_tape)


def test_const_leaves_excluded_from_gradients():
    p = Tensor([2.0])
    c = dc.constant([3.0])
    with Tape() as tape:
        loss = (p * c).sum()
    g = backward(tape, loss)
    assert p.uid in g and c.uid not in g


def test_fanout_accumulates():
    p = Tensor(2.0)
    with Tape() as tape:
        loss = p * p + p * 3.0  # d/dp = 2p + 3 = 7
    g = backward(tape, loss)
    assert g[p.uid] == pytest.approx(7.0)


def test_clip_gradient_mask():
    p = Tensor([-20.0, 0.0, 20.0])
    with Tape() as tape:
        loss = p.clip(-10.0, 10.0).sum()
    g = backward(tape, loss)
    assert np.allclose(g[p.uid], [0.0, 1.0, 0.0])
    assert np.allclose(p.clip(-10, 10).data, [-10.0, 0.0, 10.0])


# one case per basic primitive, each f of two 5-vectors
_PRIMITIVE_CASES = {
    "add": lambda ps: (ps[0] + ps[1]).sum(),
    "sub": lambda ps: (ps[0] - ps[1]).sum(),
    "mul": lambda ps: (ps[0] * ps[1]).sum(),
    "tanh": lambda ps: dc.tanh(ps[0]).sum(),
    "sigmoid": lambda ps: dc.sigmoid(ps[0]).sum(),
    "exp": lambda ps: dc.exp(ps[0] * 0.3).sum(),
    "softplus": lambda ps: dc.softplus(ps[0]).sum(),
    "mean": lambda ps: (ps[0] * ps[1]).mean(),
    "slice": lambda ps: ps[0].slice(1, 4).sum(),
    "clip": lambda ps: ps[0].clip(-0.5, 0.5).sum(),
    "log": lambda ps: dc.log(ps[0] * ps[0] + 0.5).sum(),
    "matmul": lambda ps: dc.tanh(ps[0] @ ps[1]),
    "sum": lambda ps: (ps[0] * ps[1]).sum(),
    "sum_axis": lambda ps: (_stack([_row(ps[0]), _row(ps[1] * ps[0])]).sum(axis=1)
                            @ [0.7, -1.3]),
}


def test_gradients_match_finite_differences_per_primitive():
    rng = np.random.default_rng(7)
    for name, f in _PRIMITIVE_CASES.items():
        params = [Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))]
        err = grad_check(f, params)
        assert err < 1e-6, f"{name}: {err}"


def test_sum_along_an_axis():
    x = Tensor(np.arange(6.0).reshape(2, 3) / 5.0)
    assert x.sum(axis=0).data.tolist() == (x.data.sum(axis=0)).tolist()
    assert np.array_equal(x.sum(axis=1).data, [x.data[0].sum(), x.data[1].sum()])
    for axis, w in ((0, [0.5, -1.0, 2.0]), (1, [0.7, -1.3])):
        assert grad_check(lambda ps: dc.tanh(ps[0] * ps[0]).sum(axis=axis) @ w, [x]) < 1e-6
    for axis in (2, -1):
        with pytest.raises(ValueError):
            x.sum(axis=axis)


def test_gradcheck_log():
    params = [Tensor([0.5, 1.5, 2.5])]
    err = grad_check(lambda ps: dc.log(ps[0]).sum(), params)
    assert err < 1e-6


def test_gradcheck_matmul_paths():
    rng = np.random.default_rng(11)
    W = Tensor(rng.normal(size=(3, 4)))
    v = Tensor(rng.normal(size=4))
    M = Tensor(rng.normal(size=(4, 2)))

    err = grad_check(lambda ps: dc.tanh(ps[0] @ ps[1]).sum(), [W, v])
    assert err < 1e-6
    err = grad_check(lambda ps: (ps[0] @ ps[1]).sum(), [W, M])
    assert err < 1e-6
    err = grad_check(lambda ps: ps[0] @ ps[0], [v])
    assert err < 1e-6


def test_gradcheck_composite_mlp():
    rng = np.random.default_rng(3)
    params = [
        Tensor(rng.normal(size=(4, 3)) * 0.5),
        Tensor(rng.normal(size=4) * 0.1),
        Tensor(rng.normal(size=(1, 4)) * 0.5),
        Tensor(rng.normal(size=3)),
    ]

    def f(ps):
        W1, b1, W2, x = ps
        h = dc.tanh(W1 @ x + b1)
        return dc.softplus(W2 @ h).sum()

    assert grad_check(f, params) < 1e-6


def test_deep_chain_stability():
    # 100 sequential nonlinearities: reverse pass stays exact
    p = Tensor([0.3, -0.2])

    def f(ps):
        h = ps[0]
        for _ in range(100):
            h = dc.tanh(h)
        return h.sum()

    assert grad_check(f, [p]) < 1e-6


def test_unused_leaf_gets_no_gradient():
    p = Tensor([1.0])
    q = Tensor([2.0])
    with Tape() as tape:
        _ = (q * 1.0).sum()
        loss = (p * p).sum()
    g = backward(tape, loss)
    assert q.uid not in g


def test_replay_is_bit_exact():
    rng = np.random.default_rng(5)
    W = Tensor(rng.normal(size=(6, 6)))
    x = Tensor(rng.normal(size=6))
    with Tape() as tape:
        h = dc.tanh(W @ x)
        for _ in range(5):
            h = dc.sigmoid(W @ h)
        (h * h).mean()
    replay(tape)


def test_backward_consumes_the_tape():
    """The walk drops every walked node's value and aux, the record (and
    len) stays, replay is refused, and a second walk rebuilds the forward
    first and gives the same gradients bit for bit."""
    rng = np.random.default_rng(6)
    W = Tensor(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=4))
    with Tape() as tape:
        h = dc.tanh(W @ x)
        dc.exp(h).sum()  # walked without an adjoint
        loss = (h * h).mean()
    n = len(tape)
    first = backward(tape, loss)
    assert len(tape) == n
    assert all(v is None and a is None
               for op, v, a in zip(tape.ops, tape.values, tape.aux)
               if op != "leaf")
    with pytest.raises(TapeError, match="replay the tape before walking it"):
        replay(tape)
    second = backward(tape, loss)
    assert first.keys() == second.keys() == {W.uid, x.uid}
    assert all(np.array_equal(first[k], second[k]) for k in first)


def test_primitive_set_is_pinned():
    assert set(dc.PRIMITIVES) == {
        "add", "sub", "mul", "matmul", "tanh", "sigmoid", "exp", "log",
        "softplus", "sum", "mean", "slice", "clip",
        "affine", "gauss_logpdf", "gauss_kl", "gauss_bound", "latent_scan",
    }
    with pytest.raises(ValueError):
        apply_primitive("pow", Tensor(1.0))


# ---------------------------------------------------------------------------
# fused primitives, at default-NetworkSpec shapes on the FD001-shaped
# fleet: 14 sensors, 2 settings, n_z = 8, n_h = 32, heads 32 wide

N_X, N_U, N_Z, N_H = 14, 2, 8, 32
N_IN = N_X + N_U + N_Z      # recognition GRU input


def _unfused_gru(W, U, b, h, x):
    """The unfused gated update, built from basic primitives."""
    n = h.shape[0]
    s = W @ x + b
    t = U @ h
    r = dc.sigmoid(s.slice(0, n) + t.slice(0, n))
    u = dc.sigmoid(s.slice(n, 2 * n) + t.slice(n, 2 * n))
    c = dc.tanh(s.slice(2 * n, 3 * n) + r * t.slice(2 * n, 3 * n))
    return (1.0 - u) * h + u * c


def _unfused_logpdf(x, mean, log_var):
    d = x - mean
    quad = (d * d * dc.exp(log_var * -1.0)).sum()
    return (quad + log_var.sum()) * -0.5 + (-0.5 * dc.LN_2PI * x.data.size)


def _unfused_kl(q_mean, q_log_var, p_mean, p_log_var):
    diff_lv = q_log_var - p_log_var
    dm = q_mean - p_mean
    inner = dc.exp(diff_lv) + dm * dm * dc.exp(p_log_var * -1.0) - 1.0 - diff_lv
    return inner.sum() * 0.5


def _rows(v, n):
    """n copies of the vector v as a row batch, (m,) -> (n, m): zero
    weights on a column of ones, with v as the bias, so exactly v."""
    return dc.affine(dc.constant(np.zeros((v.shape[0], 1))),
                     dc.constant(np.ones((n, 1))), v)


def _row(v):
    """A vector as a batch of one row, (n,) -> (1, n)."""
    return _rows(v, 1)


def _stack(blocks):
    """Row blocks stacked in order, each placed by a constant 0/1 matrix;
    the products multiply by 0 and 1 only, so the stack is exact."""
    n, out, off = sum(b.shape[0] for b in blocks), None, 0
    for b in blocks:
        place = np.zeros((n, b.shape[0]))
        place[off:off + b.shape[0]] = np.eye(b.shape[0])
        placed = dc.constant(place) @ b
        out = placed if out is None else out + placed
        off += b.shape[0]
    return out


def _affine_cols(W, blocks, b):
    """W @ [x; ...] + b for each row of the column blocks side by side,
    without joining them: one affine per column block of W, cut with a
    taped slice."""
    out, off = None, 0
    for x in blocks:
        c = x.shape[1]
        term = dc.affine(W.slice(off, off + c, axis=1), x,
                         b if out is None else dc.constant(np.zeros(W.shape[0])))
        out = term if out is None else out + term
        off += c
    return out


def _gru_cell(W, U, b, h0, x):
    """One gated update of the state h0 for each row of inputs x, as the
    model runs it: a one-step latent_scan of a GRU alone."""
    n = x.shape[0]
    return dc.latent_scan([x], dict(W=W, U=U, b=b, h0=h0), [(0, n, n)],
                          gru_in=("xu",))["h"]


def _fused_cases():
    """(name, fused f, unfused f, param arrays, grad_check step).

    affine and gru_cell (a one-step scan) take row batches: the fused
    form runs on the vector inputs lifted to one row each, B = 1, and the
    unfused composition on the vectors themselves; gru_cell's state h0
    is a vector in both.
    Vector inputs and the output weights have magnitudes in [s/2, 3s/2],
    so that no gradient coordinate is a product of near-zero factors
    that central differences cannot resolve.  affine is linear in each
    input, so central differences are exact at any step there, and a
    large one keeps round-off below its smallest coordinate (a sum with
    cancellation).
    """
    g = np.random.default_rng(21)

    def vec(n, s=1.0):
        return s * g.choice((-1.0, 1.0), n) * g.uniform(0.5, 1.5, n)

    w = vec(N_H)
    red_h = lambda out: (out * dc.constant(w.reshape(out.shape))).sum()  # noqa: E731
    return [
        ("affine", lambda ps: red_h(dc.affine(ps[0], _row(ps[1]), ps[2])),
         lambda ps: red_h(ps[0] @ ps[1] + ps[2]),
         [g.normal(0, N_IN ** -0.5, (N_H, N_IN)), vec(N_IN), vec(N_H, 0.1)],
         1e-2),
        ("affine_row",
         lambda ps: dc.softplus(dc.affine(ps[0], _row(ps[1]), ps[2])).sum(),
         lambda ps: dc.softplus(ps[0] @ ps[1] + ps[2]),
         [vec(N_H, N_H ** -0.5), vec(N_H), np.array(0.2)], 1e-6),
        ("gru_cell",
         lambda ps: red_h(_gru_cell(*ps[:4], _row(ps[4]))),
         lambda ps: red_h(_unfused_gru(*ps)),
         [g.normal(0, N_IN ** -0.5, (3 * N_H, N_IN)),
          g.normal(0, N_H ** -0.5, (3 * N_H, N_H)), vec(3 * N_H, 0.1),
          vec(N_H, 0.5), vec(N_IN)], 1e-6),
        ("gauss_logpdf", lambda ps: dc.gauss_logpdf(*ps),
         lambda ps: _unfused_logpdf(*ps),
         [vec(N_X, 2.0), vec(N_X), vec(N_X)], 1e-6),
        ("gauss_kl", lambda ps: dc.gauss_kl(*ps),
         lambda ps: _unfused_kl(*ps),
         [vec(N_Z), vec(N_Z), vec(N_Z), vec(N_Z)], 1e-6),
    ] + [_bound_case(*c) for c in BOUND_CASES]


# gauss_bound over a ragged batch of lengths 5, 3, 2 (3 first-step rows):
# (name, prior history, hidden width of the pri head, of the dec head)
BOUND_CASES = (("gauss_bound_history", True, 3, 3),
               ("gauss_bound_markovian", False, 0, 0),
               ("gauss_bound_mixed", True, 0, 3))
BOUND_CLIP = (-1.0, 1.0)    # narrow enough that some log-variances clip
B_X, B_Z, B_H = 3, 2, 3     # observations, latents, history width


def _bound_cols(history):
    """The output columns of a sampling scan: mean, log_var, (h,) z, z_prev."""
    names = ("mean", "log_var") + (("h",) if history else ()) + ("z", "z_prev")
    width = {"h": B_H}
    cols, off = {}, 0
    for k in names:
        cols[k] = slice(off, off + width.get(k, B_Z))
        off += width.get(k, B_Z)
    return cols


def _bound_inputs(history, pri_hidden, dec_hidden):
    """(gauss_bound's inputs by name: the scan rows, the prior history if
    any and the heads' weights; the observations x; weights w that reduce
    the (2, N) output), over a batch of lengths 5, 3, 2."""
    g = np.random.default_rng(41 + pri_hidden + dec_hidden + history)
    n, cols = 10, _bound_cols(history)

    def mat(*shape, s=1.0):
        return s * g.choice((-1.0, 1.0), shape) * g.uniform(0.5, 1.5, shape)

    arrays = {"rows": mat(n, max(c.stop for c in cols.values())) * 0.5}
    if history:
        arrays["hist"] = mat(n, B_H, s=0.5)
    d_in = B_Z + (B_H if history else 0)
    for head, hidden, d_out in (("pri.", pri_hidden, B_Z), ("dec.", dec_hidden, B_X)):
        d_feat = hidden or d_in
        if hidden:
            arrays[head + "W1"] = mat(hidden, d_in, s=d_in ** -0.5)
            arrays[head + "b1"] = mat(hidden, s=0.1)
        for w in ("m", "v"):
            arrays[head + "W" + w] = mat(d_out, d_feat, s=d_feat ** -0.5)
            arrays[head + "b" + w] = mat(d_out, s=0.3)
    return arrays, mat(n, B_X, s=2.0), g.uniform(0.5, 1.5, (2, n))


def _bound(p, x, first=3):
    """gauss_bound of Tensors by name, as _bound_inputs names them."""
    p = dict(p)
    rows, hist = p.pop("rows"), p.pop("hist", None)
    cols = _bound_cols(hist is not None)
    return dc.gauss_bound(dc.ScanRows(rows, cols), dc.constant(x), p, hist,
                          first, BOUND_CLIP)


def _bound_case(name, history, pri_hidden, dec_hidden):
    """A _fused_cases entry for gauss_bound; x is a constant, and the
    composition is the one the model ran before the fused op."""
    arrays, x_arr, w_arr = _bound_inputs(history, pri_hidden, dec_hidden)
    names, cols, n, first = list(arrays), _bound_cols(history), 10, 3
    x, w = dc.constant(x_arr), dc.constant(w_arr)

    def unfused(ps):
        p = dict(zip(names, ps))
        rows, hist = p["rows"], p.get("hist")
        q_mean, q_lv, z, z_prev = (rows.slice(cols[k].start, cols[k].stop, axis=1)
                                   for k in ("mean", "log_var", "z", "z_prev"))

        def head(h, z, hist):
            inp = [z] if hist is None else [z, hist]
            if h + "W1" in p:
                inp = [dc.tanh(_affine_cols(p[h + "W1"], inp, p[h + "b1"]))]
            return (_affine_cols(p[h + "Wm"], inp, p[h + "bm"]),
                    _affine_cols(p[h + "Wv"], inp, p[h + "bv"]).clip(*BOUND_CLIP))

        recon = dc.gauss_logpdf(x, *head("dec.", z, hist))
        p_mean, p_lv = head("pri.", z_prev.slice(first, n),
                            None if hist is None else hist.slice(first, n))
        pinned = dc.constant(np.zeros((first, B_Z)))
        kl = dc.gauss_kl(q_mean, q_lv, _stack([pinned, p_mean]),
                         _stack([pinned, p_lv]))
        return ((recon * dc.constant(w_arr[0])).sum()
                + (kl * dc.constant(w_arr[1])).sum())

    return (name, lambda ps: (_bound(dict(zip(names, ps)), x_arr) * w).sum(),
            unfused, list(arrays.values()), 1e-5)


@pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
def test_fused_primitive_gradcheck(case):
    _, fused, _, arrays, step = case
    params = [Tensor(a) for a in arrays]
    for k in range(len(params)):
        def f(ps, k=k):
            return fused(params[:k] + ps + params[k + 1:])

        assert grad_check(f, [params[k]], step=step) < 1e-6, f"input {k}"


@pytest.mark.parametrize("case", _fused_cases(), ids=lambda c: c[0])
def test_fused_primitive_matches_unfused_composition(case):
    _, fused, unfused, arrays, _ = case
    params = [Tensor(a) for a in arrays]
    results = []
    for f in (fused, unfused):
        with Tape() as tape:
            out = f(params)
        results.append((out.item(), backward(tape, out)))
    (v_f, g_f), (v_u, g_u) = results
    assert abs(v_f - v_u) <= 1e-12 * abs(v_u)
    for p in params:
        scale = np.abs(g_u[p.uid]).max()
        assert g_f[p.uid].shape == p.shape
        assert np.abs(g_f[p.uid] - g_u[p.uid]).max() <= 1e-12 * scale


@pytest.mark.parametrize("shape", [(N_H, N_H + N_Z), (N_H,)],
                         ids=["matrix", "row_vector"])
def test_batched_affine_matches_rows(shape):
    """affine on an (N, n) row batch, at the readout's default shapes:
    l1 maps rows [h_t, mean_t] of width 40 to 32, out maps 32 to 1."""
    g = np.random.default_rng(23)
    n_rows, n_in = 6, shape[-1]
    W = Tensor(g.normal(0, n_in ** -0.5, shape))
    X = Tensor(g.choice((-1.0, 1.0), (n_rows, n_in))
               * g.uniform(0.5, 1.5, (n_rows, n_in)))
    b = Tensor(g.uniform(0.05, 0.15, shape[:-1]))
    w = dc.constant(g.uniform(0.5, 1.5, (n_rows,) + shape[:-1]))

    def batched(ps):
        return (dc.affine(*ps) * w).sum()

    params = [W, X, b]
    for k in range(3):
        def f(ps, k=k):
            return batched(params[:k] + ps + params[k + 1:])

        assert grad_check(f, [params[k]], step=1e-2) < 1e-6, f"input {k}"

    with Tape() as tape:
        out = dc.affine(W, X, b)
        loss = (out * w).sum()
    g_batch = backward(tape, loss)
    rows = [Tensor(X.data[i:i + 1]) for i in range(n_rows)]  # B = 1 each
    with Tape() as tape:
        outs = [dc.affine(W, r, b) for r in rows]
        loss_rows = None
        for i, o in enumerate(outs):
            term = (o * dc.constant(w.data[i:i + 1])).sum()
            loss_rows = term if loss_rows is None else loss_rows + term
    g_rows = backward(tape, loss_rows)

    def close(a, ref):
        return np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()

    assert out.shape == (n_rows,) + shape[:-1]
    assert close(out.data, np.concatenate([o.data for o in outs]))
    assert close(g_batch[W.uid], g_rows[W.uid])
    assert close(g_batch[b.uid], g_rows[b.uid])
    assert close(g_batch[X.uid], np.concatenate([g_rows[r.uid] for r in rows]))


def _row_cases(n_rows):
    """(name, f, param arrays, grad_check step, tolerance) for the
    row-batch forms, at default-NetworkSpec shapes with n_rows rows
    (gru_cell's rows share one initial state).

    Some coordinates of the GRU weight gradients are products of two
    small gate derivatives (about 1e-3), where central differences
    resolve no better than 1e-16 * |loss| / step: its bar is 1e-5 at
    step 1e-5.  test_row_form_matches_rows pins it to B = 1 batches of
    its rows within 1e-12, and _fused_cases pins a B = 1 batch to the
    unfused composition.
    """
    g = np.random.default_rng(31 + n_rows)

    def mat(shape, s=1.0):
        return s * g.choice((-1.0, 1.0), shape) * g.uniform(0.5, 1.5, shape)

    def red(shape):
        w = dc.constant(mat(shape))
        return lambda out: (out * w).sum()

    red_h, red_r = red((n_rows, N_H)), red((n_rows,))
    return [
        ("gru_cell", lambda ps: red_h(_gru_cell(*ps)),
         [g.normal(0, N_IN ** -0.5, (3 * N_H, N_IN)),
          g.normal(0, N_H ** -0.5, (3 * N_H, N_H)), mat(3 * N_H, 0.1),
          mat(N_H, 0.5), mat((n_rows, N_IN))], 1e-5, 1e-5),
        ("gauss_logpdf", lambda ps: red_r(dc.gauss_logpdf(*ps)),
         [mat((n_rows, N_X), 2.0), mat((n_rows, N_X)), mat((n_rows, N_X))],
         1e-6, 1e-6),
        ("gauss_kl", lambda ps: red_r(dc.gauss_kl(*ps)),
         [mat((n_rows, N_Z)) for _ in range(4)], 1e-6, 1e-6),
        ("slice_rows", lambda ps: red_h(ps[0].slice(1, n_rows + 1)),
         [mat((n_rows + 2, N_H))], 1e-2, 1e-6),
    ]


@pytest.mark.parametrize("n_rows", [1, 3])
@pytest.mark.parametrize("name", [c[0] for c in _row_cases(1)])
def test_row_form_gradcheck(name, n_rows):
    _, f, arrays, step, tol = next(
        c for c in _row_cases(n_rows) if c[0] == name)
    params = [Tensor(a) for a in arrays]
    for k in range(len(params)):
        def fk(ps, k=k):
            return f(params[:k] + ps + params[k + 1:])

        assert grad_check(fk, [params[k]], step=step) < tol, f"input {k}"


@pytest.mark.parametrize("name", ["gru_cell", "gauss_logpdf", "gauss_kl"])
def test_row_form_matches_rows(name):
    """Each row of the batch form equals the op on that row alone (a
    batch of one for gru_cell, a vector for the Gaussian ops), values
    and gradients; gru_cell's weights and initial state are shared."""
    arrays = next(c for c in _row_cases(3) if c[0] == name)[2]
    shared = 4 if name == "gru_cell" else 0
    one, join = ((lambda a, i: a[i:i + 1]), np.concatenate) if shared else (
        (lambda a, i: a[i]), np.stack)
    w = np.random.default_rng(5).uniform(0.5, 1.5, 3)
    params = [Tensor(a) for a in arrays]
    op = _gru_cell if shared else getattr(dc, name)

    def weighted(out, wi):
        if out.data.ndim == 2:  # gru_cell rows: reduce each state too
            return (out * dc.constant(np.outer(wi, np.ones(N_H)))).sum()
        return (out * dc.constant(wi)).sum()

    with Tape() as tape:
        out = op(*params)
        loss = weighted(out, w)
    g_batch = backward(tape, loss)
    rows = [[Tensor(one(a, i)) for a in arrays[shared:]] for i in range(3)]
    with Tape() as tape:
        outs = [op(*params[:shared], *r) for r in rows]
        terms = [(o * dc.constant(wi)).sum() if o.data.ndim else o * wi
                 for o, wi in zip(outs, w)]
        loss_rows = terms[0] + terms[1] + terms[2]
    g_rows = backward(tape, loss_rows)

    def close(a, ref):
        return np.abs(a - ref).max() <= 1e-12 * np.abs(ref).max()

    assert close(out.data, join([o.data for o in outs]))
    for p in params[:shared]:
        assert close(g_batch[p.uid], g_rows[p.uid])
    for k, p in enumerate(params[shared:]):
        assert close(g_batch[p.uid], join([g_rows[r[k].uid] for r in rows]))


def test_gru_cell_overflow_is_loud():
    g = np.random.default_rng(4)
    W = g.normal(0, 1.0, (3 * N_H, N_IN))
    U = g.normal(0, 1.0, (3 * N_H, N_H))
    b = np.zeros(3 * N_H)
    h = g.uniform(0.1, 0.9, N_H)
    x = g.uniform(0.1, 0.9, N_IN)
    # Each overflow below feeds a saturating gate, so without the check
    # the cell's output would stay finite.
    huge_W = W.copy()
    huge_W[:N_H] = 1e308         # reset-gate rows of W @ x overflow
    huge_U = U.copy()
    huge_U[2 * N_H:] = 1e308     # candidate rows of U @ h overflow
    with np.errstate(over="ignore", invalid="ignore"):
        for args in ((huge_W, U, b, h, x), (W, huge_U, b, h, x)):
            with pytest.raises(NonFiniteError, match="latent_scan"):
                _gru_cell(*[Tensor(a) for a in args[:4]],
                          Tensor(x[None]))   # a batch of one row
            with pytest.raises(NonFiniteError):
                _unfused_gru(*[Tensor(a) for a in args])


def test_fused_shape_errors():
    with pytest.raises(ValueError):
        dc.affine(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.ones(4)))
    with pytest.raises(ValueError):
        dc.affine(Tensor(np.ones((3, 4))), Tensor(np.ones((5, 3))), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        dc.affine(Tensor(np.ones(4)), Tensor(np.ones((2, 5, 4))), Tensor(0.0))
    with pytest.raises(ValueError):  # U is not (3 n, n)
        _gru_cell(Tensor(np.ones((6, 3))), Tensor(np.ones((9, 2))),
                  Tensor(np.ones(6)), Tensor(np.ones(2)),
                  Tensor(np.ones((1, 3))))
    with pytest.raises(ValueError):
        dc.gauss_logpdf(Tensor(np.ones(2)), Tensor(np.ones(3)), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        dc.gauss_kl(Tensor(np.ones(2)), Tensor(np.ones(2)), Tensor(np.ones(2)),
                    Tensor(np.ones(3)))
    # affine and the scan take row batches only: a vector input is an
    # error, and the scan's initial state is one vector
    with pytest.raises(ValueError):
        dc.affine(Tensor(np.ones((3, 4))), Tensor(np.ones(4)), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        dc.affine(Tensor(np.ones(4)), Tensor(np.ones(4)), Tensor(0.0))
    W, U, b = Tensor(np.ones((6, 3))), Tensor(np.ones((6, 2))), Tensor(np.ones(6))
    with pytest.raises(ValueError):
        _gru_cell(W, U, b, Tensor(np.ones(2)), Tensor(np.ones(3)))
    with pytest.raises(ValueError):
        _gru_cell(W, U, b, Tensor(np.ones((1, 2))), Tensor(np.ones((1, 3))))


def test_gauss_bound_overflow_is_loud():
    """An overflow before the tanh layer or the log-variance clip would
    leave the rows finite; the op checks those pre-activations.  The
    inputs each head reads are positive here, so a row of 1e308 weights
    overflows."""
    for history, hidden in ((False, 0), (True, 3)):
        arrays, x, _ = _bound_inputs(history, hidden, hidden)
        cols = _bound_cols(history)
        for k in ("z", "z_prev"):
            arrays["rows"][:, cols[k]] = np.abs(arrays["rows"][:, cols[k]]) + 1.0
        if history:
            arrays["hist"] = np.abs(arrays["hist"]) + 1.0
        names = ("dec.Wv", "pri.Wv") + (("dec.W1", "pri.W1") if hidden else ())
        with np.errstate(over="ignore", invalid="ignore"):
            for name in names:
                big = {**arrays, name: arrays[name].copy()}
                big[name][0] = 1e308
                if name.endswith("Wv") and hidden:   # tanh rows lie in (-1, 1)
                    big[name.replace("Wv", "b1")] = np.full(hidden, 50.0)
                with pytest.raises(NonFiniteError, match="gauss_bound"):
                    _bound({k: Tensor(a) for k, a in big.items()}, x)


def test_gauss_bound_constant_heads_get_no_adjoint():
    """Constant head weights (the bound audit's frozen theta) get no
    gradient, and the other inputs' gradients stay bit for bit."""
    arrays, x, w = _bound_inputs(True, 3, 0)
    frozen = ("dec.Wm", "dec.bm", "pri.W1", "pri.b1", "pri.Wv", "pri.bv")
    grads = []
    for const in ((), frozen):
        p = {k: Tensor(a, const=k in const) for k, a in arrays.items()}
        with Tape() as tape:
            loss = (_bound(p, x) * dc.constant(w)).sum()
        by_uid = backward(tape, loss)
        grads.append({k: by_uid.get(t.uid) for k, t in p.items()})
    for k, g in grads[0].items():
        if k in frozen:
            assert grads[1][k] is None, k
        else:
            assert np.array_equal(grads[1][k], g), k
    # the rule itself gives None toward x and each constant, and forms
    # nothing for them
    forward, vjp = dc._OPS["gauss_bound"]
    names = tuple(k for k in arrays if k != "rows")
    kw = dict(names=names, cols=tuple((c.start, c.stop) for c in (
        _bound_cols(True)[k] for k in ("mean", "log_var", "z", "z_prev"))),
              first=3, clip=BOUND_CLIP, fixed=frozenset(frozen))
    vals = [arrays["rows"], x] + [arrays[k] for k in names]
    out, aux = forward(*vals, **kw)
    contribs = vjp(np.ones_like(out), vals, out, aux)
    assert [k for k, c in zip(("rows", "x") + names, contribs) if c is None] == [
        "x"] + [k for k in names if k in frozen]


def test_gauss_bound_input_errors():
    arrays, x, _ = _bound_inputs(True, 3, 0)
    p = {k: Tensor(a) for k, a in arrays.items()}
    assert _bound(p, x).shape == (2, 10)
    bad = [
        ({k: t for k, t in p.items() if k != "dec.bv"}, x, 3),   # a head weight missing
        ({k: t for k, t in p.items() if k != "pri.b1"}, x, 3),   # W1 without b1
        ({**p, "dec.V": p["dec.Wv"]}, x, 3),                     # an unknown input
        (p, x[1:], 3),                                           # observations of other rows
        ({**p, "hist": Tensor(arrays["hist"][1:])}, x, 3),       # history of other rows
        (p, x, 0),                                               # no first step
        (p, x, 11),                                              # a first step past the rows
        ({**p, "pri.Wm": Tensor(np.ones((3, 3))),                # a prior of another width
          "pri.Wv": Tensor(np.ones((3, 3))), "pri.bm": Tensor(np.ones(3)),
          "pri.bv": Tensor(np.ones(3))}, x, 3),
        ({**p, "dec.Wv": Tensor(np.ones((2, 5)))}, x, 3),        # Wv unlike Wm
        ({**p, "dec.Wm": Tensor(np.ones((3, 4)))}, x, 3),        # Wm of another input width
        ({**p, "dec.Wm": Tensor(np.ones((2, 5))),                # an emission unlike x
          "dec.Wv": Tensor(np.ones((2, 5))), "dec.bm": Tensor(np.ones(2)),
          "dec.bv": Tensor(np.ones(2))}, x, 3),
    ]
    for inputs, obs, first in bad:
        with pytest.raises(ValueError):
            _bound(inputs, obs, first)
    rows, cols = p["rows"], _bound_cols(True)
    for k, c in (("z", slice(9, 12)), ("z_prev", slice(11, 14))):  # 3 wide; past the end
        scan = dc.ScanRows(rows, {**cols, k: c})
        heads = {k: t for k, t in p.items() if k not in ("rows", "hist")}
        with pytest.raises(ValueError):
            dc.gauss_bound(scan, dc.constant(x), heads, p["hist"], 3, BOUND_CLIP)


def test_row_form_shape_errors():
    gru = dict(W=Tensor(np.ones((6, 3))), U=Tensor(np.ones((6, 2))),
               b=Tensor(np.ones(6)), h0=Tensor(np.ones(2)))
    xs = [Tensor(np.ones((3, 1))), Tensor(np.ones((3, 2)))]

    def scan(xs, runs, **inputs):
        return dc.latent_scan(xs, {**gru, **inputs}, runs, gru_in=("xu",))

    with pytest.raises(ValueError):  # one initial state per row
        scan(xs, [(0, 3, 3)], h0=Tensor(np.ones((3, 2))))
    with pytest.raises(ValueError):  # input blocks of other row counts
        scan([xs[0], Tensor(np.ones((2, 2)))], [(0, 3, 3)])
    with pytest.raises(ValueError):  # runs cover other rows
        scan(xs, [(0, 2, 2)])
    with pytest.raises(ValueError):  # a step with more rows than the last
        scan(xs, [(0, 1, 1), (1, 3, 2)])
    with pytest.raises(ValueError):  # steps that do not follow each other
        scan(xs, [(0, 2, 2), (1, 3, 1)])
    with pytest.raises(ValueError):  # W's rows are not 3 n
        scan(xs, [(0, 3, 3)], W=Tensor(np.ones((5, 3))))
    # six rows: two steps of two, then two of one
    six = [Tensor(np.ones((6, 1))), Tensor(np.ones((6, 2)))]
    assert scan(six, [(0, 4, 2), (4, 6, 1)])["h"].shape == (6, 2)
    for runs in ([(0, 2, 2), (3, 6, 1)],    # a gap between runs
                 [(0, 4, 2), (3, 6, 1)],    # runs that overlap
                 [(2, 6, 2), (0, 2, 1)],    # runs out of order
                 [(0, 2, 1), (2, 6, 2)],    # a width that rises
                 [(0, 2, 2), (2, 6, 2)],    # two runs of one width
                 [(0, 3, 2), (3, 6, 1)],    # a run that is not whole steps
                 [(0, 6, 6), (6, 6, 1)],    # a run of no steps
                 [(0, 6, 0)],               # steps of no rows
                 [(0, 4, 2), (4, 5, 1)],    # fewer rows than the input's
                 [(0, 4, 2), (4, 7, 1)],    # more rows than the input's
                 []):                       # no runs
        with pytest.raises(ValueError, match="runs do not pack 6 rows"):
            scan(six, runs)
    with pytest.raises(ValueError, match="runs do not pack 0 rows"):
        scan([Tensor(np.ones((0, 1))), Tensor(np.ones((0, 2)))], [])
    with pytest.raises(ValueError):
        dc.gauss_logpdf(*[Tensor(np.ones((2, 2, 2)))] * 3)
    with pytest.raises(ValueError):
        dc.gauss_kl(*[Tensor(np.ones((2, 3)))] * 3, Tensor(np.ones((3, 3))))
    with pytest.raises(ValueError):
        Tensor(np.ones((3, 2))).slice(2, 4)
    with pytest.raises(ValueError):
        Tensor(1.0).slice(0, 1)


def test_leaf_does_not_keep_its_tape_alive():
    import gc
    import weakref

    p = dc.parameter([1.0, -2.0])
    with Tape() as tape:
        loss = (p * p).sum()
    assert backward(tape, loss)[p.uid].tolist() == [2.0, -4.0]
    assert p.tape is None and p.node_id is None
    ref = weakref.ref(tape)
    del tape, loss
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# whole-sequence scans, at default-NetworkSpec shapes over ragged packed
# batches: B = 1 (4 steps) and B = 3 (lengths 5, 3, 2), and for the
# compositions also the layouts the step blocks treat apart:
# two sequences ending at the same step, no step narrowing, and a
# one-cycle sequence

SCAN_LENGTHS = {1: (4,), 3: (5, 3, 2), "ends_together": (5, 2, 2),
                "equal": (3, 3, 3), "one_cycle": (4, 1)}
GRADCHECK_LENGTHS = (1, 3)
# (has GRU, head layer width (0: none), gru_in, head_in, samples, pin_first)
SCAN_MODES = {
    "markovian": (False, N_H, (), ("xu", "z"), True, False),
    "history": (True, N_H, ("xu", "z"), ("h",), True, False),
    "deterministic": (True, N_H, ("xu", "z"), ("h",), False, False),
    "prior": (True, N_H, ("z", "xu"), ("z", "h"), True, True),
    "linear_prior": (False, 0, (), ("z",), True, True),
}
SCAN_CLIP = (-1.0, 1.0)     # narrow enough that some log-variances clip
# the modes a tape may record, unpinned (see latent_scan): those that sample
TAPED_MODES = sorted(m for m, (*_, samples, _) in SCAN_MODES.items() if samples)


def _runs(lengths):
    """The runs (first row, end row, width) of sequences of the given
    lengths packed time-major: one per distinct length."""
    runs, end, step = [], 0, 0
    for T in sorted(set(lengths)):
        w = sum(n >= T for n in lengths)
        runs.append((end, end + (T - step) * w, w))
        end, step = runs[-1][1], T
    return runs


def _steps(runs):
    """The rows (lo, hi) of each step, the runs expanded step by step."""
    return [(lo, lo + w) for a, b, w in runs for lo in range(a, b, w)]


def _scan_case(mode, n_seq, seed=0):
    """(inputs as arrays by name, static arguments) of one latent_scan;
    the exogenous rows are [x, u] for the recognition modes, u for the
    prior modes."""
    gru, hidden, gru_in, head_in, samples, pin_first = SCAN_MODES[mode]
    lengths = SCAN_LENGTHS[n_seq]
    g = np.random.default_rng(seed + len(lengths))
    runs = _runs(lengths)
    n_rows = runs[-1][1]
    n_xu = N_U if pin_first else N_X + N_U
    width = {"xu": n_xu, "z": N_Z, "h": N_H}

    def w(rows, cols):
        return g.normal(0, cols ** -0.5, (rows, cols))

    arrays = {"xu": g.standard_normal((n_rows, n_xu))}
    if samples:
        arrays["eps"] = g.standard_normal((n_rows, N_Z))
    if gru:
        arrays.update(h0=g.uniform(-0.5, 0.5, N_H),
                      W=w(3 * N_H, sum(width[k] for k in gru_in)),
                      U=w(3 * N_H, N_H), b=g.uniform(-0.1, 0.1, 3 * N_H))
    d_feat = sum(width[k] for k in head_in)
    if hidden:
        arrays.update(W1=w(hidden, d_feat), b1=g.uniform(-0.1, 0.1, hidden))
        d_feat = hidden
    heads = ("m", "v") if samples else ("m",)
    for k in heads:
        arrays["W" + k] = w(N_Z, d_feat)
        arrays["b" + k] = g.uniform(-0.1, 0.1, N_Z)
    static = dict(runs=runs, gru_in=gru_in, head_in=head_in, clip=SCAN_CLIP,
                  pin_first=pin_first)
    return arrays, static


def _taped_case(mode, n_seq):
    """_scan_case as a tape may record it: its arrays as Tensors, with
    constant noise and exogenous rows, and no pinned first step."""
    arrays, static = _scan_case(mode, n_seq)
    return ({k: Tensor(a, const=k in ("xu", "eps")) for k, a in arrays.items()},
            dict(static, pin_first=False))


def _latent(p, **static):
    """latent_scan of a case's inputs by name, whose "xu" is the one
    block of exogenous rows."""
    return dc.latent_scan([p["xu"]], {k: t for k, t in p.items() if k != "xu"},
                          **static)


def _per_step_chain(p, runs, gru_in, head_in, clip, pin_first):
    """The latent chain composed step by step from basic primitives and
    affine, as the model ran it before the scans: cut the states to the
    running rows, one gated update of the step's input blocks, the head,
    the clip and the reparameterized sample; the steps' rows stacked."""
    n_z = p["Wm"].shape[0]
    gru, sample = "W" in p, "eps" in p
    out = {k: [] for k in ("h", "mean", "log_var", "z", "z_prev")}
    h = z = None
    for t, (lo, hi) in enumerate(_steps(runs)):
        n = hi - lo
        zp = dc.constant(np.zeros((n, n_z))) if t == 0 else z.slice(0, n)
        blocks = {"xu": p["xu"].slice(lo, hi), "z": zp}
        if gru:
            m = p["U"].shape[1]
            hp = _rows(p["h0"], n) if t == 0 else h.slice(0, n)
            s = _affine_cols(p["W"], [blocks[k] for k in gru_in], p["b"])
            tt = dc.affine(p["U"], hp, dc.constant(np.zeros(3 * m)))

            def gate(k, v):
                return v.slice(k * m, (k + 1) * m, axis=1)

            r = dc.sigmoid(gate(0, s) + gate(0, tt))
            u = dc.sigmoid(gate(1, s) + gate(1, tt))
            c = dc.tanh(gate(2, s) + r * gate(2, tt))
            h = (1.0 - u) * hp + u * c
            blocks["h"] = h
            out["h"].append(h)
        if t == 0 and pin_first:
            mean = log_var = dc.constant(np.zeros((n, n_z)))
        else:
            feat = [blocks[k] for k in head_in]
            if "W1" in p:
                feat = [dc.tanh(_affine_cols(p["W1"], feat, p["b1"]))]
            mean = _affine_cols(p["Wm"], feat, p["bm"])
            if sample:
                log_var = _affine_cols(p["Wv"], feat, p["bv"]).clip(*clip)
        z = mean
        if sample:
            z = mean + dc.exp(log_var * 0.5) * p["eps"].slice(lo, hi)
            out["log_var"].append(log_var)
        out["mean"].append(mean)
        out["z"].append(z)
        out["z_prev"].append(zp)
    return {k: _stack(v) for k, v in out.items() if v}


def _weighted(cols, seed=7):
    """A scalar that weighs every entry of every output block."""
    g = np.random.default_rng(seed)
    total = None
    for k in sorted(cols):
        term = (cols[k] * dc.constant(g.uniform(0.5, 1.5, cols[k].shape))).sum()
        total = term if total is None else total + term
    return total


@pytest.mark.parametrize("n_seq", list(SCAN_LENGTHS))
@pytest.mark.parametrize("mode", sorted(SCAN_MODES))
def test_latent_scan_matches_per_step_composition(mode, n_seq):
    """Every mode's values untaped; then a sampling mode's values and
    gradients as a tape records it (see _taped_case)."""
    arrays, static = _scan_case(mode, n_seq)
    cases = [({k: Tensor(a) for k, a in arrays.items()}, static, False)]
    if mode in TAPED_MODES:
        cases.append((*_taped_case(mode, n_seq), True))
    for params, static, taped in cases:
        results = []
        for chain in (_latent, _per_step_chain):
            with Tape() if taped else no_tape() as tape:
                cols = chain(params, **static)
                loss = _weighted(cols)
            grads = backward(tape, loss) if taped else {}
            results.append(({k: c.data for k, c in cols.items()},
                            {k: grads[p.uid] for k, p in params.items()
                             if p.uid in grads}))
        (v_s, g_s), (v_u, g_u) = results
        assert set(v_s) == set(v_u)
        assert set(g_s) == set(g_u) == (
            {k for k, p in params.items() if not p.const} if taped else set())
        for k in v_u:
            assert np.abs(v_s[k] - v_u[k]).max() <= 1e-12 * np.abs(v_u[k]).max(), k
        for k in g_u:
            assert g_s[k].shape == g_u[k].shape
            assert np.abs(g_s[k] - g_u[k]).max() <= 1e-12 * np.abs(g_u[k]).max(), k


@pytest.mark.parametrize("mode, n_seq", [
    (mode, n) for mode in TAPED_MODES
    for n in (GRADCHECK_LENGTHS if mode in ("history", "markovian") else (3,))])
def test_latent_scan_gradcheck(mode, n_seq):
    """Every input a tape differentiates: the weights, as _taped_case
    runs the mode.  As in _row_cases, some GRU weight coordinates (W, U)
    are products of gate derivatives over several steps, near 1e-4 of
    the largest, where central differences resolve no better than about
    5e-5 at step 1e-5: their bar is 1e-4.
    test_latent_scan_matches_per_step_composition pins the same
    gradients to 1e-12."""
    params, static = _taped_case(mode, n_seq)
    for k in [k for k, t in params.items() if not t.const]:
        def f(ps, k=k):
            return _weighted(_latent({**params, k: ps[0]}, **static))

        tol = 1e-4 if k in ("W", "U") else 1e-5
        assert grad_check(f, [params[k]], step=1e-5) < tol, k


@pytest.mark.parametrize("n_seq", list(SCAN_LENGTHS))
def test_gru_scan_gradcheck_and_per_step_composition(n_seq):
    """The prior-history GRU, a latent_scan without a head, over two
    input blocks; grad_check runs at GRADCHECK_LENGTHS only, the 1e-12
    composition at every layout."""
    arrays, static = _scan_case("history", n_seq)
    runs, n_rows = static["runs"], static["runs"][-1][1]
    g = np.random.default_rng(3)
    W = g.normal(0, (N_Z + N_U) ** -0.5, (3 * N_H, N_Z + N_U))
    xs = [g.uniform(-1.0, 1.0, (n_rows, N_Z)), g.uniform(-1.0, 1.0, (n_rows, N_U))]
    params = [Tensor(a) for a in [W, arrays["U"], arrays["b"], arrays["h0"]] + xs]
    w = dc.constant(g.uniform(0.5, 1.5, (n_rows, N_H)))

    def fused(ps):
        gru = dict(zip(("W", "U", "b", "h0"), ps[:4]))
        return (dc.latent_scan(ps[4:], gru, runs, gru_in=("xu",))["h"]
                * w).sum()

    def per_step(ps):
        W, U, b, h0, z, u = ps
        hs, h = [], None
        for t, (lo, hi) in enumerate(_steps(runs)):
            n = hi - lo
            hp = _rows(h0, n) if t == 0 else h.slice(0, n)
            s = _affine_cols(W, [z.slice(lo, hi), u.slice(lo, hi)], b)
            h = _gru_cell_rows(U, hp, s)
            hs.append(h)
        return (_stack(hs) * w).sum()

    if n_seq in GRADCHECK_LENGTHS:
        for k, tol in enumerate((1e-4, 1e-4, 1e-5, 1e-5, 1e-5, 1e-5)):
            # W, U: see the latent_scan test
            def f(ps, k=k):
                return fused(params[:k] + ps + params[k + 1:])

            assert grad_check(f, [params[k]], step=1e-5) < tol, f"input {k}"
    results = []
    for f in (fused, per_step):
        with Tape() as tape:
            out = f(params)
        results.append((out.item(), backward(tape, out)))
    (v_f, g_f), (v_u, g_u) = results
    assert abs(v_f - v_u) <= 1e-12 * abs(v_u)
    for p in params:
        assert np.abs(g_f[p.uid] - g_u[p.uid]).max() <= 1e-12 * np.abs(
            g_u[p.uid]).max()


def _gru_cell_rows(U, hp, s):
    """One gated update from input pre-activations s, basic primitives."""
    n = hp.shape[1]
    t = dc.affine(U, hp, dc.constant(np.zeros(3 * n)))

    def gate(k, v):
        return v.slice(k * n, (k + 1) * n, axis=1)

    r = dc.sigmoid(gate(0, s) + gate(0, t))
    u = dc.sigmoid(gate(1, s) + gate(1, t))
    c = dc.tanh(gate(2, s) + r * gate(2, t))
    return (1.0 - u) * hp + u * c


def test_scans_replay_bit_exact():
    with Tape() as tape:
        for mode in TAPED_MODES:
            params, static = _taped_case(mode, 3)
            cols = _latent(params, **static)
        gru = {k: params[k] for k in ("U", "b", "h0")}
        gru["W"] = Tensor(params["W"].data[:, :N_Z + N_U])
        h = dc.latent_scan(
            [cols["mean"], Tensor(params["xu"].data).slice(0, N_U, axis=1)],
            gru, static["runs"], gru_in=("xu",))["h"]
        loss = (h * h).sum()
    assert tape.ops.count("latent_scan") == len(TAPED_MODES) + 1
    replay(tape)
    assert backward(tape, loss)


def _reference_gru_step(pre, hp, h, gates):
    """One gated update of a step block, as a plain function: pre holds
    [-a = -(W x + b + U h) for reset and update; W x + b for the
    candidate; U_c h_prev]; on exit its third block is the candidate's
    pre-activation, and gates holds [r; u; c; U_c h_prev] with r, u =
    1 / (1 + e^(-a)).  The update divides by 1 + e^(-a) where it would
    multiply by r or u."""
    n = h.shape[0]
    inv = 1.0 + np.exp(pre[:2 * n])     # [1 / r; 1 / u]
    gates[:2 * n] = 1.0 / inv
    pre_c = pre[2 * n:3 * n]
    pre_c += pre[3 * n:4 * n] / inv[:n]
    gates[2 * n:3 * n] = np.tanh(pre_c)
    gates[3 * n:] = pre[3 * n:4 * n]
    np.tanh(pre_c, out=h)
    h -= hp
    h /= inv[n:]
    h += hp


def _reference_scan(*arrays, names, runs, gru_in, head_in, clip, pin_first):
    """The scan's forward pass written plainly, slicing every step's
    blocks and multiplying with np.matmul: (output, step blocks of the
    GRU's gates [r; u; c; U_c h], step blocks of the hidden layer), which
    the optimized loop must reproduce bit for bit."""
    sp = dc._ScanParts(arrays, names, runs, gru_in, head_in, clip, pin_first)
    p, rows, KT, cols = sp.p, sp.rows, sp.KT, sp.cols
    n_h, n_z, n_hid = sp.n_h, sp.n_z, sp.n_feat
    hs, zs, a_rows = rows["h"], rows["z"], slice(4 * n_h, None)
    one_h = slice(rows["one"].start, hs.stop)
    out = np.zeros((sp.n_rows, max(c.stop for c in cols.values())))
    if sp.sample:
        lv_lo, lv_hi = clip[0] * 0.5, clip[1] * 0.5
    blk = np.zeros((sp.n_state, runs[0][2]))
    blk[rows["one"]] = 1.0
    if sp.gru:
        blk[hs] = p["h0"][:, None]
    GATES, FEAT = [], []
    for k, run in enumerate(runs):
        a, b, w = run
        s = (b - a) // w
        S = np.empty((s, sp.n_state, w))
        S[:, rows["one"]] = 1.0
        off = 0
        for x in sp.xs:
            c = x.shape[1]
            blk[off:off + c, :w] = x[a:a + w].T
            if s > 1:
                S[:-1, off:off + c] = dc._run_rows(x, (a + w, b, w))
            off += c
        pre = np.empty((s, KT.shape[0], w))
        gates = np.empty((s, 4 * n_h, w))
        if sp.head:
            A_run = pre[:, a_rows] if sp.prev_in else np.zeros((s, sp.n_a, w))
            ML = A_run
            if sp.hidden:
                FE = np.zeros((s, n_hid + 1, w))
                FE[:, n_hid] = 1.0
                FEAT.append(FE)
                if sp.sample:
                    ML = np.zeros((s, 2 * n_z, w))
            if sp.sample:
                E = dc._blocks(p["eps"], run)
                LVH = np.zeros((s, n_z, w))
        inp = blk[:, :w]
        for i in range(s):
            blk = S[i]
            pre_t = pre[i]
            np.matmul(KT, inp, out=pre_t)
            if sp.gru:
                _reference_gru_step(pre_t, inp[hs], blk[hs], gates[i])
            if pin_first and not (k or i):
                np.copyto(blk[zs], E[0])
            elif sp.head:
                a_t = A_run[i]
                if not sp.prev_in:
                    np.matmul(sp.FhB, blk[one_h], out=a_t)
                elif sp.reads_h:
                    a_t += sp.Fh @ blk[hs]
                ml = a_t
                if sp.hidden:
                    f_t = FE[i]
                    np.tanh(a_t, out=f_t[:n_hid])
                    ml = ML[i] if sp.sample else blk[zs]
                    np.matmul(sp.Mf, f_t, out=ml)
                elif not sp.sample:
                    np.copyto(blk[zs], ml)
                if sp.sample:
                    lvh = np.maximum(ml[n_z:], lv_lo, out=LVH[i])
                    np.minimum(lvh, lv_hi, out=lvh)
                    z = np.exp(lvh, out=blk[zs])
                    z *= E[i]
                    z += ml[:n_z]
            inp = blk
        np.copyto(dc._run_rows(out[:, sp.hz_cols], run), S[:, hs.start:])
        if sp.sample:
            np.copyto(dc._run_rows(out[:, cols["mean"]], run), ML[:, :n_z])
            np.multiply(LVH, 2.0, out=dc._run_rows(out[:, cols["log_var"]], run))
        if sp.gru:
            GATES.append(gates)
    if sp.head:
        n0 = runs[0][2]
        if pin_first:
            out[:n0, cols["mean"].start:cols["log_var"].stop] = 0.0
        z_col = cols["z" if sp.sample else "mean"]
        steps = _steps(runs)    # each row's previous row, from the runs
        prev = [lo + i for (lo, _), (a, b) in zip(steps, steps[1:])
                for i in range(b - a)]
        out[n0:, cols["z_prev"]] = out[prev, z_col]
    return out, GATES, FEAT


@pytest.mark.parametrize("n_seq", list(SCAN_LENGTHS))
@pytest.mark.parametrize("mode", sorted(SCAN_MODES) + ["gru_alone"])
def test_latent_scan_forward_matches_plain_loop_bit_for_bit(mode, n_seq):
    """Every scan mode, and the GRU alone over two input blocks as the
    prior's summary runs it: the whole output node and the step blocks
    the backward pass reads: the GRU's gates and the hidden layer.  The
    untaped public scan gives the same output."""
    arrays, static = _scan_case("history" if mode == "gru_alone" else mode,
                                n_seq)
    xs = [arrays.pop("xu")]
    if mode == "gru_alone":    # W reads [xu, eps] as its one input block
        xs.append(arrays.pop("eps"))
        arrays = {k: arrays[k] for k in ("h0", "W", "U", "b")}
        static.update(gru_in=("xu",), head_in=())
    kw = dict(static, runs=tuple(static["runs"]), names=tuple(arrays))
    out, GATES, FEAT = _reference_scan(*xs, *arrays.values(), **kw)
    got, sp = dc._latent_scan(*xs, *arrays.values(), keep=True, **kw)
    assert len(sp.GATES) == len(GATES) and len(sp.FEAT) == len(FEAT)
    assert len(GATES) == len(sp.runs) * sp.gru
    for a, b in zip([got] + sp.GATES + sp.FEAT, [out] + GATES + FEAT):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    with no_tape():
        rows = dc.latent_scan([Tensor(x) for x in xs],
                              {k: Tensor(a) for k, a in arrays.items()},
                              **static).rows
    assert rows.data.tobytes() == out.tobytes()


def test_scan_overflow_is_loud():
    """Each overflow below feeds a saturating function (a gate, the
    hidden tanh layer or the log-variance clip), so without the scans'
    pre-activation checks the outputs would stay finite.  The input-row
    cases sit at the edges of the scans' step blocks."""
    arrays, static = _scan_case("history", 3)
    z_cols = slice(N_X + N_U, N_IN)
    huge = []
    for name, rows, cols in (("W", slice(0, N_H), z_cols),  # reset gate via z_prev
                             ("U", slice(2 * N_H, None), slice(None)),  # candidate
                             ("W1", slice(None), slice(None)),  # hidden layer
                             ("Wv", slice(None), slice(None))):  # log-variance
        big = arrays[name].copy()
        big[rows, cols] = 1e308
        huge.append({**arrays, name: big})
    # One 1e308 input entry, which a weight of 2 in every gate overflows:
    # in the last row of the shortest sequence (the last column of a step
    # whose next step is narrower) and in the first step.
    runs, lengths = static["runs"], SCAN_LENGTHS[3]
    W = arrays["W"].copy()
    W[:, 0] = 2.0
    rows = {}
    for row in (_steps(runs)[min(lengths) - 1][0] + len(lengths) - 1, 0):
        xu = arrays["xu"].copy()
        xu[row, 0] = 1e308
        rows[row] = xu
        huge.append({**arrays, "W": W, "xu": xu})
    assert sorted(rows) == [0, 5]
    with np.errstate(over="ignore", invalid="ignore"):
        for case in huge:
            with pytest.raises(NonFiniteError, match="latent_scan"):
                _latent({k: Tensor(a) for k, a in case.items()}, **static)
        # the same GRU without a head, over two input blocks
        zs = np.ones((runs[-1][1], N_Z))
        big_U = arrays["U"].copy()
        big_U[:N_H] = 1e308
        for U, xu in [(big_U, arrays["xu"])] + [(arrays["U"], x) for x in rows.values()]:
            gru = dict(W=Tensor(W), U=Tensor(U), b=Tensor(arrays["b"]),
                       h0=Tensor(arrays["h0"]))
            with pytest.raises(NonFiniteError, match="latent_scan"):
                dc.latent_scan([Tensor(xu), Tensor(zs)], gru, runs,
                               gru_in=("xu",))


def test_scan_gates_saturate_without_warnings():
    """Gate pre-activations of -1000, set through the bias, overflow
    e^(-a) to inf: an update gate there keeps h at h_prev bit for bit,
    and a reset gate there drops U_c h from the candidate, in a taped and
    an untaped scan, with no warning and finite gradients.  A scan that
    raises NonFiniteError leaves numpy's error state as it found it."""
    arrays, static = _scan_case("history", 3)
    runs = static["runs"]
    zs = np.ones((runs[-1][1], N_Z))
    W = arrays["W"][:, :N_X + N_U + N_Z]

    def weights(b, U=arrays["U"]):
        return dict(W=Tensor(W), U=Tensor(U), b=Tensor(b),
                    h0=Tensor(arrays["h0"]))

    def gru_h(gru, taped=False):
        with Tape() if taped else no_tape() as tape:
            h = dc.latent_scan([Tensor(arrays["xu"]), Tensor(zs)], gru, runs,
                               gru_in=("xu",))["h"]
            if taped:
                grads = backward(tape, (h * h).sum())
                assert all(np.isfinite(grads[t.uid]).all()
                           for t in gru.values())
        return h.data

    shut, no_reset = arrays["b"].copy(), arrays["b"].copy()
    shut[N_H:2 * N_H] = -1000.0        # u = 0
    no_reset[:N_H] = -1000.0           # r = 0
    no_reset[N_H:2 * N_H] = 1000.0     # u = 1: h is the candidate
    U0 = arrays["U"].copy()
    U0[2 * N_H:] = 0.0                 # no U_c h at all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for taped in (False, True):
            h = gru_h(weights(shut), taped)
            assert h.tobytes() == np.tile(arrays["h0"], (len(h), 1)).tobytes()
            cand = gru_h(weights(no_reset), taped)
            assert cand.tobytes() == gru_h(weights(no_reset, U0), taped).tobytes()
            assert not np.array_equal(cand, gru_h(weights(arrays["b"]), taped))
    big_U = arrays["U"].copy()
    big_U[:N_H] = 1e308
    with np.errstate(over="ignore"):   # Tensor's own check squares 1e308
        loud = weights(arrays["b"], big_U)
    # an overflow outside the scan's own handling would raise here
    with np.errstate(over="raise"):
        state = np.geterr()
        with pytest.raises(NonFiniteError, match="latent_scan"):
            gru_h(loud)
        assert np.geterr() == state


def test_scan_backward_reuses_the_forward_gates(monkeypatch):
    """A taped history-mode scan keeps its gates, so its backward pass
    evaluates no gate function: neither expit, np.tanh nor np.reciprocal,
    and np.exp once only, for the noise's scale exp(log_var / 2)."""
    params, static = _taped_case("history", 3)
    with Tape() as tape:
        z = _latent(params, **static)["z"]
        loss = (z * z).sum()
    calls = []

    def counted(name, fn):
        def wrapper(*a, **kw):
            calls.append(name)
            return fn(*a, **kw)
        return wrapper

    monkeypatch.setattr(dc, "expit", counted("expit", dc.expit))
    for name in ("tanh", "exp", "reciprocal"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    grads = backward(tape, loss)
    monkeypatch.undo()
    assert calls == ["exp"]
    assert {params[k].uid for k in ("W", "U", "b", "h0", "Wm")} <= grads.keys()


def test_scan_forms_no_adjoint_toward_constant_inputs(monkeypatch):
    """A taped scan with a head forms no adjoint toward its noise and
    exogenous rows, which are constants.  A headless scan with constant
    weights, as the audit fit's prior summary reads its frozen generative
    side, reports no gradient for them, and its rows' keeps its bits."""
    params, static = _taped_case("history", 3)
    fwd, vjp = dc._OPS["latent_scan"]
    adjoints = []

    def recording_vjp(*a):
        adjoints.append(vjp(*a))
        return adjoints[-1]

    monkeypatch.setitem(dc._OPS, "latent_scan", (fwd, recording_vjp))
    with Tape() as tape:
        z = _latent(params, **static)["z"]
        by_uid = backward(tape, (z * z).sum())
    # inputs in the scan's order: the exogenous rows, then the others
    adj = dict(zip(["xu"] + [k for k in params if k != "xu"], adjoints[0]))
    assert adj["xu"] is None and adj["eps"] is None
    assert not {params[k].uid for k in ("xu", "eps")} & by_uid.keys()
    rows, grads = Tensor(params["xu"].data), []
    for const in (False, True):
        gru = {k: Tensor(params[k].data, const=const) for k in ("h0", "U", "b")}
        gru["W"] = Tensor(params["W"].data[:, :N_X + N_U], const=const)
        with Tape() as tape:
            h = dc.latent_scan([rows], gru, static["runs"], gru_in=("xu",))["h"]
            by_uid = backward(tape, (h * h).sum())
        grads.append([by_uid.get(t.uid) for t in gru.values()] + [by_uid[rows.uid]])
    assert all(g is not None for g in grads[0])
    assert all(g is None for g in grads[1][:-1])
    assert grads[0][-1].tobytes() == grads[1][-1].tobytes()


def _close(got, want):
    """Equal to 1e-12 of want's largest magnitude."""
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _draws_case(mode, n_seq, n_draws, taped):
    """A sampling mode's scan (as _taped_case runs it when taped), and
    noise stacking n_draws draws, the case's own noise first."""
    if taped:
        params, static = _taped_case(mode, n_seq)
    else:
        arrays, static = _scan_case(mode, n_seq)
        params = {k: Tensor(a) for k, a in arrays.items()}
    eps = params["eps"].data
    more = np.random.default_rng(5).standard_normal((n_draws - 1,) + eps.shape)
    return params, static, np.concatenate([eps[None], more])


@pytest.mark.parametrize("n_seq", list(SCAN_LENGTHS))
@pytest.mark.parametrize("mode", TAPED_MODES)
def test_scan_of_several_draws_matches_one_scan_per_draw(mode, n_seq):
    """Untaped, in every sampling mode (the prior pinned): a scan of three
    noise draws gives draw 0's blocks and every draw's z of a one-draw
    scan of that draw's noise, to 1e-12, on layouts whose width falls,
    stays or ends with a one-cycle sequence."""
    params, static, eps = _draws_case(mode, n_seq, 3, taped=False)
    with no_tape():
        scan = _latent({**params, "eps": Tensor(eps)}, **static)
        singles = [_latent({**params, "eps": Tensor(e)}, **static) for e in eps]
    assert set(scan) == set(singles[0])
    for k in scan:
        assert _close(scan[k].data, singles[0][k].data), k
    for d, single in enumerate(singles):
        assert _close(scan.draw(d), single["z"].data), d
    with pytest.raises(IndexError):
        scan.draw(3)


@pytest.mark.parametrize("n_seq", list(SCAN_LENGTHS))
@pytest.mark.parametrize("mode", TAPED_MODES)
def test_taped_scan_of_two_draws_differentiates_draw_zero(mode, n_seq):
    """A taped scan of two draws records draw 0 alone: a loss on every
    block gets the value and the gradients of the same loss on a one-draw
    taped scan of draw 0's noise, to 1e-12."""
    params, static, eps = _draws_case(mode, n_seq, 2, taped=True)
    results = []
    for e in (eps, eps[0]):
        with Tape() as tape:
            loss = _weighted(_latent({**params, "eps": dc.constant(e)}, **static))
        grads = backward(tape, loss)
        results.append((loss.data, {k: grads[p.uid] for k, p in params.items()
                                    if p.uid in grads}))
    (loss_2, grads_2), (loss_1, grads_1) = results
    assert _close(loss_2, loss_1)
    assert grads_2.keys() == grads_1.keys() == {
        k for k, p in params.items() if not p.const}
    for k in grads_1:
        assert _close(grads_2[k], grads_1[k]), k


@pytest.mark.parametrize("mode", ["history", "markovian"])
def test_taped_scan_of_two_draws_gradcheck(mode):
    """grad_check of every weight through draw 0 of a taped two-draw scan
    (bars as in test_latent_scan_gradcheck)."""
    params, static, eps = _draws_case(mode, 3, 2, taped=True)
    params["eps"] = dc.constant(eps)
    for k in [k for k, t in params.items() if not t.const]:
        def f(ps, k=k):
            return _weighted(_latent({**params, k: ps[0]}, **static))

        tol = 1e-4 if k in ("W", "U") else 1e-5
        assert grad_check(f, [params[k]], step=1e-5) < tol, k


def _width_one_arrays():
    """A product of a (5, 4) parameter q, then a headless GRU scan over one
    sequence of 5 rows, a single run of width 1, and q's inputs."""
    g = np.random.default_rng(0)
    return [g.standard_normal((5, 4)), g.standard_normal((5, 3)),
            g.standard_normal(4), g.standard_normal((12, 3)),
            g.standard_normal((12, 4)), g.standard_normal(12)]


def _width_one_loss(ps):
    """sum(h + q * 1): the add passes one output adjoint on to both the
    scan and the product, which the tape holds before the scan."""
    q, xu, h0, W, U, b = ps
    q_times_1 = q * 1.0
    h = dc.latent_scan([xu], dict(h0=h0, W=W, U=U, b=b),
                       [(0, 5, 1)], gru_in=("xu",))["h"]
    return (h + q_times_1).sum()


def test_width_one_scan_leaves_its_output_adjoint_alone():
    """A width-1 run's step blocks are contiguous views of the output
    adjoint; the scan's backward adds into copies of them, so the adjoint
    the add shares with q's product stays ones."""
    params = [Tensor(a) for a in _width_one_arrays()]
    with Tape() as tape:
        loss = _width_one_loss(params)
    assert np.array_equal(backward(tape, loss)[params[0].uid], np.ones((5, 4)))
    assert grad_check(_width_one_loss, params) < 1e-6


def _refused_case(case):
    """(inputs by name, static arguments) of a scan with a head that a
    tape does not record (see latent_scan), one per excluded case."""
    # the markovian head reads xu itself
    mode = {"pinned": "prior", "no_eps": "deterministic",
            "xu_read_by_a_head": "markovian"}.get(case, "history")
    params, static = _taped_case(mode, 3)
    if case == "pinned":
        static["pin_first"] = True
    elif case == "eps_parameter":
        params["eps"] = Tensor(params["eps"].data)
    elif case == "xu_read_by_a_head":
        params["xu"] = Tensor(params["xu"].data)
    return params, static


@pytest.mark.parametrize("case", ["pinned", "no_eps", "eps_parameter",
                                  "xu_read_by_a_head"])
def test_taped_scan_refuses_a_chain_its_backward_does_not_serve(case):
    params, static = _refused_case(case)
    with Tape():
        with pytest.raises(ValueError, match="taped latent_scan with a head"):
            _latent(params, **static)
    with no_tape():   # the untaped forward runs every mode
        assert _latent(params, **static)["z"].shape == (static["runs"][-1][1], N_Z)


def test_taped_gauss_bound_refuses_observations_that_are_not_constant():
    """The bound's rule forms no adjoint toward x: a parameter x would
    get no gradient, so a tape refuses it; untaped it runs."""
    arrays, x, _ = _bound_inputs(True, 3, 0)
    p = {k: Tensor(a) for k, a in arrays.items()}
    heads = {k: t for k, t in p.items() if k not in ("rows", "hist")}
    scan = dc.ScanRows(p["rows"], _bound_cols(True))
    with Tape():
        with pytest.raises(ValueError, match="constant observations"):
            dc.gauss_bound(scan, Tensor(x), heads, p["hist"], 3, BOUND_CLIP)
    assert dc.gauss_bound(scan, Tensor(x), heads, p["hist"], 3,
                          BOUND_CLIP).shape == (2, 10)


def test_latent_scan_input_errors():
    arrays, static = _scan_case("history", 3)
    params = {k: Tensor(a) for k, a in arrays.items()}
    for drop in ("Wv", "U", "Wm"):  # a log-variance head without weights...
        with pytest.raises(ValueError):
            _latent({k: t for k, t in params.items() if k != drop}, **static)
    with pytest.raises(ValueError):  # an unknown input
        _latent({**params, "V": params["U"]}, **static)
    with pytest.raises(ValueError):  # W's columns do not match its blocks
        _latent(params, **{**static, "gru_in": ("xu",)})
    with pytest.raises(ValueError):  # noise rows of another count
        _latent({**params, "eps": Tensor(arrays["eps"][1:])}, **static)
    for eps in (arrays["eps"][None, :0], arrays["eps"][None, :, :, None],
                np.stack([arrays["eps"][1:]] * 2)):   # no draws, 4-d, rows
        with pytest.raises(ValueError, match="latent_scan shapes unsupported"):
            _latent({**params, "eps": Tensor(eps)}, **static)
    with pytest.raises(ValueError):
        _latent(params, **{**static, "runs": static["runs"][:-1]})
    with pytest.raises(ValueError):  # sampling without a clip
        _latent(params, **{**static, "clip": None})
    with pytest.raises(ValueError):  # a pinned first step without noise
        _latent({k: t for k, t in params.items() if k not in ("eps", "Wv", "bv")},
                **{**static, "pin_first": True})
    # one malformed input per shape clause of _ScanParts, each of which
    # must be the clause that raises
    n_hid = arrays["W1"].shape[0]
    wide = np.ones((N_Z, n_hid + 1))
    for bad in ({"h0": np.ones(N_H + 1)}, {"U": np.ones((3 * N_H + 1, N_H))},
                {"b": np.ones(3 * N_H - 1)}, {"b1": np.ones(n_hid + 1)},
                {"bm": np.ones(N_Z + 1)}, {"bv": np.ones(N_Z + 1)},
                {"W": np.ones((3 * N_H + 3, arrays["W"].shape[1]))},
                {"Wm": np.ones(N_Z), "Wv": np.ones(N_Z)},   # not 2-D
                {"Wm": wide, "Wv": wide},    # Wm's width is not W1's rows
                {"Wv": np.ones((N_Z + 1, n_hid))}):     # Wv unlike Wm
        with pytest.raises(ValueError, match="latent_scan shapes unsupported"):
            _latent({**params, **{k: Tensor(a) for k, a in bad.items()}},
                    **static)
    xu = arrays["xu"]   # an exogenous block of another row count
    with pytest.raises(ValueError, match="latent_scan shapes unsupported"):
        dc.latent_scan([Tensor(xu[:, :1]), Tensor(xu[1:, 1:])],
                       {k: t for k, t in params.items() if k != "xu"},
                       **static)
    # without a head: a GRU is required, no head weights or noise are
    # taken, and there is no sample z to read
    xs, runs = [params["xu"]], static["runs"]
    gru = {k: params[k] for k in ("h0", "U", "b")}
    gru["W"] = Tensor(arrays["W"][:, :N_X + N_U])
    assert dc.latent_scan(xs, gru, runs, gru_in=("xu",))["h"].shape == (
        runs[-1][1], N_H)
    for inputs, gru_in in (({}, ("xu",)), ({**gru, "eps": params["eps"]}, ("xu",)),
                           ({**gru, "Wm": params["Wm"]}, ("xu",)),
                           ({**gru, "W": params["W"]}, ("xu", "z"))):
        with pytest.raises(ValueError):
            dc.latent_scan(xs, inputs, runs, gru_in=gru_in)


def test_scan_builds_its_step_matrices_once(monkeypatch):
    """A taped forward and its backward build one set of step matrices:
    the backward reads the forward's, kept on the tape."""
    builds = []

    class Counted(dc._ScanParts):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(dc, "_ScanParts", Counted)
    for mode in TAPED_MODES + ["no head"]:
        params, static = _taped_case("history" if mode == "no head" else mode, 3)
        builds.clear()
        with Tape() as tape:
            if mode == "no head":
                gru = {k: params[k] for k in ("h0", "U", "b")}
                gru["W"] = Tensor(params["W"].data[:, :N_X + N_U])
                cols = dc.latent_scan([params["xu"]], gru, static["runs"],
                                      gru_in=("xu",))
            else:
                cols = _latent(params, **static)
            loss = _weighted(cols)
        assert backward(tape, loss)
        assert len(builds) == 1, mode


def test_slice_along_columns():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert x.slice(1, 3, axis=1).data.tolist() == [[1, 2], [5, 6], [9, 10]]
    with pytest.raises(ValueError):
        x.slice(3, 5, axis=1)
    with pytest.raises(ValueError):
        x.slice(0, 1, axis=2)
    assert grad_check(
        lambda ps: (ps[0].slice(1, 3, axis=1) * ps[0].slice(0, 2, axis=1)).sum(),
        [Tensor(np.arange(12.0).reshape(3, 4) / 7.0)]) < 1e-8


def _gradchecked_forwards():
    """(f, params) of every case in the tables that grad_check tests run:
    _PRIMITIVE_CASES, _fused_cases, _row_cases and the taped scan modes."""
    g = np.random.default_rng(7)
    for f in _PRIMITIVE_CASES.values():
        yield f, [Tensor(g.normal(size=5)), Tensor(g.normal(size=5))]
    for _, fused, _, arrays, _ in _fused_cases():
        yield fused, arrays
    for _, f, arrays, _, _ in _row_cases(1):
        yield f, arrays
    for mode in TAPED_MODES:
        params, static = _taped_case(mode, 3)
        yield (lambda ps, names=list(params), static=static:
               _weighted(_latent(dict(zip(names, ps)), **static))), params.values()


def test_every_primitive_has_a_gradient_check():
    """Each primitive is on the tape of some case that a grad_check test
    runs; a new primitive fails here until one of the tables covers it."""
    taped = set()
    for f, arrays in _gradchecked_forwards():
        with Tape() as tape:
            f([a if isinstance(a, Tensor) else Tensor(a) for a in arrays])
        taped |= set(tape.ops)
    assert set(dc.PRIMITIVES) <= taped, sorted(set(dc.PRIMITIVES) - taped)


def test_vjps_leave_their_arguments_unchanged():
    """The op table's rule: no VJP writes into its output adjoint, its
    input values or its output.  Each node of every grad-checked case's
    tape, and of the width-1 scan's, gets a random output adjoint."""
    g = np.random.default_rng(11)
    seen = set()
    for f, arrays in [*_gradchecked_forwards(),
                      (_width_one_loss, _width_one_arrays())]:
        with Tape() as tape:
            f([a if isinstance(a, Tensor) else Tensor(a) for a in arrays])
        for i, op in enumerate(tape.ops):
            if op == "leaf":
                continue
            vals = [tape.values[p] for p in tape.parents[i]]
            out = tape.values[i]
            args = [g.standard_normal(out.shape) + np.zeros(out.shape), out, *vals]
            before = [a.copy() for a in args]
            dc._OPS[op][1](args[0], vals, out, tape.aux[i])
            for k, (a, b) in enumerate(zip(args, before)):
                assert np.array_equal(a, b), (op, k)
            seen.add(op)
    assert seen == set(dc.PRIMITIVES)


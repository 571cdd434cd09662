"""
Reverse-mode differentiation on a tape
======================================

Every public array operation records itself on an active Tape; walking
the tape backwards accumulates exact gradients for the leaves.  This
script replays the tape bit-exactly, differentiates a small composite
function (the walk consumes the tape, so the replay comes first), shows
fan-out accumulation, and checks the result against central
differences.
"""

import numpy as np

from avfp.diffcore import Tape, Tensor, backward, grad_check, replay, tanh

# a parameter vector and a weight matrix, both leaves
w = Tensor(np.array([[0.4, -0.3], [0.1, 0.7], [-0.5, 0.2]]))
p = Tensor(np.array([1.0, -2.0]))

with Tape() as tape:
    h = tanh(w @ p)          # (3,)
    y = (h * h).sum() + p.sum()

# a tape can re-execute its recorded program; any deviation from the
# cached forward values raises, so reaching the next line is the proof.
# backward() drops those values as it walks, so replay comes first.
replay(tape)
print("replay reproduced every node bit-exactly")

grads = backward(tape, y)
print("value        :", y.item())
print("d y / d p    :", grads[p.uid])
print("d y / d w    :", grads[w.uid].ravel())

# fan-out: p appears twice in p*p + 3p, so adjoints must accumulate
q = Tensor(np.array(2.0))
with Tape() as t2:
    z = q * q + q * 3.0
g = backward(t2, z)[q.uid]
print("d/dq of q^2 + 3q at q=2:", float(g), "(expected 7)")

# the same gradients, but measured: central differences as the referee
def f(leaves):
    ww, pp = leaves
    h = tanh(ww @ pp)
    return (h * h).sum() + pp.sum()

err = grad_check(f, [Tensor(w.data.copy()), Tensor(p.data.copy())])
print("worst relative error vs central differences:", err)

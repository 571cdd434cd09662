"""Per-primitive forward and backward cost at default-spec model shapes.

Uses only the public diffcore API.  The 15 primitives of the seed
package each have an input recipe below; any primitive added to
`diffcore.PRIMITIVES` later is reported as not covered instead of
failing, so adding fused ops does not require editing the benchmark.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Default NetworkSpec on the FD001-shaped fleet: 14 retained sensors,
# 2 retained settings, n_z = 8, n_h = 32, every head 32 wide; the GRU
# input is concat(x, u, z_prev) and its packed gates are 3 * n_h wide.
N_X, N_U, N_Z, N_H = 14, 2, 8, 32


def _recipes():
    g = np.random.default_rng(0)
    vec = lambda n: g.uniform(-1.0, 1.0, n)  # noqa: E731
    return {
        "add": ([vec(N_H), vec(N_H)], {}),
        "sub": ([vec(N_H), vec(N_H)], {}),
        "mul": ([vec(N_H), vec(N_H)], {}),
        "matmul": ([g.uniform(-0.3, 0.3, (3 * N_H, N_X + N_U + N_Z)),
                    vec(N_X + N_U + N_Z)], {}),
        "tanh": ([vec(N_H)], {}),
        "sigmoid": ([vec(N_H)], {}),
        "exp": ([vec(N_Z)], {}),
        "log": ([g.uniform(0.1, 1.0, N_Z)], {}),
        "softplus": ([vec(1)], {}),
        "sum": ([vec(N_Z)], {}),
        "mean": ([vec(N_Z)], {}),
        "concat": ([vec(N_X), vec(N_U), vec(N_Z)], {}),
        "slice": ([vec(3 * N_H)], {"start": 0, "stop": N_H}),
        "broadcast": ([np.float64(0.5)], {"shape": (1,)}),
        "clip": ([vec(N_Z) * 10.0], {"lo": -5.0, "hi": 5.0}),
    }


SEED_PRIMITIVES = tuple(_recipes())


def _per_call_us(fn, calls: int, blocks: int) -> float:
    """Median over blocks of the mean wall time of one call, in µs."""
    per = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        per.append((time.perf_counter() - t0) / calls)
    return statistics.median(per) * 1e6


def run(calls: int = 300, blocks: int = 7) -> tuple[dict[str, float], list[str]]:
    """Returns ({metric: µs}, [primitives present but not covered])."""
    from avfp import diffcore as dc

    out: dict[str, float] = {}
    recipes = _recipes()
    for op in SEED_PRIMITIVES:
        if op not in dc.PRIMITIVES:     # removed later: nothing to time
            for kind in ("fwd_untaped_us", "fwd_us", "bwd_us"):
                out[f"diffcore.prim.{op}.{kind}"] = 0.0
            continue
        arrays, kw = recipes[op]
        params = [dc.parameter(a) for a in arrays]

        def fwd():
            dc.apply_primitive(op, *params, **kw)

        with dc.no_tape():
            out[f"diffcore.prim.{op}.fwd_untaped_us"] = _per_call_us(
                fwd, calls, blocks)
        with dc.Tape():
            out[f"diffcore.prim.{op}.fwd_us"] = _per_call_us(fwd, calls, blocks)

        # Backward: one op node plus a sum to a scalar, minus the same
        # tape without the op node (a leaf of the op's output shape).
        with dc.Tape() as tape:
            y = dc.apply_primitive(op, *params, **kw)
            loss = dc.apply_primitive("sum", y)
        with dc.Tape() as base_tape:
            base_loss = dc.apply_primitive(
                "sum", dc.parameter(np.zeros(y.data.shape)))
        with_op = _per_call_us(lambda: dc.backward(tape, loss), calls, blocks)
        base = _per_call_us(lambda: dc.backward(base_tape, base_loss),
                            calls, blocks)
        out[f"diffcore.prim.{op}.bwd_us"] = with_op - base
    not_covered = [p for p in dc.PRIMITIVES if p not in recipes]
    return out, not_covered

"""One benchmark workload, run in this (fresh, single-threaded) process.

    python3 perfbench/workloads.py --workload fleet-train --seed 0 \
        --seconds 20 --trace 0 --work .perfbench_work/x

`run.py` starts this file with BLAS/OpenMP pinned to one thread and
`src/` on the path; run it through `run.py`.  The last stdout line is
the result object; the line before it carries the workload's named
metrics (raw wall times), the checks and run details.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# FD001-shaped synthetic fleet (100 train and 100 test units, lives
# 128-362 cycles): about 25k train rows and 20k test rows at seed 0.
FLEET = dict(n_train_units=100, n_test_units=100, min_life=128, max_life=362)
SETUP_REPS = 3
TRAIN_STEPS = 1          # optimizer steps per train call
HI_UNITS = 10            # train and test units in the health-index call
CHECK_UNITS = 10         # units re-scored by one batched call for the check
TRACE_UNITS = 25         # per-unit calls in the traced fleet-score-unit
ORACLE = dict(n_instances=1, draws=256, fit_steps=2000, seed=0)
GRAD_TOL = 1e-4
RTOL = 1e-12

# The shared host this benchmark was built on runs the interpreter up
# to ~1.7x slower for tens of seconds at a time.  A fixed pure-Python
# loop slows by the same factor: over 70 s of per-unit predict_rul calls
# the call time moved by ±40% while its ratio to the loop timed beside
# it moved by ±5%.  So a timer interrupts the process every
# SAMPLE_PERIOD_S to time the loop, and gated times are raw × (loop's
# quiet time) / (mean loop time while the call ran): wall time at the
# quiet speed of that host (2-vCPU Xeon VM, Python 3.11).  The samples'
# own time is taken out of the raw times.
REF_LOOPS = 15_000
REF_NOMINAL_S = 1.275e-3
SAMPLE_PERIOD_S = 0.2


def _ref_loop(n: int = REF_LOOPS) -> int:
    s, d = 0, {}
    for i in range(n):
        d[i & 63] = s
        s += (i * 3) % 7
    return s


class Meter:
    """Times calls; samples the host's speed from a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, end)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _ref_loop()
        self.samples.append((t0, time.perf_counter()))

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def call(self, fn, *a, **kw):
        """Returns ((start, end, raw seconds), fn's result)."""
        n0 = len(self.samples)
        t0 = time.perf_counter()
        out = fn(*a, **kw)
        t1 = time.perf_counter()
        paused = sum(e - s for s, e in self.samples[n0:])
        return (t0, t1, t1 - t0 - paused), out

    def rescaled(self, rec) -> float:
        """A call's raw seconds at the host's quiet speed."""
        t0, t1, raw = rec
        near = [e - s for s, e in self.samples
                if t0 - SAMPLE_PERIOD_S <= s <= t1 + SAMPLE_PERIOD_S]
        if not near:    # a long C call held the signal back
            near = [min((abs(s - t0), e - s) for s, e in self.samples)[1]]
        return raw * REF_NOMINAL_S / statistics.mean(near)


class Run:
    """What a workload reports: metrics, operation counts and checks."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = args.work
        self.meter = Meter()
        # numpy, scipy and all seven modules; nothing has imported them yet
        self.import_rec, _ = self.meter.call(importlib.import_module, "avfp")
        self.metrics: dict[str, tuple[float, str]] = {}
        self.named: dict[str, tuple[float, str]] = {}
        self.checks: dict[str, bool] = {}
        self.info: dict = {}
        self.attempted = 0
        self.failed = 0

    def setup(self, fn=None):
        """Set-up time: the avfp import (once per process) plus the median
        of SETUP_REPS calls of fn (loading the inputs); returns fn's last
        result."""
        raws, norms, out = [0.0], [0.0], None
        if fn is not None:
            raws, norms = [], []
            for _ in range(SETUP_REPS):
                out = None      # one set of inputs alive at a time
                rec, out = self.meter.call(fn)
                raws.append(rec[2])
                norms.append(self.meter.rescaled(rec))
        imp = self.import_rec
        self.metrics["setup_s"] = (
            self.meter.rescaled(imp) + statistics.median(norms), "s")
        self.named["setup_s"] = (imp[2] + statistics.median(raws), "s")
        return out


def repeat(meter: Meter, fn, share_s: float, min_n: int = 1,
           args=lambda i: ()):
    """Call fn(*args(i)) for i = 0, 1, ... until its share of the run is
    used; the next call starts only if the median call still fits.
    Returns (raw seconds, rescaled seconds, results), one per call."""
    recs, outs = [], []
    t_part = time.perf_counter()
    while True:
        rec, out = meter.call(fn, *args(len(recs)))
        recs.append(rec)
        outs.append(out)
        used = time.perf_counter() - t_part
        if (len(recs) >= min_n
                and used + statistics.median(r[2] for r in recs) > share_s):
            return ([r[2] for r in recs], [meter.rescaled(r) for r in recs],
                    outs)


def write_fleet(run: Run) -> str:
    from avfp import data

    path = os.path.join(run.work, "fleet")
    data.write_synthetic_cmapss(path, seed=run.seed, **FLEET)
    return path


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# reference instance: a small fixed fleet, the same for every --seed.
# Each fleet run recomputes its outputs outside the timing and compares
# them with the seed commit's, stored in reference.json, so code that
# computes wrong values fails the run.  Rebuild the file with
# reference_train() and reference_score() only when the model is meant
# to change.

REF_FLEET = dict(n_train_units=10, n_test_units=4, min_life=40, max_life=50,
                 seed=0)
REF_TOL = 1e-6          # relative; absolute below magnitude 1
STEP_FIELDS = ("combined", "recon", "kl", "adv_gen", "adv_disc", "disc_loss",
               "rul_loss")


def write_reference_fleet(work: str) -> str:
    from avfp import data

    path = os.path.join(work, "ref-fleet")
    data.write_synthetic_cmapss(path, **REF_FLEET)
    return path


def reference_train(work: str) -> dict:
    """One fleet-train call on the reference fleet: its step's loss terms,
    the validation RMSE after it and the checkpoint's SHA-256."""
    from avfp import data, evalcli, training
    from avfp.model import NetworkSpec
    from avfp.training import TrainConfig

    corpus = evalcli.load_corpus(write_reference_fleet(work))
    spec = NetworkSpec(n_x=corpus.n_x, n_u=corpus.n_u)
    config = TrainConfig(seed=REF_FLEET["seed"], eval_every=0)
    res = training.train(corpus.train_trajs, spec, config,
                         stop_after_steps=TRAIN_STEPS)
    path = os.path.join(work, "ref-model.ckpt")
    training.save_checkpoint(res.checkpoint, path)
    _, val = data.train_val_split(corpus.train_trajs, config.val_frac)
    values = {k: getattr(res.steps[0], k) for k in STEP_FIELDS}
    values["val_rmse"] = training.rmse_per_cycle(res.params, val)
    return {"sha256": sha256(path),
            "values": {k: None if v is None else float(v)
                       for k, v in values.items()}}


def reference_train_elsewhere(work: str) -> dict | None:
    """reference_train in a fresh interpreter with another hash seed."""
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    code = ("import json, sys; sys.path.insert(0, %r); import workloads; "
            "print(json.dumps(workloads.reference_train(%r)))" % (HERE, work))
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    except (OSError, subprocess.SubprocessError):
        return None
    return json.loads(out.stdout.strip().splitlines()[-1])


def reference_score(work: str) -> dict:
    """The reference fleet scored on its untrained checkpoint: per-unit
    predictions, each test unit's last latent mean and the health-index
    predictions over the whole reference fleet."""
    from avfp import evalcli

    fleet = write_reference_fleet(work)
    ckpt_path = os.path.join(work, "ref-untrained.ckpt")
    write_untrained(fleet, ckpt_path, REF_FLEET["seed"])
    corpus, ckpt, params = load_scoring(fleet, ckpt_path)
    cap = ckpt.config.rul_cap
    units = by_id(corpus.test_trajs)
    return {
        "unit": [float(evalcli.predict_rul(params, [u], corpus.truth,
                                           cap=cap).predicted[0])
                 for u in units],
        "latent_last": [float(v) for u in units
                        for v in evalcli.latent_mean_curve(params, u)[-1]],
        "hi": [float(p) for p in hi_call(params, corpus, cap).predicted],
    }


def check_reference(run: Run, key: str, got: dict) -> None:
    with open(os.path.join(HERE, "reference.json")) as f:
        want = json.load(f)[key]

    def close(a, b):
        if a is None or b is None:
            return a is b
        return abs(a - b) <= REF_TOL * max(1.0, abs(b))

    def flat(d):
        return [(k, v) for k in sorted(d)
                for v in (d[k] if isinstance(d[k], list) else [d[k]])]

    pairs = list(zip(flat(got), flat(want)))
    run.checks["matches_reference"] = (
        len(flat(got)) == len(flat(want))
        and all(ka == kb and close(a, b) for (ka, a), (kb, b) in pairs))
    run.info["reference_max_abs_diff"] = max(
        (abs(a - b) for (_, a), (_, b) in pairs
         if a is not None and b is not None), default=0.0)


# The workloads call avfp through module attributes (training.train, not
# a bound name) so that the traced run's wrappers see these calls too.

# ---------------------------------------------------------------------------
# fleet-train: taped training on the FD001-shaped fleet


def fleet_train(run: Run, unit_only: bool = False):
    from avfp import data, evalcli, rng, training
    from avfp.model import NetworkSpec
    from avfp.training import TrainConfig, TrainingAborted

    fleet = write_fleet(run)
    ckpt_path = os.path.join(run.work, "model.ckpt")

    # The validation eval runs after each timed call, not inside it: its
    # rows per batch row vary from 1.06 to 1.50 across seeds 1-5, which
    # moved ms_per_row by up to 8%, and the fleet-score workloads time
    # that path.
    def setup():
        corpus = evalcli.load_corpus(fleet)
        spec = NetworkSpec(n_x=corpus.n_x, n_u=corpus.n_u)
        config = TrainConfig(seed=run.seed, eval_every=0)
        return corpus, spec, config

    def one_call(corpus, spec, config):
        res = training.train(corpus.train_trajs, spec, config,
                             stop_after_steps=TRAIN_STEPS)
        training.save_checkpoint(res.checkpoint, ckpt_path)
        return res

    def val_rmse(corpus, config, params):
        _, val = data.train_val_split(corpus.train_trajs, config.val_frac)
        return training.rmse_per_cycle(params, val)

    if unit_only:
        def unit():
            corpus, spec, config = setup()
            val_rmse(corpus, config, one_call(corpus, spec, config).params)
        return unit

    corpus, spec, config = run.setup(setup)

    # Rows of the batches the first TRAIN_STEPS steps take, from the
    # same split and epoch-0 shuffle that train uses.
    train_trajs, _ = data.train_val_split(corpus.train_trajs, config.val_frac)
    order = rng.stream(config.seed, "shuffle", 0).permutation(len(train_trajs))
    n = TRAIN_STEPS * config.trajectories_per_batch
    rows = sum(train_trajs[i].length for i in order[:n])
    phases = TRAIN_STEPS * (1 + (config.lambda_adv > 0) + 1)

    def op():
        # Keep only a summary: the result's parameters still reference
        # their last tapes, which hold every node value of the step.
        try:
            res = one_call(corpus, spec, config)
        except TrainingAborted:
            return None
        opt = res.checkpoint.opt
        skipped = (res.skipped_batches + opt["disc"]["skipped"]
                   + opt["rul"]["skipped"])
        vals = [getattr(s, k) for s in res.steps for k in STEP_FIELDS]
        return sha256(ckpt_path), skipped, vals

    # At least two calls, so the checkpoint comparison always has a pair.
    raws, norms, results = repeat(run.meter, op, run.seconds, min_n=2)
    done = [(r, n, out) for r, n, out in zip(raws, norms, results)
            if out is not None]
    evals = [val_rmse(corpus, config, training.params_from_checkpoint(
        training.load_checkpoint(ckpt_path)))] if done else []
    run.attempted = phases * len(results)
    run.failed = (phases * (len(results) - len(done))
                  + sum(out[1] for _, _, out in done))
    vals = [v for _, _, out in done for v in out[2]] + evals
    run.checks["checkpoint_sha256_identical"] = (
        len({out[0] for _, _, out in done}) == 1)
    run.checks["trace_values_finite"] = all(
        v is not None and math.isfinite(v) for v in vals)
    ref = reference_train(os.path.join(run.work, "ref"))
    other = reference_train_elsewhere(os.path.join(run.work, "ref-other"))
    run.checks["checkpoint_sha256_across_processes"] = (
        other is not None and other["sha256"] == ref["sha256"])
    check_reference(run, "fleet-train", ref["values"])

    if done:
        raw_s = statistics.median(r for r, _, _ in done)
        norm_s = statistics.median(n for _, n, _ in done)
    else:
        raw_s = norm_s = math.inf
    run.metrics["ms_per_row"] = (norm_s / rows * 1e3, "ms")
    run.named.update({
        "train_rows_per_s": (rows / raw_s, "rows/s"),
        "val_rmse": (evals[0] if evals else math.nan, "cycles"),
    })
    run.info.update(train_call_s=raws, rows_per_call=rows,
                    checkpoint_sha256=sorted({out[0] for _, _, out in done}))


# ---------------------------------------------------------------------------
# fleet-score-unit and fleet-score-hi: untaped filtering on an untrained
# checkpoint, one unit per call or the health index over a fleet slice


def write_untrained(fleet: str, ckpt_path: str, seed: int) -> None:
    """Saves the TrainConfig(epochs=0) checkpoint the scoring loads."""
    from avfp import evalcli, training
    from avfp.model import NetworkSpec
    from avfp.training import TrainConfig

    corpus = evalcli.load_corpus(fleet)
    spec = NetworkSpec(n_x=corpus.n_x, n_u=corpus.n_u)
    res = training.train(corpus.train_trajs, spec,
                         TrainConfig(seed=seed, epochs=0))
    training.save_checkpoint(res.checkpoint, ckpt_path)


def load_scoring(fleet: str, ckpt_path: str):
    """What `avfp eval` loads: the corpus, the checkpoint, its params."""
    from avfp import evalcli, training

    corpus = evalcli.load_corpus(fleet)
    ckpt = training.load_checkpoint(ckpt_path)
    return corpus, ckpt, training.params_from_checkpoint(ckpt)


def by_id(trajs):
    return sorted(trajs, key=lambda t: t.unit_id)


def hi_call(params, corpus, cap, n_units=None):
    """Health-index prediction for the first n_units test units, fitted
    on the first n_units train units (all units when None)."""
    from avfp import evalcli

    return evalcli.predict_rul(params, by_id(corpus.test_trajs)[:n_units],
                               corpus.truth, mode="health_index", cap=cap,
                               train_trajs=by_id(corpus.train_trajs)[:n_units])


def score_inputs(run: Run):
    """Writes the fleet and its untrained checkpoint; returns the set-up."""
    fleet = write_fleet(run)
    ckpt_path = os.path.join(run.work, "model.ckpt")
    # returns before set-up, so its corpus is gone when set-up loads one
    write_untrained(fleet, ckpt_path, run.seed)
    return lambda: load_scoring(fleet, ckpt_path)


def valid(p: float, cap: float) -> bool:
    return math.isfinite(p) and 0.0 <= p <= cap


def fleet_score_unit(run: Run, unit_only: bool = False):
    from avfp import evalcli

    setup = score_inputs(run)
    if unit_only:
        def unit():
            corpus, _, params = setup()
            for t in by_id(corpus.test_trajs)[:TRACE_UNITS]:
                evalcli.predict_rul(params, [t], corpus.truth)
        return unit

    corpus, ckpt, params = run.setup(setup)
    cap = ckpt.config.rul_cap
    units = by_id(corpus.test_trajs)

    # closed loop, one caller: one predict_rul call per unit, id order
    def predict_one(unit):
        try:
            return float(evalcli.predict_rul(params, [unit], corpus.truth,
                                             cap=cap).predicted[0])
        except (ValueError, ArithmeticError):
            return math.nan

    raws, norms, preds = repeat(
        run.meter, predict_one, run.seconds, min_n=len(units),
        args=lambda i: (units[i % len(units)],))
    run.attempted = len(preds)
    run.failed = sum(not valid(p, cap) for p in preds)

    batched = evalcli.predict_rul(params, units[:CHECK_UNITS], corpus.truth,
                                  cap=cap).predicted
    run.checks["per_unit_equals_batched"] = all(
        abs(a - b) <= RTOL * abs(b) for a, b in zip(preds, batched))
    run.checks["predictions_in_range"] = run.failed == 0
    check_reference(run, "fleet-score", reference_score(run.work))

    lengths = [units[i % len(units)].length for i in range(len(preds))]
    run.metrics["ms_per_row"] = (
        statistics.median(n / L for n, L in zip(norms, lengths)) * 1e3, "ms")
    q = statistics.quantiles(raws, n=10, method="inclusive")
    run.named.update({
        "predict_unit_ms_p50": (statistics.median(raws) * 1e3, "ms"),
        "predict_unit_ms_p90": (q[8] * 1e3, "ms"),
    })
    run.info.update(unit_calls=len(preds))


def fleet_score_hi(run: Run, unit_only: bool = False):
    setup = score_inputs(run)
    if unit_only:
        def unit():
            corpus, ckpt, params = setup()
            hi_call(params, corpus, ckpt.config.rul_cap, HI_UNITS)
        return unit

    corpus, ckpt, params = run.setup(setup)
    cap = ckpt.config.rul_cap

    def hi_op():
        try:
            return [float(p) for p in
                    hi_call(params, corpus, cap, HI_UNITS).predicted]
        except (ValueError, ArithmeticError):
            return None

    raws, norms, his = repeat(run.meter, hi_op, run.seconds)
    ok = [i for i, h in enumerate(his) if h is not None]
    run.attempted = HI_UNITS * len(his)
    run.failed = (sum(not valid(p, cap) for i in ok for p in his[i])
                  + HI_UNITS * (len(his) - len(ok)))
    run.checks["calls_agree"] = len({tuple(his[i]) for i in ok}) <= 1
    run.checks["predictions_in_range"] = run.failed == 0
    check_reference(run, "fleet-score", reference_score(run.work))

    rows = sum(t.length for t in (by_id(corpus.train_trajs)[:HI_UNITS]
                                  + by_id(corpus.test_trajs)[:HI_UNITS]))
    if ok:
        run.metrics["ms_per_row"] = (
            statistics.median(norms[i] for i in ok) / rows * 1e3, "ms")
        rows_per_s = rows / statistics.median(raws[i] for i in ok)
    else:
        run.metrics["ms_per_row"] = (math.inf, "ms")
        rows_per_s = 0.0
    run.named["hi_rows_per_s"] = (rows_per_s, "rows/s")
    run.info.update(hi_calls=len(his), hi_rows=rows)


# ---------------------------------------------------------------------------
# audits: Kalman-oracle bound audit and gradient audit


def audits(run: Run, unit_only: bool = False):
    from avfp import evalcli, training

    if unit_only:
        def unit():
            training.bound_gap_audit(**ORACLE)
            evalcli.gradient_audit(draws=1, seed=0)
        return unit

    run.setup()
    raw_o, norm_o, instances = repeat(
        run.meter, lambda: training.bound_gap_audit(**ORACLE),
        0.8 * run.seconds)
    raw_g, _, worsts = repeat(
        run.meter, lambda: evalcli.gradient_audit(draws=1, seed=0),
        0.2 * run.seconds)

    rows = [r for batch in instances for r in batch]
    bad_grad = [max(w.values()) >= GRAD_TOL for w in worsts]
    run.attempted = len(rows) + len(worsts)
    run.failed = sum(not r.bound_ok for r in rows) + sum(bad_grad)
    run.checks["bound_holds_every_instance"] = all(r.bound_ok for r in rows)
    run.checks["gradients_within_tol"] = not any(bad_grad)

    # A row here is one filtered time step: fit_steps taped passes and
    # 2 × draws untaped passes over each instance's sequence.
    filt_rows = sum(r.length for r in instances[0]) * (
        ORACLE["fit_steps"] + 2 * ORACLE["draws"])
    run.metrics["ms_per_row"] = (
        statistics.median(norm_o) / filt_rows * 1e3, "ms")
    run.named.update({
        "oracle_instance_s": (
            statistics.median(raw_o) / ORACLE["n_instances"], "s"),
        "gradcheck_draw_s": (statistics.median(raw_g), "s"),
    })
    shrunk = sum(r.shrunk for r in rows)
    run.info.update(instances=len(rows), shrunk=shrunk,
                    gradient_draws=len(worsts),
                    worst_grad_error=max(max(w.values()) for w in worsts))
    print(f"audits: {shrunk} of {len(rows)} instances shrank their bound "
          "gap", file=sys.stderr)


WORKLOADS = {"fleet-train": fleet_train,
             "fleet-score-unit": fleet_score_unit,
             "fleet-score-hi": fleet_score_hi,
             "audits": audits}


# ---------------------------------------------------------------------------
# traced run


def traced(run: Run, workload) -> None:
    import layers
    import primbench
    from tracer import Tracer

    unit = workload(run, unit_only=True)
    untraced, _ = run.meter.call(unit)
    tr = Tracer()
    with tr:
        traced_, _ = run.meter.call(unit)
    untraced_s = run.meter.rescaled(untraced)
    traced_s = run.meter.rescaled(traced_)
    prim, not_covered = primbench.run()
    summary = tr.summary()
    run.metrics.update(layers.per_layer(summary, traced_s, untraced_s, prim))
    run.info.update(untraced_s=untraced_s, traced_s=traced_s,
                    rows=summary.rows(), primitives_not_covered=not_covered)
    run.attempted = 1
    run.checks["trace_finite"] = all(
        math.isfinite(v) for v, _ in run.metrics.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.work, exist_ok=True)
    sys.path.insert(0, HERE)
    run = Run(args)
    try:
        if args.trace:
            traced(run, WORKLOADS[args.workload])
        else:
            WORKLOADS[args.workload](run)
            run.metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB")
            run.named["peak_rss_mb"] = run.metrics["peak_rss_mb"]
    finally:
        run.meter.stop()
        shutil.rmtree(args.work, ignore_errors=True)
    run.info["ref_ms_median"] = statistics.median(
        e - s for s, e in run.meter.samples) * 1e3

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "named_metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(run.named.items())},
        "checks": run.checks, "info": run.info,
    }))
    print(json.dumps({
        "correct": all(run.checks.values()),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(run.metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

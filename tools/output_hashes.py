"""Print one `name sha256` line per output artifact of avfp, so that two
checkouts can be compared bit for bit: run the script in each and diff
what it prints.

    python tools/output_hashes.py > hashes.txt

It imports avfp from the `src` directory next to it and writes its
files to a temporary directory.  The artifacts:

- `avfp train` on the 12/6-unit synthetic fleet (seed 3), in history and
  Markovian mode at lambda_adv 0 and 0.5: model.ckpt, trace.csv,
  evals.csv, and the `avfp predict` CSVs of the checkpoint in the
  supervised and the health-index mode;
- on the FD001-shaped synthetic fleet (100/100 units of 128-362 cycles,
  seed 0) with untrained default parameters: one health-index
  predict_rul call over 10 train and 10 test units, one supervised
  predict_rul call for each of the first 20 test units alone (the
  per-unit scoring path), and the gradients
  of the taped combined objective over a batch of its first 8 training
  units at lambda_adv 0 and 0.1 (its prior rows rolled out from the
  objective's own noise);
- each of the 20 rows of bound_gap_audit() at its defaults (about 25 s
  at one BLAS thread on a 2-vCPU VM) and gradient_audit(draws=2).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from avfp import data, evalcli, rng, training  # noqa: E402
from avfp.diffcore import Tape, backward  # noqa: E402
from avfp.model import NetworkSpec, init_params  # noqa: E402
from avfp.objectives import Batch, combined_objective, prior_rollout  # noqa: E402


def digest(*parts) -> str:
    """SHA-256 of parts: arrays by dtype, shape and bytes, floats by their
    hex form, anything else by its repr."""
    h = hashlib.sha256()
    for p in parts:
        if hasattr(p, "tobytes"):
            h.update(f"{p.dtype.str}{p.shape}".encode())
            h.update(p.tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def cli(*argv: str) -> None:
    """One avfp command, its printout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = evalcli.main(list(argv))
    if code != 0:
        raise SystemExit(f"avfp {' '.join(argv)} exited with {code}")


def train_runs(work: str):
    fleet = os.path.join(work, "fleet-12-6")
    data.write_synthetic_cmapss(fleet, n_train_units=12, n_test_units=6, seed=3)
    for markovian in (False, True):
        for lam in (0.0, 0.5):
            name = f"train/{'markovian' if markovian else 'history'}-{lam}"
            out = os.path.join(work, name)
            cfg = out + ".json"
            os.makedirs(os.path.dirname(cfg), exist_ok=True)
            with open(cfg, "w") as f:
                json.dump({"markovian": markovian, "lambda_adv": lam}, f)
            cli("train", "--data", fleet, "--out", out, "--config", cfg)
            for artifact in ("model.ckpt", "trace.csv", "evals.csv"):
                yield f"{name}/{artifact}", file_digest(os.path.join(out, artifact))
            ckpt = os.path.join(out, "model.ckpt")
            for mode in ("supervised", "health_index"):
                csv = os.path.join(out, f"predict-{mode}.csv")
                cli("predict", "--data", fleet, "--checkpoint", ckpt,
                    "--out", csv, "--mode", mode)
                yield f"{name}/predict-{mode}.csv", file_digest(csv)


def fd001_shaped(work: str):
    fleet = os.path.join(work, "fleet-fd001")
    data.write_synthetic_cmapss(fleet, n_train_units=100, n_test_units=100,
                                min_life=128, max_life=362, seed=0)
    corpus = evalcli.load_corpus(fleet)
    spec = NetworkSpec(n_x=corpus.n_x, n_u=corpus.n_u)
    params = init_params(spec, markovian=False, seed=0)
    by_id = lambda trajs: sorted(trajs, key=lambda t: t.unit_id)  # noqa: E731
    hi = evalcli.predict_rul(params, by_id(corpus.test_trajs)[:10],
                             corpus.truth, mode="health_index",
                             train_trajs=by_id(corpus.train_trajs)[:10])
    yield "fd001/health-index-10-10", digest(hi.predicted)
    units = [evalcli.predict_rul(params, [u], corpus.truth).predicted
             for u in by_id(corpus.test_trajs)[:20]]
    yield "fd001/per-unit-20", digest(*units)
    batch = corpus.train_trajs[:8]
    noise = [rng.normal(0, (t.length, spec.n_z), "hash-noise", i)
             for i, t in enumerate(batch)]
    packed = Batch(batch)
    prior = prior_rollout(params, packed, packed.pack(noise)).data
    for lam in (0.0, 0.1):
        with Tape() as tape:
            _, target = combined_objective(params, packed, noise, lam, prior)
        grads = backward(tape, target)
        yield f"fd001/objective-grads-{lam}", digest(
            target.item(), *(grads[t.uid] for t in params.named().values()
                             if t.uid in grads))


def audits():
    for k, row in enumerate(training.bound_gap_audit()):
        yield f"bound_gap_audit/row{k:02d}", digest(*dataclasses.astuple(row))
    worst = evalcli.gradient_audit(draws=2)
    yield "gradient_audit/draws-2", digest(*sorted(worst.items()))


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        for source in (train_runs(work), fd001_shaped(work), audits()):
            for name, sha in source:
                print(name, sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

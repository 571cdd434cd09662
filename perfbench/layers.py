"""Per-layer metrics of a traced run, named after the seven avfp modules.

Every metric is reported on every workload; a layer that does no work
on a workload reads 0 there (no backward on the fleet-score workloads,
no GRU step under the bound audit).
"""

from __future__ import annotations

from primbench import SEED_PRIMITIVES

MODEL_FNS = ("gru_step", "encode_history", "advance_prior_state",
             "recognition", "transition_prior", "emission", "sample_reparam",
             "discriminate", "rul_head")
OBJECTIVE_FNS = ("filter_forward", "sequence_elbo", "combined_objective",
                 "prior_rollout", "gaussian_log_density", "kl_diag_gaussians",
                 "adversarial_losses")
DATA_FNS = ("parse_cmapss", "normalize", "build_rul_targets",
            "to_trajectories", "kalman_loglik", "gen_linear_gaussian")
TRAINING_FNS = ("rmse_per_cycle", "adam_step", "clip_by_global_norm",
                "save_checkpoint", "fit_recognition", "mc_elbo")


def units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    u = {
        "diffcore.apply_primitive.calls": "count",
        "diffcore.apply_primitive.self_s": "s",
        "diffcore.prims_per_row": "1/row",
        "diffcore.tape_nodes_per_row": "1/row",
        "diffcore.backward.calls": "count",
        "diffcore.backward.s": "s",
        "diffcore.backward.us_per_node": "us",
        "diffcore.backward_share": "ratio",
    }
    for op in SEED_PRIMITIVES:
        for kind in ("fwd_us", "fwd_untaped_us", "bwd_us"):
            u[f"diffcore.prim.{op}.{kind}"] = "us"
    u["rng.normal.calls"] = "count"
    u["rng.normal.s"] = "s"
    for fn in DATA_FNS:
        u[f"data.{fn}.s"] = "s"
    for fn in MODEL_FNS:
        u[f"model.{fn}.calls"] = "count"
        u[f"model.{fn}.self_s"] = "s"
    for fn in OBJECTIVE_FNS:
        u[f"objectives.{fn}.calls"] = "count"
        u[f"objectives.{fn}.s"] = "s"
    u["model.gru_step.calls_in_bound_audit"] = "count"
    u["objectives.prior_rollout.useful_ratio"] = "ratio"
    for phase in ("disc", "gen", "rul"):
        u[f"training.phase.{phase}.s"] = "s"
    for fn in TRAINING_FNS:
        u[f"training.{fn}.s"] = "s"
    u.update({
        "evalcli.predict_rul.s": "s",
        "evalcli.latent_mean_curve.calls": "count",
        "evalcli.latent_mean_curve.s": "s",
        "evalcli.fit_health_index.s": "s",
        "evalcli.match_remaining_life.calls": "count",
        "evalcli.match_remaining_life.s": "s",
        "evalcli.gradient_audit.s": "s",
        "trace.overhead": "ratio",
    })
    return u


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(tsum, traced_s: float, untraced_s: float,
              prim: dict[str, float]) -> dict[str, tuple[float, str]]:
    """tsum: TraceSummary of the traced unit; prim: primitive µs table."""
    v: dict[str, float] = {}
    prims = tsum.calls_of("diffcore.apply_primitive")
    rows = tsum.rows()
    nodes = tsum.tape_nodes()
    bwd_s = tsum.s("diffcore.backward")
    v["diffcore.apply_primitive.calls"] = prims
    v["diffcore.apply_primitive.self_s"] = tsum.self_s("diffcore.apply_primitive")
    v["diffcore.prims_per_row"] = _ratio(prims, rows)
    v["diffcore.tape_nodes_per_row"] = _ratio(nodes, tsum.tr.taped_rows)
    v["diffcore.backward.calls"] = tsum.calls_of("diffcore.backward")
    v["diffcore.backward.s"] = bwd_s
    v["diffcore.backward.us_per_node"] = _ratio(bwd_s * 1e6, nodes)
    v["diffcore.backward_share"] = _ratio(bwd_s, traced_s)
    v.update(prim)
    v["rng.normal.calls"] = tsum.calls_of("rng.normal")
    v["rng.normal.s"] = tsum.s("rng.normal")
    for fn in DATA_FNS:
        v[f"data.{fn}.s"] = tsum.s(f"data.{fn}")
    for fn in MODEL_FNS:
        v[f"model.{fn}.calls"] = tsum.calls_of(f"model.{fn}")
        v[f"model.{fn}.self_s"] = tsum.self_s(f"model.{fn}")
    for fn in OBJECTIVE_FNS:
        v[f"objectives.{fn}.calls"] = tsum.calls_of(f"objectives.{fn}")
        v[f"objectives.{fn}.s"] = tsum.s(f"objectives.{fn}")
    v["model.gru_step.calls_in_bound_audit"] = tsum.calls_under(
        "model.gru_step", "training.bound_gap_audit")
    v["objectives.prior_rollout.useful_ratio"] = tsum.useful_rollout_ratio()
    for phase, s in tsum.phase_seconds().items():
        v[f"training.phase.{phase}.s"] = s
    for fn in TRAINING_FNS:
        v[f"training.{fn}.s"] = tsum.s(f"training.{fn}")
    v["evalcli.predict_rul.s"] = tsum.s("evalcli.predict_rul")
    for fn in ("latent_mean_curve", "match_remaining_life"):
        v[f"evalcli.{fn}.calls"] = tsum.calls_of(f"evalcli.{fn}")
        v[f"evalcli.{fn}.s"] = tsum.s(f"evalcli.{fn}")
    v["evalcli.fit_health_index.s"] = tsum.s("evalcli.fit_health_index")
    v["evalcli.gradient_audit.s"] = tsum.s("evalcli.gradient_audit")
    v["trace.overhead"] = traced_s / untraced_s
    return {k: (float(v[k]), u) for k, u in units().items()}

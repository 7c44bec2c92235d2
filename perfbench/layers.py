"""Per-layer metrics of the traced run, computed from its spans.

Each entry says which end-to-end metric it should move, on which workload:

- pair-fit and training spans move ``train_s`` on train-demo, and
  ``setup_s`` and ``train_s`` on gallery-200; the solver is capped at 200
  iterations, so ``ms_per_eval`` is the lever;
- ``network.pair_loss_*`` is a quality guard: it must not rise;
- pre-training spans move ``train_s`` on train-demo by at most their share;
- image loading, sub-patches, activations, pooling and the pyramid move
  ``extract_img_per_s`` (mostly on gallery-200), ``classify_s`` and
  ``retrieve_s``;
- ``network.forwards_per_image`` is the waste ratio: forward passes per
  distinct image (3.0 when classify and retrieve redo extraction);
- evaluation-kit spans move ``classify_s`` and ``retrieve_s`` on train-demo,
  whose 150-image gallery makes the SVM and the rankings a real share.
"""

from __future__ import annotations

from tracer import PairFitOutcome, Tracer

LAYERS = (1, 2)
COMMANDS = ("train", "extract", "classify", "retrieve")

# Metric name -> (span name, unit); a "count" unit reports calls, "ms" total time.
_SPAN_TOTALS = {
    "kernel_layer.estimate_alpha.ms": ("kernel_layer.estimate_alpha", "ms"),
    "kernel_layer.sample_training_pairs.ms": ("kernel_layer.sample_training_pairs", "ms"),
    "epls.pretrain_layer.ms": ("epls.pretrain_layer", "ms"),
    "epls.epls_epoch_step.ms": ("epls.epls_epoch_step", "ms"),
    "epls.epls_epoch_step.calls": ("epls.epls_epoch_step", "count"),
    "images.load_image.ms": ("images.load_image", "ms"),
    "images.load_image.calls": ("images.load_image", "count"),
    "featmap.build_gradient_map.ms": ("featmap.build_gradient_map", "ms"),
    "featmap.gradient_subpatches.ms": ("featmap.gradient_subpatches", "ms"),
    "featmap.extract_subpatches.ms": ("featmap.extract_subpatches", "ms"),
    "network.spp_pool.ms": ("network.spp_pool", "ms"),
    "network.forward_network.ms": ("network.forward_network", "ms"),
    "network.forward_network.calls": ("network.forward_network", "count"),
    "evalkit.train_svm.ms": ("evalkit.train_svm", "ms"),
    "evalkit.predict.ms": ("evalkit.predict", "ms"),
    "evalkit.rank_by_euclidean.ms": ("evalkit.rank_by_euclidean", "ms"),
    "evalkit.rank_by_euclidean.calls": ("evalkit.rank_by_euclidean", "count"),
    "evalkit.precision_at_q.ms": ("evalkit.precision_at_q", "ms"),
    "model_io.save_model.ms": ("model_io.save_model", "ms"),
    "model_io.load_model.ms": ("model_io.load_model", "ms"),
    "model_io.save_descriptors.ms": ("model_io.save_descriptors", "ms"),
}
for _layer in LAYERS:
    for _stage in ("train_layer", "activation_h", "spatial_pool_g"):
        _SPAN_TOTALS[f"kernel_layer.{_stage}.l{_layer}_ms"] = (
            f"kernel_layer.{_stage}.l{_layer}",
            "ms",
        )

UNITS = {name: unit for name, (_, unit) in _SPAN_TOTALS.items()}
for _layer in LAYERS:
    UNITS.update(
        {
            f"kernel_layer.pair_fit.l{_layer}_evaluations": "count",
            f"kernel_layer.pair_fit.l{_layer}_iterations": "count",
            f"kernel_layer.pair_fit.l{_layer}_ms_per_eval": "ms",
            f"kernel_layer.pair_fit.l{_layer}_hit_max_iter": "count",
            f"kernel_layer.pair_fit.l{_layer}_fell_back": "count",
            f"kernel_layer.pair_fit.l{_layer}_status": "code",
            f"network.pair_loss_init.l{_layer}": "loss",
            f"network.pair_loss_final.l{_layer}": "loss",
        }
    )
UNITS["network.forwards_per_image"] = "ratio"
for _command in COMMANDS:
    UNITS[f"cli.{_command}.self_ms"] = "ms"
UNITS["trace.coverage_min"] = "fraction"
UNITS["trace.overhead_s"] = "s"


def per_layer_metrics(
    tracer: Tracer, outcomes: list[PairFitOutcome], overhead_s: float
) -> tuple[dict, list[tuple[str, float]]]:
    """Returns ({name: (value, unit)}, [(command, covered share), ...]).

    The traced run trains exactly once (in set-up for gallery-200, in the
    cycle for train-demo), so pair-fit and pair-loss entries are that
    training's.
    """
    totals = tracer.totals()
    values: dict[str, float] = {}
    for name, (span, unit) in _SPAN_TOTALS.items():
        calls, ms = totals.get(span, (0, 0.0))
        values[name] = calls if unit == "count" else ms

    by_layer = {o.layer: o for o in outcomes}
    for layer in LAYERS:
        fit = by_layer.get(layer)
        prefix = f"kernel_layer.pair_fit.l{layer}"
        values[f"{prefix}_evaluations"] = fit.evaluations if fit else 0
        values[f"{prefix}_iterations"] = fit.iterations if fit else 0
        values[f"{prefix}_ms_per_eval"] = (
            1000.0 * fit.seconds / fit.evaluations if fit and fit.evaluations else 0.0
        )
        values[f"{prefix}_hit_max_iter"] = int(fit.hit_max_iter) if fit else 0
        values[f"{prefix}_fell_back"] = int(fit.fell_back) if fit else 0
        values[f"{prefix}_status"] = fit.status if fit else -1

    # train_network evaluates the pair loss before and after each layer's fit.
    losses = tracer.pair_losses
    for layer in LAYERS:
        init, final = 2 * (layer - 1), 2 * (layer - 1) + 1
        values[f"network.pair_loss_init.l{layer}"] = losses[init] if len(losses) > init else 0.0
        values[f"network.pair_loss_final.l{layer}"] = losses[final] if len(losses) > final else 0.0

    images = len(tracer.image_paths)
    values["network.forwards_per_image"] = (
        values["network.forward_network.calls"] / images if images else 0.0
    )

    coverage: dict[str, float] = {}
    self_ms = {command: 0.0 for command in COMMANDS}
    for index in tracer.roots("cli."):
        span = tracer.spans[index]
        command = span.name[len("cli."):]
        total_ms = 1000.0 * (span.end - span.start)
        children = tracer.children_ms(index)
        self_ms[command] = self_ms.get(command, 0.0) + total_ms - children
        share = children / total_ms if total_ms > 0 else 1.0
        coverage[command] = min(coverage.get(command, 1.0), share)
    for command in COMMANDS:
        values[f"cli.{command}.self_ms"] = self_ms[command]
    values["trace.coverage_min"] = min(coverage.values()) if coverage else 0.0
    values["trace.overhead_s"] = overhead_s

    metrics = {name: (values[name], UNITS[name]) for name in UNITS}
    return metrics, sorted(coverage.items())

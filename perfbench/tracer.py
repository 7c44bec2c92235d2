"""Hooks that observe the cskn pipeline from outside the package.

Every hook replaces a function at the module attribute its caller looks it
up through (for example ``cskn.cli.forward_network`` or
``cskn.network.activation_h``), so nothing under ``src/`` changes. A name
that a later version of the package no longer has is skipped, and the
layer it measured then reports zero calls.

``PairFitRecorder`` is installed in every run: it wraps the solver module
that ``cskn.kernel_layer`` calls, and records each pair-fit's L-BFGS
outcome. ``Tracer`` is installed only in the traced run: it keeps spans
(name, start, end, parent) in memory and turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass(frozen=True)
class PairFitOutcome:
    """One L-BFGS pair-fit as the solver reported it."""

    layer: int
    iterations: int
    evaluations: int
    status: int
    message: str
    fell_back: bool
    hit_max_iter: bool
    seconds: float

    def describe(self) -> str:
        return (
            f"layer{self.layer} iterations={self.iterations} "
            f"evaluations={self.evaluations} status={self.status} "
            f"hit_max_iter={int(self.hit_max_iter)} fell_back={int(self.fell_back)} "
            f"ms_per_eval={1000.0 * self.seconds / max(self.evaluations, 1):.3f} "
            f"message={self.message!r}"
        )


class _SolverProxy:
    """Stands in for ``scipy.optimize`` inside ``cskn.kernel_layer`` only.

    The SVM in ``cskn.evalkit`` imports the solver separately, so its fits
    are not counted as pair-fits.
    """

    def __init__(self, real, recorder: "PairFitRecorder") -> None:
        self._real = real
        self._recorder = recorder

    def __getattr__(self, name):
        return getattr(self._real, name)

    def minimize(self, fun, x0, *args, **kwargs):
        return self._recorder.minimize(self._real.minimize, fun, x0, *args, **kwargs)


class PairFitRecorder:
    """Records iterations, evaluations, status and fallback of each pair-fit."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.outcomes: list[PairFitOutcome] = []
        self._tracer = tracer
        self._module = None
        self._real = None

    def install(self) -> None:
        import cskn.kernel_layer as kernel_layer

        self._module = kernel_layer
        self._real = kernel_layer.optimize
        kernel_layer.optimize = _SolverProxy(self._real, self)

    def remove(self) -> None:
        if self._module is not None:
            self._module.optimize = self._real
            self._module = None

    def minimize(self, real_minimize, fun, x0, *args, **kwargs):
        first_loss: list[float] = []

        def counted(theta, *fargs):
            value = fun(theta, *fargs)
            if not first_loss:
                first_loss.append(float(value[0] if isinstance(value, tuple) else value))
            return value

        tracer = self._tracer
        layer = tracer.layer if tracer is not None else len(self.outcomes) + 1
        span = tracer.begin(f"kernel_layer.pair_fit.l{layer}") if tracer else None
        start = time.perf_counter()
        try:
            result = real_minimize(counted, x0, *args, **kwargs)
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.end(span)
        max_iter = (kwargs.get("options") or {}).get("maxiter")
        initial = first_loss[0] if first_loss else math.inf
        # Mirrors cskn.kernel_layer.train_layer: a non-finite or worse result
        # makes the layer keep its initial point.
        fell_back = not math.isfinite(result.fun) or result.fun > initial
        self.outcomes.append(
            PairFitOutcome(
                layer=layer,
                iterations=int(result.nit),
                evaluations=int(result.nfev),
                status=int(result.status),
                message=str(result.message),
                fell_back=bool(fell_back),
                hit_max_iter=max_iter is not None and int(result.nit) >= int(max_iter),
                seconds=seconds,
            )
        )
        return result


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int


def _arg(args, kwargs, position: int, name: str):
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


class Tracer:
    """In-memory spans around the package's public functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pair_losses: list[float] = []
        self.image_paths: set[str] = set()
        self.layer = 0
        self._configs: tuple = ()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "".join(json.dumps(asdict(span)) + "\n" for span in self.spans),
            encoding="utf-8",
        )

    # -- hooks ---------------------------------------------------------------

    def _layer_of(self, config) -> int:
        for index, known in enumerate(self._configs, start=1):
            if known is config:
                return index
        for index, known in enumerate(self._configs, start=1):
            if known == config:
                return index
        return 0

    def _hook(self, module, attr, name, *, layer_config=None, on_args=None, on_result=None):
        func = getattr(module, attr, None)
        if func is None:
            return
        tracer = self

        @functools.wraps(func)
        def hooked(*args, **kwargs):
            saved = tracer.layer
            if on_args is not None:
                on_args(args, kwargs)
            if layer_config is not None:
                tracer.layer = tracer._layer_of(layer_config(args, kwargs))
            index = tracer.begin(name.format(layer=tracer.layer))
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(index)
                tracer.layer = saved
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, hooked)
        self._restore.append((module, attr, func))

    def install(self) -> None:
        import cskn.cli as cli
        import cskn.epls as epls
        import cskn.network as network

        def model_configs(args, kwargs):
            model = _arg(args, kwargs, 1, "model")
            self._configs = tuple(layer.config for layer in model.layers)

        def train_configs(args, kwargs):
            self._configs = tuple(_arg(args, kwargs, 1, "configs"))

        def image_path(args, kwargs):
            self.image_paths.add(str(_arg(args, kwargs, 0, "path")))

        def pair_loss(result):
            self.pair_losses.append(float(result[0]))

        def layer_config(args, kwargs):
            return _arg(args, kwargs, 1, "config")

        # Names the CLI looks up in cskn.cli.
        for attr, name in (
            ("parse_run_config", "config.parse_run_config"),
            ("load_manifest", "config.load_manifest"),
            ("save_model", "model_io.save_model"),
            ("load_model", "model_io.load_model"),
            ("save_descriptors", "model_io.save_descriptors"),
            ("load_descriptors", "model_io.load_descriptors"),
            ("train_svm", "evalkit.train_svm"),
            ("predict", "evalkit.predict"),
            ("rank_by_euclidean", "evalkit.rank_by_euclidean"),
            ("precision_at_q", "evalkit.precision_at_q"),
            ("top1_accuracy", "evalkit.top1_accuracy"),
            ("roc_auc", "evalkit.roc_auc"),
        ):
            self._hook(cli, attr, name)
        self._hook(cli, "load_image", "images.load_image", on_args=image_path)
        self._hook(cli, "train_network", "network.train_network", on_args=train_configs)
        self._hook(cli, "forward_network", "network.forward_network", on_args=model_configs)

        # Names cskn.network looks up while training and running layers.
        self._hook(network, "forward_layer", "network.forward_layer.l{layer}",
                   layer_config=layer_config)
        self._hook(network, "train_layer", "kernel_layer.train_layer.l{layer}",
                   layer_config=layer_config)
        for attr, name in (
            ("build_gradient_map", "featmap.build_gradient_map"),
            ("gradient_subpatches", "featmap.gradient_subpatches"),
            ("extract_subpatches", "featmap.extract_subpatches"),
            ("activation_h", "kernel_layer.activation_h.l{layer}"),
            ("spatial_pool_g", "kernel_layer.spatial_pool_g.l{layer}"),
            ("spp_pool", "network.spp_pool"),
            ("estimate_alpha", "kernel_layer.estimate_alpha"),
            ("sample_training_pairs", "kernel_layer.sample_training_pairs"),
            ("pretrain_layer", "epls.pretrain_layer"),
            ("init_gradient_layer", "epls.init_gradient_layer"),
        ):
            self._hook(network, attr, name)
        self._hook(network, "objective_and_gradient", "network.objective_and_gradient",
                   on_result=pair_loss)

        # Name cskn.epls looks up inside the pre-training loop.
        self._hook(epls, "epls_epoch_step", "epls.epls_epoch_step")

    def remove(self) -> None:
        while self._restore:
            module, attr, func = self._restore.pop()
            setattr(module, attr, func)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total milliseconds)."""
        out: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            calls, ms = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, ms + 1000.0 * (span.end - span.start))
        return out

    def children_ms(self, index: int) -> float:
        return sum(
            1000.0 * (span.end - span.start)
            for span in self.spans
            if span.parent == index
        )

    def roots(self, prefix: str) -> list[int]:
        return [
            index
            for index, span in enumerate(self.spans)
            if span.parent == -1 and span.name.startswith(prefix)
        ]

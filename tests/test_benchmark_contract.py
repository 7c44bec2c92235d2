"""Names the benchmark's tracer (perfbench/tracer.py) hooks in the package.

The tracer replaces module attributes by name and reads some arguments by
position; a hook whose name has gone is skipped silently, so its span and
metrics would just disappear. These tests keep the names and the second
parameters in place.
"""

import inspect

import pytest

import cskn.cli as cli
import cskn.epls as epls
import cskn.kernel_layer as kernel_layer
import cskn.network as network

CLI_NAMES = (
    "run_command",
    "parse_run_config",
    "load_manifest",
    "save_model",
    "load_model",
    "save_descriptors",
    "train_svm",
    "predict",
    "top1_accuracy",
    "roc_auc",
    "retrieval_precision",
    "load_image",
    "train_network",
    "forward_network",
)

NETWORK_NAMES = (
    "forward_layer",
    "train_layer",
    "build_gradient_map",
    "extract_subpatches",
    "activation_h",
    "spatial_pool_g",
    "spp_pool",
    "estimate_alpha",
    "sample_training_pairs",
    "pretrain_layer",
    "init_gradient_layer",
    "objective_and_gradient",
)


@pytest.mark.parametrize(
    "module, name",
    [(cli, name) for name in CLI_NAMES]
    + [(network, name) for name in NETWORK_NAMES]
    + [(epls, "epls_epoch_step"), (kernel_layer, "optimize")],
)
def test_hooked_name_exists(module, name):
    assert hasattr(module, name), f"{module.__name__}.{name} is gone"


@pytest.mark.parametrize(
    "module, name, second",
    [
        (network, "forward_layer", "config"),
        (network, "train_layer", "config"),
        (cli, "forward_network", "model"),
        (cli, "train_network", "configs"),
    ],
)
def test_second_parameter_name(module, name, second):
    parameters = list(inspect.signature(getattr(module, name)).parameters)
    assert parameters[1] == second

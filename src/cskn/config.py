"""Dataset manifests and run-configuration files.

A manifest is a tab-separated text file, one image per line:
``relative/path<TAB>label<TAB>split`` with split either ``train`` or
``test``; paths resolve against the manifest's directory. A run config is
a line-oriented ``key = value`` file with optional ``[pretrain]`` and
required ``[layerN]`` sections; unknown keys are hard errors.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .epls import PretrainConfig
from .errors import ConfigError, DataError, InvalidArgumentError
from .kernel_layer import LayerConfig
from .network import DEFAULT_PYRAMID_LEVELS, check_layer_input, check_pyramid_levels

SPLITS = ("train", "test")
COLOR_MODES = ("gray", "rgb")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    label: str
    split: str


@dataclass(frozen=True)
class DatasetManifest:
    """A labeled image list with train/test split tags."""

    root: Path
    entries: tuple[ManifestEntry, ...]

    def split_entries(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]

    def resolve(self, entry: ManifestEntry) -> Path:
        return self.root / entry.path


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{source}: cannot read manifest: {exc}") from exc
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(
                f"{source}:{lineno}: expected path<TAB>label<TAB>split, "
                f"got {len(fields)} field(s)"
            )
        rel, label, split = (f.strip() for f in fields)
        if not rel:
            raise DataError(f"{source}:{lineno}: empty image path")
        if not label:
            raise DataError(f"{source}:{lineno}: empty label")
        if split not in SPLITS:
            raise DataError(
                f"{source}:{lineno}: split must be one of {SPLITS}, got {split!r}"
            )
        if rel in seen:
            raise DataError(f"{source}:{lineno}: duplicate image path {rel!r}")
        seen.add(rel)
        entries.append(ManifestEntry(rel, label, split))
    if not entries:
        raise DataError(f"{source}: manifest lists no images")
    return DatasetManifest(root=source.resolve().parent, entries=tuple(entries))


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: global knobs plus per-layer configs."""

    input_size: int
    seed: int
    pyramid_levels: tuple[int, ...]
    color: str
    pretrain: PretrainConfig
    layers: tuple[LayerConfig, ...]

    @property
    def grayscale(self) -> bool:
        return self.color == "gray"


_TOP_KEYS = ("input_size", "seed", "pyramid_levels", "color")
_PRETRAIN_KEYS = (
    "batch_size",
    "patches_per_epoch",
    "epochs",
    "base_step",
    "smoothing",
    "seed",
)
_LAYER_KEYS = (
    "input",
    "sub_patch_size",
    "subsampling_factor",
    "num_filters",
    "alpha_quantile",
    "num_training_pairs",
    "seed",
)
_LAYER_REQUIRED = ("input", "sub_patch_size", "subsampling_factor", "num_filters")


def _parse_int(source: str, lineno: int, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{source}:{lineno}: {key} expects an integer, got {value!r}")


def _parse_float(source: str, lineno: int, key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{source}:{lineno}: {key} expects a number, got {value!r}")


def parse_run_config(path: str | os.PathLike) -> RunConfig:
    """Parse and validate a run-configuration file.

    Layer sections must be numbered [layer1], [layer2], ... without gaps;
    gradient input is only legal in [layer1]. Unknown sections or keys are
    rejected outright.
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read config: {exc}") from exc

    top: dict[str, str] = {}
    pretrain: dict[str, str] = {}
    layer_sections: dict[int, dict[str, str]] = {}
    layer_lines: dict[int, int] = {}
    top_lines: dict[str, int] = {}
    section: str | None = None
    current: dict[str, str] = top
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name == "pretrain":
                section, current = name, pretrain
            elif name.startswith("layer") and name[5:].isdigit():
                number = int(name[5:])
                if number < 1:
                    raise ConfigError(f"{source}:{lineno}: layer numbers start at 1")
                if number in layer_sections:
                    raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
                layer_sections[number] = {}
                layer_lines[number] = lineno
                section, current = name, layer_sections[number]
            else:
                raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        allowed = (
            _TOP_KEYS
            if section is None
            else _PRETRAIN_KEYS
            if section == "pretrain"
            else _LAYER_KEYS
        )
        where = "top level" if section is None else f"[{section}]"
        if key not in allowed:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in {where}")
        if key in current:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in {where}")
        current[key] = value
        if section is None:
            top_lines[key] = lineno

    lineno = 0
    input_size = _parse_int(source, lineno, "input_size", top.get("input_size", "200"))
    seed = _parse_int(source, lineno, "seed", top.get("seed", "0"))
    color = top.get("color", "gray")
    if color not in COLOR_MODES:
        raise ConfigError(f"{source}: color must be one of {COLOR_MODES}, got {color!r}")
    levels_text = top.get("pyramid_levels")
    if levels_text is None:
        levels = DEFAULT_PYRAMID_LEVELS
    else:
        where = f"{source}:{top_lines['pyramid_levels']}"
        try:
            levels = tuple(int(part.strip()) for part in levels_text.split(","))
        except ValueError:
            raise ConfigError(f"{where}: pyramid_levels expects integers, got {levels_text!r}")
        try:
            levels = check_pyramid_levels(levels)
        except InvalidArgumentError as exc:
            raise ConfigError(f"{where}: pyramid_levels: {exc}") from exc
    if input_size < 2:
        raise ConfigError(f"{source}: input_size must be >= 2")
    if seed < 0:
        raise ConfigError(f"{source}: seed must be nonnegative")

    try:
        pretrain_config = PretrainConfig(
            batch_size=_parse_int(source, 0, "batch_size", pretrain.get("batch_size", "1000")),
            patches_per_epoch=_parse_int(
                source, 0, "patches_per_epoch", pretrain.get("patches_per_epoch", "100000")
            ),
            epochs=_parse_int(source, 0, "epochs", pretrain.get("epochs", "5")),
            base_step=_parse_float(source, 0, "base_step", pretrain.get("base_step", "0.01")),
            smoothing=_parse_float(source, 0, "smoothing", pretrain.get("smoothing", "0.99")),
            seed=_parse_int(source, 0, "seed", pretrain.get("seed", str(seed))),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid [pretrain] value: {exc}") from exc

    if not layer_sections:
        raise ConfigError(f"{source}: at least one [layerN] section is required")
    numbers = sorted(layer_sections)
    if numbers != list(range(1, len(numbers) + 1)):
        raise ConfigError(
            f"{source}: layer sections must be numbered 1..{len(numbers)} without gaps"
        )
    layers: list[LayerConfig] = []
    for number in numbers:
        keys = layer_sections[number]
        lineno = layer_lines[number]
        for required in _LAYER_REQUIRED:
            if required not in keys:
                raise ConfigError(
                    f"{source}:{lineno}: [layer{number}] is missing {required!r}"
                )
        try:
            layers.append(
                LayerConfig(
                    input_kind=keys["input"],
                    sub_patch_size=_parse_int(
                        source, lineno, "sub_patch_size", keys["sub_patch_size"]
                    ),
                    subsampling_factor=_parse_int(
                        source, lineno, "subsampling_factor", keys["subsampling_factor"]
                    ),
                    num_filters=_parse_int(
                        source, lineno, "num_filters", keys["num_filters"]
                    ),
                    alpha_quantile=_parse_float(
                        source, lineno, "alpha_quantile", keys.get("alpha_quantile", "0.1")
                    ),
                    num_training_pairs=_parse_int(
                        source,
                        lineno,
                        "num_training_pairs",
                        keys.get("num_training_pairs", "400000"),
                    ),
                    seed=_parse_int(
                        source, lineno, "seed", keys.get("seed", str(seed + number))
                    ),
                )
            )
            check_layer_input(number - 1, layers[-1])
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: invalid [layer{number}]: {exc}") from exc
    return RunConfig(
        input_size=input_size,
        seed=seed,
        pyramid_levels=levels,
        color=color,
        pretrain=pretrain_config,
        layers=tuple(layers),
    )

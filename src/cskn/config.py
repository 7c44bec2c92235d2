"""Dataset manifests and run-configuration files.

A manifest is a tab-separated text file, one image per line:
``relative/path<TAB>label<TAB>split`` with split either ``train`` or
``test``; paths resolve against the manifest's directory. A run config is
a line-oriented ``key = value`` file with optional ``[pretrain]`` and
required ``[layerN]`` sections; unknown keys are hard errors.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

from .epls import PretrainConfig
from .errors import ConfigError, DataError, InvalidArgumentError
from .kernel_layer import LayerConfig, check_seed
from .network import (
    DEFAULT_PYRAMID_LEVELS,
    check_input_size,
    check_layer_input,
    check_pyramid_levels,
)

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
    """Run configuration: global knobs plus per-layer configs."""

    input_size: int = 200
    seed: int = 0
    pyramid_levels: tuple[int, ...] = DEFAULT_PYRAMID_LEVELS
    color: str = "gray"
    pretrain: PretrainConfig = field(default_factory=PretrainConfig)
    layers: tuple[LayerConfig, ...] = ()

    def __post_init__(self) -> None:
        check_input_size(self.input_size)
        check_seed(self.seed)
        if self.color not in COLOR_MODES:
            raise InvalidArgumentError(f"color must be one of {COLOR_MODES}, got {self.color!r}")
        check_pyramid_levels(self.pyramid_levels)
        for index, layer in enumerate(self.layers):
            check_layer_input(index, layer)
        if self.layers and self.layers[0].input_kind == "gradient" and not self.grayscale:
            raise InvalidArgumentError("a gradient first layer needs color = gray")

    @property
    def grayscale(self) -> bool:
        return self.color == "gray"


# How a value is read for each field annotation, and what it must look like.
_READERS = {
    int: (int, "an integer"),
    float: (float, "a number"),
    str: (str, "a string"),
    tuple[int, ...]: (lambda text: tuple(int(part) for part in text.split(",")), "integers"),
}
# Config keys spelled differently from the field they set.
_SPELLING = {"input_kind": "input"}
_TOP = "top level"


def _keys(cls: type) -> dict[str, tuple[str, object]]:
    """Config key -> (field name, annotation) for every field a file can set."""
    return {
        _SPELLING.get(name, name): (name, hint)
        for name, hint in get_type_hints(cls).items()
        if hint in _READERS
    }


def parse_run_config(path: str | os.PathLike) -> RunConfig:
    """Parse and validate a run-configuration file.

    The top level sets RunConfig's fields, [pretrain] PretrainConfig's and
    each [layerN] LayerConfig's (``input`` sets ``input_kind``), with the
    types' defaults, except that [pretrain]'s seed defaults to the top-level
    seed and [layerN]'s to seed + N. Layers are numbered 1, 2, ... without
    gaps. A value that does not parse, or that RunConfig rejects, is
    reported at its own line; one a section's type rejects, at the header's.
    """
    source = Path(path)
    try:
        text = source.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{source}: cannot read config: {exc}") from exc

    values: dict[str, dict[str, object]] = {_TOP: {}}
    headers: dict[str, int] = {}
    where, keys, run = _TOP, _keys(RunConfig), RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name == "pretrain":
                keys = _keys(PretrainConfig)
            elif name.startswith("layer") and name[5:].isdigit():
                name, keys = f"layer{int(name[5:])}", _keys(LayerConfig)
            else:
                raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")
            where = f"[{name}]"
            if where in values:
                raise ConfigError(f"{source}:{lineno}: duplicate section {where}")
            values[where], headers[where] = {}, lineno
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        if key not in keys:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in {where}")
        name, hint = keys[key]
        if name in values[where]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r} in {where}")
        read, expected = _READERS[hint]
        try:
            values[where][name] = read(value)
        except ValueError:
            raise ConfigError(f"{source}:{lineno}: {key} expects {expected}, got {value!r}")
        if where == _TOP:
            # The top level has no header line, so each value is checked at its own.
            try:
                run = replace(run, **{name: values[where][name]})
            except InvalidArgumentError as exc:
                raise ConfigError(f"{source}:{lineno}: invalid {key}: {exc}") from exc

    numbers = sorted(int(where[6:-1]) for where in values if where.startswith("[layer"))
    if not numbers:
        raise ConfigError(f"{source}: at least one [layerN] section is required")
    if numbers != list(range(1, len(numbers) + 1)):
        raise ConfigError(
            f"{source}: layer sections must be numbered 1..{len(numbers)} without gaps"
        )

    where = "[pretrain]"
    try:
        run = replace(run, pretrain=PretrainConfig(**{"seed": run.seed, **values.get(where, {})}))
        for number in numbers:
            where = f"[layer{number}]"
            for required in fields(LayerConfig):
                if required.default is MISSING and required.name not in values[where]:
                    key = _SPELLING.get(required.name, required.name)
                    raise ConfigError(f"{source}:{headers[where]}: {where} is missing {key!r}")
            layer = LayerConfig(**{"seed": run.seed + number, **values[where]})
            run = replace(run, layers=(*run.layers, layer))
    except InvalidArgumentError as exc:
        raise ConfigError(f"{source}:{headers[where]}: invalid {where}: {exc}") from exc
    return run

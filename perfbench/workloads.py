"""The benchmark workloads and the runner that times and checks them.

Every step a user would run goes through ``cskn.cli.run_command`` in this
process, exactly as ``scripts/run_demo.py`` does, so a later change may
batch, cache or rewrite any layer behind the CLI without touching this
file. Timings are taken around those calls with tracing off; the traced
run (``trace=True``) repeats one set-up and one cycle with hooks installed
and turns the spans into per-layer metrics. The one step run in another
process is the untimed ``cskn extract`` whose peak resident set gives
``peak_rss_mb``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import per_layer_metrics
from tracer import PairFitRecorder, Tracer

# The A6 acceptance bars.
MIN_TOP1 = 0.80
MIN_PRECISION_AT_1 = 0.70
DESCRIPTOR_SAMPLE = 4
PROBE_TIMEOUT_S = 120.0
SRC = Path(__file__).resolve().parent.parent / "src"

# Demo architecture (scripts/run_demo.py) with the budget fields left open.
CONFIG_TEMPLATE = """\
input_size = {input_size}
seed = 0
color = gray
pyramid_levels = 1,2,3,6

[pretrain]
patches_per_epoch = {patches_per_epoch}
epochs = {epochs}
batch_size = 500

[layer1]
input = gradient
sub_patch_size = 1
subsampling_factor = 4
num_filters = 16
num_training_pairs = {pairs}

[layer2]
input = patch
sub_patch_size = 3
subsampling_factor = 2
num_filters = 64
num_training_pairs = {pairs}
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "extract_img_per_s": "1/s",
    "classify_s": "s",
    "retrieve_s": "s",
    "top1_accuracy": "fraction",
    "precision_at_1": "fraction",
    "peak_rss_mb": "MiB",
}


@dataclass(frozen=True)
class Workload:
    """Dataset shape, training budget and what the timed cycle runs.

    The model is trained on the first ``fit_per_class`` train images of
    each class: in the timed cycle when ``timed_train`` is set, otherwise
    in set-up. The timed cycle then extracts, classifies and retrieves
    over the whole dataset.
    """

    name: str
    input_size: int
    train_per_class: int
    test_per_class: int
    fit_per_class: int
    pairs: int
    patches_per_epoch: int
    epochs: int
    timed_train: bool
    min_cycles: int

    def config_text(self) -> str:
        return CONFIG_TEMPLATE.format(
            input_size=self.input_size,
            pairs=self.pairs,
            patches_per_epoch=self.patches_per_epoch,
            epochs=self.epochs,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # The pair-fit dominates training, on the demo's 60 training images and
        # architecture. The pair count and pre-training are cut so one training
        # takes ~5 s on one core and both layers still run the solver to its
        # iteration cap. Evaluation runs over a 150-image gallery at 64x64.
        Workload("train-demo", 64, 25, 25, 20, 3000, 10000, 1, True, min_cycles=2),
        # The paper's input size: the forward path is almost all of the work,
        # and its per-image working set is ~10x that at 64x64. With 5 or fewer
        # training images per class the layer-2 pair-fit starts below the
        # solver tolerance on ~1 seed in 10, which makes train_s bimodal.
        Workload("gallery-200", 200, 8, 2, 8, 500, 2000, 1, False, min_cycles=3),
    )
}


class Session:
    """Runs CLI commands in-process and keeps the correctness gate's tally."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        from cskn.cli import run_command

        self._run_command = run_command
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def command(self, argv: list[str]) -> float:
        """Run one ``cskn`` command; returns its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = self._run_command([str(a) for a in argv])
        seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end(span)
        self.check(status == 0, f"cskn {argv[0]} exited {status}: {err.getvalue().strip()}")
        return seconds


@dataclass
class Paths:
    data: Path
    manifest: Path
    fit_manifest: Path
    config: Path


def _paths(work: Path) -> Paths:
    data = work / "data"
    return Paths(data, data / "manifest.tsv", data / "fit_manifest.tsv", work / "run.cfg")


def set_up(w: Workload, session: Session, work: Path, seed: int, model: Path):
    """Generate the dataset and, unless training is timed, train the model.

    Returns (set-up seconds, set-up training seconds or None).
    """
    from cskn.synthetic import make_texture_dataset

    paths = _paths(work)
    start = time.perf_counter()
    make_texture_dataset(
        paths.data,
        size=w.input_size,
        train_per_class=w.train_per_class,
        test_per_class=w.test_per_class,
        seed=seed,
    )
    paths.config.write_text(w.config_text(), encoding="utf-8")
    kept: dict[str, int] = {}
    lines = []
    for line in paths.manifest.read_text(encoding="utf-8").splitlines():
        name, label, split = line.split("\t")
        if split == "train" and kept.get(label, 0) < w.fit_per_class:
            kept[label] = kept.get(label, 0) + 1
            lines.append(line)
    paths.fit_manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    train_seconds = None
    if not w.timed_train:
        train_seconds = session.command(
            ["train", "--config", paths.config, "--manifest", paths.fit_manifest, "--out", model]
        )
    return time.perf_counter() - start, train_seconds


def run_cycle(w: Workload, session: Session, work: Path, model: Path, out: Path) -> dict:
    """The timed steps: train (if timed), then extract, classify and
    retrieve. Returns seconds per step."""
    paths = _paths(work)
    out.mkdir(parents=True, exist_ok=True)
    times: dict[str, list[float]] = {"train_s": [], "extract_s": [], "classify_s": [], "retrieve_s": []}
    if w.timed_train:
        model = out / "model.cskn"
        times["train_s"].append(session.command(
            ["train", "--config", paths.config, "--manifest", paths.fit_manifest, "--out", model]
        ))
    times["extract_s"].append(session.command(
        ["extract", "--model", model, "--manifest", paths.manifest,
         "--out", out / "descriptors.cskd"]
    ))
    times["classify_s"].append(session.command(
        ["classify", "--model", model, "--manifest", paths.manifest,
         "--report", out / "classify.tsv", "--json"]
    ))
    times["retrieve_s"].append(session.command(
        ["retrieve", "--model", model, "--manifest", paths.manifest, "--q", "1,5,10",
         "--report", out / "retrieve.tsv", "--json"]
    ))
    return times


def peak_rss_extract(session: Session, work: Path, model: Path, out: Path) -> float:
    """Run ``cskn extract`` over the workload's manifest in a fresh process.

    Returns that process's resident-set high-water mark in MiB. A fresh
    process holds nothing from set-up or from earlier commands, so the
    figure reads the same on every run of the same code. The process is
    always waited for, and killed if it outlives ``PROBE_TIMEOUT_S``.
    """
    out.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, "-m", "cskn.cli", "extract", "--model", str(model),
            "--manifest", str(_paths(work).manifest), "--out", str(out / "descriptors.cskd")]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out / "extract.log", "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
    deadline = time.monotonic() + PROBE_TIMEOUT_S
    try:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        while not pid:
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.02)
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    log = (out / "extract.log").read_text(encoding="utf-8", errors="replace").strip()
    session.check(
        proc.returncode == 0, f"cskn extract in a fresh process exited {proc.returncode}: {log[-300:]}"
    )
    return usage.ru_maxrss / 1024.0


def _report_value(path: Path, key: str) -> float | None:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return None
    for line in lines:
        name, _, value = line.partition("\t")
        if name == key:
            return float(value)
    return None


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check_model(session: Session, model: Path) -> None:
    from cskn.errors import CsknError
    from cskn.model_io import load_model

    try:
        load_model(model)
        ok, why = True, ""
    except (CsknError, ValueError) as exc:
        ok, why = False, str(exc)
    session.check(ok, f"model {model.name} does not reload: {why}")


def check_cycle(session: Session, out: Path) -> tuple[float, float]:
    """The A6 bars on both reports; returns (top-1 accuracy, P@1)."""
    top1 = _report_value(out / "classify.tsv", "top1_accuracy")
    p1 = _report_value(out / "retrieve.tsv", "precision@1")
    session.check(top1 is not None and top1 >= MIN_TOP1, f"top1_accuracy {top1} < {MIN_TOP1}")
    session.check(
        p1 is not None and p1 >= MIN_PRECISION_AT_1, f"precision@1 {p1} < {MIN_PRECISION_AT_1}"
    )
    return (top1 or 0.0), (p1 or 0.0)


def check_descriptors(session: Session, work: Path, model: Path, out: Path, seed: int) -> None:
    """Row count matches the manifest; sampled rows match a direct forward."""
    from cskn.config import load_manifest
    from cskn.errors import CsknError
    from cskn.images import load_image
    from cskn.model_io import load_descriptors, load_model
    from cskn.network import forward_network

    manifest = load_manifest(_paths(work).manifest)
    try:
        entries, matrix = load_descriptors(out / "descriptors.cskd")
        bundle = load_model(model)
    except (CsknError, ValueError) as exc:
        session.check(False, f"descriptors or model do not load: {exc}")
        return
    expected = [(e.path, e.label, e.split) for e in manifest.entries]
    session.check(
        matrix.shape[0] == len(expected) and list(entries) == expected,
        f"descriptor rows {matrix.shape[0]} do not match {len(expected)} manifest entries",
    )
    grayscale = bundle.expected_channels() == 1
    rng = np.random.default_rng(seed)
    count = min(DESCRIPTOR_SAMPLE, len(expected))
    for row in sorted(rng.choice(len(expected), size=count, replace=False)):
        entry = manifest.entries[row]
        image = load_image(manifest.resolve(entry), bundle.input_size, grayscale)
        direct = forward_network(image, bundle).values.astype(np.float32)
        session.check(
            row < matrix.shape[0] and np.array_equal(direct, matrix[row]),
            f"descriptor row {row} ({entry.path}) differs from a direct forward pass",
        )


def _same_files(session: Session, a: Path, b: Path, what: str) -> None:
    for name in sorted(p.name for p in a.iterdir() if p.is_file()):
        session.check(_sha256(a / name) == _sha256(b / name), f"{what}: {name} differs")


def _median(values):
    return statistics.median(values) if values else None


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns metrics, the gate's tally and pair-fit outcomes."""
    work = root / ".perfbench-work" / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            return _traced(w, seed, work, root)
        return _timed(w, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _timed(w: Workload, seed: int, seconds: float, work: Path) -> dict:
    recorder = PairFitRecorder()
    recorder.install()
    session = Session()
    fits: list[list] = []
    setups, setup_trains, models = [], [], []

    def set_up_fresh() -> None:
        # Each set-up writes a fresh directory, as a user's first set-up does.
        data = work / f"setup-{len(setups)}"
        data.mkdir()
        model = data / "model.cskn"
        recorder.outcomes.clear()
        total, train = set_up(w, session, data, seed, model)
        setups.append(total)
        if train is not None:
            setup_trains.append(train)
            models.append(model)
            fits.append(list(recorder.outcomes))

    try:
        # Set-up runs once before the first cycle and once after every cycle,
        # so its samples spread over the run as the cycles' do. The speed of
        # this shared host swings by a third or more over minutes, and most of
        # train-demo's set-up is file creation, whose cost swings by 2-4x over
        # seconds: set-ups run back to back took up to 3x longer than one
        # that follows a cycle.
        set_up_fresh()
        data = work / "setup-0"
        cycles: list[dict] = []
        start = time.perf_counter()
        # Start another cycle only if it should end within the budget.
        while len(cycles) < w.min_cycles or (
            (time.perf_counter() - start) * (len(cycles) + 1) / len(cycles) <= seconds
        ):
            recorder.outcomes.clear()
            out = work / f"cycle-{len(cycles)}"
            model = out / "model.cskn" if w.timed_train else models[0]
            cycles.append(run_cycle(w, session, data, model, out))
            if w.timed_train:
                models.append(model)
                fits.append(list(recorder.outcomes))
            set_up_fresh()
    finally:
        recorder.remove()

    peak_rss = peak_rss_extract(session, data, models[0], work / "fresh")
    quality = []
    for out in [work / f"cycle-{k}" for k in range(len(cycles))]:
        quality.append(check_cycle(session, out))
    for out in [work / f"cycle-{k}" for k in range(1, len(cycles))] + [work / "fresh"]:
        session.check(
            _sha256(out / "descriptors.cskd") == _sha256(work / "cycle-0" / "descriptors.cskd"),
            f"{out.name} descriptors differ from cycle-0",
        )
    for model in models:
        check_model(session, model)
    session.check(
        len({_sha256(m) for m in models}) == 1, "retrained models differ in bytes"
    )
    check_descriptors(session, data, models[0], work / "cycle-0", seed)

    images = w.train_per_class * 3 + w.test_per_class * 3
    samples = {name: [t for c in cycles for t in c[name]] for name in cycles[0]}
    metrics = {
        "setup_s": _median(setups),
        "train_s": _median(samples["train_s"] if w.timed_train else setup_trains),
        "extract_img_per_s": _median([images / t for t in samples["extract_s"]]),
        "classify_s": _median(samples["classify_s"]),
        "retrieve_s": _median(samples["retrieve_s"]),
        "top1_accuracy": _median([q[0] for q in quality]),
        "precision_at_1": _median([q[1] for q in quality]),
        "peak_rss_mb": peak_rss,
    }
    return {
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "session": session,
        "fits": fits,
        "notes": [f"cycles={len(cycles)} setups={len(setups)} images={images}"]
        + [
            f"samples {name} " + " ".join(f"{t:.4f}" for t in values)
            for name, values in [("setup_s", setups), ("setup_train_s", setup_trains), *samples.items()]
            if values
        ],
    }


def _traced(w: Workload, seed: int, work: Path, root: Path) -> dict:
    plain_dir, traced_dir = work / "untraced", work / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    session = Session()
    recorder = PairFitRecorder()
    recorder.install()
    try:
        plain_setup, _ = set_up(w, session, work, seed, plain_dir / "setup.cskn")
        start = time.perf_counter()
        run_cycle(w, session, work, plain_dir / "setup.cskn", plain_dir)
        plain_cycle = time.perf_counter() - start
    finally:
        recorder.remove()

    tracer = Tracer()
    session.tracer = tracer
    recorder = PairFitRecorder(tracer)
    tracer.install()
    recorder.install()
    try:
        traced_setup, _ = set_up(w, session, work, seed, traced_dir / "setup.cskn")
        start = time.perf_counter()
        run_cycle(w, session, work, traced_dir / "setup.cskn", traced_dir)
        traced_cycle = time.perf_counter() - start
    finally:
        recorder.remove()
        tracer.remove()
        session.tracer = None
    tracer.write(root / ".perfbench-out" / f"trace-{w.name}-seed{seed}.jsonl")

    _same_files(session, plain_dir, traced_dir, "traced output")
    check_cycle(session, traced_dir)
    model = traced_dir / ("model.cskn" if w.timed_train else "setup.cskn")
    check_model(session, model)
    check_descriptors(session, work, model, traced_dir, seed)

    overhead = (traced_setup + traced_cycle) - (plain_setup + plain_cycle)
    metrics, coverage = per_layer_metrics(tracer, recorder.outcomes, overhead)
    for command, share in coverage:
        session.check(share >= 0.95, f"spans cover {share:.3f} of cli.{command}, below 0.95")
    return {
        "metrics": metrics,
        "session": session,
        "fits": [list(recorder.outcomes)],
        "notes": [
            f"coverage {command}={share:.4f}" for command, share in coverage
        ] + [f"tracing_overhead_s={overhead:.4f} untraced_s={plain_setup + plain_cycle:.4f}"],
    }

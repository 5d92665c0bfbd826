"""Closed-loop benchmark runner: one caller, one op at a time, one process.

Run it through ``run.py``:

    python3 perfbench/run.py --workload segment_noise --seed 1 --seconds 30 --trace 0

It imports the library from ``src/`` beside this directory, then runs
ops of the chosen workload until ``--seconds`` have passed, checking
each op's output. Set-up (import plus ``load_model``) is timed again
between ops, spread over the run. Human-readable lines (provenance,
input properties and every metric by name and unit) come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones. With ``--trace 1`` op 0 is an untraced warm-up,
later ops alternate traced and untraced, and the metrics are the
per-layer ones (medians over the traced ops) plus the tracing overhead
against the untraced op next to each traced one. Spans are written to
``.perfbench_run/`` at the end of a traced run.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import inputs
import layers
import spans
import workloads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
MODEL = HERE / "mlp_surrogate.model"
EXPECTED = HERE / "expected.json"
RUN_DIR = CHECKOUT / ".perfbench_run"

WORKLOADS = ("segment_noise", "segment_scene", "train_eval")
DEFAULT_SEED = 1
SETUP_REPS = 21
MODULES = ("raster", "colorspace", "classifiers", "nn", "neighbourhood",
           "segment", "dataset", "model_io", "metrics")

# (metric, unit); op_s_p50 is the frame time on the segment workloads
# (seg_frame_s_p50) and the train+eval pass on train_eval (train_eval_s)
END_TO_END = (("op_s_p50", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark cannot run: missing library or a changed input file."""


def add_library_path() -> None:
    """Put src/ first on sys.path, so skinseg comes from this checkout."""
    if not (SRC / "skinseg" / "__init__.py").is_file():
        raise BenchError(f"no library source at {SRC / 'skinseg'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_library() -> SimpleNamespace:
    package = importlib.import_module("skinseg")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"skinseg was imported from {package.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"skinseg.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


class Setup:
    """Timed set-ups: import the library from src/ and load the committed model.

    Each set-up first drops every module the first import added, so it
    pays the full import; modules loaded before (numpy) stay. run.py
    turns bytecode caching off, so every import compiles the sources.
    After each later set-up, sys.modules holds the first set-up's
    library again, which is the one the ops use.
    """

    def __init__(self):
        add_library_path()
        self._before = set(sys.modules)
        self.times: list[float] = []
        self.lib, self.saved = self._timed()
        self._library = {name: sys.modules[name] for name in set(sys.modules) - self._before}

    def _drop(self) -> None:
        for name in set(sys.modules) - self._before:
            del sys.modules[name]

    def _timed(self):
        self._drop()
        start = time.perf_counter()
        lib = import_library()
        saved = lib.model_io.load_model(MODEL)
        self.times.append(time.perf_counter() - start)
        return lib, saved

    def again(self) -> None:
        self._timed()
        self._drop()
        sys.modules.update(self._library)
        gc.collect()


def load_expected(seed: int) -> dict:
    """Recorded digests; per-op ones apply only to the default seed."""
    expected = json.loads(EXPECTED.read_text(encoding="ascii"))
    if hashlib.sha256(MODEL.read_bytes()).hexdigest() != expected["model_sha256"]:
        raise BenchError(f"{MODEL.name} does not match its recorded digest")
    if seed != expected["seed"]:
        return {}
    return expected


def make_workload(name: str, lib, model, seed: int, workdir: Path, expected: dict):
    if name == "segment_noise":
        return workloads.SegmentWorkload(lib, model, lambda i: inputs.noise_frame(seed, i),
                                         radius=1, rule="symmetric", expected=expected.get(name))
    if name == "segment_scene":
        return workloads.SegmentWorkload(lib, model, lambda i: inputs.scene_frame(seed, i),
                                         radius=7, rule="paper", expected=expected.get(name))
    return workloads.TrainEvalWorkload(lib, seed, workdir, expected=expected.get(name))


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def git_commit() -> str:
    if not (CHECKOUT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tail(values):
    """(percentile, value): the highest of a fixed ladder with >= 10 values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[max(math.ceil(q / 100.0 * n) - 1, 0)]
    return None


def layer_values(op_spans, op_info) -> tuple[dict, float]:
    """Per-layer metric values of one traced op, and |sum of self times - op time|."""
    by_name = spans.totals(op_spans)
    values = {name: float(fn(by_name, op_info)) for name, _, fn in layers.PER_LAYER}
    self_sum = sum(t.self_time for t in by_name.values())
    return values, abs(self_sum - by_name[spans.ROOT].inclusive)


def run_loop(wl, setup: Setup, seconds: float, tracer):
    """Closed loop over ops for about seconds; one record per op.

    A further op starts only while half the last op's time still fits
    before the deadline, so runs end close to it even when ops are long.
    With a tracer, op 0 is an untraced warm-up and the following ops
    alternate traced and untraced. Set-ups are repeated between ops, as
    they fall due over the run, until there are SETUP_REPS; host speed
    drifts within seconds, so their median is steadier than that of
    set-ups made back to back.
    """
    lib = setup.lib
    modules = [lib.package, *(getattr(lib, name) for name in MODULES)]
    targets = layers.targets(lib)
    records, archive = [], []
    begin = time.perf_counter()
    deadline = begin + seconds

    def setups_due(done: bool) -> None:
        share = 1.0 if done else (time.perf_counter() - begin) / max(seconds, 1e-9)
        while len(setup.times) < min(1 + int(share * SETUP_REPS), SETUP_REPS):
            setup.again()

    index, last = 0, 0.0
    while index < (3 if tracer else 1) or time.perf_counter() + 0.5 * last < deadline:
        setups_due(False)
        item = wl.input(index)
        info = wl.info(item)
        traced = tracer is not None and index % 2 == 1
        output, problems = None, []
        if traced:
            tracer.install(targets, modules)
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            output = wl.op(item)
        except Exception:  # a failing op is counted, and the loop goes on
            problems.append("op raised:\n" + traceback.format_exc())
        elapsed = time.perf_counter() - start
        record = {"index": index, "seconds": elapsed, "traced": traced, "info": info}
        if traced:
            record["seconds"] = tracer.end_op()
            tracer.uninstall()
            op_spans = tracer.take()
            record["layers"], gap = layer_values(op_spans, info)
            if gap > 1e-9 * (1.0 + record["seconds"]):
                problems.append(f"self times miss the op time by {gap:g} s")
            for span in op_spans:
                span.capture = None
            archive.extend(op_spans)
        if output is not None:
            try:
                problems += wl.check(item, output)
            except Exception:  # a check that crashes fails the op
                problems.append("check raised:\n" + traceback.format_exc())
        del output
        for problem in problems:
            print(f"op {index} failed: {problem}", file=sys.stderr)
        record["failed"] = bool(problems)
        records.append(record)
        index, last = index + 1, record["seconds"]
    setups_due(True)
    return records, archive


def end_to_end(records, setup_s, rss_growth_mb) -> dict:
    times = [r["seconds"] for r in records]
    return {"op_s_p50": statistics.median(times), "setup_s": setup_s, "peak_rss_mb": rss_growth_mb}


def per_layer(records) -> dict:
    """Per-layer medians over the traced ops, and the tracing overhead.

    The overhead is the median, over the traced ops, of the op's time
    against that of the untraced op after it (before it, for a last
    op), so that host drift between distant ops cancels.
    """
    traced = [i for i, r in enumerate(records) if r["traced"]]
    out = {name: statistics.median(records[i]["layers"][name] for i in traced)
           for name, _, _ in layers.PER_LAYER}
    ratios = [records[i]["seconds"] / records[i + 1 if i + 1 < len(records) else i - 1]["seconds"]
              for i in traced]
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return out


def per_layer_units() -> dict:
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    units["trace.overhead_frac"] = "ratio"
    return units


def report_lines(args, wl, records, setup_s, rss_growth_mb, prov) -> list[str]:
    """The headline metrics by name, with units, for a person to read."""
    failed = sum(r["failed"] for r in records)
    plain = [r for r in records if not r["traced"]]
    times = [r["seconds"] for r in plain]
    distinct = statistics.median(r["info"]["distinct_colour_frac"] for r in records)
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} ops={len(records)}",
        "provenance " + " ".join(f"{k}={json.dumps(v)}" for k, v in prov.items()),
        "input " + " ".join(f"{k}={v}" for k, v in wl.describe().items())
        + f" input.distinct_colour_frac={distinct:.6f}",
    ]
    if args.workload == "train_eval":
        lines.append(f"train_eval_s {statistics.median(times):.6f} s (median of {len(times)} ops)")
    else:
        pixels = sum(r["info"]["pixels"] for r in plain)
        lines.append(f"seg_mpix_per_s {pixels / sum(times) / 1e6:.6f} Mpix/s")
        lines.append(f"seg_frame_s_p50 {statistics.median(times):.6f} s (of {len(times)} frames)")
        found = tail(times)
        if found is not None:
            lines.append(f"seg_frame_s_tail {found[1]:.6f} s (p{found[0]:g} of {len(times)} frames)")
    lines.append(f"setup_s {setup_s:.6f} s (median of {SETUP_REPS})")
    if not args.trace:
        lines.append(f"peak_rss_mb {rss_growth_mb:.3f} MB (growth over the pre-op baseline)")
    lines.append(f"ops_failed_frac {failed / len(records):.6f} ({failed} of {len(records)} ops)")
    return lines


def write_spans(path: Path, archive) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for s in archive:
            fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.op]) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        setup = Setup()
        expected = load_expected(args.seed)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = make_workload(args.workload, setup.lib, setup.saved.model, args.seed, workdir, expected)
        rss_base = maxrss_mb()
        tracer = spans.Tracer() if args.trace else None
        records, archive = run_loop(wl, setup, args.seconds, tracer)
        rss_growth = maxrss_mb() - rss_base
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov, setup_s = provenance(), statistics.median(setup.times)
    print("\n".join(report_lines(args, wl, records, setup_s, rss_growth, prov)))
    if tracer is not None:
        values, units = per_layer(records), per_layer_units()
        if tracer.missing:
            print("spans that no longer exist: " + " ".join(sorted(tracer.missing)))
        write_spans(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", archive)
    else:
        values = end_to_end(records, setup_s, rss_growth)
        units = dict(END_TO_END)
    for name, value in values.items():
        print(f"{name} {value:.9g} {units[name]}")
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0

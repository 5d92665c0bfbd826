"""Regenerate the benchmark's committed files.

    python3 perfbench/record.py model     # retrain mlp_surrogate.model
    python3 perfbench/record.py digests   # re-record expected.json
    python3 perfbench/record.py baseline --runs 10 --seconds 30

``model`` trains the MLP the segment workloads use: the default
architecture and 12 epochs on the 70% training split of the default-seed
surrogate dataset. ``digests`` records, for the default seed, the SHA-256
of the first frames' masks on each segment workload and of the model
files and eval reports of one train_eval op. ``baseline`` makes two
sets of untraced runs, each set running every workload once per seed
(seeds 1..runs, then runs+1..2*runs), plus one traced run per workload,
and writes BASELINE.json with provenance, each set's medians and
quartile spreads, and how far the second set's median lies from the
first's against the metric's bound in BENCHMARK.json.
Run ``digests`` and ``baseline`` only on a commit whose outputs are
known to be right, since later runs are checked against them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

BASELINE = harness.HERE / "BASELINE.json"
DIGEST_FRAMES = {"segment_noise": 64, "segment_scene": 6}


def record_model() -> None:
    harness.add_library_path()
    lib = harness.import_library()
    text = inputs.surrogate_text(harness.DEFAULT_SEED)
    samples = lib.dataset.parse_uci(text.splitlines())
    train_raw, _ = lib.dataset.split(samples, lib.dataset.SplitConfig(test_fraction=0.30, seed=0))
    model, _ = lib.nn.train(lib.dataset.to_hsv_samples(train_raw), lib.nn.MlpArchitecture(),
                            lib.nn.TrainConfig(seed=0))
    lib.model_io.save_model(harness.MODEL, model, seed=0,
                            fingerprint=lib.model_io.dataset_fingerprint(samples))


def record_digests() -> None:
    setup = harness.Setup()
    lib, saved = setup.lib, setup.saved
    seed = harness.DEFAULT_SEED
    out = {"seed": seed, "model_sha256": workloads.sha256(harness.MODEL.read_bytes())}
    with tempfile.TemporaryDirectory(dir=harness.CHECKOUT) as tmp:
        for name, frames in DIGEST_FRAMES.items():
            wl = harness.make_workload(name, lib, saved.model, seed, Path(tmp), {})
            digests = []
            for index in range(frames):
                frame = wl.input(index)
                output = wl.op(frame)
                if wl.check(frame, output):
                    raise SystemExit(f"{name} frame {index} fails its checks; nothing recorded")
                digests.append(workloads.sha256(output[0]))
            out[name] = digests
        wl = harness.make_workload("train_eval", lib, saved.model, seed, Path(tmp), {})
        path = wl.input(0)
        if wl.check(path, wl.op(path)):
            raise SystemExit("train_eval op fails its checks; nothing recorded")
        out["train_eval"] = wl.first_digests
    harness.EXPECTED.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")


def _result(workload, seed, seconds, trace):
    cmd = [sys.executable, str(harness.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=harness.CHECKOUT, capture_output=True, text=True, check=True)
    print(proc.stdout, end="", flush=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "iqr_frac": (q3 - q1) / q2, "values": values}


def record_baseline(runs: int, seconds: int) -> None:
    spec = json.loads((harness.CHECKOUT / "BENCHMARK.json").read_text(encoding="ascii"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = [{w: [_result(w, seed, seconds, 0) for seed in range(first, first + runs)]
             for w in harness.WORKLOADS}
            for first in (1, runs + 1)]
    out = {"provenance": harness.provenance(), "runs": runs, "seconds": seconds, "workloads": {}}
    for workload in harness.WORKLOADS:
        traced = _result(workload, harness.DEFAULT_SEED, seconds, 1)
        results = [r for one in sets for r in one[workload]] + [traced]
        end_to_end = {}
        for name, _ in harness.END_TO_END:
            first, second = (spread([r["metrics"][name]["value"] for r in one[workload]])
                             for one in sets)
            change = second["median"] / first["median"] - 1.0
            end_to_end[name] = {"bound": bounds[name], "second_vs_first": change,
                                "within_bound": change <= bounds[name], "sets": [first, second]}
        out["workloads"][workload] = {
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    BASELINE.write_text(json.dumps(out, indent=1) + "\n", encoding="ascii")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regenerate the benchmark's committed files")
    parser.add_argument("what", choices=("model", "digests", "baseline"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    if args.what == "model":
        record_model()
    elif args.what == "digests":
        record_digests()
    else:
        record_baseline(args.runs, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: one op each, plus the checks on its output.

Each workload makes the input for op i outside the timed region
(``input``), runs one op through the library's public functions
(``op``) and checks the op's output (``check``), which returns the list
of problems found; a non-empty list makes the op count as failed.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs

KINDS = ("threshold", "bayes", "tree", "mlp")
ORACLE_TILE = 24  # side of the tile checked against refine_brute_oracle
EPOCHS = 2  # MLP epochs per train_eval op, to keep an op near 10 s


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Frame:
    index: int
    ppm: bytes
    pixels: np.ndarray
    probe: tuple[int, int]  # (x, y) the oracle tile is centred on
    distinct_colour_frac: float

    @property
    def size(self) -> int:
        return self.pixels.shape[0] * self.pixels.shape[1]


class SegmentWorkload:
    """read_ppm -> segment_image (MLP, full resolution, refined) -> write_pgm."""

    def __init__(self, lib, model, frames, radius, rule, expected=None):
        self.lib = lib
        self.model = model
        self.frames = frames  # index -> (pixels, (x, y) of the check tile)
        self.cfg = lib.neighbourhood.NeighbourhoodConfig(
            radius=radius, rule=lib.neighbourhood.Rule(rule)
        )
        self.expected = expected  # per-frame mask digests, or None
        self.frame_size = None

    def input(self, index: int) -> Frame:
        pixels, probe = self.frames(index)
        self.frame_size = f"{pixels.shape[1]}x{pixels.shape[0]}"
        ppm = self.lib.raster.write_ppm(self.lib.raster.Image(pixels=pixels))
        return Frame(index, ppm, pixels, probe, inputs.distinct_colour_frac(pixels))

    def op(self, frame: Frame):
        lib = self.lib
        image = lib.raster.read_ppm(frame.ppm)
        result = lib.segment.segment_image(image, self.model, refine_cfg=self.cfg)
        return lib.raster.write_pgm(result.mask), result

    def check(self, frame: Frame, output) -> list[str]:
        pgm, result = output
        h, w = frame.pixels.shape[:2]
        problems = []
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
        mask = None
        if not pgm.startswith(header) or len(pgm) != len(header) + w * h:
            problems.append(f"mask is not a {w}x{h} PGM")
        else:
            mask = np.frombuffer(pgm, dtype=np.uint8, offset=len(header)).reshape(h, w)
            if not np.isin(mask, (0, 255)).all():
                problems.append("mask holds values other than 0 and 255")
        for plane in (result.probabilities.p_skin, result.probabilities.p_non_skin):
            if plane.shape != (h, w):
                problems.append(f"probability plane is {plane.shape}, frame is {(h, w)}")
            elif not (np.isfinite(plane).all() and (plane >= 0).all() and (plane <= 1).all()):
                problems.append("refined probabilities are not finite values in [0, 1]")
        problems += self._oracle_problems(frame, mask)
        if self.expected is not None and frame.index < len(self.expected):
            if sha256(pgm) != self.expected[frame.index]:
                problems.append(f"mask digest of frame {frame.index} differs from the recorded one")
        return problems

    def _oracle_problems(self, frame: Frame, mask) -> list[str]:
        """refine against refine_brute_oracle on a tile cut from the frame.

        The tile's stage-1 map is refined both ways; inside the tile, at
        least radius pixels from its edge, the frame's own mask must
        match the oracle too, since the window there is the same.
        """
        lib, t, r = self.lib, ORACLE_TILE, self.cfg.radius
        h, w = frame.pixels.shape[:2]
        x0 = min(max(frame.probe[0] - t // 2, 0), w - t)
        y0 = min(max(frame.probe[1] - t // 2, 0), h - t)
        tile = lib.raster.Image(pixels=frame.pixels[y0 : y0 + t, x0 : x0 + t].copy())
        stage1 = lib.segment.stage1_probabilities(tile, self.model)
        oracle = lib.neighbourhood.refine_brute_oracle(stage1, self.cfg).pixels
        problems = []
        if not np.array_equal(lib.neighbourhood.refine(stage1, self.cfg)[1].pixels, oracle):
            problems.append(f"refine differs from refine_brute_oracle on tile ({x0}, {y0})")
        if mask is not None:
            inner = mask[y0 + r : y0 + t - r, x0 + r : x0 + t - r] == 255
            if not np.array_equal(inner, oracle[r : t - r, r : t - r]):
                problems.append(f"frame mask differs from refine_brute_oracle in tile ({x0}, {y0})")
        return problems

    def info(self, frame: Frame) -> dict:
        return {"pixels": frame.size, "distinct_colour_frac": frame.distinct_colour_frac}

    def describe(self) -> dict:
        return {"frame": self.frame_size, "radius": self.cfg.radius, "rule": self.cfg.rule.value}


@dataclass
class TrainEvalOutput:
    samples: list
    fingerprint: str
    fitted: dict
    loaded: dict
    reports: dict
    test_hsv: np.ndarray


class TrainEvalWorkload:
    """Parse, fingerprint, split, fit bayes/tree/mlp, save/load, evaluate all kinds."""

    def __init__(self, lib, seed, workdir: Path, expected=None):
        self.lib = lib
        self.workdir = workdir
        self.expected = expected  # artefact name -> digest, or None
        self.n_skin, self.n_non, self.epochs = inputs.SURROGATE_SKIN, inputs.SURROGATE_NON_SKIN, EPOCHS
        text = inputs.surrogate_text(seed, self.n_skin, self.n_non)
        self.path = workdir / "surrogate.txt"
        self.path.write_text(text, encoding="ascii")
        self.distinct = inputs.rows_distinct_colour_frac(text)
        self.first_digests = None

    def input(self, index: int) -> Path:
        return self.path

    def _scores(self, kind, model, rgb, hsv):
        lib = self.lib
        if kind == "threshold":
            return lib.classifiers.threshold_scores(rgb, model)
        if kind == "bayes":
            return lib.classifiers.bayes_predict_batch(model, hsv)
        if kind == "tree":
            return lib.classifiers.tree_predict_batch(model, hsv)
        return lib.nn.mlp_predict_batch(model, hsv)

    def op(self, path: Path) -> TrainEvalOutput:
        lib = self.lib
        samples = lib.dataset.load_uci(path)
        fingerprint = lib.model_io.dataset_fingerprint(samples)
        train_raw, test_raw = lib.dataset.split(
            samples, lib.dataset.SplitConfig(test_fraction=0.30, seed=0)
        )
        train_hsv = lib.dataset.to_hsv_samples(train_raw)
        fitted = {
            "threshold": lib.classifiers.ThresholdRange(),
            "bayes": lib.classifiers.bayes_fit(train_hsv, alpha=1.0),
            "tree": lib.classifiers.tree_fit(train_hsv),
            "mlp": lib.nn.train(
                train_hsv, lib.nn.MlpArchitecture(),
                lib.nn.TrainConfig(epochs=self.epochs, batch_size=53, seed=0),
            )[0],
        }
        test_hsv, truth = lib.dataset.hsv_arrays(lib.dataset.to_hsv_samples(test_raw))
        test_rgb = np.array([(s.r, s.g, s.b) for s in test_raw], dtype=np.uint8)
        labels = [s.label for s in test_raw]
        loaded, reports = {}, {}
        for kind, model in fitted.items():
            model_path = self.workdir / f"{kind}.model"
            lib.model_io.save_model(model_path, model, seed=0, fingerprint=fingerprint)
            loaded[kind] = lib.model_io.load_model(model_path)
            scores = self._scores(kind, loaded[kind].model, test_rgb, test_hsv)
            matrix = lib.metrics.confusion_from_flags(scores >= 0.5, truth)
            _, auc = lib.metrics.roc_auc(scores, labels)
            reports[kind] = lib.metrics.format_report(
                lib.metrics.scalar_metrics(matrix, auc=auc), matrix
            )
        return TrainEvalOutput(samples, fingerprint, fitted, loaded, reports, test_hsv)

    def check(self, path: Path, out: TrainEvalOutput) -> list[str]:
        lib = self.lib
        problems = []
        n_rows = self.n_skin + self.n_non
        n_skin = sum(1 for s in out.samples if s.label is lib.dataset.Label.SKIN)
        if (len(out.samples), n_skin) != (n_rows, self.n_skin):
            problems.append(f"parsed {len(out.samples)} rows / {n_skin} skin, "
                            f"generated {n_rows} / {self.n_skin}")
        n_test = out.test_hsv.shape[0]
        digests = {}
        for kind in KINDS:
            saved = out.loaded[kind]
            if (saved.kind, saved.seed, saved.fingerprint) != (kind, 0, out.fingerprint):
                problems.append(f"{kind} model header did not round-trip")
            report, matrix = lib.metrics.parse_report(out.reports[kind])
            if matrix.total != n_test or not 0.0 <= report.auc <= 1.0:
                problems.append(f"{kind} report has {matrix.total} rows, auc {report.auc}")
            digests[f"{kind}.model"] = sha256((self.workdir / f"{kind}.model").read_bytes())
            digests[f"{kind}.report"] = sha256(out.reports[kind])
        probe = out.test_hsv[:10000]
        drift = np.abs(lib.nn.mlp_predict_batch(out.loaded["mlp"].model, probe)
                       - lib.nn.mlp_predict_batch(out.fitted["mlp"], probe))
        if float(drift.max()) > 1e-12:
            problems.append(f"mlp predictions drift {float(drift.max()):g} after save/load")
        if self.first_digests is None:
            self.first_digests = digests
        for name, digest in digests.items():
            if digest != self.first_digests[name]:
                problems.append(f"{name} differs from the run's first op")
            if self.expected is not None and digest != self.expected.get(name):
                problems.append(f"{name} digest differs from the recorded one")
        return problems

    def info(self, path: Path) -> dict:
        return {"pixels": 0, "distinct_colour_frac": self.distinct}

    def describe(self) -> dict:
        return {"rows": self.n_skin + self.n_non, "skin": self.n_skin, "non_skin": self.n_non}

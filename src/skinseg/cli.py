"""Command-line surface: train, eval, segment, bench, dataset-stats.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed inputs, degenerate datasets), 3 internal error. All state
flows through flags; no environment variables are consulted.
"""

import argparse
import statistics
import sys

import numpy as np

from . import model_io
from .classifiers import ThresholdRange, bayes_fit, tree_fit
from .dataset import (
    DatasetError,
    Label,
    SplitConfig,
    label_counts,
    load_uci,
    split,
    to_hsv_samples,
    train_size,
)
from .metrics import (
    confusion_from_flags,
    format_percent,
    format_report,
    roc_auc,
    scalar_metrics,
)
from .neighbourhood import NeighbourhoodConfig, Rule
from .nn import TrainConfig, train as train_mlp
from .raster import PnmError, read_ppm, write_gray_pgm, write_pgm
from .segment import probability_rendering, score_rgb, segment_image

PROG = "skinseg"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception.

    Stock argparse exits with status 2, which this tool reserves for
    data errors; usage failures must map to exit 1 instead.
    """

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="two-stage skin-colour segmentation")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_train = sub.add_parser("train", help="fit a model and write it to disk")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--model", required=True)
    p_train.add_argument("--kind", required=True, choices=model_io.KINDS)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--test-fraction", type=float, default=0.30)
    p_train.add_argument("--alpha", type=float, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--batch-size", type=int, default=None)

    p_eval = sub.add_parser("eval", help="score a model on the held-out split")
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--test-fraction", type=float, default=0.30)
    p_eval.add_argument("--output", default=None)

    p_seg = sub.add_parser("segment", help="segment a PPM image into a PGM mask")
    p_seg.add_argument("--model", required=True)
    p_seg.add_argument("--input", required=True)
    p_seg.add_argument("--output", required=True)
    p_seg.add_argument("--refine", action="store_true")
    p_seg.add_argument("--rule", choices=["paper", "symmetric"], default=None)
    p_seg.add_argument("--radius", type=int, default=None)
    p_seg.add_argument("--tau", type=float, default=None)
    p_seg.add_argument("--downscale", action="store_true")
    p_seg.add_argument("--prob-out", default=None)

    p_bench = sub.add_parser("bench", help="median-of-5 timing for the pipeline legs")
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("--input", required=True)
    p_bench.add_argument("--rule", choices=["paper", "symmetric"], default="symmetric")
    p_bench.add_argument("--radius", type=int, default=1)
    p_bench.add_argument("--tau", type=float, default=0.5)

    p_stats = sub.add_parser("dataset-stats", help="row and class counts plus split sizes")
    p_stats.add_argument("--dataset", required=True)
    p_stats.add_argument("--test-fraction", type=float, default=0.30)

    return parser


def _check_fraction(value: float) -> float:
    if not 0.0 < value < 1.0:
        raise UsageError(f"--test-fraction must be in (0, 1), got {value}")
    return value


def _load_samples(path):
    try:
        samples = load_uci(path)
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from exc
    except DatasetError as exc:
        raise DataError(f"dataset {path}: {exc}") from exc
    if not samples:
        raise DataError(f"dataset {path} is empty")
    return samples


def _split(samples, path, test_fraction, seed):
    try:
        return split(samples, SplitConfig(test_fraction=test_fraction, seed=seed))
    except ValueError as exc:
        raise DataError(f"cannot split dataset {path}: {exc}") from exc


def _load_model(path):
    try:
        return model_io.load_model(path)
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"bad model file {path}: {exc}") from exc


def _load_image(path):
    try:
        with open(path, "rb") as fh:
            return read_ppm(fh.read())
    except OSError as exc:
        raise DataError(f"cannot read image {path}: {exc}") from exc
    except PnmError as exc:
        raise DataError(f"bad image {path}: {exc}") from exc


def _refine_config(rule, radius, tau) -> NeighbourhoodConfig:
    if radius is not None and radius < 1:
        raise UsageError(f"--radius must be >= 1, got {radius}")
    if tau is not None and not 0.0 <= tau <= 1.0:
        raise UsageError(f"--tau must be in [0, 1], got {tau}")
    try:
        return NeighbourhoodConfig(
            radius=1 if radius is None else radius,
            rule=Rule.SYMMETRIC if rule is None else Rule(rule),
            decision_threshold=0.5 if tau is None else tau,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_train(args) -> int:
    _check_fraction(args.test_fraction)
    if args.alpha is not None and args.kind != "bayes":
        raise UsageError("--alpha only applies to --kind bayes")
    if (args.epochs is not None or args.batch_size is not None) and args.kind != "mlp":
        raise UsageError("--epochs/--batch-size only apply to --kind mlp")
    if args.alpha is not None and not 0 <= args.alpha < np.inf:  # also catches NaN
        raise UsageError(f"--alpha must be finite and >= 0, got {args.alpha}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    if args.epochs is not None and args.epochs < 1:
        raise UsageError(f"--epochs must be >= 1, got {args.epochs}")
    if args.batch_size is not None and args.batch_size < 1:
        raise UsageError(f"--batch-size must be >= 1, got {args.batch_size}")

    samples = _load_samples(args.dataset)
    counts = label_counts(samples)
    train_raw, test_raw = _split(samples, args.dataset, args.test_fraction, args.seed)

    lines = [
        f"kind: {args.kind}",
        f"dataset: {args.dataset}",
        f"samples: {len(samples)}",
        f"skin: {counts[Label.SKIN]}",
        f"non_skin: {counts[Label.NON_SKIN]}",
        f"train_size: {len(train_raw)}",
        f"test_size: {len(test_raw)}",
        f"seed: {args.seed}",
    ]

    try:
        if args.kind == "threshold":
            model = ThresholdRange()
            lines.append(f"threshold_lower: {model.lower.y} {model.lower.cr} {model.lower.cb}")
            lines.append(f"threshold_upper: {model.upper.y} {model.upper.cr} {model.upper.cb}")
        elif args.kind == "bayes":
            alpha = 1.0 if args.alpha is None else args.alpha
            model = bayes_fit(to_hsv_samples(train_raw), alpha=alpha)
            lines.append(f"alpha: {alpha:g}")
        elif args.kind == "tree":
            model = tree_fit(to_hsv_samples(train_raw))
            internal, leaves = model.node_count()
            lines.append(f"tree_depth: {model.depth()}")
            lines.append(f"tree_nodes: {internal + leaves}")
        else:
            train_cfg = TrainConfig(
                epochs=12 if args.epochs is None else args.epochs,
                batch_size=53 if args.batch_size is None else args.batch_size,
                seed=args.seed,
            )
            model, history = train_mlp(to_hsv_samples(train_raw), cfg=train_cfg)
            lines.append(f"epochs: {train_cfg.epochs}, batch_size: {train_cfg.batch_size}")
            for epoch, loss in enumerate(history, start=1):
                lines.append(f"epoch_loss: {epoch} {loss:.6f}")
    except ValueError as exc:
        raise DataError(f"cannot train on dataset {args.dataset}: {exc}") from exc

    fingerprint = model_io.dataset_fingerprint(samples)
    try:
        model_io.save_model(args.model, model, seed=args.seed, fingerprint=fingerprint)
    except OSError as exc:
        raise DataError(f"cannot write model {args.model}: {exc}") from exc
    lines.append(f"model_file: {args.model}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_fraction(args.test_fraction)
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    saved = _load_model(args.model)
    samples = _load_samples(args.dataset)

    seed = saved.seed if args.seed is None else args.seed
    if args.seed is not None and args.seed != saved.seed:
        print(
            f"warning: --seed {args.seed} differs from the model's training seed "
            f"{saved.seed}; the split will not match training",
            file=sys.stderr,
        )
    fingerprint = model_io.dataset_fingerprint(samples)
    if saved.fingerprint not in ("none", fingerprint):
        print(
            "warning: dataset fingerprint does not match the model's training data",
            file=sys.stderr,
        )

    _, test_raw = _split(samples, args.dataset, args.test_fraction, seed)
    if not test_raw:
        raise DataError("held-out split is empty")
    truth = test_raw.skin
    scores = score_rgb(saved.model, test_raw.channels[:, ::-1])
    matrix = confusion_from_flags(scores >= 0.5, truth)
    try:
        _, auc = roc_auc(scores, np.where(truth, Label.SKIN, Label.NON_SKIN))
    except ValueError:
        auc = None  # single-class test split: the curve is undefined
    report = scalar_metrics(matrix, auc=auc)
    document = format_report(report, matrix)
    document += "".join(
        f"# {name} {format_percent(value)}\n"
        for name, value in (
            ("accuracy", report.accuracy),
            ("sensitivity", report.sensitivity),
            ("specificity", report.specificity),
            ("precision", report.precision),
            ("f1", report.f1),
        )
    )
    if args.output is not None:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(document)
        except OSError as exc:
            raise DataError(f"cannot write report {args.output}: {exc}") from exc
    print(document, end="")
    return EXIT_OK


def cmd_segment(args) -> int:
    if not args.refine and (args.rule is not None or args.radius is not None
                            or args.tau is not None):
        raise UsageError("--rule/--radius/--tau require --refine")
    refine_cfg = _refine_config(args.rule, args.radius, args.tau) if args.refine else None
    saved = _load_model(args.model)
    image = _load_image(args.input)

    try:
        result = segment_image(image, saved.model, refine_cfg=refine_cfg,
                               downscale=args.downscale)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    try:
        with open(args.output, "wb") as fh:
            fh.write(write_pgm(result.mask))
    except OSError as exc:
        raise DataError(f"cannot write mask {args.output}: {exc}") from exc
    if args.prob_out is not None:
        try:
            with open(args.prob_out, "wb") as fh:
                fh.write(write_gray_pgm(probability_rendering(result.probabilities)))
        except OSError as exc:
            raise DataError(f"cannot write probability map {args.prob_out}: {exc}") from exc

    skin_pixels = int((result.mask.pixels == 255).sum())
    print(f"size: {image.width}x{image.height}")
    print(f"elapsed_seconds: {result.elapsed_seconds:.3f}")
    print(f"skin_pixels: {skin_pixels}")
    print(f"mask_file: {args.output}")
    if args.prob_out is not None:
        print(f"probability_file: {args.prob_out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    refine_cfg = _refine_config(args.rule, args.radius, args.tau)
    saved = _load_model(args.model)
    image = _load_image(args.input)

    def median_time(**kwargs) -> float:
        times = []
        for _ in range(5):
            result = segment_image(image, saved.model, **kwargs)
            times.append(result.elapsed_seconds)
        return statistics.median(times)

    try:
        stage1 = median_time(refine_cfg=None, downscale=False)
        full = median_time(refine_cfg=refine_cfg, downscale=False)
        down = median_time(refine_cfg=refine_cfg, downscale=True)
    except ValueError as exc:
        raise DataError(str(exc)) from exc

    print("runs: 5")
    print(f"stage1_seconds: {stage1:.6f}")
    print(f"full_seconds: {full:.6f}")
    print(f"downscale_seconds: {down:.6f}")
    print(f"speedup: {full / down:.2f}")
    return EXIT_OK


def cmd_dataset_stats(args) -> int:
    _check_fraction(args.test_fraction)
    samples = _load_samples(args.dataset)
    counts = label_counts(samples)
    n_train = train_size(len(samples), args.test_fraction)
    print(f"samples: {len(samples)}")
    print(f"skin: {counts[Label.SKIN]}")
    print(f"non_skin: {counts[Label.NON_SKIN]}")
    print(f"train_size: {n_train}")
    print(f"test_size: {len(samples) - n_train}")
    print(f"fingerprint: {model_io.dataset_fingerprint(samples)}")
    return EXIT_OK


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "segment": cmd_segment,
    "bench": cmd_bench,
    "dataset-stats": cmd_dataset_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(f"{PROG}: a subcommand is required "
                             f"(train, eval, segment, bench, dataset-stats)")
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports everything
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())

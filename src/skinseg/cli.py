"""Command-line surface: build_parser names each subcommand and its handler.

Exit codes: 0 success, 1 usage error, 2 data error (an input that
cannot be read or is malformed, data the library rejects, an output that
cannot be written), 3 internal error. One helper, _failing, maps each
file's failures to a data error whose message names the file. All state
flows through flags; no environment variables are consulted. A flag
left out takes the library's default, and a value the library rejects is
a usage error with the library's message, raised before any file is read.
"""

import argparse
import contextlib
import dataclasses
import os
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
    sub = parser.add_subparsers(metavar="command")

    # flag groups shared between subcommands, each flag declared once
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True)
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--dataset", required=True)
    dataset.add_argument("--test-fraction", type=float)
    split_flags = argparse.ArgumentParser(add_help=False, parents=[dataset, model])
    split_flags.add_argument("--seed", type=int)
    image = argparse.ArgumentParser(add_help=False, parents=[model])
    image.add_argument("--input", required=True)
    image.add_argument("--rule", choices=[rule.value for rule in Rule])
    image.add_argument("--radius", type=int)
    image.add_argument("--tau", type=float)

    def command(name, handler, summary, *parents):
        cmd = sub.add_parser(name, help=summary, parents=parents)
        cmd.set_defaults(run=handler)
        return cmd

    p_train = command("train", cmd_train, "fit a model and write it to disk", split_flags)
    p_train.add_argument("--kind", required=True, choices=model_io.KINDS)
    p_train.add_argument("--alpha", type=float)
    p_train.add_argument("--epochs", type=int)
    p_train.add_argument("--batch-size", type=int)
    p_eval = command("eval", cmd_eval, "score a model on the held-out split", split_flags)
    p_eval.add_argument("--output")
    p_seg = command("segment", cmd_segment, "segment a PPM image into a PGM mask", image)
    p_seg.add_argument("--output", required=True)
    p_seg.add_argument("--refine", action="store_true")
    p_seg.add_argument("--downscale", action="store_true")
    p_seg.add_argument("--prob-out")
    command("bench", cmd_bench, "median-of-5 timing for the pipeline legs", image)
    command("dataset-stats", cmd_dataset_stats, "row and class counts plus split sizes", dataset)

    def no_command(_):
        raise UsageError(f"{PROG}: a subcommand is required ({', '.join(sub.choices)})")

    parser.set_defaults(run=no_command)  # a subcommand's own default overrides it
    return parser


def _given(**flags) -> dict:
    """The flags the user gave: an unset one is None, and the callee's default applies."""
    return {name: value for name, value in flags.items() if value is not None}


def _config(cls, **flags):
    """cls built from the flags given; a value it rejects is a usage error."""
    try:
        return cls(**_given(**flags))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


@contextlib.contextmanager
def _failing(context: str, errors):
    """Turn errors raised inside into a DataError: "<context>: <error>"."""
    try:
        yield
    except errors as exc:
        raise DataError(f"{context}: {exc}") from exc


def _load_samples(path):
    with (_failing(f"cannot read dataset {path}", OSError),
          _failing(f"dataset {path}", DatasetError)):
        samples = load_uci(path)
    if not samples:
        raise DataError(f"dataset {path} is empty")
    return samples


def _load_split(path, split_cfg):
    """(samples, train, test) of the dataset at path."""
    samples = _load_samples(path)
    with _failing(f"cannot split dataset {path}", ValueError):
        return samples, *split(samples, split_cfg)


def _summary(samples, n_train: int) -> list[str]:
    """The dataset summary: row and class counts, then the split sizes."""
    counts = label_counts(samples)
    return [
        f"samples: {len(samples)}",
        f"skin: {counts[Label.SKIN]}",
        f"non_skin: {counts[Label.NON_SKIN]}",
        f"train_size: {n_train}",
        f"test_size: {len(samples) - n_train}",
    ]


def _load_model(path):
    with (_failing(f"cannot read model {path}", OSError),
          _failing(f"bad model file {path}", ValueError)):
        return model_io.load_model(path)


def _load_image(path):
    with _failing(f"cannot read image {path}", OSError), open(path, "rb") as fh:
        data = fh.read()
    with _failing(f"bad image {path}", PnmError):
        return read_ppm(data)


def _segment(path, image, model, **kwargs):
    """segment_image on the image read from path; a value it rejects is a data error."""
    with _failing(f"cannot segment image {path}", ValueError):
        return segment_image(image, model, **kwargs)


def _write(path, data: bytes, what: str) -> None:
    with _failing(f"cannot write {what} {path}", OSError), open(path, "wb") as fh:
        fh.write(data)


def _check_writable(path, what: str) -> None:
    """Fail now, as _write would later, if path cannot be opened for writing.

    Neither truncates an existing file nor leaves a new one behind.
    """
    with _failing(f"cannot write {what} {path}", OSError):
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            os.close(os.open(path, os.O_WRONLY))
        else:
            os.remove(path)


def _refine_config(rule, radius, tau) -> NeighbourhoodConfig:
    if tau is not None and rule != "paper":
        raise UsageError("--tau only applies to --rule paper")
    return _config(NeighbourhoodConfig, radius=radius,
                   rule=None if rule is None else Rule(rule), decision_threshold=tau)


def cmd_train(args) -> int:
    if args.alpha is not None and args.kind != "bayes":
        raise UsageError("--alpha only applies to --kind bayes")
    if (args.epochs is not None or args.batch_size is not None) and args.kind != "mlp":
        raise UsageError("--epochs/--batch-size only apply to --kind mlp")
    # BayesModel checks alpha too, but is built only once the dataset is
    # read and fitted, and a bad --alpha must exit 1 before any file is read
    if args.alpha is not None and not 0 <= args.alpha < np.inf:  # also catches NaN
        raise UsageError(f"--alpha must be finite and >= 0, got {args.alpha}")
    split_cfg = _config(SplitConfig, test_fraction=args.test_fraction, seed=args.seed)
    train_cfg = _config(TrainConfig, epochs=args.epochs, batch_size=args.batch_size,
                        seed=split_cfg.seed)

    _check_writable(args.model, "model")  # before a fit that may run for minutes
    samples, train_raw, _ = _load_split(args.dataset, split_cfg)
    lines = [f"kind: {args.kind}", f"dataset: {args.dataset}",
             *_summary(samples, len(train_raw)), f"seed: {split_cfg.seed}"]

    with _failing(f"cannot train on dataset {args.dataset}", ValueError):
        if args.kind == "threshold":
            model = ThresholdRange()
            lines.append(f"threshold_lower: {model.lower.y} {model.lower.cr} {model.lower.cb}")
            lines.append(f"threshold_upper: {model.upper.y} {model.upper.cr} {model.upper.cb}")
        elif args.kind == "bayes":
            model = bayes_fit(to_hsv_samples(train_raw), **_given(alpha=args.alpha))
            lines.append(f"alpha: {model.alpha:g}")
        elif args.kind == "tree":
            model = tree_fit(to_hsv_samples(train_raw))
            internal, leaves = model.node_count()
            lines.append(f"tree_depth: {model.depth()}")
            lines.append(f"tree_nodes: {internal + leaves}")
        else:
            model, history = train_mlp(to_hsv_samples(train_raw), cfg=train_cfg)
            lines.append(f"epochs: {train_cfg.epochs}, batch_size: {train_cfg.batch_size}")
            for epoch, loss in enumerate(history, start=1):
                lines.append(f"epoch_loss: {epoch} {loss:.6f}")

    fingerprint = model_io.dataset_fingerprint(samples)
    text = model_io.model_to_text(model, seed=split_cfg.seed, fingerprint=fingerprint)
    _write(args.model, text.encode("ascii"), "model")
    lines.append(f"model_file: {args.model}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    split_cfg = _config(SplitConfig, test_fraction=args.test_fraction, seed=args.seed)
    saved = _load_model(args.model)
    if args.seed is None:
        split_cfg = dataclasses.replace(split_cfg, seed=saved.seed)
    samples, _, test_raw = _load_split(args.dataset, split_cfg)

    # warn only once the split holds, so a failing run prints just its error
    if args.seed is not None and args.seed != saved.seed:
        print(
            f"warning: --seed {args.seed} differs from the model's training seed "
            f"{saved.seed}; the split will not match training",
            file=sys.stderr,
        )
    if saved.fingerprint not in ("none", model_io.dataset_fingerprint(samples)):
        print(
            "warning: dataset fingerprint does not match the model's training data",
            file=sys.stderr,
        )
    truth = test_raw.skin
    scores = score_rgb(saved.model, test_raw.channels[:, ::-1])
    matrix = confusion_from_flags(scores >= 0.5, truth)
    try:
        _, auc = roc_auc(scores, np.where(truth, Label.SKIN, Label.NON_SKIN))
    except ValueError:
        auc = None  # single-class test split: the curve is undefined
    report = scalar_metrics(matrix, auc=auc)
    document = format_report(report, matrix)
    document += "".join(f"# {name} {format_percent(value)}\n"
                        for name, value in vars(report).items() if name != "auc")
    if args.output is not None:
        _write(args.output, document.encode("ascii"), "report")
    print(document, end="")
    return EXIT_OK


def cmd_segment(args) -> int:
    if not args.refine and (args.rule is not None or args.radius is not None
                            or args.tau is not None):
        raise UsageError("--rule/--radius/--tau require --refine")
    refine_cfg = _refine_config(args.rule, args.radius, args.tau) if args.refine else None
    saved = _load_model(args.model)
    image = _load_image(args.input)

    result = _segment(args.input, image, saved.model, refine_cfg=refine_cfg,
                      downscale=args.downscale)

    _write(args.output, write_pgm(result.mask), "mask")
    if args.prob_out is not None:
        _write(args.prob_out, write_gray_pgm(probability_rendering(result.probabilities)),
               "probability map")

    skin_pixels = int(result.mask.pixels.sum())
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
        return statistics.median(_segment(args.input, image, saved.model, **kwargs)
                                 .elapsed_seconds for _ in range(5))

    stage1 = median_time(refine_cfg=None, downscale=False)
    full = median_time(refine_cfg=refine_cfg, downscale=False)
    down = median_time(refine_cfg=refine_cfg, downscale=True)

    print("runs: 5")
    print(f"stage1_seconds: {stage1:.6f}")
    print(f"full_seconds: {full:.6f}")
    print(f"downscale_seconds: {down:.6f}")
    print(f"speedup: {full / down:.2f}")
    return EXIT_OK


def cmd_dataset_stats(args) -> int:
    split_cfg = _config(SplitConfig, test_fraction=args.test_fraction)
    samples = _load_samples(args.dataset)
    print("\n".join(_summary(samples, train_size(len(samples), split_cfg.test_fraction))))
    print(f"fingerprint: {model_io.dataset_fingerprint(samples)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
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


if __name__ == "__main__":
    entry()

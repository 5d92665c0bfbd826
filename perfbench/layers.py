"""Which library functions the traced run wraps, and the per-layer metrics.

Spans are named ``<module>.<function>`` after the module that defines
the function. Each per-layer metric is a per-op value computed from one
op's span totals; the run reports its median over the traced ops. The
comment on each group names the end-to-end metric it should move.
"""

import numpy as np

from spans import ROOT


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(pos, name):
    return lambda args, kwargs, result: len(_arg(args, kwargs, pos, name))


_PREDICTORS = (
    "nn.mlp_predict_batch",
    "classifiers.bayes_predict_batch",
    "classifiers.tree_predict_batch",
    "classifiers.threshold_scores",
)

# (span name, capture); the span name gives the defining module and function
TARGETS = (
    ("raster.read_ppm", None),
    ("raster.write_pgm", None),
    ("segment.segment_image", None),
    ("segment.stage1_probabilities", None),
    ("colorspace.rgb_to_hsv_array", None),
    ("nn.mlp_predict_batch", _rows(1, "hsv")),
    ("classifiers.bayes_predict_batch", _rows(1, "hsv")),
    ("classifiers.tree_predict_batch", _rows(1, "hsv")),
    ("classifiers.threshold_scores", _rows(0, "rgb")),
    ("neighbourhood.refine", lambda args, kwargs, result: (_arg(args, kwargs, 0, "pmap"), result[1])),
    ("dataset.load_uci", lambda args, kwargs, result: len(result)),
    ("model_io.dataset_fingerprint", None),
    ("dataset.split", None),
    ("dataset.to_hsv_samples", None),
    ("dataset.hsv_arrays", None),
    ("classifiers.bayes_fit", None),
    ("classifiers.tree_fit", lambda args, kwargs, result: result),
    ("nn.train", None),
    ("nn.backward", None),
    ("nn.adam_step", None),
    ("metrics.confusion_from_flags", None),
    ("metrics.roc_auc", None),
    ("model_io.save_model", None),
    ("model_io.load_model", None),
)


def targets(lib):
    """TARGETS resolved to (span name, module, attribute, capture)."""
    out = []
    for name, capture in TARGETS:
        module, attr = name.split(".")
        out.append((name, getattr(lib, module, None), attr, capture))
    return out


def _self(*names):
    return lambda t, op: sum(t[n].self_time for n in names if n in t)


def _inclusive(name):
    return lambda t, op: t[name].inclusive if name in t else 0.0


def _calls(name):
    return lambda t, op: t[name].calls if name in t else 0


def _captured(name, fold):
    return lambda t, op: fold(t[name].captures) if name in t and t[name].captures else 0


def _rows_per_pixel(t, op):
    rows = sum(sum(t[n].captures) for n in _PREDICTORS if n in t)
    return rows / op["pixels"] if op["pixels"] else 0.0


def _skin_frac(which):
    def frac(captures):
        pmap, mask = captures[-1]
        if which == "before":
            return float(np.mean(pmap.p_skin >= pmap.p_non_skin))
        return float(np.mean(mask.pixels))
    return frac


def _tree_nodes(captures):
    return sum(sum(model.node_count()) for model in captures)


# (metric name, unit, value of one traced op)
PER_LAYER = (
    # seg: stage 1 and colour conversion; train_eval: eval scoring
    ("nn.mlp_predict_batch_s", "s", _self("nn.mlp_predict_batch")),
    ("colorspace.rgb_to_hsv_array_s", "s", _self("colorspace.rgb_to_hsv_array")),
    ("nn.rows_scored_per_pixel", "ratio", _rows_per_pixel),
    ("input.distinct_colour_frac", "ratio", lambda t, op: op["distinct_colour_frac"]),
    ("segment.stage1_probabilities_s", "s", _inclusive("segment.stage1_probabilities")),
    ("segment.stage1_probabilities_self_s", "s", _self("segment.stage1_probabilities")),
    # seg: refinement, mask restore and encode
    ("neighbourhood.refine_s", "s", _self("neighbourhood.refine")),
    ("neighbourhood.skin_frac_before", "ratio", _captured("neighbourhood.refine", _skin_frac("before"))),
    ("neighbourhood.skin_frac_after", "ratio", _captured("neighbourhood.refine", _skin_frac("after"))),
    ("segment.segment_image_self_s", "s", _self("segment.segment_image")),
    ("raster.read_ppm_s", "s", _self("raster.read_ppm")),
    ("raster.write_pgm_s", "s", _self("raster.write_pgm")),
    # train_eval: dataset layers
    ("dataset.load_uci_s", "s", _self("dataset.load_uci")),
    ("dataset.rows_parsed", "count", _captured("dataset.load_uci", sum)),
    ("model_io.dataset_fingerprint_s", "s", _self("model_io.dataset_fingerprint")),
    ("dataset.split_s", "s", _self("dataset.split")),
    ("dataset.to_hsv_samples_s", "s", _self("dataset.to_hsv_samples")),
    ("dataset.hsv_arrays_s", "s", _self("dataset.hsv_arrays")),
    # train_eval: fitting
    ("classifiers.bayes_fit_s", "s", _self("classifiers.bayes_fit")),
    ("classifiers.tree_fit_s", "s", _self("classifiers.tree_fit")),
    ("classifiers.tree_nodes", "count", _captured("classifiers.tree_fit", _tree_nodes)),
    ("nn.train_s", "s", _self("nn.train")),
    ("nn.backward_s", "s", _self("nn.backward")),
    ("nn.adam_step_s", "s", _self("nn.adam_step")),
    ("nn.adam_steps", "count", _calls("nn.adam_step")),
    # train_eval: evaluation and persistence (load_model also moves setup_s)
    ("classifiers.predict_batch_s", "s", _self(*_PREDICTORS[1:])),
    ("metrics.confusion_from_flags_s", "s", _self("metrics.confusion_from_flags")),
    ("metrics.roc_auc_s", "s", _self("metrics.roc_auc")),
    ("model_io.save_model_s", "s", _self("model_io.save_model")),
    ("model_io.load_model_s", "s", _self("model_io.load_model")),
    # the benchmark's own work between library calls, and the whole traced op
    ("bench.op_self_s", "s", _self(ROOT)),
    ("trace.op_s", "s", _inclusive(ROOT)),
)

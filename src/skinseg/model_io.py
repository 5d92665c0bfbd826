"""Versioned text persistence for every model kind.

The format is line-oriented and diffable:

    skinseg-model 1
    kind <threshold|bayes|tree|mlp>
    seed <int>
    fingerprint <sha256 hex of the canonical training file | none>
    <kind-specific body>

Floating-point values are written with 17 significant digits, which
round-trips IEEE doubles exactly, so load(save(m)) reproduces the
original predictions.

Loading raises ValueError for:

* an unknown format version or kind, a header without kind, seed or
  fingerprint, and a header line that repeats an earlier one's key, has
  an unknown key or holds other than one value;
* a body line with an unknown key, a key that repeats an earlier line's,
  the wrong number of fields or a field that does not parse as a number,
  and a body that is incomplete: both threshold bounds, all six 256-entry
  Bayes count tables, a whole preorder tree with no nodes left over, every
  MLP layer's weights and biases at the declared shapes;
* a threshold box whose lower bound exceeds its upper bound in any
  channel;
* a negative seed;
* a Bayes alpha that is negative or not finite, a likelihood form other
  than factorized, a class count that is not positive, a negative
  value count, a value count, class count or class total of 2**63 or
  more, and a table of value counts that does not sum to its class
  count;
* a tree config whose names are not min_samples_split and max_depth,
  with min_samples_split < 2 or max_depth < 0, and any table TreeModel
  rejects: counts that are negative, add up to 0 or 2**63 or more, or
  differ from the children's sum at a split, samples other than the
  root's total, and a vacuous split (one that sends every value its node
  can hold to one child, as a threshold that is not finite does). The
  body stores no child indices: TreeModel derives them from node order;
* an MLP hidden width < 1, weights or biases that are not finite, and
  weights and biases large enough to overflow the forward pass on some
  input in [0, 1]^3.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .classifiers import DOMAIN_SIZE, BayesModel, ThresholdRange, TreeConfig, TreeModel
from .colorspace import YcbcrPixel
from .dataset import RawSamples, serialize_blocks
from .nn import MlpArchitecture, MlpModel

FORMAT_HEADER = "skinseg-model 1"

_ATTR_NAMES = ("h", "s", "v")
_CLASS_NAMES = ("skin", "non_skin")


@dataclass(frozen=True)
class SavedModel:
    kind: str
    seed: int
    fingerprint: str
    model: object


def dataset_fingerprint(samples: RawSamples) -> str:
    """sha256 of the canonical sample serialization (whitespace-insensitive)."""
    digest = hashlib.sha256()
    for block in serialize_blocks(samples):
        digest.update(block)
    return digest.hexdigest()


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _threshold_body(box: ThresholdRange) -> list[str]:
    return [
        f"lower {box.lower.y} {box.lower.cr} {box.lower.cb}",
        f"upper {box.upper.y} {box.upper.cr} {box.upper.cb}",
    ]


def _bayes_body(model: BayesModel) -> list[str]:
    lines = [
        f"alpha {_fmt(model.alpha)}",
        "likelihood_form factorized",
        f"class_counts {model.class_counts[0]} {model.class_counts[1]}",
    ]
    for attr in range(3):
        for cls, cls_name in enumerate(_CLASS_NAMES):
            row = " ".join(str(int(c)) for c in model.counts[attr, cls])
            lines.append(f"counts {_ATTR_NAMES[attr]} {cls_name} {row}")
    return lines


def _tree_body(model: TreeModel) -> list[str]:
    max_depth = "none" if model.config.max_depth is None else str(model.config.max_depth)
    lines = [
        f"samples {model.n_samples}",
        f"config min_samples_split {model.config.min_samples_split} max_depth {max_depth}",
    ]
    rows = zip(model.attribute.tolist(), model.threshold.tolist(), model.counts.tolist())
    for attr, threshold, (n_skin, n_non) in rows:
        if attr < 0:
            lines.append(f"leaf {n_skin} {n_non}")
        else:
            lines.append(f"split {_ATTR_NAMES[attr]} {_fmt(threshold)} {n_skin} {n_non}")
    return lines


def _mlp_body(model: MlpModel) -> list[str]:
    lines = ["hidden_layers " + " ".join(str(w) for w in model.arch.hidden_layers)]
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        lines.append(f"weights {l} " + " ".join(_fmt(x) for x in w.ravel()))
        lines.append(f"biases {l} " + " ".join(_fmt(x) for x in b))
    return lines


def _read_body(lines: list[str], kind: str, shape: dict[str, int]) -> dict[str, list[str]]:
    """The fields of each body line by key, for a body that holds each key
    of shape once, followed by shape[key] fields. A key is a line's first
    word, or as many words as shape's keys that start with it ("counts h
    skin", "weights 0"). Raises ValueError for an unknown, repeated or
    missing key and for a wrong number of fields."""
    words = {key.split()[0]: key.count(" ") + 1 for key in shape}
    body = {}
    for ln in lines:
        parts = ln.split()
        n_words = words.get(parts[0], 1)
        key = " ".join(parts[:n_words])
        if key not in shape:
            raise ValueError(f"malformed {kind} line: {ln!r}")
        if key in body:
            raise ValueError(f"{kind} body repeats its {key} line")
        if len(parts) - n_words != shape[key]:
            raise ValueError(f"{kind} {key} needs {shape[key]} values, got {len(parts) - n_words}")
        body[key] = parts[n_words:]
    missing = [key for key in shape if key not in body]
    if missing:
        raise ValueError(f"incomplete {kind} body: no {missing[0]} line")
    return body


def _parse_threshold(lines: list[str]) -> ThresholdRange:
    body = _read_body(lines, "threshold", {"lower": 3, "upper": 3})
    lower, upper = (YcbcrPixel(*(int(v) for v in body[key])) for key in ("lower", "upper"))
    return ThresholdRange(lower=lower, upper=upper)


def _parse_bayes(lines: list[str]) -> BayesModel:
    tables = [f"counts {attr} {cls}" for attr in _ATTR_NAMES for cls in _CLASS_NAMES]
    body = _read_body(lines, "bayes", {"alpha": 1, "likelihood_form": 1, "class_counts": 2}
                      | dict.fromkeys(tables, DOMAIN_SIZE))
    (form,) = body["likelihood_form"]
    if form != "factorized":
        raise ValueError(f"unsupported likelihood form: {form!r}")
    class_counts = [_bayes_count(v) for v in body["class_counts"]]
    if sum(class_counts) >= 2**63:
        raise ValueError(f"bayes class counts must total below 2**63: {class_counts}")
    counts = [[_bayes_count(v) for v in body[key]] for key in tables]
    for key, values, class_count in zip(tables, counts, class_counts * 3):
        if sum(values) != class_count:
            raise ValueError(
                f"bayes {key} sum to {sum(values)}, not to the class count {class_count}"
            )
    return BayesModel(counts=np.array(counts, dtype=np.int64).reshape(3, 2, DOMAIN_SIZE),
                      class_counts=np.array(class_counts, dtype=np.int64),
                      alpha=float(body["alpha"][0]))


def _bayes_count(text: str) -> int:
    """A Bayes value or class count: an int64, so at least 0 and below 2**63."""
    count = int(text)
    if not 0 <= count < 2**63:
        raise ValueError(f"bayes counts must be >= 0 and below 2**63, got {text}")
    return count


def _parse_tree(lines: list[str]) -> TreeModel:
    header = _read_body(lines[:2], "tree", {"samples": 1, "config": 4})
    names, values = header["config"][0::2], header["config"][1::2]
    if names != ["min_samples_split", "max_depth"]:
        raise ValueError(f"tree config must name min_samples_split and max_depth, got {names}")
    config = TreeConfig(min_samples_split=int(values[0]),
                        max_depth=None if values[1] == "none" else int(values[1]))
    attribute, threshold, count_fields = [], [], []
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "leaf" and len(parts) == 3:
            attribute.append(-1)
            threshold.append(0.0)
        elif parts[0] == "split" and len(parts) == 5:
            attribute.append(_ATTR_NAMES.index(parts[1]))
            threshold.append(float(parts[2]))
        else:
            raise ValueError(f"malformed tree line: {ln!r}")
        count_fields += parts[-2:]
    counts = [int(c) for c in count_fields]
    if counts and not 0 <= min(counts) <= max(counts) < 2**63:
        raise ValueError("tree node counts must be >= 0 and below 2**63")
    return TreeModel(attribute, threshold, np.array(counts, dtype=np.int64).reshape(-1, 2),
                     config, int(header["samples"][0]))


def _parse_mlp(lines: list[str]) -> MlpModel:
    if not lines or not lines[0].startswith("hidden_layers "):
        raise ValueError("mlp body must start with hidden_layers")
    hidden = tuple(int(w) for w in lines[0].split()[1:])
    arch = MlpArchitecture(hidden_layers=hidden)
    dims = arch.layer_dims
    shape = {"hidden_layers": len(hidden)}
    for layer in range(len(dims) - 1):
        shape[f"weights {layer}"] = dims[layer] * dims[layer + 1]
        shape[f"biases {layer}"] = dims[layer + 1]
    body = _read_body(lines, "mlp", shape)
    params = []
    for key in list(shape)[1:]:
        values = np.array([float(v) for v in body[key]])
        if not np.isfinite(values).all():
            name, layer = key.split()
            raise ValueError(f"layer {layer} {name} hold non-finite values")
        params.append(values)
    weights = [w.reshape(dims[l], dims[l + 1]) for l, w in enumerate(params[0::2])]
    biases = params[1::2]
    # Inputs lie in [0, 1]^3 and ReLU never grows a magnitude, so
    # |W|^T u + |b|, from u = 1, bounds each layer's outputs; softmax
    # subtracts the largest logit, so twice the bound must stay finite.
    bound = np.ones(dims[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, (w, b) in enumerate(zip(weights, biases)):
            bound = np.abs(w).T @ bound + np.abs(b)
            if not np.isfinite(2.0 * bound).all():
                raise ValueError(
                    f"layer {layer} weights and biases can overflow the forward pass"
                )
    return MlpModel(arch=arch, weights=weights, biases=biases)


# kind -> (model class, body writer, body parser) for every kind a model file can hold
_FORMATS = {
    "threshold": (ThresholdRange, _threshold_body, _parse_threshold),
    "bayes": (BayesModel, _bayes_body, _parse_bayes),
    "tree": (TreeModel, _tree_body, _parse_tree),
    "mlp": (MlpModel, _mlp_body, _parse_mlp),
}
KINDS = tuple(_FORMATS)


def model_kind(model) -> str:
    for kind, (model_class, _, _) in _FORMATS.items():
        if isinstance(model, model_class):
            return kind
    raise ValueError(f"unknown model type: {type(model).__name__}")


def model_to_text(model, seed: int, fingerprint: str = "none") -> str:
    kind = model_kind(model)
    _, write_body, _ = _FORMATS[kind]
    lines = [FORMAT_HEADER, f"kind {kind}", f"seed {seed}", f"fingerprint {fingerprint}"]
    return "\n".join(lines + write_body(model)) + "\n"


def model_from_text(text: str) -> SavedModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ValueError(f"unknown model format/version: {lines[:1]!r}")
    header = _read_body(lines[1:4], "header", {"kind": 1, "seed": 1, "fingerprint": 1})
    (kind,), (seed,), (fingerprint,) = (header[key] for key in ("kind", "seed", "fingerprint"))
    if kind not in _FORMATS:
        raise ValueError(f"unknown model kind: {kind!r}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _, _, parse_body = _FORMATS[kind]
    return SavedModel(kind=kind, seed=seed, fingerprint=fingerprint, model=parse_body(lines[4:]))


def save_model(path, model, seed: int, fingerprint: str = "none") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_text(model, seed, fingerprint))


def load_model(path) -> SavedModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_text(fh.read())

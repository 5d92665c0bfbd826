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

* an unknown format version or kind, or a header without kind, seed
  or fingerprint;
* a body line with an unknown key, the wrong number of fields or a
  field that does not parse as a number, and a body that is incomplete:
  both threshold bounds, all six 256-entry Bayes count tables, a whole
  preorder tree with no nodes left over, every MLP layer's weights and
  biases at the declared shapes;
* a threshold box whose lower bound exceeds its upper bound in any
  channel;
* a negative seed;
* a Bayes alpha that is negative or not finite, a likelihood form other
  than factorized, a class count that is not positive, a negative
  value count, a value count, class count or class total of 2**63 or
  more, and a table of value counts that does not sum to its class
  count;
* a tree node with a negative count, a zero total or a total of 2**63
  or more, a split threshold that is not finite, a split whose counts
  are not the sum of its children's, a samples count other than the
  root's total, and a tree config with min_samples_split < 2 or
  max_depth < 0;
* an MLP hidden width < 1, weights or biases that are not finite, and
  weights and biases large enough to overflow the forward pass on some
  input in [0, 1]^3.
"""

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .classifiers import BayesModel, ThresholdRange, TreeConfig, TreeModel
from .colorspace import YcbcrPixel
from .dataset import RawSamples, serialize_blocks
from .nn import MlpArchitecture, MlpModel

FORMAT_HEADER = "skinseg-model 1"

_ATTR_NAMES = ("h", "s", "v")


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
        for cls, cls_name in enumerate(("skin", "non_skin")):
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


def _parse_threshold(lines: list[str]) -> ThresholdRange:
    fields = {}
    for ln in lines:
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in ("lower", "upper"):
            raise ValueError(f"malformed threshold line: {ln!r}")
        fields[parts[0]] = YcbcrPixel(int(parts[1]), int(parts[2]), int(parts[3]))
    if set(fields) != {"lower", "upper"}:
        raise ValueError("threshold body must define lower and upper")
    return ThresholdRange(lower=fields["lower"], upper=fields["upper"])


def _parse_bayes(lines: list[str]) -> BayesModel:
    alpha = None
    form = None
    class_counts = None
    counts = np.zeros((3, 2, 256), dtype=np.int64)
    table_sums = {}  # (attribute, class) -> exact sum of its value counts
    for ln in lines:
        parts = ln.split()
        key, n_fields = parts[0], len(parts)
        if key == "alpha" and n_fields == 2:
            alpha = float(parts[1])
        elif key == "likelihood_form" and n_fields == 2:
            form = parts[1]
        elif key == "class_counts" and n_fields == 3:
            pair = [_bayes_count(v) for v in parts[1:]]
            if sum(pair) >= 2**63:
                raise ValueError(f"bayes class counts must total below 2**63: {ln!r}")
            class_counts = np.array(pair, dtype=np.int64)
        elif key == "counts" and n_fields >= 3:
            attr = _ATTR_NAMES.index(parts[1])
            cls = ("skin", "non_skin").index(parts[2])
            values = [_bayes_count(v) for v in parts[3:]]
            if len(values) != 256:
                raise ValueError(f"count table needs 256 entries, got {len(values)}")
            counts[attr, cls] = values
            table_sums[attr, cls] = sum(values)
        else:
            raise ValueError(f"malformed bayes line: {ln!r}")
    if alpha is None or form is None or class_counts is None or len(table_sums) != 6:
        raise ValueError("incomplete bayes body")
    if form != "factorized":
        raise ValueError(f"unsupported likelihood form: {form!r}")
    for (attr, cls), total in sorted(table_sums.items()):
        if total != class_counts[cls]:
            raise ValueError(
                f"bayes counts {_ATTR_NAMES[attr]} {('skin', 'non_skin')[cls]} sum to "
                f"{total}, not to the class count {class_counts[cls]}"
            )
    return BayesModel(counts=counts, class_counts=class_counts, alpha=alpha)


def _bayes_count(text: str) -> int:
    """A Bayes value or class count: an int64, so at least 0 and below 2**63."""
    count = int(text)
    if not 0 <= count < 2**63:
        raise ValueError(f"bayes counts must be >= 0 and below 2**63, got {text}")
    return count


def _parse_tree(lines: list[str]) -> TreeModel:
    if len(lines) < 3:
        raise ValueError("malformed tree body")
    samples, cfg_parts = lines[0].split(), lines[1].split()
    if (samples[0], len(samples), cfg_parts[0], len(cfg_parts)) != ("samples", 2, "config", 5):
        raise ValueError(f"malformed tree header: {lines[:2]!r}")
    n_samples = int(samples[1])
    min_split = int(cfg_parts[2])
    max_depth = None if cfg_parts[4] == "none" else int(cfg_parts[4])
    config = TreeConfig(min_samples_split=min_split, max_depth=max_depth)

    attribute, threshold, right, counts = [], [], [], []
    open_splits = []  # splits whose right child has not started yet
    for ln in lines[2:]:
        parts = ln.split()
        if parts[0] == "leaf" and len(parts) == 3:
            attr, thr, n_skin, n_non = -1, 0.0, int(parts[1]), int(parts[2])
        elif parts[0] == "split" and len(parts) == 5:
            attr, thr = _ATTR_NAMES.index(parts[1]), float(parts[2])
            n_skin, n_non = int(parts[3]), int(parts[4])
            if not math.isfinite(thr):
                raise ValueError(f"tree split threshold must be finite: {ln!r}")
        else:
            raise ValueError(f"malformed tree line: {ln!r}")
        if n_skin < 0 or n_non < 0 or n_skin + n_non == 0:
            raise ValueError(f"tree node counts must be >= 0 with a positive total: {ln!r}")
        if n_skin + n_non >= 2**63:
            raise ValueError(f"tree node counts must total below 2**63: {ln!r}")
        node = len(attribute)
        # a node after a split is its left child; a node after a leaf is
        # the right child of the latest split still lacking one
        if node and attribute[-1] < 0:
            if not open_splits:
                raise ValueError("tree body has extra nodes after the preorder completed")
            right[open_splits.pop()] = node
        if attr >= 0:
            open_splits.append(node)
        attribute.append(attr)
        threshold.append(thr)
        right.append(0)
        counts.append((n_skin, n_non))
    if not attribute or open_splits:
        raise ValueError("tree body is incomplete")
    model = TreeModel(attribute, threshold, right, counts, config, n_samples)
    counts, splits = model.counts, np.flatnonzero(model.attribute >= 0)
    # each count is below 2**63, so a difference cannot overflow where a sum could
    differ = splits[(counts[splits] - counts[splits + 1] != counts[model.right[splits]]).any(1)]
    if differ.size:
        node = int(differ[0])
        raise ValueError(
            f"tree node {node} counts {counts[node].tolist()} are not the sum of its "
            f"children's, {counts[node + 1].tolist()} and {counts[model.right[node]].tolist()}"
        )
    if n_samples != counts[0].sum():
        raise ValueError(
            f"tree samples {n_samples} differ from the root's total {counts[0].sum()}"
        )
    return model


def _parse_mlp(lines: list[str]) -> MlpModel:
    if not lines or not lines[0].startswith("hidden_layers "):
        raise ValueError("mlp body must start with hidden_layers")
    hidden = tuple(int(w) for w in lines[0].split()[1:])
    arch = MlpArchitecture(hidden_layers=hidden)
    dims = arch.layer_dims
    weights = [None] * (len(dims) - 1)
    biases = [None] * (len(dims) - 1)
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] not in ("weights", "biases") or len(parts) < 2:
            raise ValueError(f"malformed mlp line: {ln!r}")
        layer = int(parts[1])
        if not 0 <= layer < len(dims) - 1:
            raise ValueError(f"layer index out of range: {layer}")
        values = np.array([float(v) for v in parts[2:]])
        if not np.isfinite(values).all():
            raise ValueError(f"layer {layer} {parts[0]} hold non-finite values")
        if parts[0] == "weights":
            expected = dims[layer] * dims[layer + 1]
            if values.size != expected:
                raise ValueError(
                    f"layer {layer} weights need {expected} values, got {values.size}"
                )
            weights[layer] = values.reshape(dims[layer], dims[layer + 1])
        else:
            if values.size != dims[layer + 1]:
                raise ValueError(
                    f"layer {layer} biases need {dims[layer + 1]} values, got {values.size}"
                )
            biases[layer] = values
    if any(w is None for w in weights) or any(b is None for b in biases):
        raise ValueError("incomplete mlp body")
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
    header = {}
    for ln in lines[1:4]:
        parts = ln.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"malformed header line: {ln!r}")
        header[parts[0]] = parts[1].strip()
    for key in ("kind", "seed", "fingerprint"):
        if key not in header:
            raise ValueError(f"model header missing {key}")
    kind = header["kind"]
    if kind not in _FORMATS:
        raise ValueError(f"unknown model kind: {kind!r}")
    seed = int(header["seed"])
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    _, _, parse_body = _FORMATS[kind]
    return SavedModel(
        kind=kind, seed=seed, fingerprint=header["fingerprint"],
        model=parse_body(lines[4:]),
    )


def save_model(path, model, seed: int, fingerprint: str = "none") -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(model_to_text(model, seed, fingerprint))


def load_model(path) -> SavedModel:
    with open(path, "r", encoding="ascii") as fh:
        return model_from_text(fh.read())

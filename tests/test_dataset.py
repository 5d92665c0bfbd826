"""Dataset parsing, conversion and split arithmetic."""

import numpy as np
import pytest

from skinseg import dataset
from skinseg.dataset import (
    DatasetError,
    HsvSamples,
    Label,
    RawSample,
    RawSamples,
    SplitConfig,
    hsv_arrays,
    label_counts,
    load_uci,
    parse_uci,
    serialize_uci,
    split,
    to_hsv_samples,
    train_size,
)

from oracles import RgbPixel, rgb_to_hsv


def _raw(channels, skin) -> RawSamples:
    """Columns of (b, g, r) rows and one skin flag per row."""
    return RawSamples(np.array(channels, dtype=np.uint8).reshape(-1, 3), np.array(skin, dtype=bool))


def _same(a, b) -> bool:
    """Whether two column views hold the same rows in the same order."""
    return np.array_equal(a.channels, b.channels) and np.array_equal(a.skin, b.skin)


def test_parse_single_lines():
    samples = parse_uci(["10 20 30 2"])
    assert (samples.channels.tolist(), samples.skin.tolist()) == ([[10, 20, 30]], [False])
    assert list(samples) == [RawSample(b=10, g=20, r=30, label=Label.NON_SKIN)]
    samples = parse_uci(["0\t0\t0\t1"])
    assert (samples.channels.tolist(), samples.skin.tolist()) == ([[0, 0, 0]], [True])


def test_parse_skips_blank_lines_and_preserves_order():
    text = ["", "1 2 3 1", "   ", "4 5 6 2", "\t"]
    samples = parse_uci(text)
    assert samples.channels[:, 0].tolist() == [1, 4]
    assert samples.skin.tolist() == [True, False]


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("1 2 3", "line 1"),
        ("1 2 3 4 5", "line 1"),
        ("1 2 three 1", "line 1"),
        ("1 2 300 1", "line 1"),
        ("-1 2 3 1", "line 1"),
        ("1 2 3 7", "line 1"),
    ],
)
def test_parse_errors_name_line_numbers(bad, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_uci([bad])
    assert fragment in str(exc.value)
    # same error on a later line reports that line's number
    with pytest.raises(DatasetError) as exc:
        parse_uci(["1 2 3 1", "", bad])
    assert "line 3" in str(exc.value)


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(31)
    b, g, r = (rng.integers(0, 256, 200) for _ in range(3))
    codes = rng.integers(1, 3, 200)
    rows = _raw(np.stack([b, g, r], axis=1), codes == 1)
    assert _same(parse_uci(serialize_uci(rows).splitlines()), rows)
    reference = "".join(f"{b}\t{g}\t{r}\t{c}\n"
                        for (b, g, r), c in zip(rows.channels.tolist(), codes.tolist()))
    assert serialize_uci(rows) == reference
    assert serialize_uci(parse_uci([])) == ""


def test_label_counts():
    samples = parse_uci(["1 2 3 1", "4 5 6 2", "7 8 9 2"])
    counts = label_counts(samples)
    assert counts[Label.SKIN] == 1
    assert counts[Label.NON_SKIN] == 2


def test_to_hsv_matches_scalar_conversion():
    rng = np.random.default_rng(8)
    raw = _raw(rng.integers(0, 256, size=(500, 3)), np.ones(500))
    converted = to_hsv_samples(raw)
    for (b, g, r), out in zip(raw.channels.tolist(), converted.channels.tolist()):
        expect = rgb_to_hsv(RgbPixel(r, g, b))
        assert tuple(out) == (expect.h, expect.s, expect.v)
    assert np.array_equal(converted.skin, raw.skin)
    assert len(to_hsv_samples(parse_uci([]))) == 0


def test_to_hsv_pure_red():
    converted = to_hsv_samples([RawSample(b=0, g=0, r=255, label=Label.SKIN)])
    assert (converted.channels.tolist(), converted.skin.tolist()) == ([[0, 255, 255]], [True])


def test_hsv_arrays():
    samples = HsvSamples(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.uint8), np.array([True, False]))
    hsv, skin = hsv_arrays(samples)
    assert hsv.dtype == np.uint8
    assert np.array_equal(hsv, [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(skin, [True, False])
    hsv, skin = hsv_arrays(HsvSamples(np.empty((0, 3), dtype=np.uint8), np.empty(0, dtype=bool)))
    assert hsv.shape == (0, 3) and skin.shape == (0,)


def test_train_size_arithmetic():
    # the published 299,629-row arithmetic: 209,740 train / 89,889 test
    assert train_size(299_629, 0.30) == 209_740
    assert 299_629 - train_size(299_629, 0.30) == 89_889
    assert train_size(10, 0.3) == 7
    assert train_size(2, 0.5) == 1
    # train side is floored, so the test side picks up the remainder
    assert train_size(7, 0.3) == 4  # 7*0.7 = 4.9 -> 4, test gets 3
    # for any fraction in (0, 1) the floor keeps at least one row on the test side
    for n in range(2, 65):
        for f in (1e-9, 0.3, 0.5, 1 - 1e-9):
            assert n - train_size(n, f) >= 1, (n, f)


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=1.0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SplitConfig(seed=-1)  # before split, where PCG64 would reject it
    SplitConfig(test_fraction=0.5, seed=123)  # fine


def test_split_sizes_and_multiset_preservation():
    rng = np.random.default_rng(17)
    samples = _raw(rng.integers(0, 256, size=(101, 3)), np.ones(101))
    train, test = split(samples, SplitConfig(test_fraction=0.30, seed=5))
    assert len(train) == train_size(101, 0.30)
    assert len(train) + len(test) == 101
    rows = lambda t: sorted(zip(map(tuple, t.channels.tolist()), t.skin.tolist()))
    assert sorted(rows(train) + rows(test)) == rows(samples)


def test_split_deterministic_and_seed_sensitive():
    samples = parse_uci(f"{i % 256} {i % 256} {i % 256} {1 + i % 2}" for i in range(50))
    a = split(samples, SplitConfig(seed=42))
    b = split(samples, SplitConfig(seed=42))
    c = split(samples, SplitConfig(seed=43))
    assert all(_same(x, y) for x, y in zip(a, b))
    assert not all(_same(x, y) for x, y in zip(a, c))


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split(parse_uci(["0 0 0 1"]), SplitConfig())
    with pytest.raises(ValueError):
        split(parse_uci([]), SplitConfig())
    with pytest.raises(ValueError):
        split([], SplitConfig())


def test_split_is_a_permutation_of_the_documented_generator():
    """The shuffle must come from numpy's seeded PCG64 generator."""
    samples = parse_uci(f"{i} {i} {i} 1" for i in range(20))
    train, test = split(samples, SplitConfig(test_fraction=0.30, seed=9))
    perm = np.random.Generator(np.random.PCG64(9)).permutation(20)
    assert _same(train, samples[perm[:14]])
    assert _same(test, samples[perm[14:]])


def test_columnar_views_read_as_sample_sequences():
    channels = np.array([[10, 20, 30], [0, 255, 7], [1, 2, 3]], dtype=np.uint8)
    raw = RawSamples(channels, np.array([True, False, False]))
    rows = [
        RawSample(10, 20, 30, Label.SKIN),
        RawSample(0, 255, 7, Label.NON_SKIN),
        RawSample(1, 2, 3, Label.NON_SKIN),
    ]
    assert len(raw) == 3 and list(raw) == rows
    assert raw[0] == rows[0] and raw[-1] == rows[2]
    assert isinstance(raw[np.int64(1)], RawSample) and raw[np.int64(1)] == rows[1]
    assert isinstance(raw[1:], RawSamples) and list(raw[1:]) == rows[1:]
    assert list(raw[np.array([2, 0])]) == [rows[2], rows[0]]
    assert _same(RawSamples.of(rows), raw) and RawSamples.of(raw) is raw
    with pytest.raises(IndexError):
        raw[3]
    assert label_counts(raw) == {Label.SKIN: 1, Label.NON_SKIN: 2}
    with pytest.raises(ValueError):
        RawSamples(channels, np.array([True, False]))
    with pytest.raises(ValueError):
        RawSamples(channels.astype(np.int64), np.array([True, False, False]))


def test_hsv_columns_pass_through_without_copies():
    raw = RawSamples(np.array([[0, 0, 255], [40, 90, 200]], dtype=np.uint8),
                     np.array([True, False]))
    converted = to_hsv_samples(raw)
    assert isinstance(converted, HsvSamples)
    assert _same(converted, to_hsv_samples(list(raw)))
    hsv, skin = hsv_arrays(converted)
    assert hsv is converted.channels and skin is converted.skin
    assert isinstance(converted[::-1], HsvSamples)
    train, test = split(raw, SplitConfig(test_fraction=0.5, seed=3))
    assert isinstance(train, RawSamples) and isinstance(test, RawSamples)


def test_raw_sample_is_a_named_tuple():
    sample = RawSample(10, 20, 30, Label.SKIN)
    assert sample == (10, 20, 30, Label.SKIN) and len(sample) == 4
    b, g, r, label = sample
    assert (b, g, r, label) == (sample.b, sample.g, sample.r, sample.label)
    assert hash(sample) == hash((10, 20, 30, Label.SKIN))
    assert repr(sample) == "RawSample(b=10, g=20, r=30, label=<Label.SKIN: 1>)"
    assert sample != RawSample(10, 20, 30, Label.NON_SKIN)
    with pytest.raises(AttributeError):
        sample.b = 0


def _random_raw(n: int) -> RawSamples:
    rng = np.random.default_rng(n)
    return RawSamples(rng.integers(0, 256, size=(n, 3), dtype=np.uint8), rng.random(n) < 0.3)


def _selections():
    """Whole columns of 0, 1 and 1,000 rows, a stepped slice and an index-array selection."""
    big = _random_raw(1000)
    return [_random_raw(0), _random_raw(1), big, big[3::7],
            big[np.random.default_rng(5).permutation(1000)[:400]]]


@pytest.mark.parametrize("raw", _selections(), ids=["0", "1", "1000", "stepped", "gathered"])
def test_iteration_matches_int_indexing_and_round_trips(raw):
    rows = list(raw)
    assert rows == [raw[i] for i in range(len(raw))]
    assert list(raw) == rows
    for row in rows:
        assert type(row) is RawSample
        assert [type(v) for v in row[:3]] == [int, int, int] and type(row.label) is Label
    again = RawSamples.of(rows)
    for got, want in ((again.channels, raw.channels), (again.skin, raw.skin)):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("rows", [list, lambda raw: (s for s in raw), iter],
                         ids=["list", "generator", "iterator"])
def test_of_reads_its_argument_once(rows):
    raw = _random_raw(50)
    assert _same(RawSamples.of(rows(raw)), raw)
    assert _same(to_hsv_samples(rows(raw)), to_hsv_samples(raw))


def test_of_an_empty_list_gives_empty_columns():
    empty = RawSamples.of([])
    assert (empty.channels.dtype, empty.channels.shape) == (np.uint8, (0, 3))
    assert (empty.skin.dtype, empty.skin.shape) == (bool, (0,))
    assert to_hsv_samples([]).channels.shape == (0, 3)


def test_index_lists_select_rows_like_index_arrays():
    raw = _random_raw(10)
    for index in ([0, 2], [0, 1, 2], [9, 0, 9], []):
        picked = raw[index]
        assert isinstance(picked, RawSamples) and _same(picked, raw[np.array(index, dtype=np.intp)])
    for index in (3, -1, np.int64(3), np.uint8(3), np.int32(-1)):
        assert raw[index] == list(raw)[int(index)]
    for index in (True, np.True_):  # numpy reads a bool as a mask, not as row 1
        with pytest.raises(ValueError, match=r"expected \(N, 3\) uint8 channels"):
            raw[index]
    hsv = to_hsv_samples(raw)
    assert _same(hsv[[1, 4]], hsv[np.array([1, 4])])
    for index in (1, np.int64(1)):
        with pytest.raises(TypeError, match="HsvSamples has no items"):
            hsv[index]


def _reference_parse(path):
    """parse_uci over the file's lines, read as text with universal newlines."""
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        return parse_uci(fh)


def _outcome(parse, path):
    """("error", message), or "rows" and each column's dtype, shape and values."""
    try:
        samples = parse(path)
    except DatasetError as exc:
        return "error", str(exc)
    return "rows", *((a.dtype, a.shape, a.tolist()) for a in (samples.channels, samples.skin))


_SEPARATORS = (" ", "\t", "  ", " \t ")
# 65543 and 4294967303 read as 7 in 16 and 32 bits
_TOKENS = ("+7", "1_0", "007", "0007", "0256", "65543", "4294967303", "99999999999999999999",
           "-1", "-0", "0", "3", "255", "256", "x", "\xff", "")
# bytes next to the digits, separators str.split knows and ASCII does not, and a few random ones
_ODD_BYTES = list("/:.,e\x08\x1c\x1f\x7f\x85\xa0\xff") + [chr(b) for b in range(0, 256, 17)]
_MUTATIONS = ("crlf", "cr", "formfeed", "vtab", "nul", "blank", "spaces", "no-final-newline",
              "token", "label", "short", "long", "leading", "byte")


def _mutated_file(rng) -> bytes:
    """A few valid random rows with zero to two random mutations applied."""
    lines = [[str(v) for v in rng.integers(0, 256, 3)] + [str(rng.integers(1, 3))]
             for _ in range(int(rng.integers(1, 12)))]
    end = "\n"
    for _ in range(int(rng.integers(0, 3))):
        kind = _MUTATIONS[rng.integers(len(_MUTATIONS))]
        i = int(rng.integers(len(lines)))
        if kind == "crlf":
            end = "\r\n"
        elif kind == "no-final-newline":
            end = ""
        elif kind in ("cr", "formfeed", "vtab", "nul", "byte"):
            char = {"cr": "\r", "formfeed": "\f", "vtab": "\v", "nul": "\0"}.get(
                kind, rng.choice(_ODD_BYTES))
            j = int(rng.integers(len(lines[i]) + 1))
            lines[i] = lines[i][:j] + [char] + lines[i][j:]
        elif kind == "blank":
            lines.insert(i, [])
        elif kind == "spaces":
            lines.insert(i, ["".join(rng.choice([" ", "\t"], size=rng.integers(1, 150)))])
        elif kind == "token":
            j = int(rng.integers(max(len(lines[i]), 1)))
            lines[i][j : j + 1] = [_TOKENS[rng.integers(len(_TOKENS))]]
        elif kind == "label":
            lines[i][-1:] = [str(rng.choice(["0", "1", "2", "3", "12"]))]
        elif kind == "short":
            lines[i] = lines[i][:3]
        elif kind == "long":
            lines[i] = lines[i] + ["1"]
        else:  # leading whitespace
            lines[i] = [" "] + lines[i]
    seps = [_SEPARATORS[k] for k in rng.integers(len(_SEPARATORS), size=len(lines))]
    newline = "\r\n" if end == "\r\n" else "\n"
    text = newline.join(sep.join(tokens) for sep, tokens in zip(seps, lines)) + end
    return text.encode("latin-1")


def test_fast_parse_agrees_with_per_line_parser(tmp_path, monkeypatch):
    """Seeded differential test: load_uci against parse_uci on mutated files.

    A 64-byte block size makes most files span several fast-parse blocks,
    so faults also land next to block cuts.
    """
    monkeypatch.setattr(dataset, "PARSE_BLOCK", 64)
    slow_calls = []
    monkeypatch.setattr(dataset, "parse_uci",
                        lambda lines: slow_calls.append(1) or parse_uci(lines))
    rng = np.random.default_rng(2024)
    path = tmp_path / "case.txt"
    outcomes = set()
    for _ in range(600):
        data = _mutated_file(rng)
        path.write_bytes(data)
        expect = _outcome(_reference_parse, path)
        assert _outcome(load_uci, path) == expect, data
        outcomes.add(expect[0])
    for byte in range(256):  # every byte value, inside a token and between two
        for data in (b"1 2 3%c 1\n" % byte, b"1 2%c3 1\n" % byte):
            path.write_bytes(data)
            assert _outcome(load_uci, path) == _outcome(_reference_parse, path), data
    for data, rows in ((b"", 0), (b"\n \t \n" * 40, 0), (b"1 2 3 1" + b"\n \t" * 80, 1)):
        path.write_bytes(data)
        assert _outcome(load_uci, path) == _outcome(_reference_parse, path)
        assert len(load_uci(path)) == rows
    # both parse paths, and both outcomes, came up often enough to mean something
    assert outcomes == {"rows", "error"}
    assert 600 < len(slow_calls) < 1000


def test_fault_in_second_parse_block_keeps_its_line_number(tmp_path):
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 256, (20_000, 3))
    pad = " " * 20  # wide separators: two blocks of few lines keep the slow path quick
    lines = [pad.join(map(str, (b, g, r, 1 + b % 2))) for b, g, r in rows.tolist()]
    data = ("\n".join(lines) + "\n").encode("ascii")
    cut = data.find(b"\n", dataset.PARSE_BLOCK - 1) + 1
    assert 0 < cut < len(data)  # two blocks at the real block size
    path = tmp_path / "two_blocks.txt"
    path.write_bytes(data)
    parsed = load_uci(path)
    assert np.array_equal(parsed.channels, rows)
    assert np.array_equal(parsed.skin, rows[:, 0] % 2 == 0)

    lineno = data[:cut].count(b"\n") + 1  # the first line of the second block
    lines[lineno - 1] = lines[lineno - 1][:-1] + "7"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    expect = f"line {lineno}: label must be 1 or 2, got 7"
    assert _outcome(load_uci, path) == _outcome(_reference_parse, path) == ("error", expect)

"""Neighbourhood refinement: likeliness algebra and oracle equivalence."""

import numpy as np
import pytest

from skinseg import neighbourhood
from skinseg.classifiers import ClassProbabilities
from skinseg.neighbourhood import (
    NeighbourhoodConfig,
    ProbabilityMap,
    Rule,
    likeliness,
    refine,
    refine_brute_oracle,
)

from oracles import neighbour_sums, pixel

SYM = NeighbourhoodConfig(rule=Rule.SYMMETRIC)
PAPER = NeighbourhoodConfig(rule=Rule.PAPER)


def _pmap(p_skin) -> ProbabilityMap:
    return ProbabilityMap.from_p_skin(np.asarray(p_skin, dtype=np.float64))


def _random_pmap(rng, h, w) -> ProbabilityMap:
    return ProbabilityMap.from_p_skin(rng.random((h, w)))


def _window_neighbour_sums(pm: ProbabilityMap, radius: int):
    """refine's neighbour sums for the whole map: (skin, non-skin, count) planes.

    The clipped window sums minus the centre, and the clipped window
    size minus one, as refine computes them for a single band.
    """
    h, w = pm.p_skin.shape
    scratch = neighbourhood._window_scratch(h, h, w, radius)
    sums = []
    for plane in (pm.p_skin, pm.p_non_skin):
        out = np.empty((h, w))
        neighbourhood._window_sums(plane, 0, h, radius, out, scratch)
        sums.append(out - plane)
    count = np.multiply.outer(neighbourhood._extents(h, radius), neighbourhood._extents(w, radius))
    return sums[0], sums[1], count - 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        NeighbourhoodConfig(radius=0)
    with pytest.raises(ValueError):
        NeighbourhoodConfig(decision_threshold=1.5)


def test_probability_map_validation():
    for shape in ((0, 3), (3, 0), (3,), (2, 2, 2)):  # empty, 1-d and 3-d planes
        with pytest.raises(ValueError):
            ProbabilityMap(np.full(shape, 0.5))
    for bad in (np.nan, np.inf, -np.inf, -1e-300, 1.0 + 2.0**-52):
        with pytest.raises(ValueError):
            ProbabilityMap(np.array([[0.25, bad], [0.5, 0.75]]))
    pm = _pmap([[0.25, 0.75]])
    assert pm.width == 2 and pm.height == 1
    assert (pm.p_skin[0, 1], pm.p_non_skin[0, 1]) == (0.75, 0.25)
    assert ProbabilityMap(np.array([[0.0, 1.0]])).p_skin.tolist() == [[0.0, 1.0]]


def test_p_non_skin_is_the_complement_bit_for_bit():
    rng = np.random.default_rng(12)
    p = np.concatenate([rng.random(997), [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0),
                                          np.nextafter(0.5, 1.0), 2.0**-60, 1.0 - 2.0**-53]])
    pm = ProbabilityMap(p.reshape(1, -1))
    assert pm.p_non_skin.tobytes() == (1.0 - p).tobytes()
    assert pm.p_non_skin.shape == pm.p_skin.shape
    assert ProbabilityMap.from_p_skin(p.reshape(1, -1)).p_skin.tobytes() == p.tobytes()


def test_neighbour_sums_interior_all_skin():
    pm = _pmap(np.ones((3, 3)))
    s1, s2, c = _window_neighbour_sums(pm, 1)
    assert (s1[1, 1], s2[1, 1], c[1, 1]) == (8.0, 0.0, 8)
    assert neighbour_sums(pm, 1, 1, radius=1) == (8.0, 0.0, 8)


def test_neighbour_sums_corner_count():
    pm = _pmap(np.full((4, 4), 0.5))
    _, _, c = _window_neighbour_sums(pm, 1)
    assert c[0, 0] == 3
    assert c[1, 0] == 5  # edge
    assert c[3, 3] == 3
    for (x, y), expect in (((0, 0), 3), ((0, 1), 5), ((3, 3), 3)):
        assert neighbour_sums(pm, x, y, radius=1)[2] == expect


def test_neighbour_sums_match_bruteforce():
    rng = np.random.default_rng(6)
    pm = _random_pmap(rng, 8, 8)
    for radius in (1, 2):
        window = _window_neighbour_sums(pm, radius)
        for y in range(8):
            for x in range(8):
                s1, s2, c = (plane[y, x] for plane in window)
                assert (s1, s2, c) == pytest.approx(neighbour_sums(pm, x, y, radius), abs=1e-12)
                es1 = es2 = 0.0
                ec = 0
                for ny in range(max(0, y - radius), min(8, y + radius + 1)):
                    for nx in range(max(0, x - radius), min(8, x + radius + 1)):
                        if (nx, ny) == (x, y):
                            continue
                        es1 += pm.p_skin[ny, nx]
                        es2 += pm.p_non_skin[ny, nx]
                        ec += 1
                assert c == ec
                assert s1 == pytest.approx(es1, abs=1e-12)
                assert s2 == pytest.approx(es2, abs=1e-12)
                assert s1 + s2 == pytest.approx(c, abs=1e-6)


@pytest.mark.parametrize("skin_sum, non_skin_sum, count", [(-0.5, 1.0, 3), (1.0, -0.5, 3), (1.0, 1.0, -1)])
def test_likeliness_rejects_negative_sums_and_counts(skin_sum, non_skin_sum, count):
    with pytest.raises(ValueError, match="neighbour sums and count must be non-negative"):
        likeliness(skin_sum, non_skin_sum, count, ClassProbabilities(0.5, 0.5))


def test_neighbour_sums_out_of_bounds():
    pm = _pmap(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        neighbour_sums(pm, 2, 0)
    with pytest.raises(ValueError):
        neighbour_sums(pm, 0, -1)


def test_likeliness_symmetric_examples():
    own = ClassProbabilities(0.5, 0.5)
    assert likeliness(8.0, 0.0, 8, own, SYM) == (1.0, 0.0)
    l1, l2 = likeliness(6.0, 2.0, 8, own, SYM)
    assert (l1, l2) == (0.75, 0.25)


def test_likeliness_paper_rule_branches():
    # stage-1 skin pixel: locked to (K, 0) regardless of the neighbourhood
    skin_own = ClassProbabilities(0.9, 0.1)
    assert likeliness(2.0, 6.0, 8, skin_own, PAPER) == (1.0, 0.0)
    # stage-1 non-skin pixel: plain neighbourhood means (k1 = k2 = 1)
    non_own = ClassProbabilities(0.3, 0.7)
    assert likeliness(6.0, 2.0, 8, non_own, PAPER) == (0.75, 0.25)
    # degenerate: skin pixel whose neighbourhood has zero skin mass
    assert likeliness(0.0, 8.0, 8, skin_own, PAPER) == (0.0, 0.0)
    # threshold is inclusive
    edge = ClassProbabilities(0.5, 0.5)
    assert likeliness(1.0, 7.0, 8, edge, PAPER) == (1.0, 0.0)


def test_likeliness_no_neighbours_self_fallback():
    own = ClassProbabilities(0.8, 0.2)
    assert likeliness(0.0, 0.0, 0, own, SYM) == (0.8, 0.2)
    assert likeliness(0.0, 0.0, 0, own, PAPER) == (0.8, 0.2)


def test_likeliness_sums_to_one_in_nondegenerate_branches():
    rng = np.random.default_rng(44)
    for _ in range(500):
        c = int(rng.integers(1, 25))
        s1 = float(rng.random() * c)
        s2 = c - s1
        p = float(rng.random())
        own = ClassProbabilities(p, 1.0 - p)
        for cfg in (SYM, PAPER):
            l1, l2 = likeliness(s1, s2, c, own, cfg)
            if (l1, l2) == (0.0, 0.0):
                continue  # documented degenerate paper branch
            assert l1 + l2 == pytest.approx(1.0, abs=1e-9)


def test_refine_uniform_map():
    pm = _pmap(np.ones((4, 5)))
    refined, mask = refine(pm, SYM)
    assert np.all(mask.pixels)
    assert np.array_equal(refined.p_skin, pm.p_skin)
    pm0 = _pmap(np.zeros((4, 5)))
    _, mask0 = refine(pm0, SYM)
    assert not np.any(mask0.pixels)


def test_refine_removes_isolated_pixel():
    """Centre at 0.9 among 0.05 neighbours: 0.9*0.05 < 0.1*0.95."""
    grid = np.full((3, 3), 0.05)
    grid[1, 1] = 0.9
    refined, mask = refine(_pmap(grid), SYM)
    assert not mask.pixels[1, 1]
    # the exact hand arithmetic: S1 = 0.4, S2 = 7.6
    s1, s2, c = (plane[1, 1] for plane in _window_neighbour_sums(_pmap(grid), 1))
    assert s1 == pytest.approx(0.4) and s2 == pytest.approx(7.6) and c == 8
    assert refined.p_skin[1, 1] == pytest.approx(
        (0.9 * 0.05) / (0.9 * 0.05 + 0.1 * 0.95), abs=1e-12
    )


def test_refine_fills_hole():
    """Centre at 0.4 among 0.95 neighbours: 0.4*0.95 > 0.6*0.05."""
    grid = np.full((3, 3), 0.95)
    grid[1, 1] = 0.4
    _, mask = refine(_pmap(grid), SYM)
    assert mask.pixels[1, 1]


def test_refine_paper_rule_never_demotes_skin():
    rng = np.random.default_rng(10)
    for _ in range(50):
        pm = _random_pmap(rng, 6, 7)
        _, mask = refine(pm, PAPER)
        stage1_skin = pm.p_skin >= PAPER.decision_threshold
        assert np.all(mask.pixels[stage1_skin])


def test_refine_single_pixel_self_fallback():
    _, mask = refine(_pmap([[0.8]]), SYM)
    assert mask.pixels[0, 0]
    _, mask = refine(_pmap([[0.2]]), SYM)
    assert not mask.pixels[0, 0]
    # with no neighbours each likeliness is the pixel's own probability
    for own in (0.0, 1e-200, 0.2, 0.5, 0.8, 1.0):
        skin, non = own * own, (1.0 - own) * (1.0 - own)
        for rule in (Rule.SYMMETRIC, Rule.PAPER):
            for radius in (1, 7, 100):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                refined, mask = refine(_pmap([[own]]), cfg)
                assert np.array_equal(mask.pixels, refine_brute_oracle(_pmap([[own]]), cfg).pixels)
                assert refined.p_skin.tobytes() == np.float64(skin / (skin + non)).tobytes()


def test_refine_translation_equivariance():
    rng = np.random.default_rng(3)
    inner = rng.random((5, 5))
    base = np.full((9, 9), 0.5)
    a = base.copy()
    a[0:5, 0:5] = inner
    b = base.copy()
    b[2:7, 3:8] = inner
    _, mask_a = refine(_pmap(a), SYM)
    _, mask_b = refine(_pmap(b), SYM)
    # interiors (away from both borders) must match under the shift
    assert np.array_equal(mask_a.pixels[1:4, 1:4], mask_b.pixels[3:6, 4:7])


def test_refine_matches_oracle_everywhere():
    """refine and the brute-force oracle agree bit for bit.

    Sweeps random maps of every shape up to 16x16 (including degenerate
    1x1 and 1xN strips), both rules, radii 1 and 2, plus skewed maps with
    many exact 0/1 probabilities to hit the degenerate branches.
    """
    rng = np.random.default_rng(512)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 16), (16, 1), (2, 2), (3, 3), (4, 7)]
    cases = 0
    for _ in range(120):
        h = int(rng.integers(1, 17))
        w = int(rng.integers(1, 17))
        shapes.append((h, w))
    for h, w in shapes:
        for rule in (Rule.SYMMETRIC, Rule.PAPER):
            for radius in (1, 2):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                if rng.random() < 0.5:
                    p = rng.random((h, w))
                else:  # saturated maps exercise S1 = 0 and total = 0 branches
                    p = rng.choice([0.0, 1.0, 0.5, 0.9], size=(h, w))
                pm = ProbabilityMap.from_p_skin(p)
                fast = refine(pm, cfg)[1]
                slow = refine_brute_oracle(pm, cfg)
                assert np.array_equal(fast.pixels, slow.pixels), (h, w, rule, radius)
                cases += 1
    assert cases >= 500


def test_refine_degenerate_products_keep_original_pair():
    # Centre p_skin = 0 surrounded by p_skin = 1 under the symmetric rule:
    # L2 = 0 (no non-skin mass nearby) and own p_skin = 0, so both products
    # vanish. The refined pair stays (0, 1) but the product comparison
    # 0 >= 0 resolves the mask skin-wards, matching the oracle.
    grid = np.ones((3, 3))
    grid[1, 1] = 0.0
    refined, mask = refine(_pmap(grid), SYM)
    assert refined.p_skin[1, 1] == 0.0 and refined.p_non_skin[1, 1] == 1.0
    assert mask.pixels[1, 1]
    oracle = refine_brute_oracle(_pmap(grid), SYM)
    assert np.array_equal(mask.pixels, oracle.pixels)


def test_refine_keeps_a_zero_one_map_and_marks_only_its_surrounded_zeros():
    # a p of 0 or 1 has a zero product for the class it lacks, so the
    # refined map is the stage-1 map; but a 0 pixel whose whole clipped
    # window is 1 gets products 0 and 0, and skin >= non marks it skin
    rng = np.random.default_rng(1800)
    surrounded_seen = 0
    for _ in range(100):
        h, w = (int(n) for n in rng.integers(1, 12, size=2))
        p = (rng.random((h, w)) < rng.choice([0.5, 0.9])).astype(np.float64)
        pm = _pmap(p)
        for radius in (1, 3, 7):
            surrounded = np.zeros((h, w), dtype=bool)
            for y in range(h):
                for x in range(w):
                    _, non_sum, count = neighbour_sums(pm, x, y, radius)
                    surrounded[y, x] = p[y, x] == 0.0 and count > 0 and non_sum == 0.0
            surrounded_seen += int(surrounded.sum())
            for rule in (Rule.SYMMETRIC, Rule.PAPER):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                refined, mask = refine(pm, cfg)
                assert refined.p_skin.tobytes() == p.tobytes(), (h, w, rule, radius)
                assert np.array_equal(mask.pixels, (p == 1.0) | surrounded), (h, w, rule, radius)
                assert np.array_equal(mask.pixels, refine_brute_oracle(pm, cfg).pixels)
    assert surrounded_seen >= 100


def test_refine_paper_lock_sees_a_neighbour_absorbed_by_the_box_sum():
    # 0.9 + 1e-20 rounds to 0.9, so the window sum minus the centre reads
    # 0; the oracle's neighbour sum is 1e-20, so the pixel locks to (1, 0)
    grid = np.zeros((3, 3))
    grid[1, 1] = 0.9
    grid[1, 2] = 1e-20
    refined, mask = refine(_pmap(grid), PAPER)
    assert (refined.p_skin[1, 1], refined.p_non_skin[1, 1]) == (1.0, 0.0)
    assert np.array_equal(mask.pixels, refine_brute_oracle(_pmap(grid), PAPER).pixels)


def _reference_refine(pm: ProbabilityMap, cfg: NeighbourhoodConfig):
    """Refined pairs pixel by pixel from neighbour_sums and likeliness.

    Returns (p_skin, p_non_skin, degenerate), where degenerate marks the
    pixels whose two products both vanish and so keep their own pair.
    """
    skin = np.empty(pm.p_skin.shape)
    non = np.empty(pm.p_skin.shape)
    degenerate = np.zeros(pm.p_skin.shape, dtype=bool)
    for y in range(pm.height):
        for x in range(pm.width):
            own = pixel(pm, x, y)
            l1, l2 = likeliness(*neighbour_sums(pm, x, y, cfg.radius), own, cfg)
            a, b = own.p_skin * l1, own.p_non_skin * l2
            if a + b == 0.0:
                skin[y, x], non[y, x], degenerate[y, x] = own.p_skin, own.p_non_skin, True
            else:
                skin[y, x], non[y, x] = a / (a + b), b / (a + b)
    return skin, non, degenerate


def _mirrored_tie_map(rng, h: int, w: int) -> np.ndarray:
    """Odd-sized map whose centre is 0.5 and p(centre + d) = 1 - p(centre - d).

    The centre's window is symmetric, so its skin and non-skin sums are
    equal in real arithmetic: the products tie and only the order of
    addition decides the mask.
    """
    p = rng.random(h * w)
    half = h * w // 2
    p[half + 1 :] = 1.0 - p[:half][::-1]
    p[half] = 0.5
    return p.reshape(h, w)


def test_refine_matches_oracle_at_larger_radii_on_tie_heavy_maps(monkeypatch):
    """Radii 3 and 7: the mask is the oracle's and the pairs stay within ulps.

    Saturated maps on {0, 0.1, 0.5, 0.9, 1} are full of product ties,
    mirrored maps tie in real arithmetic, and sparse maps (isolated 0.9
    and 1 pixels on 0) hold degenerate and zero-neighbourhood PAPER
    pixels. The re-sum in the oracle's order must run, and a degenerate
    or zero-neighbourhood PAPER pixel must keep its own pair exactly.
    The one frame-wide slack is at least every pixel's bound in
    _tie_slack's derivation, f * (1 / count + skin_product + non_product),
    and every pixel whose products lie within that bound is re-summed.
    """
    resummed, kept = [], []
    real = neighbourhood._oracle_order_sums

    def spy(pmap, ys, xs, radius):
        resummed.append((ys, xs))
        return real(pmap, ys, xs, radius)

    def per_pixel_bound(pm, cfg):
        """|skin_product - non_product| and each pixel's own bound on it."""
        u = 2.0**-53
        ry, rx = min(cfg.radius, pm.height - 1), min(cfg.radius, pm.width - 1)
        k = (2 * ry + 1) * (2 * rx + 1) + 2 * ry + 2 * rx
        f = 2.0 * (k * u / (1.0 - k * u) + 2.0 * (2.0 * u / (1.0 - 2.0 * u)))
        skin, non, count = _window_neighbour_sums(pm, cfg.radius)
        neighbourhood._products(pm.p_skin, pm.p_non_skin, skin, non, count, cfg)
        return np.abs(skin - non), f * (1.0 / count + skin + non)

    monkeypatch.setattr(neighbourhood, "_oracle_order_sums", spy)
    ulps = 8 * np.finfo(np.float64).eps  # probabilities lie in [0, 1]
    rng = np.random.default_rng(2026)
    for case in range(48):
        h, w = (2 * int(n) + 1 for n in rng.integers(0, 7, size=2))
        family = case % 4
        if family == 0:
            p = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(h, w))
        elif family == 1:
            p = _mirrored_tie_map(rng, h, w)
        elif family == 2:
            p = np.where(rng.random((h, w)) < 0.05, rng.choice([0.9, 1.0], size=(h, w)), 0.0)
        else:
            p = rng.random((h, w))
        q = 1.0 - p
        pm = ProbabilityMap(p)
        for rule in (Rule.SYMMETRIC, Rule.PAPER):
            for radius in (3, 7):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                calls = len(resummed)
                refined, mask = refine(pm, cfg)
                assert np.array_equal(mask.pixels, refine_brute_oracle(pm, cfg).pixels), (
                    case, rule, radius)
                flagged = np.zeros((h, w), dtype=bool)
                for ys, xs in resummed[calls:]:
                    flagged[ys, xs] = True
                gap, bound = per_pixel_bound(pm, cfg)
                assert bound.max() <= neighbourhood._tie_slack(h, w, radius), (case, rule, radius)
                assert not np.any((gap <= bound) & ~flagged), (case, rule, radius)
                skin, non, degenerate = _reference_refine(pm, cfg)
                assert np.abs(refined.p_skin - skin).max() <= ulps
                assert np.abs(refined.p_non_skin - non).max() <= ulps
                assert np.array_equal(refined.p_skin[degenerate], p[degenerate])
                assert np.array_equal(refined.p_non_skin[degenerate], q[degenerate])
                kept.append(degenerate.sum())
    assert sum(ys.size for ys, _ in resummed) > 0 and sum(kept) > 0


def test_window_sums_match_clipped_sums():
    """_window_sums equals a direct clipped np.sum on every shape up to 9x9.

    The values are multiples of 2**-20 below 1, so every sum of at most
    81 of them is exact in any order; radii reach past the map's sides.
    A band of rows gives the bytes of the whole-map call on random values.
    """
    rng = np.random.default_rng(81)
    for h in range(1, 10):
        for w in range(1, 10):
            for radius in (1, 2, 3, 4, 9, 12):
                plane = rng.integers(0, 2**20, size=(h, w)) / 2.0**20
                expected = np.array([[
                    plane[max(y - radius, 0) : y + radius + 1,
                          max(x - radius, 0) : x + radius + 1].sum()
                    for x in range(w)] for y in range(h)])
                out = np.empty((h, w))
                scratch = neighbourhood._window_scratch(h, h, w, radius)
                neighbourhood._window_sums(plane, 0, h, radius, out, scratch)
                assert np.array_equal(out, expected), (h, w, radius)
                plane = rng.random((h, w))
                neighbourhood._window_sums(plane, 0, h, radius, out, scratch)
                for y0 in range(h):
                    row = np.empty((1, w))
                    neighbourhood._window_sums(plane, y0, y0 + 1, radius, row, scratch)
                    assert row.tobytes() == out[y0].tobytes(), (h, w, radius, y0)


def test_window_sum_additions_stay_within_2r_per_pass():
    # _tie_slack bounds the rounding error of each pass by 2r additions per
    # term; the runs of consecutive integers are summed exactly
    for radius in range(1, 4097):
        length = 2 * radius + 1
        padded = np.arange(length + 1, dtype=np.float64)[:, None]
        out = np.empty((2, 1))
        adds = neighbourhood._run_sums(padded, radius, out, np.empty_like(padded),
                                       np.empty_like(padded))
        assert adds == length.bit_length() - 1 + bin(length).count("1") - 1
        assert adds <= 2 * radius, radius
        assert out[:, 0].tolist() == [length * radius, length * (radius + 1)], radius


@pytest.mark.parametrize("rows", [1, 2, 5])
def test_refine_bytes_do_not_depend_on_the_band_height(rows, monkeypatch):
    """Bands of 1, 2 and 5 rows give the default band's bytes and the oracle's mask.

    Heights 13 and 29 are not multiples of any of those bands, and
    radius 7 reaches past a band's rows into the ones around it.
    """
    rng = np.random.default_rng(rows)
    cases = []
    for h, w in ((13, 11), (29, 6), (1, 9), (9, 1)):
        for p in (rng.random((h, w)), rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(h, w))):
            pm = ProbabilityMap.from_p_skin(p)
            for rule in (Rule.SYMMETRIC, Rule.PAPER):
                for radius in (1, 2, 3, 7):
                    cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                    cases.append((pm, cfg, refine(pm, cfg)))
    for pm, cfg, (default, default_mask) in cases:
        monkeypatch.setattr(neighbourhood, "_BAND_PIXELS", rows * pm.width)
        refined, mask = refine(pm, cfg)
        context = (pm.height, pm.width, cfg)
        assert refined.p_skin.tobytes() == default.p_skin.tobytes(), context
        assert refined.p_non_skin.tobytes() == default.p_non_skin.tobytes(), context
        assert mask.pixels.tobytes() == default_mask.pixels.tobytes(), context
        assert np.array_equal(mask.pixels, refine_brute_oracle(pm, cfg).pixels), context


def _single_plane_products(pm: ProbabilityMap, cfg: NeighbourhoodConfig):
    """refine's products before any re-sum, for the whole map as one band.

    The skin box sums come from p_skin alone, and each non-skin neighbour
    sum is the neighbour count less the skin one, clamped at 0, as refine
    takes them. Returns (skin_product, non_product, box, count).
    """
    h, w = pm.p_skin.shape
    box = np.empty((h, w))
    neighbourhood._window_sums(pm.p_skin, 0, h, cfg.radius, box,
                               neighbourhood._window_scratch(h, h, w, cfg.radius))
    count = np.multiply.outer(neighbourhood._extents(h, cfg.radius),
                              neighbourhood._extents(w, cfg.radius)) - 1.0
    skin = box - pm.p_skin
    non = np.maximum(count - skin, 0.0)
    neighbourhood._products(pm.p_skin, pm.p_non_skin, skin, non, count, cfg)
    return skin, non, box, count


def _saturated_map(rng, h: int, w: int, scale: float) -> np.ndarray:
    """Neighbours at 1 - 1e-15 around isolated pixels between 0 and scale.

    An isolated pixel's non-skin neighbour sum is tiny next to its skin
    box sum, so count - skin sum leaves it with a large relative error.
    """
    p = np.full((h, w), 1.0 - 1e-15)
    isolated = rng.random((h, w)) < 0.05
    p[isolated] = rng.random(int(isolated.sum())) * scale
    return p


def _gamma(m: int) -> float:
    u = 2.0**-53
    return m * u / (1.0 - m * u)


def _spy_resummed(monkeypatch):
    """Patch _oracle_order_sums to record each call's (ys, xs); returns the list."""
    resummed = []
    real = neighbourhood._oracle_order_sums

    def spy(pmap, ys, xs, radius):
        resummed.append((ys, xs))
        return real(pmap, ys, xs, radius)

    monkeypatch.setattr(neighbourhood, "_oracle_order_sums", spy)
    return resummed


def _flagged(resummed, shape) -> np.ndarray:
    flagged = np.zeros(shape, dtype=bool)
    for ys, xs in resummed:
        flagged[ys, xs] = True
    return flagged


def _families(rng):
    """Maps to check the slack on: saturated ones, plus tie-heavy and random ones."""
    for scale in (1e-15, 1e-14, 1e-13):
        yield _saturated_map(rng, 24, 24, scale)
        yield _saturated_map(rng, 17, 31, scale)
    yield rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=(15, 13))
    yield _mirrored_tie_map(rng, 13, 15)
    yield rng.random((19, 11))


def test_refine_keeps_its_accuracy_on_saturated_maps(monkeypatch):
    """Saturated maps: the mask is the oracle's, and p_skin keeps the two-plane bound.

    Without the accuracy guard the subtraction moves refined p_skin by
    about 1e-2 here. With it, each pixel stays within the two-plane bound
    D = f * (non * (skin + own_skin^2 / count) + skin * (non + own_non^2
    / count)) / total^2 (products and total from the oracle's order, f
    from _tie_slack) plus gamma_(2ry+2rx+2) of the oracle-order value,
    and within 2 D + gamma_(2ry+2rx+2) of the two-plane result.
    """
    resummed = _spy_resummed(monkeypatch)
    rng = np.random.default_rng(24)
    worst_unguarded = 0.0
    for scale in (1e-15, 1e-14, 1e-13):
        for h, w in ((24, 24), (17, 31)):
            pm = ProbabilityMap(_saturated_map(rng, h, w, scale))
            for rule in (Rule.SYMMETRIC, Rule.PAPER):
                for radius in (1, 3, 7):
                    cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                    refined, mask = refine(pm, cfg)
                    context = (scale, h, w, rule, radius)
                    assert np.array_equal(mask.pixels, refine_brute_oracle(pm, cfg).pixels), context

                    ry, rx = min(radius, h - 1), min(radius, w - 1)
                    k = (2 * ry + 1) * (2 * rx + 1) + 2 * ry + 2 * rx
                    f = 2.0 * (_gamma(k) + 2.0 * _gamma(2))
                    oracle, _, degenerate = _reference_refine(pm, cfg)
                    skin, non, count = _window_neighbour_sums(pm, radius)
                    own, own_non = pm.p_skin, pm.p_non_skin
                    neighbourhood._products(own, own_non, skin, non, count, cfg)
                    total = skin + non
                    two_plane = np.where(degenerate, own, skin / np.where(degenerate, 1.0, total))
                    bound = f * (non * (skin + own**2 / count) + skin * (non + own_non**2 / count))
                    bound = bound / np.where(degenerate, 1.0, total) ** 2
                    extra = _gamma(2 * ry + 2 * rx + 2) * (1.0 + 1e-6)
                    assert np.all(np.abs(refined.p_skin - oracle) <= bound + extra), context
                    assert np.all(np.abs(refined.p_skin - two_plane) <= 2 * bound + extra), context

                    skin, non, _, _ = _single_plane_products(pm, cfg)
                    total = skin + non
                    unguarded = np.where(total == 0.0, own, skin / np.where(total == 0.0, 1.0, total))
                    worst_unguarded = max(worst_unguarded, np.abs(unguarded - oracle).max())
    assert worst_unguarded > 1e-3  # the guard is what holds the bound above
    assert sum(ys.size for ys, _ in resummed) > 0


def test_tie_slack_covers_the_subtraction_and_the_guard_flags_its_pixels(monkeypatch):
    """_tie_slack bounds each pixel's product error, the subtraction's term X included.

    Per pixel the bound is f * (skin + non + 1 / count) + X, with
    X = gamma_(2ry+2rx+2) * own_non * box / count on pixels the PAPER
    rule does not lock (a lock's non-skin product is exactly 0). It must
    lie within the one frame-wide slack, and bound how far refine's
    single-plane products stray from the oracle's. Every unlocked pixel
    with skin * own_non * box / count > total^2, where the subtraction
    could move refined p_skin by more than gamma_(2ry+2rx+2), must be
    re-summed in the oracle's order.
    """
    resummed = _spy_resummed(monkeypatch)
    rng = np.random.default_rng(42)
    guarded = 0
    for p in _families(rng):
        pm = ProbabilityMap(p)
        h, w = p.shape
        for rule in (Rule.SYMMETRIC, Rule.PAPER):
            for radius in (1, 3, 7):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                context = (h, w, rule, radius)
                calls = len(resummed)
                refine(pm, cfg)
                flagged = _flagged(resummed[calls:], (h, w))

                ry, rx = min(radius, h - 1), min(radius, w - 1)
                k = (2 * ry + 1) * (2 * rx + 1) + 2 * ry + 2 * rx
                f = 2.0 * (_gamma(k) + 2.0 * _gamma(2))
                skin, non, box, count = _single_plane_products(pm, cfg)
                locked = (rule is Rule.PAPER) & (pm.p_skin >= cfg.decision_threshold)
                x = np.where(locked, 0.0, _gamma(2 * ry + 2 * rx + 2) * pm.p_non_skin * box / count)
                bound = f * (skin + non + 1.0 / count) + x
                assert bound.max() <= neighbourhood._tie_slack(h, w, radius), context

                oracle_skin, oracle_non, _ = _window_neighbour_sums(pm, radius)
                for y in range(h):
                    for x_ in range(w):
                        oracle_skin[y, x_], oracle_non[y, x_], _ = neighbour_sums(pm, x_, y, radius)
                neighbourhood._products(pm.p_skin, pm.p_non_skin, oracle_skin, oracle_non, count, cfg)
                assert np.all(np.abs((skin - non) - (oracle_skin - oracle_non)) <= bound), context

                total = skin + non
                must = ~locked & (skin * pm.p_non_skin * box / count > total**2 * (1.0 + 1e-9))
                assert not np.any(must & ~flagged), context
                guarded += int(must.sum())
    assert guarded > 0


def test_oracle_order_sums_match_the_oracle_whether_gathered_or_by_rows(monkeypatch):
    """Both re-sum paths give neighbour_sums' bits on sparse and dense pixel sets.

    Maps of random values and of 1 - 1e-15 with near-0 pixels, radii past
    the map's sides included; each set is summed with the path refine
    would choose, then with the gathered and the dense path forced, both
    in np.nonzero's order and shuffled.
    """
    rng, shuffle = np.random.default_rng(7), np.random.default_rng(8)
    default_cost = neighbourhood._GATHER_COST
    for (h, w), radii in (((1, 9), (1, 12)), ((9, 1), (2, 12)), ((7, 7), (1, 3, 9)),
                          ((12, 23), (1, 3, 7))):
        for p in (rng.random((h, w)), _saturated_map(rng, h, w, 1e-14)):
            pm = ProbabilityMap(p)
            for radius in radii:
                expect = np.array([[neighbour_sums(pm, x, y, radius)[:2] for x in range(w)]
                                   for y in range(h)])
                for density in (0.05, 0.3, 1.0):
                    pick = rng.random((h, w)) < density
                    pick.flat[rng.integers(h * w)] = True
                    ys, xs = np.nonzero(pick)
                    order = shuffle.permutation(ys.size)
                    for shuffled, (ys, xs) in enumerate(((ys, xs), (ys[order], xs[order]))):
                        for cost in (default_cost, 0, h * w * 10**6):  # as set, gathered, dense
                            monkeypatch.setattr(neighbourhood, "_GATHER_COST", cost)
                            skin, non = neighbourhood._oracle_order_sums(pm, ys, xs, radius)
                            context = (h, w, radius, density, cost, shuffled)
                            assert skin.tobytes() == expect[ys, xs, 0].tobytes(), context
                            assert non.tobytes() == expect[ys, xs, 1].tobytes(), context


def test_refine_clamps_a_non_skin_sum_that_cancels_below_zero():
    """A pixel among neighbours at exactly 1 has no non-skin mass: p_skin refines to 1.

    Its skin sum, box - own_skin, can round above the neighbour count, so
    count - skin sum dips a few ulps below 0; unclamped, that would give a
    negative non-skin product and a refined p_skin above 1. Rounded the
    other way it leaves a few ulps of non-skin mass, which the accuracy
    bound allows: gamma_(2ry+2rx+2) below 1.
    """
    below_zero = 0
    for radius in (1, 2, 3, 7):
        side = 2 * radius + 1
        for own in np.linspace(0.01, 0.99, 99):
            p = np.ones((side, side))
            p[radius, radius] = own
            skin, _, count = _window_neighbour_sums(ProbabilityMap(p), radius)
            below_zero += count[radius, radius] - skin[radius, radius] < 0.0
            for rule in (Rule.SYMMETRIC, Rule.PAPER):
                refined, mask = refine(ProbabilityMap(p), NeighbourhoodConfig(rule=rule, radius=radius))
                assert 1.0 - _gamma(4 * radius + 2) <= refined.p_skin[radius, radius] <= 1.0
                assert mask.pixels[radius, radius], (radius, own, rule)
    assert below_zero > 0

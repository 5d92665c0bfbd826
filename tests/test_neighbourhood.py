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
    neighbour_sums,
    refine,
    refine_brute_oracle,
)

SYM = NeighbourhoodConfig(rule=Rule.SYMMETRIC)
PAPER = NeighbourhoodConfig(rule=Rule.PAPER)


def _pmap(p_skin) -> ProbabilityMap:
    return ProbabilityMap.from_p_skin(np.asarray(p_skin, dtype=np.float64))


def _random_pmap(rng, h, w) -> ProbabilityMap:
    return ProbabilityMap.from_p_skin(rng.random((h, w)))


def test_config_validation():
    with pytest.raises(ValueError):
        NeighbourhoodConfig(radius=0)
    with pytest.raises(ValueError):
        NeighbourhoodConfig(decision_threshold=1.5)


def test_probability_map_validation():
    with pytest.raises(ValueError):
        ProbabilityMap(np.array([[0.3]]), np.array([[0.3]]))  # pair sums to 0.6
    with pytest.raises(ValueError):
        ProbabilityMap(np.zeros((0, 3)), np.zeros((0, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ProbabilityMap(np.array([[0.25, bad]]), np.array([[0.75, 0.5]]))
    with pytest.raises(ValueError):  # sums to 1 within tolerance, but q > 1
        ProbabilityMap(np.array([[0.0]]), np.array([[1.0 + 6e-10]]))
    pm = _pmap([[0.25, 0.75]])
    assert pm.width == 2 and pm.height == 1
    pix = pm.pixel(1, 0)
    assert pix.p_skin == 0.75


@pytest.mark.parametrize("width", [1000, neighbourhood._PAIR_CHECK_PIXELS + 7])
def test_probability_map_pair_check_covers_every_block(width):
    # the pair sums are checked a block of rows at a time; a bad pair in
    # the last, partial block must still be found, and the message must
    # name the largest deviation over all blocks
    rows = max(1, neighbourhood._PAIR_CHECK_PIXELS // width)
    p = np.full((2 * rows + 3, width), 0.5)
    q = p.copy()
    q[0, 0] += 5e-10  # within tolerance
    ProbabilityMap(p, q)
    q[-1, -1] += 3e-9
    with pytest.raises(ValueError, match=r"max deviation 3e-09\)"):
        ProbabilityMap(p, q)
    q[rows, 1] += 4e-9
    with pytest.raises(ValueError, match=r"max deviation 4e-09\)"):
        ProbabilityMap(p, q)


def test_neighbour_sums_interior_all_skin():
    pm = _pmap(np.ones((3, 3)))
    s1, s2, c = neighbour_sums(pm, 1, 1, radius=1)
    assert (s1, s2, c) == (8.0, 0.0, 8)


def test_neighbour_sums_corner_count():
    pm = _pmap(np.full((4, 4), 0.5))
    _, _, c = neighbour_sums(pm, 0, 0, radius=1)
    assert c == 3
    _, _, c = neighbour_sums(pm, 0, 1, radius=1)  # edge
    assert c == 5
    _, _, c = neighbour_sums(pm, 3, 3, radius=1)
    assert c == 3


def test_neighbour_sums_match_bruteforce():
    rng = np.random.default_rng(6)
    pm = _random_pmap(rng, 8, 8)
    for radius in (1, 2):
        for y in range(8):
            for x in range(8):
                s1, s2, c = neighbour_sums(pm, x, y, radius=radius)
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
    s1, s2, c = neighbour_sums(_pmap(grid), 1, 1)
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
            own = pm.pixel(x, y)
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
    mirrored maps tie in real arithmetic, sparse maps (isolated 0.9 and 1
    pixels on 0) hold degenerate and zero-neighbourhood PAPER pixels, and
    half the maps carry a non-skin plane that is 1 - p only to within the
    pair tolerance. The re-sum in the oracle's order must run, and a
    degenerate or zero-neighbourhood PAPER pixel must keep its own pair
    exactly.
    """
    resummed, kept = [], []
    real = neighbourhood._oracle_order_sums

    def spy(pmap, ys, xs, radius):
        resummed.append(ys.size)
        return real(pmap, ys, xs, radius)

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
        if case // 4 % 2:
            q = np.clip(q + rng.uniform(-1e-9, 1e-9, size=(h, w)), 0.0, 1.0)
        pm = ProbabilityMap(p, q)
        for rule in (Rule.SYMMETRIC, Rule.PAPER):
            for radius in (3, 7):
                cfg = NeighbourhoodConfig(rule=rule, radius=radius)
                refined, mask = refine(pm, cfg)
                assert np.array_equal(mask.pixels, refine_brute_oracle(pm, cfg).pixels), (
                    case, rule, radius)
                skin, non, degenerate = _reference_refine(pm, cfg)
                assert np.abs(refined.p_skin - skin).max() <= ulps
                assert np.abs(refined.p_non_skin - non).max() <= ulps
                assert np.array_equal(refined.p_skin[degenerate], p[degenerate])
                assert np.array_equal(refined.p_non_skin[degenerate], q[degenerate])
                kept.append(degenerate.sum())
    assert sum(resummed) > 0 and sum(kept) > 0

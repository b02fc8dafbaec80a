import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuse_oracle
from frameseek import FusionConfig, RankedList, fuse, normalize_list, settling_point

# Top-50 confidence curves of the two channels, transcribed from the source
# plots in order (the global curve carries a duplicated 18th position).
GLOBAL_CURVE = [
    0.775, 0.725, 0.719, 0.714, 0.710, 0.708, 0.704, 0.691, 0.687, 0.663,
    0.662, 0.662, 0.661, 0.660, 0.659, 0.659, 0.659, 0.659, 0.658, 0.658,
    0.657, 0.657, 0.657, 0.657, 0.656, 0.656, 0.656, 0.656, 0.656, 0.656,
    0.656, 0.655, 0.655, 0.655, 0.654, 0.654, 0.654, 0.654, 0.654, 0.654,
    0.654, 0.654, 0.653, 0.653, 0.653, 0.653, 0.653, 0.653, 0.653, 0.652,
    0.652,
]
LOCAL_CURVE = [
    0.1559, 0.054, 0.049, 0.043, 0.042, 0.042, 0.042, 0.042, 0.042, 0.042,
    0.042, 0.042, 0.042, 0.034, 0.031, 0.031, 0.031, 0.031, 0.031, 0.031,
    0.031, 0.031, 0.031, 0.031, 0.031, 0.028, 0.028, 0.028, 0.027, 0.027,
    0.027, 0.027, 0.027, 0.027, 0.026, 0.026, 0.026, 0.026, 0.026, 0.025,
    0.024, 0.024, 0.024, 0.023, 0.023, 0.023, 0.023, 0.023, 0.022, 0.022,
]


def as_list(scores, channel="global"):
    return RankedList.from_entries([(i, float(s)) for i, s in enumerate(scores)],
                                   channel=channel)


def test_settling_point_global_curve():
    assert settling_point(as_list(GLOBAL_CURVE)) == (30, pytest.approx(0.656))


def test_settling_point_local_curve():
    assert settling_point(as_list(LOCAL_CURVE, "local")) == (24, pytest.approx(0.031))


def test_settling_point_linear_list_falls_back_to_last():
    scores = [10.0 - 0.5 * i for i in range(20)]
    index, score = settling_point(as_list(scores))
    assert index == 19 and score == pytest.approx(scores[-1])


def test_settling_point_all_equal_settles_at_warmup():
    index, score = settling_point(as_list([0.4] * 30))
    assert index == 10 and score == 0.4


def test_settling_point_short_list_settles_at_last():
    index, score = settling_point(as_list([0.9, 0.5, 0.2]))
    assert index == 2 and score == pytest.approx(0.2)


def test_settling_point_empty_list_errors():
    with pytest.raises(ValueError, match="empty"):
        settling_point(RankedList.from_entries([]))


def test_normalize_all_equal_gives_empty():
    out = normalize_list(as_list([0.3] * 15))
    assert out.entries == [] and out.normalized


def test_normalize_global_curve_top_score():
    out = normalize_list(as_list(GLOBAL_CURVE))
    assert out.entries[0][1] == pytest.approx(0.775 - 0.656)


def test_normalize_shift_invariance_constant():
    base = as_list(GLOBAL_CURVE)
    shifted = as_list([s + 0.3 for s in GLOBAL_CURVE])
    a = normalize_list(base)
    b = normalize_list(shifted)
    assert a.video.tolist() == b.video.tolist()
    np.testing.assert_allclose(a.score, b.score, atol=1e-12)


def test_normalize_shift_invariance_random_lists():
    gen = np.random.default_rng(77)
    for _ in range(200):
        n = int(gen.integers(2, 60))
        scores = np.sort(gen.uniform(0, 1, size=n))[::-1]
        shift = float(gen.uniform(-5, 5))
        base = as_list(scores)
        moved = as_list(scores + shift)
        ia, _ = settling_point(base)
        ib, _ = settling_point(moved)
        assert ia == ib
        np.testing.assert_allclose(normalize_list(base).score,
                                   normalize_list(moved).score, atol=1e-9)


def test_normalize_drops_nonpositive_scores():
    out = normalize_list(as_list(GLOBAL_CURVE))
    assert np.all(out.score > 0)
    assert len(out) < len(GLOBAL_CURVE)


def test_fuse_empty_local_returns_normalized_global():
    local = RankedList.from_entries([], channel="local")
    fused = fuse(local, as_list(GLOBAL_CURVE))
    expected = normalize_list(as_list(GLOBAL_CURVE))
    assert fused.entries == expected.entries
    assert fused.channel == "fused"


def test_fuse_max_with_absence():
    local = RankedList.from_entries([], channel="local", normalized=True)
    global_ = RankedList.from_entries([(7, 0.119)], channel="global", normalized=True)
    fused = fuse(local, global_)
    assert fused.entries == [(7, 0.119)]


def test_fuse_hand_case_three_videos():
    # A=0.5 local only, B=max(0.2, 0.4), C=0.1 global only
    local = RankedList.from_entries([(1, 0.5), (2, 0.2)], channel="local", normalized=True)
    global_ = RankedList.from_entries([(2, 0.4), (3, 0.1)], channel="global", normalized=True)
    fused = fuse(local, global_)
    assert fused.entries == [(1, 0.5), (2, 0.4), (3, 0.1)]


def test_fuse_commutative():
    gen = np.random.default_rng(5)
    a = RankedList.from_entries([(i, float(s)) for i, s in
                                 enumerate(np.sort(gen.uniform(0, 1, 20))[::-1])],
                                channel="local", normalized=True)
    b = RankedList.from_entries([(i + 10, float(s)) for i, s in
                                 enumerate(np.sort(gen.uniform(0, 1, 20))[::-1])],
                                channel="global", normalized=True)
    assert fuse(a, b).entries == fuse(b, a).entries


def test_fuse_dominates_each_channel():
    local = normalize_list(as_list(LOCAL_CURVE, "local"))
    global_ = normalize_list(as_list(GLOBAL_CURVE))
    fused = fuse(local, global_)
    scores = dict(fused.entries)
    for video, score in local.entries + global_.entries:
        assert scores[video] >= score
    assert np.all(fused.score >= 0)


def test_fuse_both_empty_gives_empty():
    fused = fuse(RankedList.from_entries([], channel="local"),
                 RankedList.from_entries([], channel="global"))
    assert fused.entries == [] and fused.channel == "fused"


def test_fuse_tie_break_ascending_video_id():
    a = RankedList.from_entries([(9, 0.5), (2, 0.3)], channel="local", normalized=True)
    b = RankedList.from_entries([(4, 0.5)], channel="global", normalized=True)
    assert fuse(a, b).entries == [(4, 0.5), (9, 0.5), (2, 0.3)]


# a few values, some within epsilon / 5 of each other, so that lists hold
# ties, flat runs and scores at or below 0
ORACLE_SCORES = [1.0, 0.75, 0.7995, 0.7990, 0.5, 0.25, 0.0, -0.25]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), warmup=st.sampled_from([1, 2, 3, 5]),
       top_n=st.sampled_from([None, 1, 3, 8]))
def test_fuse_equals_dict_oracle(data, warmup, top_n):
    """fuse gives the dict-based settling cut and merge's entries exactly,
    for lists of 0 to warmup + 5 entries, normalized or not."""
    cfg = FusionConfig(epsilon=0.01, warmup=warmup)
    lists = []
    for _ in range(2):
        n = data.draw(st.integers(0, warmup + 5))
        videos = data.draw(st.lists(st.integers(0, 11), min_size=n, max_size=n, unique=True))
        scores = sorted(data.draw(st.lists(st.sampled_from(ORACLE_SCORES), min_size=n,
                                           max_size=n)), reverse=True)
        lists.append((list(zip(videos, scores)), data.draw(st.booleans())))
    local, global_ = (RankedList.from_entries(entries, channel, normalized)
                      for (entries, normalized), channel in zip(lists, ("local", "global")))
    assert fuse(local, global_, cfg, top_n=top_n).entries == fuse_oracle(*lists, cfg, top_n)


def test_ranked_list_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        RankedList.from_entries([(1, 0.2), (2, 0.5)])
    with pytest.raises(ValueError, match="duplicate"):
        RankedList.from_entries([(1, 0.5), (1, 0.4)])


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        FusionConfig(warmup=0)

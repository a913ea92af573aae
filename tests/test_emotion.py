import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fetchguard import (
    EmotionSample,
    EvaluationError,
    Zone,
    ZoneRect,
    ZoneTable,
    default_config,
    escalate,
    validate_zone_table,
    zone_of,
)

SHIPPED_TABLE = default_config().zone_table

# Independent oracle: a literal re-statement of the shipped geometry. The
# production table must agree with a first-match scan over these rectangles.
ORACLE_RECTS = [
    ("red", -1.0, -0.5, 0.5, 1.0),
    ("orange", -1.0, -0.5, -1.0, -0.5),
    ("green", 0.0, 1.0, -1.0, 1.0),
    ("yellow", -1.0, 0.0, -1.0, 1.0),
]


def oracle_zone(v, a):
    for name, v_lo, v_hi, a_lo, a_hi in ORACLE_RECTS:
        if v_lo <= v <= v_hi and a_lo <= a <= a_hi:
            return name
    return None


in_range = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


class TestDefaultTable:
    @pytest.mark.parametrize(
        "v,a,expected",
        [
            (0.0, 0.0, Zone.GREEN),
            (-0.9, 0.9, Zone.RED),
            (-0.9, -0.9, Zone.ORANGE),
            (-0.3, 0.0, Zone.YELLOW),
        ],
    )
    def test_anchor_points(self, v, a, expected):
        assert oracle_zone(v, a) == expected.as_str()
        assert zone_of(EmotionSample(v, a), SHIPPED_TABLE) is expected

    def test_corner_anchors(self):
        assert zone_of(EmotionSample(-1.0, 1.0), SHIPPED_TABLE) is Zone.RED
        assert zone_of(EmotionSample(-1.0, -1.0), SHIPPED_TABLE) is Zone.ORANGE
        for a in (-1.0, -0.5, 0.0, 0.5, 1.0):
            assert zone_of(EmotionSample(1.0, a), SHIPPED_TABLE) is Zone.GREEN

    def test_nonnegative_valence_is_always_green(self):
        for iv in range(0, 101, 5):
            for ia in range(-100, 101, 10):
                assert zone_of(EmotionSample(iv / 100, ia / 100), SHIPPED_TABLE) is Zone.GREEN

    def test_default_table_is_total(self):
        assert validate_zone_table(SHIPPED_TABLE).ok

    @given(in_range, in_range)
    def test_matches_oracle_everywhere(self, v, a):
        got = zone_of(EmotionSample(v, a), SHIPPED_TABLE)
        assert got.as_str() == oracle_zone(v, a)


class TestValidation:
    def test_red_only_table_reports_uncovered_point(self):
        table = ZoneTable(rects=(ZoneRect(Zone.RED, -1.0, -0.5, 0.5, 1.0),))
        report = validate_zone_table(table)
        assert "uncovered-point" in report.codes()

    def test_shadowing_red_over_green_is_total_and_red_wins(self):
        table = ZoneTable(
            rects=(
                ZoneRect(Zone.RED, -1.0, 1.0, -1.0, 1.0),
                ZoneRect(Zone.GREEN, -1.0, 1.0, -1.0, 1.0),
            )
        )
        assert validate_zone_table(table).ok
        assert zone_of(EmotionSample(0.5, 0.5), table) is Zone.RED

    def test_inverted_interval_reported(self):
        table = ZoneTable(rects=(ZoneRect(Zone.RED, 0.5, -0.5, -1.0, 1.0),))
        assert "inverted-interval" in validate_zone_table(table).codes()

    def test_out_of_bounds_interval_reported(self):
        table = ZoneTable(rects=(ZoneRect(Zone.GREEN, -1.5, 1.0, -1.0, 1.0),))
        assert validate_zone_table(table).codes() == {"out-of-bounds"}

    def test_priority_matters_only_inside_the_overlap(self):
        red_first = ZoneTable(
            rects=(
                ZoneRect(Zone.RED, -1.0, 0.0, -1.0, 1.0),
                ZoneRect(Zone.GREEN, -0.5, 1.0, -1.0, 1.0),
            )
        )
        green_first = ZoneTable(rects=tuple(reversed(red_first.rects)))
        for iv in range(-100, 101, 4):
            for ia in range(-100, 101, 8):
                v, a = iv / 100, ia / 100
                first = zone_of(EmotionSample(v, a), red_first)
                second = zone_of(EmotionSample(v, a), green_first)
                in_overlap = -0.5 <= v <= 0.0
                if not in_overlap:
                    assert first is second
                else:
                    assert first is Zone.RED and second is Zone.GREEN

    def test_gap_narrower_than_a_sweep_step_is_reported(self):
        # Green from v = 0.005 and Yellow up to v = 0 leave (0, 0.005) uncovered.
        table = ZoneTable(
            rects=(
                ZoneRect(Zone.GREEN, 0.005, 1.0, -1.0, 1.0),
                ZoneRect(Zone.YELLOW, -1.0, 0.0, -1.0, 1.0),
            )
        )
        with pytest.raises(EvaluationError):
            zone_of(EmotionSample(0.002, 0.0), table)
        report = validate_zone_table(table)
        assert report.codes() == {"uncovered-point"}
        assert "no zone covers (v=0.0025, a=-1.0)" in report.render()

    def test_hole_raises_naming_the_point(self):
        table = ZoneTable(rects=(ZoneRect(Zone.GREEN, 0.0, 1.0, -1.0, 1.0),))
        with pytest.raises(EvaluationError, match="-0.7"):
            zone_of(EmotionSample(-0.7, 0.1), table)


@st.composite
def grid_tables(draw):
    """Tables cut from a grid of cells covering the square, with some cells
    narrowed or dropped, so that both total tables and thin gaps occur."""
    cuts = st.lists(in_range, max_size=2)
    vs = sorted({-1.0, 1.0, *draw(cuts)})
    as_ = sorted({-1.0, 1.0, *draw(cuts)})
    rects = []
    for v_lo, v_hi in zip(vs, vs[1:]):
        for a_lo, a_hi in zip(as_, as_[1:]):
            if draw(st.integers(0, 9)) == 0:
                continue
            shrink = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3, 4e-3]))
            zone = draw(st.sampled_from(list(Zone)))
            rects.append(ZoneRect(zone, min(v_lo + shrink, v_hi), v_hi, a_lo, a_hi))
    return ZoneTable(rects=tuple(rects))


class TestTotalityProperty:
    @given(grid_tables(), st.data())
    def test_a_table_that_validates_clean_is_total(self, table, data):
        if not validate_zone_table(table).ok:
            return
        bounds = [b for r in table.rects for b in (r.v_lo, r.v_hi, r.a_lo, r.a_hi)]
        near_bound = st.builds(
            lambda b, d: min(1.0, max(-1.0, b + d)),
            st.sampled_from(bounds),
            st.floats(-0.01, 0.01),
        )
        point = st.one_of(in_range, near_bound)
        for _ in range(20):
            zone_of(EmotionSample(data.draw(point), data.draw(point)), table)

    @given(in_range, in_range)
    def test_every_sample_gets_a_zone(self, v, a):
        assert zone_of(EmotionSample(v, a), SHIPPED_TABLE) in set(Zone)

    def test_ten_thousand_uniform_samples_all_classify(self):
        import random

        rng = random.Random(31415)
        for _ in range(10_000):
            sample = EmotionSample(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert zone_of(sample, SHIPPED_TABLE) in set(Zone)


class TestClamping:
    def test_in_range_samples_untouched(self):
        sample, changed = EmotionSample(0.3, -0.2).clamped()
        assert not changed
        assert (sample.valence, sample.arousal) == (0.3, -0.2)

    def test_out_of_range_clamps_to_boundary(self):
        sample, changed = EmotionSample(1.7, -3.0).clamped()
        assert changed
        assert (sample.valence, sample.arousal) == (1.0, -1.0)

    def test_nan_clamps_to_most_cautious_corner(self):
        sample, changed = EmotionSample(math.nan, math.nan).clamped()
        assert changed
        assert (sample.valence, sample.arousal) == (-1.0, 1.0)
        assert zone_of(sample, SHIPPED_TABLE) is Zone.RED

    def test_infinities_clamp_by_sign(self):
        sample, changed = EmotionSample(math.inf, -math.inf).clamped()
        assert changed
        assert (sample.valence, sample.arousal) == (1.0, -1.0)

    @pytest.mark.parametrize("big", [10**400, 2**1024], ids=["10**400", "2**1024"])
    def test_ints_beyond_float_range_clamp_by_sign(self, big):
        sample, changed = EmotionSample(big, -big).clamped()
        assert changed
        assert (sample.valence, sample.arousal) == (1.0, -1.0)


def rebuilding_clamped(sample):
    """clamped() as it was before an in-range sample came back as itself:
    the sample is always rebuilt."""
    v = -1.0 if math.isnan(sample.valence) else min(1.0, max(-1.0, sample.valence))
    a = 1.0 if math.isnan(sample.arousal) else min(1.0, max(-1.0, sample.arousal))
    return EmotionSample(v, a), not (v == sample.valence and a == sample.arousal)


IN_RANGE = [(1, 0), (-1, 0), (0, 0), (0.5, -0.25)]


class TestInRangeSamples:
    @pytest.mark.parametrize("v, a", IN_RANGE)
    def test_values_and_types_match_the_rebuilding_reference(self, v, a):
        sample, changed = EmotionSample(v, a).clamped()
        expected, expected_changed = rebuilding_clamped(EmotionSample(v, a))
        assert changed is expected_changed is False
        assert [(x, type(x)) for x in (sample.valence, sample.arousal)] == [
            (x, type(x)) for x in (expected.valence, expected.arousal)
        ]

    @pytest.mark.parametrize("v, expected", [(1, 1.0), (-1, -1.0)])
    def test_an_int_bound_still_becomes_a_float(self, v, expected):
        sample, changed = EmotionSample(v, 0).clamped()
        assert not changed
        assert type(sample.valence) is float and sample.valence == expected

    @pytest.mark.parametrize("v, a", [(0, 0), (0.5, -0.25), (-0.75, 0.75)])
    def test_a_sample_holding_its_clamped_values_is_returned_itself(self, v, a):
        sample = EmotionSample(v, a)
        assert sample.clamped()[0] is sample


class TestEscalation:
    def test_single_steps(self):
        assert escalate(Zone.GREEN, 1) is Zone.YELLOW
        assert escalate(Zone.YELLOW, 1) is Zone.ORANGE
        assert escalate(Zone.ORANGE, 1) is Zone.RED

    def test_saturates_at_red(self):
        assert escalate(Zone.RED, 1) is Zone.RED
        assert escalate(Zone.GREEN, 9) is Zone.RED

    def test_zero_steps_is_identity(self):
        for zone in Zone:
            assert escalate(zone, 0) is zone

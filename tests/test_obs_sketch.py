"""Property tests of the mergeable histograms.

The contract under test (see :mod:`repro.obs.sketch`): ``merge()`` is
associative and commutative — any grouping of the same shards yields
the same histogram — quantile estimates are within one bin width of
exact ``np.percentile``, and histogram views are invariant under how
the value stream was split into shards.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fleet import FleetAggregate
from repro.fleet.result import NodeSummary
from repro.obs.sketch import CounterBag, FixedHistogram

UNIT_FLOATS = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


def hist_of(values, bins=16):
    return FixedHistogram.linear(0.0, 1.0, bins).add_many(values)


def assert_hist_equal(a: FixedHistogram, b: FixedHistogram):
    assert np.array_equal(a.counts, b.counts)
    assert a.count == b.count
    assert a.min == b.min and a.max == b.max


class TestCounterBag:
    def test_inc_and_lookup(self):
        bag = CounterBag()
        bag.inc("a")
        bag.inc("a", 2)
        bag.inc("b", 0.5)
        assert bag["a"] == 3
        assert bag["b"] == 0.5
        assert bag["missing"] == 0
        assert bag.items() == [("a", 3), ("b", 0.5)]


class TestFixedHistogram:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            FixedHistogram([1.0])
        with pytest.raises(ValueError):
            FixedHistogram([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            FixedHistogram.linear(0.0, 1.0, 0)

    def test_binning_matches_numpy(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 1.0, size=500)
        values[:3] = (0.0, 0.5, 1.0)  # boundary values incl. top edge
        hist = hist_of(values, bins=10)
        expected, _ = np.histogram(values, bins=10, range=(0.0, 1.0))
        assert np.array_equal(hist.counts, expected)
        assert hist.count == 500

    def test_out_of_range_clamped_but_min_max_exact(self):
        hist = hist_of([-0.5, 1.5, 0.5], bins=4)
        assert hist.counts[0] == 1 and hist.counts[-1] == 1
        assert hist.min == -0.5 and hist.max == 1.5

    def test_merge_requires_same_edges(self):
        with pytest.raises(ValueError):
            hist_of([0.1], bins=4).merge(hist_of([0.1], bins=8))
        with pytest.raises(TypeError):
            hist_of([0.1]).merge(CounterBag())

    def test_downsample_matches_numpy(self):
        rng = np.random.default_rng(6)
        values = rng.uniform(0.0, 1.0, size=300)
        hist = hist_of(values, bins=100)
        for bins in (2, 4, 5, 10, 20, 25, 50, 100):
            counts, edges = hist.downsample(bins)
            expected, exp_edges = np.histogram(
                values, bins=bins, range=(0.0, 1.0)
            )
            assert counts == expected.tolist()
            assert edges == pytest.approx(exp_edges.tolist())
        with pytest.raises(ValueError):
            hist.downsample(3)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            hist_of([]).quantile(0.5)
        with pytest.raises(ValueError):
            hist_of([0.5]).quantile(1.5)

    @given(
        st.lists(UNIT_FLOATS, max_size=40),
        st.lists(UNIT_FLOATS, max_size=40),
        st.lists(UNIT_FLOATS, max_size=40),
    )
    def test_merge_associative_commutative(self, xs, ys, zs):
        a, b, c = hist_of(xs), hist_of(ys), hist_of(zs)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        swapped = c.merge(b).merge(a)
        assert_hist_equal(left, right)
        assert_hist_equal(left, swapped)

    @given(
        values=st.lists(UNIT_FLOATS, min_size=1, max_size=120),
        q=st.floats(0.0, 1.0, allow_nan=False),
    )
    def test_quantile_error_bounded_by_bin_width(self, values, q):
        hist = hist_of(values, bins=16)
        estimate = hist.quantile(q)
        # The documented bound is vs the nearest-rank sample
        # sorted(values)[floor(q * (n - 1))], not the interpolated
        # percentile — with two samples {0, 1} the interpolated median
        # falls in an empty bin no histogram sketch could point at.
        # Computed from q directly: numpy's percentile path (100 * q,
        # then / 100) can round the rank across an integer, e.g.
        # q = 0.3333333333333333 with n = 4 picks rank 0, not 1.
        exact = sorted(values)[math.floor(q * (len(values) - 1))]
        assert abs(estimate - exact) <= hist.bin_width + 1e-12
        assert hist.min <= estimate <= hist.max

    @given(values=st.lists(UNIT_FLOATS, min_size=1, max_size=80))
    def test_quantile_monotone_in_q(self, values):
        hist = hist_of(values, bins=8)
        qs = np.linspace(0.0, 1.0, 21)
        estimates = [hist.quantile(q) for q in qs]
        assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))

    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        values=st.lists(UNIT_FLOATS, min_size=2, max_size=100),
        split=st.data(),
    )
    def test_shard_split_invariance(self, values, split):
        """Any sharding of the same stream folds to the same histogram."""
        cut = split.draw(st.integers(0, len(values)))
        whole = hist_of(values, bins=20)
        parts = hist_of(values[:cut], bins=20).merge(
            hist_of(values[cut:], bins=20)
        )
        assert_hist_equal(whole, parts)
        for bins in (4, 10, 20):
            assert whole.downsample(bins) == parts.downsample(bins)


# ----------------------------------------------------------------------
# FleetAggregate rides the same contract
# ----------------------------------------------------------------------
def make_node(node_id: int, dmr: float, policy: str = "asap") -> NodeSummary:
    return NodeSummary(
        node_id=node_id,
        graph_kind="wam",
        policy=policy,
        num_tasks=4,
        panel_scale=1.0,
        bank_farads=(2.0, 5.0),
        dmr=float(dmr),
        energy_utilization=min(1.0, float(dmr) / 2 + 0.25),
        migration_efficiency=0.9,
        brownout_slots=int(dmr * 10),
        solar_energy=100.0,
        load_energy=60.0,
        fingerprint=f"fp-{node_id}",
    )


class TestFleetAggregateMerge:
    @settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        dmrs=st.lists(UNIT_FLOATS, min_size=3, max_size=30),
        cuts=st.data(),
    )
    def test_any_grouping_same_aggregate(self, dmrs, cuts):
        nodes = [
            make_node(i, d, policy=("asap" if i % 2 else "random"))
            for i, d in enumerate(dmrs)
        ]
        i = cuts.draw(st.integers(1, len(nodes) - 1))
        j = cuts.draw(st.integers(i, len(nodes)))
        a = FleetAggregate.from_nodes(nodes[:i])
        b = FleetAggregate.from_nodes(nodes[i:j])
        c = FleetAggregate.from_nodes(nodes[j:])
        whole = FleetAggregate.from_nodes(nodes)
        shards = [s for s in (a, b, c) if s.n_nodes]
        left = shards[0]
        for s in shards[1:]:
            left = left.merge(s)
        right = shards[-1]
        for s in reversed(shards[:-1]):
            right = right.merge(s)
        # from_nodes fills each histogram in one call; it must bin
        # every node exactly as a one-value add would.
        one_by_one = FleetAggregate()
        for node in nodes:
            one_by_one.dmr.add_many([node.dmr])
            one_by_one.util.add_many([node.energy_utilization])
        for folded in (left, right, one_by_one):
            assert folded.n_nodes == whole.n_nodes == len(nodes)
            assert_hist_equal(folded.dmr, whole.dmr)
            assert_hist_equal(folded.util, whole.util)
            assert folded.dmr.percentiles() == whole.dmr.percentiles()


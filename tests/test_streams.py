import numpy as np
import pytest

from deeptest.streams import RandomStream, derive_seed


class TestReplay:
    def test_same_descriptor_replays_bit_identically(self):
        s = RandomStream(seed=20260815, stream_id=7)
        a = s.generator().random(1000)
        b = s.generator().random(1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        s0 = RandomStream(seed=1, stream_id=0)
        s1 = RandomStream(seed=1, stream_id=1)
        assert not np.array_equal(s0.generator().random(100), s1.generator().random(100))

    def test_children_are_distinct_and_deterministic(self):
        root = RandomStream(seed=42)
        kids = [root.child(i) for i in range(64)]
        ids = {k.stream_id for k in kids}
        assert len(ids) == 64
        again = [RandomStream(seed=42).child(i) for i in range(64)]
        assert kids == again

    def test_nested_children_do_not_collide(self):
        root = RandomStream(seed=99)
        seen = set()
        for i in range(40):
            for j in range(40):
                seen.add(root.child(i).child(j).stream_id)
        assert len(seen) == 1600


class TestIndependence:
    def test_child_streams_uncorrelated(self):
        # Correlation between sibling substreams should be MC noise only.
        root = RandomStream(seed=7)
        x = root.child(0).generator().standard_normal(200_000)
        y = root.child(1).generator().standard_normal(200_000)
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 4.0 / np.sqrt(200_000), f"substream correlation {r}"


class TestValidation:
    def test_seed_range_enforced(self):
        with pytest.raises(ValueError):
            RandomStream(seed=-1)
        with pytest.raises(ValueError):
            RandomStream(seed=1 << 64)

    def test_negative_child_index_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(seed=1).child(-3)

    def test_derive_seed_is_stable_64bit(self):
        s = RandomStream(seed=123, stream_id=456)
        d1 = derive_seed(s)
        d2 = derive_seed(s)
        assert d1 == d2
        assert 0 <= d1 < (1 << 64)
        assert derive_seed(RandomStream(seed=123, stream_id=457)) != d1

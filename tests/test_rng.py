import pytest

from widthlab import SplitMix64


class TestSplitMix64:
    def test_empty_ranges_rejected(self):
        rng = SplitMix64(1)
        with pytest.raises(ValueError, match="^randbelow requires n >= 1$"):
            rng.randbelow(0)
        with pytest.raises(ValueError, match=r"^cannot sample 4 indices from range\(3\)$"):
            rng.sample_indices(3, 4)
        assert rng.sample_indices(3, 3) == (0, 1, 2)

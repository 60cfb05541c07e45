from random import Random

import pytest

from localekit.common import pack_rows, unpack_rows


@pytest.mark.parametrize("n", [0, 1, 8, 64, 65, 130])
def test_pack_unpack_round_trip(n):
    rng = Random(n)
    masks = (0, (1 << n) - 1) + tuple(rng.getrandbits(n) for _ in range(20))
    rows = unpack_rows(iter(masks), n)
    assert rows.shape == (len(masks), n) and rows.dtype == bool
    assert rows.tolist() == [[bool(m >> k & 1) for k in range(n)] for m in masks]
    assert pack_rows(rows) == masks
    assert unpack_rows((), n).shape == (0, n)

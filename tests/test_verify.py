"""Every registered verification check, one item each, at full grids.

The checks and their grids live only in ``hypvol.verify``; a check
registered there with ``@_check`` runs here and in ``hypvol verify``.
"""

import pytest

from hypvol import verify


@pytest.mark.parametrize("check_id,fn", verify._REGISTRY, ids=[cid for cid, _ in verify._REGISTRY])
def test_registered_check(check_id, fn):
    passed, detail = fn(quick=False)
    assert passed, f"{check_id}: {detail}"

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


@pytest.mark.parametrize("name", ["integrate_finite", "integrate_real_line"])
def test_error_bounds_check_catches_dropped_bars(monkeypatch, name):
    # every estimate of one integrator a millionth of what quad reports: some
    # closed-form case's true error then exceeds its bar by more than the slack
    integrate = getattr(verify.quad, name)

    def shrunk(*args, **kwargs):
        res = integrate(*args, **kwargs)
        res.abs_err_est /= 1e6
        return res

    monkeypatch.setattr(verify.quad, name, shrunk)
    passed, detail = dict(verify._REGISTRY)["quad.error-estimate-bounds"](quick=False)
    assert not passed, detail
    assert "estimate too small" in detail

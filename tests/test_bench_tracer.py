"""The benchmark tracer wraps package names by attribute; a rename must fail here."""

import sys
from pathlib import Path

from risgeo import deployment, spatial_rate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_install_finds_and_uninstall_restores_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    t = tracer.Tracer()
    try:
        t.install()
        patched = list(t._patches)
    finally:
        t.uninstall()
    assert t._patches == []
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"
    names = {(owner, attr) for owner, attr, _ in patched}
    for owner, attr in (
        (deployment, "exp_integral_ei"),
        (deployment, "lower_incomplete_gamma"),
        (spatial_rate, "exp_integral_ei"),
        (spatial_rate, "lower_incomplete_gamma"),
        (deployment, "deployment_objective"),
    ):
        assert (owner, attr) in names

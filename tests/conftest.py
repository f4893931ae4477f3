import pathlib
from fractions import Fraction

import pytest

from dpcst import gw
from dpcst.instance import parse_instance
from dpcst.verify import MoatLedger

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def example11_text() -> str:
    return (DATA / "example11.pcst").read_text()


@pytest.fixture(scope="session")
def example11(example11_text):
    return parse_instance(example11_text)


def check_invariants(inst, lg: MoatLedger):
    mismatch = lg.check_identities()
    assert mismatch is None, mismatch
    for (u, v), w in inst.weights.items():
        cut = sum((y for s, y in lg.y.items() if (u in s) != (v in s)), Fraction(0))
        assert cut <= w, f"edge {(u, v)} overgrown"
        if lg.find(u) != lg.find(v):
            # distinct components never shared a moat, so the cut sum is
            # exactly the deficit sum there
            assert cut == lg.d[u] + lg.d[v]
    assert not lg.active[lg.find(inst.root)], "root component must stay inactive"


@pytest.fixture
def checked_gw_grow(monkeypatch):
    """gw.gw_grow that runs check_invariants after every iteration: each
    one ends in exactly one ledger union or deactivation."""

    def grow(inst) -> MoatLedger:
        class CheckedLedger(MoatLedger):
            def union(self, u, v):
                super().union(u, v)
                check_invariants(inst, self)

            def deactivate(self, v):
                super().deactivate(v)
                check_invariants(inst, self)

        with monkeypatch.context() as patch:
            patch.setattr(gw, "MoatLedger", CheckedLedger)
            return gw.gw_grow(inst)

    return grow

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


def check_identities(lg: MoatLedger):
    """Every node is a member of its root's component, and every deficit,
    resp. component weight, equals its covering, resp. inner, moat sum, with
    every moat summed again."""
    covering = dict.fromkeys(lg.d, Fraction(0))
    inner = dict.fromkeys(lg.members, Fraction(0))
    for s, y in lg.y.items():
        for v in s:
            covering[v] += y
        r = lg.root_of[next(iter(s))]
        if s <= lg.members[r]:
            inner[r] += y
    for v, d in lg.d.items():
        assert v in lg.members.get(lg.root_of[v], ()), f"node {v} outside its root's component"
        assert d == covering[v], f"node {v} deficit {d} != moat sum {covering[v]}"
    for r, members in lg.members.items():
        assert lg.w[r] == inner[r], f"component of {min(members)} weight {lg.w[r]} != moat sum {inner[r]}"


def check_invariants(inst, lg: MoatLedger):
    check_identities(lg)
    for (u, v), w in inst.weights.items():
        cut = sum((y for s, y in lg.y.items() if (u in s) != (v in s)), Fraction(0))
        assert cut <= w, f"edge {(u, v)} overgrown"
        if lg.root_of[u] != lg.root_of[v]:
            # distinct components never shared a moat, so the cut sum is
            # exactly the deficit sum there
            assert cut == lg.d[u] + lg.d[v]
    assert not lg.active[lg.root_of[inst.root]], "root component must stay inactive"


def checking_ledger(check):
    """A MoatLedger that calls check(ledger) after every union and
    deactivation: each iteration of gw ends in exactly one of them."""

    class CheckedLedger(MoatLedger):
        def union(self, u, v):
            super().union(u, v)
            check(self)

        def deactivate(self, v):
            super().deactivate(v)
            check(self)

    return CheckedLedger


@pytest.fixture
def checked_gw_grow(monkeypatch):
    """gw.gw_grow that runs check_invariants after every iteration."""

    def grow(inst) -> MoatLedger:
        with monkeypatch.context() as patch:
            patch.setattr(gw, "MoatLedger", checking_ledger(lambda lg: check_invariants(inst, lg)))
            return gw.gw_grow(inst)

    return grow

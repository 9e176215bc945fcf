"""The contract of the package's value classes: one instance of each prints,
compares, hashes, refuses assignment and pickles as a frozen record of its
fields; ValidationRecord alone is mutable and unhashable."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction as F

import pytest

from tropsdp.hypergraphs import Certificate, Circulation, Edge, Hypergraph, Witness
from tropsdp.oracle import PuiseuxPencil, ValidationRecord
from tropsdp.pencils import SigmaChoice, TropicalPencil
from tropsdp.puiseux import PuiseuxPoly, PuiseuxSymMatrix
from tropsdp.signed import SignedTrop, neg, pos

POLY = PuiseuxPoly(((F(1), F(2)), (F(0), F(-1))))
SYM = PuiseuxSymMatrix(((POLY,),))

#: name -> (a factory of equal instances, the field names, the repr)
VALUES = {
    "SignedTrop": (lambda: pos(F(1, 2)), ("sign", "value"), "SignedTrop('+1/2')"),
    "TropicalPencil": (
        lambda: TropicalPencil.from_rows(1, 2, [[[pos(0)]], [[neg(1)]]]),
        ("m", "n", "matrices"),
        "TropicalPencil(m=1, n=2, matrices=(((SignedTrop('+0'),),), ((SignedTrop('-1'),),)))"),
    "SigmaChoice": (
        lambda: SigmaChoice.make(3, [(0, 1)], {(1, 2): "<=", (0, 2): ">="}),
        ("m", "sigma", "diamond"),
        "SigmaChoice(m=3, sigma=frozenset({(0, 1)}), diamond=(((0, 2), '>='), ((1, 2), '<=')))"),
    "Edge": (lambda: Edge((0, 1), 2), ("tails", "head"), "Edge(tails=(0, 1), head=2)"),
    "Hypergraph": (lambda: Hypergraph(2, (Edge((0,), 1),)), ("n_vertices", "edges"),
                   "Hypergraph(n_vertices=2, edges=(Edge(tails=(0,), head=1),))"),
    "Circulation": (lambda: Circulation((F(1, 2), F(1, 2))), ("gamma",),
                    "Circulation(gamma=(Fraction(1, 2), Fraction(1, 2)))"),
    "Certificate": (Certificate, (), "Certificate()"),
    "Witness": (
        lambda: Witness((F(0),), (Edge((0,), 0),), (F(1),), frozenset({(0, 1)}),
                        (((0, 2), ">="),), (0,)),
        ("x", "edges", "gamma", "sigma", "diamond", "stratum"),
        "Witness(x=(Fraction(0, 1),), edges=(Edge(tails=(0,), head=0),), "
        "gamma=(Fraction(1, 1),), sigma=frozenset({(0, 1)}), diamond=(((0, 2), '>='),), "
        "stratum=(0,))"),
    "PuiseuxPoly": (lambda: PuiseuxPoly(POLY.terms), ("terms",),
                    "PuiseuxPoly(terms=((Fraction(1, 1), Fraction(2, 1)), "
                    "(Fraction(0, 1), Fraction(-1, 1))))"),
    "PuiseuxSymMatrix": (lambda: PuiseuxSymMatrix(((POLY,),)), ("entries",),
                         f"PuiseuxSymMatrix(entries=(({POLY!r},),))"),
    "PuiseuxPencil": (lambda: PuiseuxPencil(1, 1, (SYM,)), ("m", "n", "matrices"),
                      f"PuiseuxPencil(m=1, n=1, matrices=({SYM!r},))"),
    "ValidationRecord": (
        lambda: ValidationRecord(x=(F(0),), member=True),
        ("x", "member", "sout", "sin", "psd", "ok", "failures"),
        "ValidationRecord(x=(Fraction(0, 1),), member=True, sout=None, sin=None, "
        "psd=None, ok=True, failures=[])"),
}
NAMES = list(VALUES)


@pytest.mark.parametrize("name", NAMES)
def test_value_class_contract(name):
    make, fields, text = VALUES[name]
    obj = make()
    assert type(obj).__name__ == name
    assert repr(obj) == text
    assert obj == make() and not obj != make()
    other = VALUES[NAMES[NAMES.index(name) - 1]][0]()
    assert obj.__eq__(other) is NotImplemented and obj != other
    values = tuple(getattr(obj, f) for f in fields)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is type(obj) and clone == obj
        assert tuple(getattr(clone, f) for f in fields) == values
    if name == "ValidationRecord":
        with pytest.raises(TypeError):
            hash(obj)
        assert obj.failures is not make().failures
        obj.fail("x")
        assert obj.failures == ["x"] and not obj.ok and make().failures == []
        return
    assert hash(obj) == hash(values)
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError) as info:
            setattr(obj, field, None)
        assert str(info.value) == f"cannot assign to field {field!r}"
        with pytest.raises(AttributeError) as info:
            delattr(obj, field)
        assert str(info.value) == f"cannot delete field {field!r}"
    assert tuple(getattr(obj, f) for f in fields) == values

"""Every input-shape refusal of the library, with its exception type and its
exact text: the coordinate and matrix counts, multi-indices, evaluation
parts, finite-point rules, signed tropical numbers, pencil and matrix
shapes, (sigma, diamond) choices, supports, index sets and edges."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from conftest import FIXTURES
from tropsdp.hypergraphs import Edge, build_tangent_hypergraph
from tropsdp.oracle import PuiseuxPencil, evaluate_pencil
from tropsdp.pencils import (
    SigmaChoice,
    TropicalPencil,
    decompose,
    load_pencil,
    metzler_strict_member,
    stratum_restrict,
)
from tropsdp.polynomials import TropPoly, argmax, eval_part, evaluate
from tropsdp.puiseux import PuiseuxPoly as P, PuiseuxSymMatrix, SeriesPolynomial, principal_minor
from tropsdp.signed import MINUS_INF, TROP_MINUS_INF, SignedTrop, neg, pos

LINE = load_pencil(FIXTURES / "line_pencil.json")[0]  # 4 x 4 Metzler, n = 3
QUAD = load_pencil(FIXTURES / "quadrant_ray.json")[0]  # 2 x 2, n = 3
POLY = TropPoly(2, {(1, 0): pos(1), (0, 1): neg(0)})
ONE = P.constant(1)
SERIES = SeriesPolynomial(2, {(1, 0): ONE, (0, 1): P.t_power(1)})
SYM1 = PuiseuxSymMatrix.from_rows([[ONE]])
SYM2 = PuiseuxSymMatrix.from_rows([[ONE, P.zero()], [P.zero(), ONE]])
SERIES_PENCIL = PuiseuxPencil(2, 2, (SYM2, SYM2))
A, B = pos(0), neg(1)


REFUSALS = {
    "eval_part count": (lambda: eval_part(POLY, "+", (F(0),)),
                        ValueError, "expected 2 coordinates, got 1"),
    "evaluate count": (lambda: evaluate(POLY, (pos(0), pos(0), pos(0))),
                       ValueError, "expected 2 coordinates, got 3"),
    "argmax count": (lambda: argmax(POLY, (F(0),)), ValueError, "expected 2 coordinates, got 1"),
    "series evaluate count": (lambda: SERIES.evaluate((ONE,)),
                              ValueError, "expected 2 coordinates, got 1"),
    "evaluate_pencil count": (lambda: evaluate_pencil(SERIES_PENCIL, (ONE, ONE, ONE)),
                              ValueError, "expected 2 coordinates, got 3"),
    "tangent count": (lambda: build_tangent_hypergraph(LINE, (F(0), F(0))),
                      ValueError, "expected 3 coordinates, got 2"),
    "TropPoly index length": (lambda: TropPoly(2, {(1,): pos(0)}),
                              ValueError, "bad multi-index (1,) for 2 variables"),
    "TropPoly negative index": (lambda: TropPoly(1, {(-1,): pos(0)}),
                                ValueError, "bad multi-index (-1,) for 1 variables"),
    "series index length": (lambda: SeriesPolynomial(1, {(0, 1): ONE}),
                            ValueError, "bad multi-index (0, 1) for 1 variables"),
    "series negative index": (lambda: SeriesPolynomial(2, {(0, -2): ONE}),
                              ValueError, "bad multi-index (0, -2) for 2 variables"),
    "eval_part part": (lambda: eval_part(POLY, "*", (F(0), F(0))),
                       ValueError, "part must be '+' or '-', got '*'"),
    "argmax at -inf": (lambda: argmax(POLY, (F(0), MINUS_INF)),
                       ValueError, "argmax is defined at finite points only"),
    "strict member at -inf": (lambda: metzler_strict_member(LINE, (F(0), MINUS_INF, F(0))),
                              ValueError, "strict membership is defined for finite points only"),
    "TropicalPencil count": (lambda: TropicalPencil(1, 2, (((A,),),)),
                             ValueError, "expected 2 matrices, got 1"),
    "TropicalPencil dimension": (lambda: TropicalPencil(2, 1, (((A,),),)),
                                 ValueError, "matrix dimension mismatch"),
    "TropicalPencil ragged row": (lambda: TropicalPencil(2, 1, (((A, B), (B,)),)),
                                  ValueError, "matrix dimension mismatch"),
    "TropicalPencil asymmetric": (lambda: TropicalPencil(2, 1, (((A, B), (TROP_MINUS_INF, A)),)),
                                  ValueError, "matrix not symmetric at (1,0)"),
    "TropicalPencil asymmetric last pair": (
        lambda: TropicalPencil(3, 1, (((A, B, A), (B, A, B), (A, A, A)),)),
        ValueError, "matrix not symmetric at (2,1)"),
    "PuiseuxPencil count": (lambda: PuiseuxPencil(2, 2, (SYM2,)),
                            ValueError, "expected 2 matrices, got 1"),
    "PuiseuxPencil dimension": (lambda: PuiseuxPencil(2, 2, (SYM2, SYM1)),
                                ValueError, "matrix dimension mismatch"),
    "PuiseuxSymMatrix not square": (lambda: PuiseuxSymMatrix.from_rows([[ONE, ONE]]),
                                    ValueError, "matrix is not square"),
    "SignedTrop sign": (lambda: SignedTrop(2, F(0)),
                        ValueError, "sign must be -1, 0 or +1, got 2"),
    "SignedTrop finite bottom": (lambda: SignedTrop(0, F(0)),
                                 ValueError, "the bottom element has no finite value"),
    "SignedTrop int value": (lambda: SignedTrop(1, 1),
                             ValueError, "finite value must be a Fraction, got 1"),
    "SigmaChoice overlap": (lambda: SigmaChoice(2, frozenset({(0, 1)}), (((0, 1), ">="),)),
                            ValueError, "sigma and diamond must partition the strict upper triangle"),
    "SigmaChoice pair out of range": (lambda: SigmaChoice(2, frozenset({(0, 2)}), ()),
                                      ValueError, "pair out of range"),
    "SigmaChoice direction": (lambda: SigmaChoice(2, frozenset(), (((0, 1), ">"),)),
                              ValueError, "directions must be '>=' or '<='"),
    "SigmaChoice unsorted diamond": (
        lambda: SigmaChoice(3, frozenset({(0, 1)}), (((1, 2), ">="), ((0, 2), "<="))),
        ValueError, "diamond pairs must be sorted"),
    "decompose other m": (lambda: decompose(QUAD, SigmaChoice.make(3, [(0, 1), (0, 2), (1, 2)], {})),
                          ValueError, "choice built for a different dimension"),
    "stratum_restrict empty": (lambda: stratum_restrict(QUAD, []),
                               ValueError, "support must be nonempty"),
    "stratum_restrict out of range": (lambda: stratum_restrict(QUAD, [0, 3]),
                                      ValueError, "support [0, 3] out of range for n = 3"),
    "principal_minor empty": (lambda: principal_minor(SYM2, []),
                              ValueError, "index set must be nonempty"),
    "principal_minor out of range": (lambda: principal_minor(SYM2, [0, 2]),
                                     ValueError, "index set (0, 2) out of range for dimension 2"),
    "Edge three tails": (lambda: Edge((0, 1, 2), 0), ValueError, "an edge has one or two tails"),
    "Edge unsorted tails": (lambda: Edge((1, 0), 0), ValueError, "tails must be sorted"),
}


@pytest.mark.parametrize("call, kind, text", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_type_and_text(call, kind, text):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == text

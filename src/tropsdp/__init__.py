"""Exact arithmetic for tropical spectrahedra.

Signed max-plus numbers and polynomials, Puiseux-polynomial ground truth,
pencil membership predicates, tangent-hypergraph genericity certificates,
and grid cross-validation against an exact PSD oracle.

`import tropsdp` loads no submodule: each public name below is imported
from the module that defines it on first access (PEP 562), so a caller
pays only for the layers it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names of each submodule.
_EXPORTS = {
    "errors": """CertificateCheckFailed CirculationExists DimensionTooLarge
        NotCertified NotMetzler OppositeSigns PencilFormatError""",
    "signed": """MINUS_INF SignedTrop TROP_MINUS_INF format_signed modulus neg
        parse_signed pos tadd tmul""",
    "puiseux": """PuiseuxPoly PuiseuxSymMatrix SeriesPolynomial is_psd
        principal_minor sign_of sval val""",
    "polynomials": "VANISHES TropPoly argmax eval_part evaluate tropicalize",
    "pencils": """SigmaChoice TropicalPencil check_assumption_nondeg decompose
        enumerate_choices general_member grid_axis homogenize load_pencil
        metzler_member metzler_strict_member pencil_from_obj pencil_to_obj
        qij_poly slice_members stratum_restrict""",
    "hypergraphs": """Certificate Circulation Edge Hypergraph Witness
        build_tangent_hypergraph certify_generic_general farkas_direction
        find_circulation perturb_to_interior result_to_obj""",
    "oracle": """PuiseuxPencil SandwichVerdict canonical_lift cross_validate
        default_grid entrywise_lift evaluate_pencil grid_points monomial_lift
        psd_member sin_member sout_member sval_pencil valuation_sandwich_check""",
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})

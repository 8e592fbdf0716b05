"""Exact-rational toolkit for global log canonical thresholds: a toric
engine working on fan data, closed-form threshold formulas, and a database
covering the 105 deformation families of smooth Fano threefolds."""

from .database import (CrossCheckReport, Database, FamilyId, FamilyRecord,
                       FanCheck, LctStatus, cross_check_toric, export_table,
                       import_table, load_builtin, lookup, query)
from .errors import (DegenerateSubdivision, EmptyPolytope, FanNotComplete,
                     GroupDoesNotPreserveFan, GroupNotClosed, InvalidId,
                     NotWellFormed, OutOfRegime, ParseError, ToolkitError,
                     Unbounded, UnknownKey, UnsupportedDescriptor)
from .formulas import (CUBIC_SINGULARITY_TYPES, DelPezzoDescriptor,
                       EquivariantLct, KNOWN_EQUIVARIANT, cubic_surface_lct,
                       del_pezzo_lct, double_cover_lct, fermat_cse,
                       hypersurface_lct, known_equivariant_lct, monomial_cse,
                       p1_product_lct, product_lct, wps_lct)
from .geometry import (HPolytope, HalfSpace, Rational, SmithDecomposition,
                       enumerate_vertices, fixed_subspace, is_bounded,
                       smith_normal_form)
from .toric import (GroupAction, RaySet, ToricLctReport,
                    bundle_lct_closed_form, check_well_formed, format_fan,
                    parse_fan, product_fan, projective_space_fan,
                    projectivized_bundle_fan, star_subdivide, toric_lct,
                    wps_fan)

__version__ = "0.1.0"

__all__ = [
    "CUBIC_SINGULARITY_TYPES", "CrossCheckReport", "Database",
    "DegenerateSubdivision", "DelPezzoDescriptor", "EmptyPolytope",
    "EquivariantLct", "FamilyId", "FamilyRecord", "FanCheck",
    "FanNotComplete", "GroupAction", "GroupDoesNotPreserveFan",
    "GroupNotClosed", "HPolytope", "HalfSpace", "InvalidId",
    "KNOWN_EQUIVARIANT", "LctStatus", "NotWellFormed", "OutOfRegime",
    "ParseError", "RaySet", "Rational", "SmithDecomposition",
    "ToolkitError", "ToricLctReport", "Unbounded", "UnknownKey",
    "UnsupportedDescriptor", "bundle_lct_closed_form", "check_well_formed",
    "cross_check_toric", "cubic_surface_lct", "del_pezzo_lct",
    "double_cover_lct", "enumerate_vertices",
    "export_table", "fermat_cse", "fixed_subspace", "format_fan",
    "hypersurface_lct", "import_table", "is_bounded",
    "known_equivariant_lct", "load_builtin", "lookup", "monomial_cse",
    "p1_product_lct", "parse_fan", "product_fan", "product_lct",
    "projective_space_fan", "projectivized_bundle_fan", "query",
    "smith_normal_form", "star_subdivide", "toric_lct", "wps_fan",
    "wps_lct",
]

"""Exact verification of higher derived brackets on graded Leibniz algebras.

The package builds the arity-i operations induced on the suspension by a
truncated deformation of a differential and checks, exhaustively on a finite
basis and in exact rational arithmetic, that they form a strong homotopy
Leibniz structure; the dual picture (a square-zero coderivation of the cofree
dual-Leibniz coalgebra) and the gauge action on deformations are verified
against the same data.
"""

from .coalgebra import (
    CoderivationSpec,
    TensorElement,
    TensorPairElement,
    check_coderivation_axiom,
    check_dual_leibniz,
    comultiply,
    evaluate_coderivation,
    hom_bracket,
    lift_coderivation,
)
from .derived import (
    DeformationFamily,
    ShLeibnizStructure,
    build_codifferential,
    build_sh_structure,
    check_codifferential,
    check_key_lemma,
    check_sh_leibniz,
    derived_bracket,
    leibniz_cohomology_check,
)
from .document import AlgebraDocument, parse_document, serialize_document
from .errors import (
    DocumentError,
    DocumentIssue,
    EngineError,
    MalformedInputError,
    MCRejectionError,
    PreconditionError,
)
from .gauge import (
    GaugeFamily,
    McElement,
    build_xi,
    check_deformation,
    check_gauge_equivalence,
    exp_xi,
    gauge_transform,
    mc_to_deformation,
)
from .graded import (
    Element,
    GradedBasis,
    Permutation,
    koszul_sign,
    shifted_degrees,
    sign_of_permutation,
    signed_unshuffles,
    unshuffles,
)
from .multiop import (
    DgLeibnizAlgebra,
    LeibnizAlgebra,
    MultiOp,
    check_derivation,
    check_differential,
    check_leibniz_identity,
    check_skewsymmetry,
    n_i_d,
    nary_bracket,
)
from .report import CheckResult, Report, render_structured, render_text
from .results import Verdict, Violation
from .runner import RunOptions, run_command

__all__ = [
    "CoderivationSpec", "TensorElement", "TensorPairElement", "check_coderivation_axiom",
    "check_dual_leibniz", "comultiply", "evaluate_coderivation", "hom_bracket",
    "lift_coderivation", "DeformationFamily", "ShLeibnizStructure", "build_codifferential",
    "build_sh_structure", "check_codifferential", "check_key_lemma", "check_sh_leibniz",
    "derived_bracket", "leibniz_cohomology_check", "AlgebraDocument", "parse_document",
    "serialize_document", "DocumentError", "DocumentIssue", "EngineError", "MalformedInputError",
    "MCRejectionError", "PreconditionError", "GaugeFamily", "McElement", "build_xi",
    "check_deformation", "check_gauge_equivalence", "exp_xi", "gauge_transform",
    "mc_to_deformation", "Element", "GradedBasis", "Permutation", "koszul_sign",
    "shifted_degrees", "sign_of_permutation", "signed_unshuffles", "unshuffles",
    "DgLeibnizAlgebra", "LeibnizAlgebra", "MultiOp", "check_derivation", "check_differential",
    "check_leibniz_identity", "check_skewsymmetry", "n_i_d", "nary_bracket", "CheckResult",
    "Report", "render_structured", "render_text", "Verdict", "Violation", "RunOptions",
    "run_command",
]

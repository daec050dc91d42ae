"""Subgroups of products of free groups: membership, rewriting, area search.

The package is organized around one family of groups: kernels of maps
from a product of free groups onto a free abelian group.  `words` and
`abelian` supply the raw material (reduced words, generator-image
homomorphisms), `kernels` the membership test and the rewriting of
kernel elements over their standard generators, `splitting` the
semidirect decomposition along the last factor, `presentations` the
minimal-area search with verifiable witnesses, `metrics` the subgroup
word metric by ball search, and `certificates` the assembled
lower-bound reports.  `cli` exposes each piece as a subcommand.

Word reduction and concatenation run in one pure-Python kernel,
`_wordops_py`; `BACKEND` names it ("python").
"""

from ._wordops_py import BACKEND
from .words import (FreeGroup, Word, WordParseError, commutator, inv, mul,
                    parse_word, reduce, substitute, to_text)
from .abelian import (BasisChange, FactorHom, NielsenMove, ab_image,
                      apply_moves, invert_moves, is_surjective,
                      normalize_basis, standard_hom)
from .kernels import (GeneratingSet, GenWord, KernelGroup, ProductElement,
                      contains, identity_element, random_kernel_element,
                      rewrite_in_generators, standard_generators, theta)
from .splitting import (SplittingData, SyllableForm, amalgam_image, in_Lk,
                        in_M, p_k, reassemble, semidirect_decompose,
                        syllable_form, theta_k)
from .presentations import (AreaResult, DehnResult, Evaluation,
                            NullExpression, Presentation, area_search,
                            dehn_function, is_null_homotopic,
                            parse_presentation, verify_null_expression)
from .metrics import (DistanceResult, DistortionRow, ambient_length,
                      distance, distance_map, distortion_table, h_family)
from .certificates import (AmalgamScenario, CertificateError,
                           CertificateReport, ToyAmalgamReport,
                           derive_null_expression, distortion_test_words,
                           letter_length, lower_bound_report,
                           pair_presentation, substitution_split, test_word,
                           toy_amalgam_check, toy_scenario)

__version__ = "0.1.0"

__all__ = [
    "BACKEND", "__version__",
    # words
    "FreeGroup", "Word", "WordParseError", "commutator", "inv", "mul",
    "parse_word", "reduce", "substitute", "to_text",
    # abelian images
    "BasisChange", "FactorHom", "NielsenMove", "ab_image", "apply_moves",
    "invert_moves", "is_surjective", "normalize_basis", "standard_hom",
    # kernel groups
    "GeneratingSet", "GenWord", "KernelGroup", "ProductElement", "contains",
    "identity_element", "random_kernel_element", "rewrite_in_generators",
    "standard_generators", "theta",
    # splitting
    "SplittingData", "SyllableForm", "amalgam_image", "in_Lk", "in_M", "p_k",
    "reassemble", "semidirect_decompose", "syllable_form", "theta_k",
    # presentations and area
    "AreaResult", "DehnResult", "Evaluation", "NullExpression",
    "Presentation", "area_search", "dehn_function", "is_null_homotopic",
    "parse_presentation", "verify_null_expression",
    # metrics
    "DistanceResult", "DistortionRow", "ambient_length", "distance",
    "distance_map", "distortion_table", "h_family",
    # certificates
    "AmalgamScenario", "CertificateError", "CertificateReport",
    "ToyAmalgamReport", "derive_null_expression", "distortion_test_words",
    "letter_length", "lower_bound_report", "pair_presentation",
    "substitution_split", "test_word", "toy_amalgam_check", "toy_scenario",
]

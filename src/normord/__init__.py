"""Exact normal ordering of boson operator words and their number triangles.

The package normal-orders products of annihilation/creation operators
with exact rational coefficients, builds the generalized Stirling and
Bell objects attached to operators of the form a^r (ad a)^M, and checks
every closed-form identity it ships against independent oracles: a
rewriting system, single-contraction products, weighted-graph counting,
and high-precision numerics for the transcendental closed forms.
"""

from .hyperreal import HighPrecReal
from .parser import LimitError, ParseError, parse_expr
from .series import (
    PolyQ,
    SeriesQ,
    binomial,
    factorial,
    falling_factorial,
    laguerre_poly,
    phyperq_partial,
    phyperq_series,
    pochhammer,
)
from .stirling import (
    bell_sequence,
    classical_bell,
    classical_stirling2,
    dobinski_adaptive,
    gen_bell_number,
    gen_bell_poly,
    gen_stirling,
    product_poly,
    stirling1_signless,
    stirling_rows,
)
from .weyl import (
    BosonExpr,
    NormalForm,
    dagger_word,
    diagonal_reduce,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    normal_order_power,
    normal_order_rewrite,
    normal_order_rook,
    word_product_normal_form,
    word_to_normal_form,
)
from .graphs import CoeffTable, enumerate_graphs, explicit_graphs
from .laguerre import (
    DotSeries,
    DxOperator,
    apply_Dx,
    egf_bell_r1,
    eigenfunction_series,
    exp_D_r1_normal_form,
)
from .closedform import (
    example_normal_forms,
    hyp_closed_form_check,
    hyp_generating_function_check,
)
from .report import IdentityReport
from .suite import run_identity, run_suite, suite_passed
from .serialize import (
    normal_form_from_json,
    normal_form_to_json,
    sequence_bfile,
    sequence_to_json,
)
from .cache import load_triangle

__version__ = "0.1.0"

__all__ = [
    "HighPrecReal",
    "LimitError",
    "ParseError",
    "parse_expr",
    "PolyQ",
    "SeriesQ",
    "binomial",
    "factorial",
    "falling_factorial",
    "laguerre_poly",
    "phyperq_partial",
    "phyperq_series",
    "pochhammer",
    "bell_sequence",
    "classical_bell",
    "classical_stirling2",
    "dobinski_adaptive",
    "gen_bell_number",
    "gen_bell_poly",
    "gen_stirling",
    "product_poly",
    "stirling1_signless",
    "stirling_rows",
    "BosonExpr",
    "NormalForm",
    "dagger_word",
    "diagonal_reduce",
    "laguerre_derivative_nf",
    "laguerre_derivative_word",
    "normal_order_power",
    "normal_order_rewrite",
    "normal_order_rook",
    "word_product_normal_form",
    "word_to_normal_form",
    "CoeffTable",
    "enumerate_graphs",
    "explicit_graphs",
    "DotSeries",
    "DxOperator",
    "apply_Dx",
    "egf_bell_r1",
    "eigenfunction_series",
    "exp_D_r1_normal_form",
    "example_normal_forms",
    "hyp_closed_form_check",
    "hyp_generating_function_check",
    "IdentityReport",
    "run_identity",
    "run_suite",
    "suite_passed",
    "normal_form_from_json",
    "normal_form_to_json",
    "sequence_bfile",
    "sequence_to_json",
    "load_triangle",
    "__version__",
]

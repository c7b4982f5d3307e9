"""Exact normal ordering of boson operator words and their number triangles.

The package normal-orders products of annihilation/creation operators
with exact rational coefficients, builds the generalized Stirling and
Bell objects attached to operators of the form a^r (ad a)^M, and checks
every closed-form identity it ships against independent oracles: a
rewriting system, single-contraction products, weighted-graph counting,
and, for the Bell generating function, proven rational enclosures of
e^-x and of the Dobinski sums.
"""

from .parser import LimitError, ParseError, parse_expr
from .series import (
    SeriesQ,
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
    gen_bell_number,
    gen_stirling,
    stirling1_signless,
    stirling_rows,
)
from .weyl import (
    BosonExpr,
    NormalForm,
    laguerre_derivative_nf,
    laguerre_derivative_word,
    normal_order_power,
    normal_order_rewrite,
    normal_order_rook,
    word_product_normal_form,
    word_to_normal_form,
)
from .graphs import enumerate_graphs
from .laguerre import (
    DotSeries,
    DxOperator,
    apply_Dx,
    egf_bell_r1,
    eigenfunction_series,
    exp_D_r1_normal_form,
)
from .closedform import hyp_generating_function_check
from .report import IdentityReport
from .suite import run_identity, run_suite, suite_passed
from .serialize import (
    normal_form_to_json,
    sequence_bfile,
    sequence_to_json,
)
from .cache import load_triangle

__version__ = "0.1.0"

__all__ = [
    "LimitError",
    "ParseError",
    "parse_expr",
    "SeriesQ",
    "factorial",
    "falling_factorial",
    "laguerre_poly",
    "phyperq_partial",
    "phyperq_series",
    "pochhammer",
    "bell_sequence",
    "classical_bell",
    "classical_stirling2",
    "gen_bell_number",
    "gen_stirling",
    "stirling1_signless",
    "stirling_rows",
    "BosonExpr",
    "NormalForm",
    "laguerre_derivative_nf",
    "laguerre_derivative_word",
    "normal_order_power",
    "normal_order_rewrite",
    "normal_order_rook",
    "word_product_normal_form",
    "word_to_normal_form",
    "enumerate_graphs",
    "DotSeries",
    "DxOperator",
    "apply_Dx",
    "egf_bell_r1",
    "eigenfunction_series",
    "exp_D_r1_normal_form",
    "hyp_generating_function_check",
    "IdentityReport",
    "run_identity",
    "run_suite",
    "suite_passed",
    "normal_form_to_json",
    "sequence_bfile",
    "sequence_to_json",
    "load_triangle",
    "__version__",
]

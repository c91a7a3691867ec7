"""Nilpotent minimum propositional logic.

Exact semantics on finite chains and on [0,1], free finitely generated
algebras as deduplicated truth-vector closures, lattice valuations
(including the idempotent variant of the Euler characteristic), prime
filter structure, and brute-force model counting over three- and
two-valued assignments.
"""

from .chain import (
    ChainValue,
    EvaluationError,
    NMChain,
    eval_chain,
    eval_standard,
)
from .filters import (
    Filter,
    PrimeFilterForest,
    QuotientChain,
    forest,
    is_filter,
    is_prime_filter,
    prime_filters,
    quotient_by_maximal,
)
from .formula import (
    BOT,
    TOP,
    And,
    Bot,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    ParseError,
    Square,
    Strong,
    Top,
    Var,
    desugar,
    format_formula,
    parse,
    random_formula,
    variables,
)
from .free_algebra import (
    DEFAULT_ELEMENT_CAP,
    ElementCapExceeded,
    FreeAlgebra,
    Variant,
    build,
    generic_chain_size,
    is_tautology,
    proves,
    truth_vector,
)
from .models import AssignmentSpace, count_models, enumerate_models
from .valuations import (
    ValuationSpec,
    chi_plus_by_counting,
    euler_char,
    euler_spec,
    evaluate,
    idempotent_euler_char,
    idempotent_euler_spec,
    weights,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentSpace",
    "And",
    "BOT",
    "Bot",
    "ChainValue",
    "DEFAULT_ELEMENT_CAP",
    "ElementCapExceeded",
    "EvaluationError",
    "Filter",
    "Formula",
    "FreeAlgebra",
    "Iff",
    "Implies",
    "NMChain",
    "Not",
    "Or",
    "ParseError",
    "PrimeFilterForest",
    "QuotientChain",
    "Square",
    "Strong",
    "TOP",
    "Top",
    "ValuationSpec",
    "Var",
    "Variant",
    "build",
    "chi_plus_by_counting",
    "count_models",
    "desugar",
    "enumerate_models",
    "eval_chain",
    "eval_standard",
    "euler_char",
    "euler_spec",
    "evaluate",
    "forest",
    "format_formula",
    "generic_chain_size",
    "idempotent_euler_char",
    "idempotent_euler_spec",
    "is_filter",
    "is_prime_filter",
    "is_tautology",
    "parse",
    "prime_filters",
    "proves",
    "quotient_by_maximal",
    "random_formula",
    "truth_vector",
    "variables",
    "weights",
]

"""Nilpotent minimum propositional logic.

Exact semantics on finite chains and on [0,1], free finitely generated
algebras as deduplicated truth-vector closures, lattice valuations
(including the idempotent variant of the Euler characteristic), prime
filter structure, and brute-force model counting over three- and
two-valued assignments.
"""

from types import ModuleType as _ModuleType

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

# pydoc documents only the names in __all__ when a package has one; without it,
# help(nmlogic) would list the submodules and none of the classes and functions
# imported above.  It is derived from the imports, so a new public name is one edit.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

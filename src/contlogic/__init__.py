"""Computable continuous first-order logic over metric structures.

Subpackages: formula ASTs and signatures (`formulas`), Goedel coding
(`coding`), text syntax (`parser`), group algebras and certified norms
(`groups`), exact matrix arithmetic (`matrices`), computable presentations
(`presentations`), budget-bounded sentence evaluation (`evaluator`), exact
rational feasibility (`feasibility`), forcing games (`forcing`), and the CLI
(`cli`).
"""

from .formulas import (  # noqa: F401
    CSTAR,
    METRIC,
    PRESETS,
    TVNA,
    Formula,
    Signature,
    classify_prefix,
    free_vars,
    prenex,
)
from .coding import (  # noqa: F401
    NotACode,
    code_predicates,
    coding_f,
    coding_g,
    decode,
    encode,
)
from .gaussian import ContlogicError  # noqa: F401
from .parser import ParseError, parse_formula, print_formula  # noqa: F401
from .presentations import (  # noqa: F401
    Presentation,
    presentation_C2w,
    presentation_CstarLambda,
    presentation_L,
    presentation_R,
)
from .evaluator import (  # noqa: F401
    EvalBudget,
    EvalResult,
    TestStructure,
    classify,
    eval_exact,
    eval_sentence,
)
from .forcing import (  # noqa: F401
    Condition,
    MetricInstance,
    Transcript,
    compile_transcript,
    dollar,
    forces_sup_leq,
    fp_estimate,
    is_condition,
    play_game,
)

__version__ = "0.1.0"

"""Graded relational structures over finite residuated chains.

``algebra`` holds the truth-value chains, ``logic`` the graded
first-order evaluator, and ``structure`` finite structures with their
embedding and isomorphism machinery.  ``classes`` owns the Fraisse
classes: the four built-in classes, their amalgamation constructions,
and the hereditary/joint-embedding/amalgamation checks.  ``fraisse``
owns the Fraisse limits: the stage-wise limit builder with its
transcripts, the extension-property verifier, and the deterministic
random weighted graph with its witness verifier.
"""

from .algebra import (
    Chain,
    boolean_chain,
    make_godel,
    make_lukasiewicz,
    resolve_chain,
)
from .classes import (
    ClassSpec,
    VFormation,
    check_ap,
    check_hp,
    check_jep,
    enumerate_class,
    get_class,
    k0_member,
    k1_member,
    k2_member,
    k3_member,
)
from .errors import (
    AmalgamationError,
    BudgetError,
    ChainTableError,
    FileFormatError,
    FormulaParseError,
    GradedModelError,
)
from .fraisse import (
    build_limit,
    check_extension_property,
    check_random_graph_property,
    random_weighted_graph,
    replay_transcript,
)
from .logic import SIG_LT, Signature, evaluate, format_formula, parse_formula
from .structure import (
    GradedStructure,
    age,
    binary_structure,
    canonical_form,
    find_embeddings,
    is_isomorphic,
    is_substructure,
    make_structure,
    structure_from_text,
    structure_to_text,
)

__version__ = "0.1.0"

"""hoplog: a workbench for typed higher-order logic programs with negation.

Pipeline: parse -> type-check -> ground (bounded or demand-driven) ->
evaluate (well-founded or perfect model) -> check extensionality.
"""

from .extensionality import ExtChecker
from .grounder import GroundProgram, ground_instantiation, relevant_grounding
from .interp import Ordering, PartialInterpretation, TruthValue, minimal_models_bruteforce
from .parser import parse_program
from .perfect import localize, perfect_model, stratify
from .typecheck import Program, check_program
from .wfs import well_founded_model

__all__ = [
    "ExtChecker",
    "GroundProgram",
    "Ordering",
    "PartialInterpretation",
    "Program",
    "TruthValue",
    "check_program",
    "ground_instantiation",
    "localize",
    "minimal_models_bruteforce",
    "parse_program",
    "perfect_model",
    "relevant_grounding",
    "stratify",
    "well_founded_model",
]

"""Exact piecewise-linear realization of oscillation signatures.

The package exports what the command line and the benchmark use; everything
else is imported from its submodule (`plmap`, `marked`, `genset`, `build`,
`diagram`, `words`).
"""

from .plmap import PLMap
from .marked import RealizationError
from .genset import (
    NotFastError,
    NotSgenError,
    genset_from_json,
    genset_to_json,
    is_fast,
    is_sgen,
    set_inflate,
    set_rotate,
    signature_of,
)
from .build import realize
from .diagram import diagram, to_dot
from .words import pl_eval, pred_C, pred_D, pred_T, predicates

__all__ = [
    "NotFastError",
    "NotSgenError",
    "PLMap",
    "RealizationError",
    "diagram",
    "genset_from_json",
    "genset_to_json",
    "is_fast",
    "is_sgen",
    "pl_eval",
    "pred_C",
    "pred_D",
    "pred_T",
    "predicates",
    "realize",
    "set_inflate",
    "set_rotate",
    "signature_of",
    "to_dot",
]

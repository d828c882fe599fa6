"""Exact piecewise-linear realization of oscillation signatures."""

from .plmap import PLMap, PLError, Rat
from .marked import (
    Bump,
    MarkedFn,
    RealizationError,
    canonical_bump,
    conjugate,
    fn_rotate,
    is_standard_fn,
    make_bump_fn,
    midpoint_bump,
    rescale_fn,
    square,
)
from .genset import (
    GenSet,
    NotSgenError,
    genset_from_json,
    genset_to_json,
    is_fast,
    is_sgen,
    order_genset,
    oscillation,
    oscillation_matrix,
    pair_order,
    set_inflate,
    set_rotate,
    signature_of,
)
from .build import fig_bz_set, fig_g_set, realize, retrofit_slopes
from .diagram import DynDiagram, diagram, excise, to_dot
from .words import (
    GroupWord,
    WreathSplitError,
    commutator,
    conj_map,
    dom_witness,
    pl_eval,
    pred_C,
    pred_D,
    pred_T,
    predicates,
    wreath_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]

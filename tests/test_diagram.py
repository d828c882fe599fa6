import re
from fractions import Fraction as F

import pytest

from sigcalc.signature import ONE_SIG, RealizationError, Signature, parse_term, sig_sum
from sigcalc.realization import (
    PLMap, diagram, is_fast, realize, signature_of, to_dot)
from sigcalc.realization.marked import MarkedFn, conjugate, square
from oracles import excise, fig_bz_set, fig_g_set, frac, retrofit_slopes, transition_points

one = ONE_SIG


def test_diagram_reflexive():
    d = diagram(fig_g_set())
    assert d == d


def test_diagram_marking_independent():
    fns = realize(parse_term("E(1+1)"))
    remarked = []
    for f in fns:
        # tiny marker nudges keep the marking fast but move every foot
        new = [frac(s) - (frac(s) - frac(u)) / 2 ** 12
               for (u, _, _), s in zip(f.orbitals, f.markers)]
        remarked.append(MarkedFn(f.map, new, f.name))
    assert all(f.markers != g.markers for f, g in zip(fns, remarked))
    assert is_fast(remarked)
    assert diagram(fns) == diagram(remarked)


def test_diagram_counts_contraction():
    # Brin-Navas pair: 2-orbital top contracts its middle feet to one vertex
    fns = realize(parse_term("E(1+1)"))
    d = diagram(fns)
    assert d.num_vertices == 5
    assert len(d.edges) == 3


def test_diagram_contracts_only_feet_of_one_function():
    # two disjoint bumps: the first one's right foot is followed at once by
    # the second one's left foot, and they stay two vertices
    d = diagram(realize(sig_sum(one, one)))
    assert (d.num_vertices, d.edges) == (4, ((0, 1, 0), (2, 3, 1)))


def test_tau4_diagram_matches_drawing():
    # interleaved 3- and 4-orbital functions: 5 + 4 contracted inner vertices
    fns = realize(parse_term("E(E(1+1))"))
    d = diagram(fns)
    assert d.num_vertices == 9
    assert len(d.edges) == 7


def test_diagram_distinguishes():
    d1 = diagram(realize(sig_sum(one, one)))
    d2 = diagram(realize(Signature(2, (1,))))
    assert d1 != d2


def test_to_dot_deterministic():
    d = diagram(fig_bz_set())
    text = to_dot(d)
    assert text == to_dot(diagram(fig_bz_set()))
    assert text.startswith("digraph")
    assert 'label="a"' in text and "rank=same" in text


def test_dot_labels_each_bump_with_its_own_function():
    # in G, h's one bump lies inside g's, and f has negative bumps (back
    # edges) as well as positive ones; the set order is not the edge order
    fns = fig_g_set()
    edges = {f.name: [] for f in fns}
    for line in to_dot(diagram(fns)).splitlines():
        m = re.fullmatch(r'  v(\d+) -> v(\d+) \[label="(\w+)"\];', line)
        if m:
            edges[m[3]].append((int(m[1]), int(m[2])))
    for f in fns:
        assert sorted(1 if src < dst else -1 for src, dst in edges[f.name]) == \
            sorted(sign for _, _, sign in f.orbitals)
    (g_lo, g_hi), = edges["g"]
    (h_lo, h_hi), = edges["h"]
    assert g_lo < h_lo < h_hi < g_hi


# --- excision -----------------------------------------------------------------


def test_excise_no_isolated():
    fns = fig_g_set()
    assert [f.map for f in excise(fns)] == [f.map for f in fns]


def test_excise_single_function_rule():
    # 2 pos + 1 neg with isolated outer bumps: rightmost goes first, then the
    # leftmost of the balanced remainder
    f = MarkedFn(PLMap([(0, 0), (F(1, 8), F(1, 8)), (F(5, 16), F(3, 16)),
                        (F(3, 8), F(3, 8)), (F(7, 16), F(9, 16)),
                        (F(5, 8), F(5, 8)), (F(11, 16), F(13, 16)),
                        (F(7, 8), F(7, 8)), (1, 1)]),
                 [F(3, 16), F(7, 16), F(11, 16)], "f")
    (out,) = excise([f])
    assert [(u, v) for u, v, _ in out.orbitals] == [((3, 8), (5, 8))]


def test_excise_preserves_signature():
    fns = realize(parse_term("E(1+1)"))
    kept = excise(fns)
    assert signature_of(kept) == parse_term("E(1+1)")


def test_section9_remark_excision():
    pair = realize(parse_term("E(E(1+1))"))
    b, a = pair
    a2 = square(a, "a2")
    bw1 = conjugate(b, a.map.inverse().then(b.map.inverse()), "b1")
    bw2 = conjugate(b, a.map.then(b.map), "b2")
    trio = [a2, bw1, bw2]
    assert is_fast(trio)
    assert diagram(excise(trio)) == diagram(fig_g_set())


# --- slope retrofit --------------------------------------------------------------


def _slopes(f):
    out = set()
    for (x1, y1), (x2, y2) in zip(f.map.points, f.map.points[1:]):
        s = (y2 - y1) / (x2 - x1)
        if s != 1:
            out.add(s)
    return out


def _in_pow2(q, scale=1):
    q = q / scale
    return q.numerator & (q.numerator - 1) == 0 and q.denominator & (q.denominator - 1) == 0


def test_retrofit_diagram_unchanged():
    for sig in (parse_term("E(1+1)"), parse_term("E(E(1+1))")):
        fns = realize(sig)
        fitted = retrofit_slopes(fns)
        assert diagram(fns) == diagram(fitted)
        assert signature_of(fitted) == sig


def test_retrofit_slope_classes():
    fns = retrofit_slopes(fig_g_set())
    top = fns[-1]
    assert all(_in_pow2(s, 3) for s in _slopes(top))
    for f in fns[:-1]:
        assert all(_in_pow2(s) for s in _slopes(f))


def test_retrofit_transition_points_kept():
    fns = fig_g_set()
    fitted = retrofit_slopes(fns)
    for before, after in zip(fns, fitted):
        assert transition_points(before) == transition_points(after)
        assert before.map != after.map  # only the diagram is promised


def test_retrofit_needs_nested_maximum():
    with pytest.raises(RealizationError):
        retrofit_slopes(fig_bz_set())  # c is disjoint from a

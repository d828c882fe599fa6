import itertools

import pytest

from sigcalc.signature import (
    ONE_SIG,
    Signature,
    enumerate_signatures,
    sig_E,
    sig_inflate,
    sig_rotate,
    sig_sum,
)
from sigcalc.realization import (
    RealizationError, is_sgen, realize, set_inflate, set_rotate, signature_of)

one = ONE_SIG


def pair(k):
    return Signature(2, (k,))


def test_set_rotate_drop_case():
    fns = realize(sig_sum(one, one))
    assert [f.map for f in set_rotate(fns)] == [fns[0].map]


def test_rotation_commutes_with_signature():
    for s in enumerate_signatures(3, 3):
        fns = realize(s)
        rot = set_rotate(fns)
        want = sig_rotate(s)
        if want.n == 0:
            assert rot == []
        else:
            assert signature_of(rot) == want


def test_inflation_commutes_with_signature():
    for s in enumerate_signatures(3, 3):
        fns = realize(s)
        for m in range(s.n):
            assert signature_of(set_inflate(fns, m)) == sig_inflate(s, m)


def test_inflation_cardinality():
    s = sig_E(sig_sum(one, one))
    fns = realize(s)
    for m in range(2):
        below = sum(1 for i in range(m) if s.val(i, m) > 0)
        assert len(set_inflate(fns, m)) == len(fns) + below


def test_inflate_minimal_element():
    # inflating the least element only replaces it by its square
    fns = realize(pair(2))
    out = set_inflate(fns, 0)
    assert len(out) == 2
    assert signature_of(out) == pair(2)


def test_inflated_set_stays_sgen():
    for s in enumerate_signatures(2, 3):
        fns = realize(s)
        for m in range(s.n):
            assert is_sgen(set_inflate(fns, m))


def test_inflate_bad_index():
    with pytest.raises(RealizationError):
        set_inflate(realize(pair(1)), 5)

"""The realize sweep past the bases Tier-1 covers, run as its own CI step:

    PYTHONPATH=src:tests python tests/sweep_realize.py

Every signature s with n = 6 and values <= 3 (7,084) and with n = 7 and
values <= 2 (7,752), enumerated by `oracles.signatures_by_columns`, must
read back from its realized set through `signature_of`.  On the same set,
`set_rotate` must give `sig_rotate(s)` and `set_inflate` at k must give
`sig_inflate(s, k)`, each already in max-transition order (as
`genset._fast_ordered` sorts it), and the functions left when generator k
is dropped must read back as `sig_restrict(s, the others)`, with k the
enumeration index mod n, so every index is inflated and dropped.  So must the
functions at the subset whose bitmask is the index mod (2^n - 2), plus 1,
so every proper nonempty subset is visited (62 at n = 6, 126 at n = 7),
given in reverse order, so `signature_of` must put them back in order.
`normalize(s)` must be reduced, its own normal form and of the rank
rho(s) = xi, and `materialize(xi)` must have the rank xi.  Every function
that s's build keeps, the unit bump and the wrap tops, must equal its
rebuild by the checked constructors (`oracles.checked_copy`): map,
orbitals, markers, name and feet.  No function that a two-orbital wrap
retains may have a foot end inside (u, v), the support it wraps, which
`build._wrap_two` reads none of; the retained functions are read off the
wrapping level of `build._build`.  The realized sets' JSON, concatenated
in enumeration order, must hash to the pinned sha256.  Exits 1 naming the
first signature or sweep that fails.
"""

import hashlib
import sys
import time
from typing import Dict, List, Optional

from sigcalc.normalizer import is_reduced, materialize, normalize, rho
from sigcalc.realization import (
    build, genset_to_json, realize, set_inflate, set_rotate, signature_of)
from sigcalc.realization.genset import GenSet, _fast_ordered
from sigcalc.realization.marked import MarkedFn
from sigcalc.signature import Signature, sig_inflate, sig_restrict, sig_rotate
from oracles import checked_copy, fn_shape, frac, signatures_by_columns
from helpers import retained

# (n, vmax): (signature count, sha256 of the realized JSON)
SWEEPS = {
    (6, 3): (7084, "c55007ad5daf33edf8b2d8a740488a14688ab367d5f3fe996f1acaf26ae408a3"),
    (7, 2): (7752, "633a1f5c64f124b5de9bea0fcc7bad3fbb8c6f6813a4066b57117cdd3a4ef9b6"),
}


def failure(s: Signature, index: int, fns: GenSet, seen: Dict[int, MarkedFn]) -> Optional[str]:
    """What the realized set fns of s, the enumeration's `index`-th
    signature, its build, or s's ranks get wrong; None if nothing.  `seen`
    holds the built functions already checked."""
    k, mask = index % s.n, index % (2 ** s.n - 2) + 1
    if signature_of(fns) != s:
        return "does not read back"
    for f in build._build(s)[0][0]:
        if id(f) not in seen:
            seen[id(f)] = f  # held, so that no other function takes its id
            if fn_shape(f) != fn_shape(checked_copy(f)):
                return f"builds {f!r}, which the checked constructors rebuild otherwise"
    rotated, inflated = set_rotate(fns), set_inflate(fns, k)
    if signature_of(rotated) != sig_rotate(s):
        return "rotates to a set of another signature than sig_rotate's"
    if signature_of(inflated) != sig_inflate(s, k):
        return f"inflates at {k} to a set of another signature than sig_inflate's"
    for out, verb in ((rotated, "rotates"), (inflated, f"inflates at {k}")):
        if list(map(id, _fast_ordered(out, "a sweep's set")[0])) != list(map(id, out)):
            return f"{verb} to a set out of max-transition order"
    kept = [i for i in range(s.n) if i != k]
    if signature_of([fns[i] for i in kept]) != sig_restrict(s, kept):
        return f"without generator {k} reads back otherwise than sig_restrict"
    kept = [i for i in range(s.n) if mask >> i & 1]
    if signature_of([fns[i] for i in reversed(kept)]) != sig_restrict(s, kept):
        return f"at generators {kept} reads back otherwise than sig_restrict"
    xi, form = rho(s), normalize(s)
    if not (is_reduced(form) and normalize(form) == form and rho(form) == xi):
        return "normalizes to a form not reduced, not its own normal form or of another rank"
    if rho(materialize(xi)) != xi:
        return "has a rank xi with rho(materialize(xi)) != xi"
    return None


def checking_wrap_two(wraps: List[bool]):
    """`build._wrap_two`, appending to wraps, for each call, whether a
    function retained at the wrapping level of `build._build` has a foot end
    inside (u, v)."""
    wrap_two = build._wrap_two

    def call(u, v):
        lo, hi = frac(u), frac(v)
        wraps.append(any(lo < frac(build.place(frame, p)) < hi
                         for f, frame in retained(sys._getframe(1)) for foot in f.feet for p in foot))
        return wrap_two(u, v)
    return call


def main() -> int:
    seen: Dict[int, MarkedFn] = {}
    wraps: List[bool] = []
    build._wrap_two = checking_wrap_two(wraps)
    for (n, vmax), (count, pinned) in SWEEPS.items():
        start, made = time.perf_counter(), len(wraps)
        sigs = signatures_by_columns(n, vmax)
        digest = hashlib.sha256()
        for index, s in enumerate(sigs):
            done = len(wraps)
            fns = realize(s)
            problem = ("makes a two-orbital wrap with a retained foot end inside (u, v)"
                       if any(wraps[done:]) else failure(s, index, fns, seen))
            if problem:
                print(f"n = {n}, values <= {vmax}: {s!r} {problem}")
                return 1
            digest.update(genset_to_json(fns).encode())
        if (len(sigs), digest.hexdigest()) != (count, pinned):
            print(f"n = {n}, values <= {vmax}: {len(sigs)} signatures realize to "
                  f"sha256 {digest.hexdigest()}, pinned {count} and {pinned}")
            return 1
        print(f"n = {n}, values <= {vmax}: {count} signatures round-trip, rotate, inflate, "
              f"restrict and rank, JSON as pinned, {len(wraps) - made} two-orbital wraps with "
              f"no retained foot end inside, {len(seen)} built functions checked so far, "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

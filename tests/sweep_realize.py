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
of the realized set must equal its rebuild by the checked constructors
(`oracles.checked_copy`): map, orbitals, markers, name and feet.  The set
must have the signature and the dynamical diagram of the reference set that
the frame build of `tests/oracles.py` realizes; and in that build no
function that a two-orbital wrap retains may have a foot end inside (u, v),
the support it wraps, which `realize` relies on when it puts the new top's
points in place of the rotated top's; the retained functions are read off
the wrapping level of `oracles.build_by_frames`.  The realized sets' JSON,
concatenated in enumeration order, must hash to the pinned sha256.  Exits 1
naming the first signature or sweep that fails.
"""

import hashlib
import sys
import time
from typing import List, Optional

from sigcalc.normalizer import is_reduced, materialize, normalize, rho
from sigcalc.realization import (
    diagram, genset_to_json, realize, set_inflate, set_rotate, signature_of)
from sigcalc.realization.genset import GenSet, _fast_ordered
from sigcalc.signature import Signature, sig_inflate, sig_restrict, sig_rotate
import oracles
from oracles import checked_copy, fn_shape, frac, realize_by_frames, signatures_by_columns
from helpers import retained

# (n, vmax): (signature count, sha256 of the realized JSON)
SWEEPS = {
    (6, 3): (7084, "831b29f32a9316b6240583ecef01db2aed57f1d13a54b4a9f68c9c8f961644ab"),
    (7, 2): (7752, "b45d9003e7a2ca1146f9df967731049c83ebcfa41b0c41486541d321f060ace3"),
}


def failure(s: Signature, index: int, fns: GenSet) -> Optional[str]:
    """What the realized set fns of s, the enumeration's `index`-th
    signature, or s's ranks get wrong; None if nothing."""
    k, mask = index % s.n, index % (2 ** s.n - 2) + 1
    if signature_of(fns) != s:
        return "does not read back"
    for f in fns:
        if fn_shape(f) != fn_shape(checked_copy(f)):
            return f"realizes {f!r}, which the checked constructors rebuild otherwise"
    ref = realize_by_frames(s)
    if signature_of(ref) != s or diagram(fns) != diagram(ref):
        return "has another signature or diagram than the frame build's reference set"
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
    """`oracles._wrap_two`, appending to wraps, for each call, whether a
    function retained at the wrapping level of `oracles.build_by_frames` has
    a foot end inside (u, v)."""
    wrap_two = oracles._wrap_two

    def call(u, v):
        lo, hi = frac(u), frac(v)
        wraps.append(any(lo < frac(oracles.place(frame, p)) < hi
                         for f, frame in retained(sys._getframe(1)) for foot in f.feet for p in foot))
        return wrap_two(u, v)
    return call


def main() -> int:
    wraps: List[bool] = []
    oracles._wrap_two = checking_wrap_two(wraps)
    for (n, vmax), (count, pinned) in SWEEPS.items():
        start, made = time.perf_counter(), len(wraps)
        sigs = signatures_by_columns(n, vmax)
        digest = hashlib.sha256()
        for index, s in enumerate(sigs):
            done = len(wraps)
            fns = realize(s)
            problem = failure(s, index, fns)
            if not problem and any(wraps[done:]):
                problem = "has a frame build with a retained foot end inside a two-orbital wrap's (u, v)"
            if problem:
                print(f"n = {n}, values <= {vmax}: {s!r} {problem}")
                return 1
            digest.update(genset_to_json(fns).encode())
        if (len(sigs), digest.hexdigest()) != (count, pinned):
            print(f"n = {n}, values <= {vmax}: {len(sigs)} signatures realize to "
                  f"sha256 {digest.hexdigest()}, pinned {count} and {pinned}")
            return 1
        print(f"n = {n}, values <= {vmax}: {count} signatures round-trip, rotate, inflate, "
              f"restrict and rank, JSON as pinned, signatures and diagrams as the reference's, "
              f"{len(wraps) - made} two-orbital wraps with no retained foot end inside, "
              f"{time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

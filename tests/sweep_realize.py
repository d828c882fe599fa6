"""The realize sweep past the bases Tier-1 covers, run as its own CI step:

    PYTHONPATH=src:tests python tests/sweep_realize.py

Every signature with n = 6 and values <= 3 (7,084) and with n = 7 and
values <= 2 (7,752), enumerated by `oracles.signatures_by_columns`, must
read back from its realized set through `signature_of`, and the realized
sets' JSON, concatenated in enumeration order, must hash to the pinned
sha256.  Exits 1 naming the first signature or sweep that fails.
"""

import hashlib
import sys
import time

from sigcalc.realization import genset_to_json, realize, signature_of
from oracles import signatures_by_columns

# (n, vmax): (signature count, sha256 of the realized JSON)
SWEEPS = {
    (6, 3): (7084, "c55007ad5daf33edf8b2d8a740488a14688ab367d5f3fe996f1acaf26ae408a3"),
    (7, 2): (7752, "633a1f5c64f124b5de9bea0fcc7bad3fbb8c6f6813a4066b57117cdd3a4ef9b6"),
}


def main() -> int:
    for (n, vmax), (count, pinned) in SWEEPS.items():
        start = time.perf_counter()
        sigs = signatures_by_columns(n, vmax)
        digest = hashlib.sha256()
        for s in sigs:
            fns = realize(s)
            if signature_of(fns) != s:
                print(f"n = {n}, values <= {vmax}: {s!r} does not read back")
                return 1
            digest.update(genset_to_json(fns).encode())
        if (len(sigs), digest.hexdigest()) != (count, pinned):
            print(f"n = {n}, values <= {vmax}: {len(sigs)} signatures realize to "
                  f"sha256 {digest.hexdigest()}, pinned {count} and {pinned}")
            return 1
        print(f"n = {n}, values <= {vmax}: {count} signatures round-trip, "
              f"JSON as pinned, {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

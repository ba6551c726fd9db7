"""Exact action counts for the action-sweep checks.

Prints one JSON object: for every (K, T) pair of the sweep, the number of
actions of T on K and how it was counted.  Pairs within the bound of
invsem's naive enumerator (which filters every |T| x |K| table) use it;
the others use the plain backtracking count in checks.py.

run.py starts this in a child process after set-up, because the naive
enumerator's blocks take more memory than the whole action sweep, and the
sweep's peak_rss_mb must be its own.

    python3 bench/oracle.py SRC_DIR
"""

import json
import sys


def main(src):
    sys.path.insert(0, src)
    import checks
    from invsem import actions, fixtures
    from invsem.core import TooLarge

    cat = fixtures.catalog()
    names = fixtures.sweep_names(4)
    out = {}
    for tname in names:
        for kname in names:
            K, T = cat[kname], cat[tname]
            try:
                out[f"{kname}|{tname}"] = ["naive", len(actions.enumerate_actions_naive(T, K))]
            except TooLarge:
                out[f"{kname}|{tname}"] = ["backtracking", checks.count_actions(K.table, T.table)]
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])

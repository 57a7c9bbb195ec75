"""Outcomes of ``exact_sat_star`` and ``certified_bounds`` above the search
cap: the 17 isomorphism classes of ``catalog_small(5)`` (closed under duals:
fork and wedge(1), Y and Yinv, wedge(3) and vee(3) are dual pairs, the
others self-dual) at n = 9..16, 20, 21 and 64.  Prints one JSON line per
(poset, n): for each function the value (the bounds and their kinds and
whether they meet), or the error's class name (``TooLarge``), or
``timeout`` when a call runs past ``--limit`` seconds (cut by a real-time
interval timer), with the seconds.  Works on any checkout:

    PYTHONPATH=<checkout>/src python3 tools/outcomes.py [--n 9 20] [--limit 30]
"""

from __future__ import annotations

import argparse
import json
import signal
import time

from posat import catalog_small, certified_bounds, exact_sat_star, isomorphism_classes
from posat.errors import PosatError

NS = (*range(9, 17), 20, 21, 64)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def outcome(run, n: int, P, limit: float) -> dict:
    """One call of ``run(n, [P])`` as a record: the bounds, kinds and
    ``exact``, or the error's class name, with the seconds."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        res = run(n, [P])
        record = {"lower": res.lower_bound, "upper": res.upper_bound, "exact": res.exact,
                  "lower_kind": res.lower_kind, "upper_kind": res.upper_kind}
    except _Timeout:
        record = {"error": "timeout"}
    except PosatError as exc:
        record = {"error": type(exc).__name__}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    record["seconds"] = round(time.perf_counter() - t0, 3)
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=NS, help="ground-set sizes")
    ap.add_argument("--limit", type=float, default=30.0, help="seconds per call")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _alarm)
    for n in args.n:
        for P in isomorphism_classes(catalog_small(5)):
            print(json.dumps({
                "poset": P.name, "n": n,
                "exact_sat_star": outcome(exact_sat_star, n, P, args.limit),
                "certified_bounds": outcome(certified_bounds, n, P, args.limit),
            }), flush=True)


if __name__ == "__main__":
    main()

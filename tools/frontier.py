"""The search frontier: ``exact_sat_star`` on the 17 isomorphism classes of
``catalog_small(5)`` at n = 5 (20 s limit each), on the diamond, Y, Yinv
and N at n = 6 (90 s limit each) and on the diamond at n = 7 (180 s
limit).  Prints one JSON line per task: the bounds and kinds reached, the
seconds, and the search counters (``SearchStats``; null for a checkout
without them or when no search ran).

    PYTHONPATH=src python3 tools/frontier.py
"""

from __future__ import annotations

import dataclasses
import json
import time

from posat import SearchConfig, catalog, catalog_small, exact_sat_star, isomorphism_classes


def tasks():
    for P in isomorphism_classes(catalog_small(5)):
        yield 5, P, 20.0
    for name in ("diamond", "Y", "Yinv", "N"):
        yield 6, catalog(name), 90.0
    yield 7, catalog("diamond"), 180.0


def stats_record(stats) -> dict | None:
    """A result's ``SearchStats`` as a dict, or None: a named tuple in this
    checkout, a dataclass in older ones."""
    if stats is None:
        return None
    if hasattr(stats, "_asdict"):
        return stats._asdict()
    return dataclasses.asdict(stats)


def main() -> None:
    for n, P, limit in tasks():
        t0 = time.perf_counter()
        res = exact_sat_star(n, [P], SearchConfig(time_limit=limit))
        seconds = time.perf_counter() - t0
        print(json.dumps({
            "poset": P.name, "n": n, "time_limit": limit, "seconds": round(seconds, 3),
            "lower": res.lower_bound, "upper": res.upper_bound, "exact": res.exact,
            "lower_kind": res.lower_kind, "upper_kind": res.upper_kind,
            "witness": list(res.witness.members) if res.witness is not None else None,
            "stats": stats_record(getattr(res, "stats", None)),
        }), flush=True)


if __name__ == "__main__":
    main()

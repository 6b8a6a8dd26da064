"""One cold start of a workload, timed from before the package import.

Run as ``python3 bench/setup_probe.py <src-dir> <workload>`` in a fresh
interpreter; prints the set-up time in seconds.  Set-up is what the
workload pays before its first unit of work: the import, config
construction and the cold table builds (``make_stream`` builds and caches
the tables; for lord-dep it also runs ``validate_xi``).
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from onfdr.procedures import ProcedureKind, default_config, make_stream  # noqa: E402


def mc_grid() -> None:
    """The tables one pool worker builds over the grid's cells."""
    kinds = (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
             ProcedureKind.SAFFRON, ProcedureKind.LOND_INDEP,
             ProcedureKind.BONFERRONI)
    for n, alpha, bounds in ((100, 0.05, (None, 100)),
                             (1000, 0.05, (None, 1000)), (25, 0.1, (25,))):
        for kind in kinds:
            for bound in bounds:
                make_stream(default_config(kind, alpha=alpha, bound=bound),
                            length_hint=n)


def stream_run() -> None:
    for kind, bound in ((ProcedureKind.LORDPP, None),
                        (ProcedureKind.SAFFRON, None),
                        (ProcedureKind.LORD_DEP, None),
                        (ProcedureKind.LOND_INDEP, 50_000)):
        make_stream(default_config(kind, alpha=0.05, bound=bound))


def exact_design() -> None:
    from onfdr.scenarios import KIDNEY_REALISATIONS, KidneyTrialScenario, \
        eval_kidney
    y0, y = KIDNEY_REALISATIONS[1]
    eval_kidney(KidneyTrialScenario(), y0, y)


{"mc-grid": mc_grid, "stream-run": stream_run,
 "exact-design": exact_design}[sys.argv[2]]()
print(repr(time.perf_counter() - t0))

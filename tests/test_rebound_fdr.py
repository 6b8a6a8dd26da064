"""FDR control of bounded rules rebound part way, by Monte Carlo.

Gaussian replicates of N = 100 hypotheses (rho = 0.5) are decided under a
bound of 100 rebound after 50 hypotheses to a horizon of 200, by each rule
whose guarantee covers this setting: LORD2, LORD3, LORD++, dependent LORD,
LOND, dependent LOND and Bonferroni.  SAFFRON is left out: acceptance
criterion 5 shows its FDR inflated in this two-sided gaussian setting.

A rebound depends on the table alone, so a rebound config decides each
replicate as a stream rebound after 50 hypotheses would, and
``estimate_many`` runs it as it runs any config.
"""

import dataclasses

import pytest

from onfdr.procedures import ProcedureKind, default_config
from onfdr.scenarios import MixtureAlternative, MixtureScenario, estimate_many

SEED = 20260810
REPS = 2000
ALPHA = 0.05
N, AT, NEW_BOUND = 100, 50, 200
KINDS = (ProcedureKind.LORD2, ProcedureKind.LORD3, ProcedureKind.LORDPP,
         ProcedureKind.LORD_DEP, ProcedureKind.LOND_INDEP,
         ProcedureKind.LOND_DEP, ProcedureKind.BONFERRONI)


def rebound_config(kind):
    cfg = default_config(kind, alpha=ALPHA, bound=N)
    return dataclasses.replace(
        cfg, sequence=cfg.sequence.rebounded(AT, NEW_BOUND))


@pytest.mark.parametrize("pi1", [0.05, 0.2, 0.5])
def test_rebound_keeps_fdr_within_alpha(pi1):
    scenario = MixtureScenario(N=N, pi1=pi1, rho=0.5,
                               alternative=MixtureAlternative.GAUSSIAN)
    procs = [(kind.value, rebound_config(kind)) for kind in KINDS]
    bad = [f"{r.label}: fdr {r.fdr:.4f} > {ALPHA + 3 * r.fdr_se:.4f}"
           for r in estimate_many(procs, scenario, reps=REPS, seed=SEED)
           if r.fdr > ALPHA + 3 * r.fdr_se]
    assert not bad, f"pi1={pi1}: " + "; ".join(bad)

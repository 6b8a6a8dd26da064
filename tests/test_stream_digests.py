"""Identity digests of the stream path, the CLI and the binary-endpoint
platform: a change to ``decide``, ``observe``, ``onfdr run`` or the exact
test that moves one level, flag, wealth or end-state value by one ulp shows
here.

Each digest is a sha256 over values (float64 and int64 bytes, packed
flags, CSV text), never over containers, so it does not depend on how a
state stores its rejections.  Every pinned value was taken on the tree
before the rejection log became a plain list.
"""

import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from onfdr.cli import main
from onfdr.procedures import (
    ProcedureKind,
    decide,
    default_config,
    make_stream,
    next_level,
    observe,
    rebound_stream,
)
from onfdr.scenarios import (
    KIDNEY_REALISATIONS,
    KidneyTrialScenario,
    eval_kidney,
    kidney_pvalues,
)

N = 3000   # rows of each seeded stream
HALF = N // 2
ONE_ROW_PREFIX = 400   # rows decided one at a time, to keep the module fast
LOND_KINDS = (ProcedureKind.LOND_INDEP, ProcedureKind.LOND_DEP)


def configs():
    """Every rule, unbounded and bounded at ``N``, and both LONDs in their
    original ``max(D, 1)`` form."""
    out = [default_config(kind, alpha=0.05, bound=bound)
           for kind in ProcedureKind for bound in (None, N)]
    out += [dataclasses.replace(default_config(kind, alpha=0.05, bound=bound),
                                lond_original=True)
            for kind in LOND_KINDS for bound in (None, N)]
    return out


def streams():
    """A dense stream (a fifth non-null) and a sparse one (one in fifty)."""
    out = []
    for seed, share in ((37, 0.2), (38, 0.02)):
        rng = np.random.default_rng(seed)
        nonnull = rng.random(N) < share
        out.append(np.where(nonnull, rng.random(N) * 1e-4, rng.random(N)))
    return out


def add_run(digest, levels, rejected, wealth):
    digest.update(np.asarray(levels, np.float64).tobytes())
    digest.update(np.packbits(np.asarray(rejected, bool)).tobytes())
    if wealth is not None:
        digest.update(np.asarray(wealth, np.float64).tobytes())


def add_records(digest, records):
    wealth = [r.wealth_after for r in records]
    add_run(digest, [r.level for r in records], [r.rejected for r in records],
            None if wealth and wealth[0] is None else wealth)


def add_state(digest, state, cfg):
    """The end state, and the next level where the horizon allows one."""
    k = state.discoveries
    digest.update(np.asarray([state.i, k, state.candidates_total],
                             np.int64).tobytes())
    nan = float("nan")
    digest.update(np.asarray(
        [state._harmonic,
         nan if state.wealth is None else state.wealth,
         nan if state.wealth_at_discovery is None else state.wealth_at_discovery],
        np.float64).tobytes())
    digest.update(np.asarray(state.rejection_times[:k], np.int64).tobytes())
    digest.update(np.asarray(state._clock[:k], np.int64).tobytes())
    if state.bound is None or state.i < state.bound:
        digest.update(np.float64(next_level(state, cfg)).tobytes())


def in_chunks(cfg, p, size, state):
    """``p`` decided on ``state`` in ``size``-row chunks, as one run."""
    parts = [decide(cfg, p[a:a + size], state) for a in range(0, len(p), size)]
    wealth = None if parts[0].wealth is None else \
        np.concatenate([d.wealth for d in parts])
    return (np.concatenate([d.levels for d in parts]),
            np.concatenate([d.rejected for d in parts]), wealth)


def stream_digest(mode):
    """sha256 of ``mode`` run over every config on both streams."""
    digest = hashlib.sha256()
    for cfg in configs():
        for p in streams():
            if mode == "fresh":
                add_run(digest, *decide(cfg, p))
                continue
            state = make_stream(cfg)
            if mode == "observe":
                add_records(digest, [observe(state, v, cfg) for v in p])
            elif mode.startswith("chunks-"):
                size = int(mode.split("-")[1])
                q = p[:ONE_ROW_PREFIX] if size == 1 else p
                add_run(digest, *in_chunks(cfg, q, size, state))
            elif mode == "rebound":
                if cfg.sequence.bound is None:
                    continue
                # then the stream again through observe: LORD2's and
                # LORD++'s clocks leave the first account block
                add_run(digest, *decide(cfg, p[:HALF], state))
                rebound_stream(state, cfg, 3 * N)
                add_records(digest, [observe(state, v, cfg)
                                     for v in p[HALF:HALF + 100]])
                add_run(digest, *in_chunks(cfg, p[HALF + 100:], 64, state))
                add_records(digest, [observe(state, v, cfg) for v in p])
            else:   # a copy made mid-stream runs on; the original diverges
                add_run(digest, *decide(cfg, p[:HALF], state))
                copied = copy.deepcopy(state) if mode == "deepcopy" \
                    else dataclasses.replace(state)
                decide(cfg, p[HALF:][::-1], state)
                add_run(digest, *in_chunks(cfg, p[HALF:], 512, copied))
                state = copied
            add_state(digest, state, cfg)
    return digest.hexdigest()


# pinned on the tree before the rejection log became a plain list
STREAM_DIGESTS = {
    "fresh":
        "fb7475d9914892982c01a1b36375a0d94f591b6dcac0eec0c2de3c485afa1067",
    "observe":
        "3a01d03caa9619b78e8f429ed397b3d869637857ace63d0ea1525727408264d9",
    "chunks-1":
        "47ead9788d4ab9b969d5bd5d7b2f953a228a33c346c5bde4dff4b28c36a64ecd",
    "chunks-7":
        "3a01d03caa9619b78e8f429ed397b3d869637857ace63d0ea1525727408264d9",
    "chunks-64":
        "3a01d03caa9619b78e8f429ed397b3d869637857ace63d0ea1525727408264d9",
    "chunks-512":
        "3a01d03caa9619b78e8f429ed397b3d869637857ace63d0ea1525727408264d9",
    "rebound":
        "8df9495a9d4e04b51801f1722c9aed0eca2523ceb4a2f5e002d846636526b022",
    "deepcopy":
        "3bf06b4ff83139e80ea9a6aa3c2d2962441b047567ce7b3a49ab925c2b7cac84",
    "replace":
        "3bf06b4ff83139e80ea9a6aa3c2d2962441b047567ce7b3a49ab925c2b7cac84",
}


@pytest.mark.parametrize("mode", list(STREAM_DIGESTS))
def test_stream_digest(mode):
    assert stream_digest(mode) == STREAM_DIGESTS[mode]


# sha256 of `onfdr run`'s stdout for every rule, unbounded then bounded at
# the input's length, on one seeded 10^4-row CSV; pinned on the tree before
# the rejection log became a plain list
RUN_DIGEST = \
    "6a9a87f84b07f4415f931f8ad0517bdf19aca437cc5da3b494a6df41e9143f16"


def test_run_digest(tmp_path, capsys):
    rng = np.random.default_rng(2018)
    n = 10_000
    p = np.where(rng.random(n) < 0.1, rng.random(n) * 1e-4, rng.random(n))
    path = tmp_path / "p.csv"
    path.write_text("id,pvalue\n" + "".join(
        f"h{i},{v!r}\n" for i, v in enumerate(p.tolist())))
    digest = hashlib.sha256()
    for kind in ProcedureKind:
        for bound in ([], ["--bound", str(n)]):
            code = main(["run", "--input", str(path),
                         "--procedure", kind.value] + bound)
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            digest.update(captured.out.encode())
    assert digest.hexdigest() == RUN_DIGEST


# sha256 of the exact p-values and every cell of eval_kidney on the five
# built-in realisations; pinned on the tree before the exact test read
# log-factorials from math.lgamma
KIDNEY_DIGEST = \
    "4fe69cb6427fa4150f9d61ec905d7cebd4dce90e7e87d1ffa440c9b09f919a59"


def test_kidney_digest():
    scenario = KidneyTrialScenario()
    digest = hashlib.sha256()
    for label, (y0, y) in sorted(KIDNEY_REALISATIONS.items()):
        digest.update(np.asarray(kidney_pvalues(scenario, y0, y),
                                 np.float64).tobytes())
        for name, cell in eval_kidney(scenario, y0, y).items():
            digest.update(f"{label},{name},{cell.fdr},{cell.power}\n".encode())
    assert digest.hexdigest() == KIDNEY_DIGEST

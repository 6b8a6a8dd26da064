"""Command-line front end.

Subcommands: ``run`` (stream a CSV of p-values through one procedure, in
chunks of ``CHUNK_ROWS`` records),
``simulate`` (Monte Carlo grids), ``sequence`` (dump a coefficient table)
and ``kidney`` (binary-endpoint platform realisations).  Data goes to
stdout or ``--output``; diagnostics go to stderr.  Exit codes: 0 success,
2 malformed input, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import sys

from .baselines import OFFLINE_RULES
from .procedures import (
    HorizonExhaustedError,
    ProcedureConfig,
    ProcedureKind,
    _as_pvalues,
    _rule_parameters,
    decide,
    default_config,
    make_stream,
    observe,
)
from .scenarios import (
    KIDNEY_REALISATIONS,
    KidneyTrialScenario,
    MixtureAlternative,
    MixtureScenario,
    PlatformTrialScenario,
    estimate_many,
    eval_kidney,
    worker_count,
)
from .sequences import Normalization, SequenceKind, SequenceSpec, build_table, rebound

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3


def _fail(code: int, message: str) -> int:
    print(f"onfdr: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _csv_out(path: str | None, header: list[str]):
    """The file ``path`` (default stdout) and a CSV writer on it, with
    ``header`` written; the file is closed on exit, stdout is left open."""
    out = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        yield out, writer
    finally:
        if out is not sys.stdout:
            out.close()


def _sequence_spec(args, **normalization) -> SequenceSpec:
    """The spec of ``--sequence`` (``--kind``), ``--seq-param`` and
    ``--bound``, under ``normalization``'s fields (default sum-one)."""
    return SequenceSpec(SequenceKind(args.sequence), shape_param=args.seq_param,
                        bound=args.bound, **normalization)


def _procedure_config(args) -> ProcedureConfig:
    if args.sequence is None and args.seq_param is not None:
        raise ValueError("--seq-param requires --sequence")
    sequence = {} if args.sequence is None else {"sequence": _sequence_spec(args)}
    return default_config(ProcedureKind(args.procedure), alpha=args.alpha,
                          bound=args.bound, w0=args.w0, b0=args.b0, lam=args.lam,
                          lond_original=args.lond_original, **sequence)


# CSV records read, decided and written at a time by ``onfdr run``
CHUNK_ROWS = 8192


def _parse_rows(rows, first_line: int):
    """Ids, p-values and line numbers of ``rows`` up to the first malformed
    one, and that line's failure (exit code and message) or None."""
    try:
        pvalues = [float(row[1]) for row in rows]
    except (IndexError, ValueError):
        # a blank, short or unparseable row: the loop finds the first one
        return _parse_each(rows, first_line)
    return [row[0] for row in rows], pvalues, \
        range(first_line, first_line + len(rows)), None


def _parse_each(rows, first_line: int):
    """:func:`_parse_rows` one row at a time, skipping blank rows."""
    ids, pvalues, lines = [], [], []
    for lineno, row in enumerate(rows, start=first_line):
        if not row:
            continue
        if len(row) < 2:
            return ids, pvalues, lines, (EXIT_BAD_INPUT,
                                         f"line {lineno}: expected id,pvalue")
        try:
            pvalues.append(float(row[1]))
        except ValueError:
            return ids, pvalues, lines, (
                EXIT_BAD_INPUT, f"line {lineno}: unparseable p-value {row[1]!r}")
        ids.append(row[0])
        lines.append(lineno)
    return ids, pvalues, lines, None


def _decide_rows(state, config, pvalues, lines):
    """Decide ``pvalues`` on ``state`` in one :func:`decide` call, up to the
    horizon and the first bad p-value.  Returns the decisions made and the
    failure (exit code and message) that stopped the rows after them, or
    None."""
    p, _, stop = _as_pvalues(pvalues, 1)
    if state.bound is not None:
        stop = min(stop, state.bound - state.i)
    decisions = decide(config, p[:stop], state)
    try:
        if stop < len(p):
            # out of range or past the horizon: the fold's step raises its
            # error for this row
            observe(state, pvalues[stop], config)
    except ValueError as exc:
        return decisions, (EXIT_BAD_INPUT, f"line {lines[stop]}: {exc}")
    except HorizonExhaustedError as exc:
        return decisions, (EXIT_BAD_CONFIG, f"line {lines[stop]}: {exc}")
    return decisions, None


def _write_rows(out, ids, first: int, pvalues, decisions) -> None:
    """One CSV row per decision, indexed from ``first``, in one write to
    ``out``; an id holding a comma, a double quote, a carriage return or a
    newline is quoted, with its quotes doubled."""
    if any(c in "".join(ids) for c in ',"\r\n'):
        ids = ['"%s"' % i.replace('"', '""') if any(c in i for c in ',"\r\n')
               else i for i in ids]
    # floats are written as their repr, as csv writes them
    levels = decisions.levels.tolist()
    flags = ["true" if f else "false" for f in decisions.rejected.tolist()]
    columns = [ids, range(first, first + len(levels)), pvalues, levels, flags]
    template = "%s,%d,%r,%r,%s,\n"   # an empty wealth for the rules with none
    if decisions.wealth is not None:
        columns.append(decisions.wealth.tolist())
        template = "%s,%d,%r,%r,%s,%r\n"
    out.write("".join([template % row for row in zip(*columns)]))


def cmd_run(args) -> int:
    try:
        config = _procedure_config(args)
        state = make_stream(config)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"invalid configuration: {exc}")
    if args.rebound is not None:
        try:
            lhs, rhs = args.rebound.split(":")
            rebound_at, rebound_to = int(lhs), int(rhs)
        except ValueError:
            return _fail(EXIT_BAD_CONFIG, "--rebound expects n:NPRIME")
        if not 0 <= rebound_at < rebound_to:
            return _fail(EXIT_BAD_CONFIG, "--rebound expects n:NPRIME with "
                         f"0 <= n < NPRIME, got {args.rebound!r}")
        if state.bound is None:
            return _fail(EXIT_BAD_CONFIG,
                         "--rebound requires a bounded stream (--bound)")
        if rebound_at > state.bound:
            return _fail(EXIT_BAD_CONFIG, f"--rebound n={rebound_at} lies "
                         f"past the horizon N={state.bound}")
        # levels 1..n read only coefficients 1..n, which rebound keeps
        state.table = rebound(state.table, rebound_at, rebound_to)

    try:
        infile = open(args.input, newline="") if args.input \
            else contextlib.nullcontext(sys.stdin)
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    columns = ["id", "index", "pvalue", "alpha_i", "rejected", "wealth"]
    with infile as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["id", "pvalue"]:
            return _fail(EXIT_BAD_INPUT, "input must start with header 'id,pvalue'")
        with _csv_out(args.output, columns) as (out, _):
            lineno = 2
            while rows := list(itertools.islice(reader, CHUNK_ROWS)):
                ids, pvalues, lines, bad_line = _parse_rows(rows, lineno)
                lineno += len(rows)
                first = state.i + 1
                decisions, failure = _decide_rows(state, config, pvalues, lines)
                _write_rows(out, ids, first, pvalues, decisions)
                failure = failure or bad_line   # the earlier line first
                if failure is not None:
                    return _fail(*failure)
    return EXIT_OK


_SIM_PROCS = [k.value for k in ProcedureKind] + list(OFFLINE_RULES)


def cmd_simulate(args) -> int:
    try:
        pi1_grid = [float(tok) for tok in args.pi1_grid.split(",") if tok]
        if not pi1_grid or any(not 0 <= v <= 1 for v in pi1_grid):
            raise ValueError(f"bad pi1 grid {args.pi1_grid!r}")
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"invalid grid: {exc}")
    proc_names = [tok.strip() for tok in args.procedures.split(",") if tok.strip()]
    if not proc_names:
        return _fail(EXIT_BAD_CONFIG, f"no procedures in {args.procedures!r}")
    unknown = [n for n in proc_names if n not in _SIM_PROCS]
    if unknown:
        return _fail(EXIT_BAD_CONFIG, f"unknown procedures: {', '.join(unknown)}")

    # everything that can be refused is built before the header is written
    try:
        bound = args.n if args.bounded else None
        procs = []
        for name in proc_names:
            if name in OFFLINE_RULES:
                procs.append((name, name))
            else:
                label = f"{name}-bounded" if args.bounded else name
                procs.append((label, default_config(
                    ProcedureKind(name), alpha=args.alpha, bound=bound)))
        scenarios = []
        for pi1 in pi1_grid:
            if args.scenario == "platform":
                scenarios.append(PlatformTrialScenario(K=args.n, pi=pi1,
                                                       alpha=args.alpha))
            else:
                scenarios.append(MixtureScenario(
                    N=args.n, pi1=pi1, rho=args.rho,
                    alternative=MixtureAlternative(args.scenario),
                    alpha=args.alpha))
        worker_count()
        if args.reps < 1:
            raise ValueError("reps must be >= 1")
        if args.seed < 0:
            raise ValueError(f"seed must be >= 0, got {args.seed}")
        columns = ["scenario", "procedure", "pi1", "N", "reps",
                   "fdr", "fdr_se", "power", "power_se", "seed"]
        with _csv_out(args.output, columns) as (_, writer):
            for pi1, scenario in zip(pi1_grid, scenarios):
                for res in estimate_many(procs, scenario, args.reps, args.seed):
                    writer.writerow([
                        args.scenario, res.label, pi1, args.n, args.reps,
                        repr(res.fdr), repr(res.fdr_se),
                        "" if res.power is None else repr(res.power),
                        "" if res.power_se is None else repr(res.power_se),
                        args.seed,
                    ])
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    return EXIT_OK


def cmd_sequence(args) -> int:
    if args.n < 1:
        return _fail(EXIT_BAD_CONFIG, f"--n must be at least 1, got {args.n}")
    norm = Normalization(args.normalization)
    fields = dict(alpha=args.alpha, w0=args.w0, b0=args.b0)
    if norm is not Normalization.SUM_ONE and args.alpha is None:
        fields["alpha"] = 0.05
    if norm is Normalization.XI_WEIGHTED:   # w0, b0 default to dependent LORD's
        given = {key: value for key, value in fields.items() if value is not None}
        fields = _rule_parameters(ProcedureKind.LORD_DEP, fields["alpha"], None) | given
    try:
        spec = _sequence_spec(args, normalization=norm, **fields)
        table = build_table(spec, length_hint=args.n)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"invalid sequence spec: {exc}")
    n = min(args.n, table.bound) if table.bound is not None else args.n
    coeffs, sums = table.head(n), table.cumulative[:n]
    columns = ["index", "coefficient", "cumulative"]
    with _csv_out(args.output, columns) as (_, writer):
        for i in range(n):
            writer.writerow([i + 1, repr(float(coeffs[i])), repr(float(sums[i]))])
    return EXIT_OK


def cmd_kidney(args) -> int:
    counts = args.y0 is not None or args.y is not None
    if args.scenario is not None and counts:
        return _fail(EXIT_BAD_CONFIG, "--scenario excludes --y0 and --y")
    if args.scenario is not None:
        realisations = {args.scenario: KIDNEY_REALISATIONS[args.scenario]}
    elif counts:
        if args.y0 is None or args.y is None:
            return _fail(EXIT_BAD_CONFIG, "--y0 and --y must be given together")
        try:
            y = tuple(int(tok) for tok in args.y.split(","))
        except ValueError:
            return _fail(EXIT_BAD_CONFIG, f"unparseable counts {args.y!r}")
        realisations = {0: (args.y0, y)}
    else:
        realisations = dict(KIDNEY_REALISATIONS)

    try:
        scenario = KidneyTrialScenario(alpha=args.alpha)
        results = {label: eval_kidney(scenario, y0, y)
                   for label, (y0, y) in realisations.items()}
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, str(exc))
    columns = ["scenario", "procedure", "fdr", "power"]
    with _csv_out(args.output, columns) as (_, writer):
        for label, cells in results.items():
            for name, cell in cells.items():
                writer.writerow([label, name, cell.fdr, cell.power])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="onfdr",
                                     description="online FDR toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="stream a p-value CSV through a procedure")
    run.add_argument("--input", help="CSV with header id,pvalue (default stdin)")
    run.add_argument("--output", help="output CSV path (default stdout)")
    run.add_argument("--procedure", default="lord++",
                     choices=[k.value for k in ProcedureKind])
    run.add_argument("--alpha", type=float, default=0.05)
    run.add_argument("--w0", type=float, help="lord2, lord3, lord-dep, lord++, saffron")
    run.add_argument("--b0", type=float, help="lord2, lord3, lord-dep")
    run.add_argument("--lambda", dest="lam", type=float, help="saffron")
    run.add_argument("--sequence", choices=[k.value for k in SequenceKind],
                     help="coefficient shape; the procedure sets the budget")
    run.add_argument("--seq-param", type=float, help="m or nu where applicable")
    run.add_argument("--bound", type=int)
    run.add_argument("--rebound", metavar="N:NPRIME",
                     help="rebound the horizon after n hypotheses")
    run.add_argument("--lond-original", action="store_true",
                     help="lond, lond-dep: the original max(D,1) multiplier")
    run.set_defaults(func=cmd_run)

    sim = sub.add_parser("simulate", help="Monte Carlo operating characteristics")
    sim.add_argument("--scenario", required=True,
                     choices=["gaussian", "exponential", "constant", "platform"])
    sim.add_argument("--n", type=int, required=True,
                     help="hypotheses per replicate (arms K for platform)")
    sim.add_argument("--pi1-grid", required=True,
                     help="comma-separated non-null fractions")
    sim.add_argument("--rho", type=float, default=0.5)
    sim.add_argument("--reps", type=int, default=2000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--alpha", type=float, default=0.05)
    sim.add_argument("--procedures", default="lord2,lord3,lord++,saffron,lond,bonferroni")
    sim.add_argument("--bounded", action="store_true",
                     help="bound every procedure at the scenario horizon")
    sim.add_argument("--output")
    sim.set_defaults(func=cmd_simulate)

    seq = sub.add_parser("sequence", help="dump a coefficient table as CSV")
    seq.add_argument("--kind", dest="sequence", required=True,
                     choices=[k.value for k in SequenceKind])
    seq.add_argument("--n", type=int, required=True, help="rows to emit")
    seq.add_argument("--seq-param", type=float, help="m or nu where applicable")
    seq.add_argument("--normalization", default="sum-one",
                     choices=[n.value for n in Normalization])
    seq.add_argument("--alpha", type=float, help="sum-alpha, xi-weighted; default 0.05")
    seq.add_argument("--w0", type=float, help="xi-weighted")
    seq.add_argument("--b0", type=float, help="xi-weighted")
    seq.add_argument("--bound", type=int)
    seq.add_argument("--output")
    seq.set_defaults(func=cmd_sequence)

    kid = sub.add_parser("kidney", help="binary-endpoint platform realisations")
    kid.add_argument("--scenario", type=int, choices=sorted(KIDNEY_REALISATIONS))
    kid.add_argument("--y0", type=int, help="control successes")
    kid.add_argument("--y", help="comma-separated per-arm successes")
    kid.add_argument("--alpha", type=float, default=0.1)
    kid.add_argument("--output")
    kid.set_defaults(func=cmd_kidney)
    return parser


def _joined_rebound(argv: list[str]) -> list[str]:
    """``argv`` with ``--rebound -3:60`` written ``--rebound=-3:60``:
    argparse would take the value for an option and exit 2, where the
    ``--rebound`` check refuses it as a bad configuration."""
    out: list[str] = []
    for arg in argv:
        negative = arg[:1] == "-" and arg[1:2].isdigit()
        if out and out[-1] == "--rebound" and negative:
            out[-1] = f"--rebound={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_joined_rebound(argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

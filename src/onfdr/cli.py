"""Command-line front end.

Subcommands: ``run`` (stream a CSV of p-values through one procedure, in
chunks of ``CHUNK_ROWS`` records),
``simulate`` (Monte Carlo grids), ``sequence`` (dump a coefficient table)
and ``kidney`` (binary-endpoint platform realisations).  Data goes to
stdout or ``--output``; diagnostics go to stderr.  Exit codes: 0 success,
2 malformed input, an input or output file that cannot be opened or an
output closed before it was all written, 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import os
import sys
from dataclasses import replace

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
from .sequences import Normalization, SequenceKind, SequenceSpec, build_table

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3


def _fail(code: int, message: str) -> int:
    print(f"onfdr: {message}", file=sys.stderr)
    return code


class _Unwritable(Exception):
    """``--output`` cannot be opened for writing."""


@contextlib.contextmanager
def _csv_out(path: str | None, header: list[str]):
    """The file ``path`` (default stdout) and a CSV writer on it, with
    ``header`` written; the file is closed on exit, stdout is left open.
    A file is written as UTF-8 with ``surrogateescape``, as stdio is under
    Python's UTF-8 mode, so the bytes of an id read that way come out
    unchanged.  A file that cannot be opened raises :class:`_Unwritable`."""
    try:
        out = open(path, "w", newline="", encoding="utf-8",
                   errors="surrogateescape") if path else sys.stdout
    except OSError as exc:
        raise _Unwritable(str(exc)) from exc
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


def _read_rows(reader, size: int):
    """Up to ``size`` rows of ``reader``, the line each starts on, and the
    failure (exit code and message) of a line that cannot be read, or None:
    a field past csv's limit, or a byte that strict stdin cannot decode.
    ``list.extend`` keeps the rows it took before its iterator raised."""
    first = reader.line_num + 1
    rows, failure = [], None
    try:
        rows.extend(itertools.islice(reader, size))
    except (csv.Error, UnicodeDecodeError) as exc:
        failure = exc
    if reader.line_num == first - 1 + len(rows):   # a line per record
        lines = range(first, first + len(rows) + 1)
    else:
        lines = _start_lines(rows, first)
    if failure is not None:
        failure = (EXIT_BAD_INPUT, f"line {lines[-1]}: {failure}")
    return rows, lines[:-1], failure


def _start_lines(rows, first: int) -> list[int]:
    """The line each of ``rows`` starts on, read from line ``first`` on, and
    the line after them: a record spans one more line for each line break
    (``\r\n``, ``\r`` or ``\n``) in its quoted fields."""
    lines = [first]
    for row in rows:
        text = "\0".join(row)   # a field's \r and the next one's \n: two breaks
        lines.append(lines[-1] + 1 + text.count("\n") + text.count("\r")
                     - text.count("\r\n"))
    return lines


def _parse_rows(rows, starts):
    """Ids, p-values and start lines of ``rows``, which start on lines
    ``starts``, up to the first malformed one, and that line's failure
    (exit code and message) or None."""
    try:
        pvalues = [float(row[1]) for row in rows]
    except (IndexError, ValueError):
        # a blank, short or unparseable row: the loop finds the first one
        return _parse_each(rows, starts)
    return [row[0] for row in rows], pvalues, starts, None


def _parse_each(rows, starts):
    """:func:`_parse_rows` one row at a time, skipping blank rows."""
    ids, pvalues, lines = [], [], []
    for lineno, row in zip(starts, rows):
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
    newline is quoted, with its quotes doubled.  Where ``out`` cannot
    encode an id, the rows before it are written and the
    ``UnicodeEncodeError`` is raised."""
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
    lines = [template % row for row in zip(*columns)]
    try:
        out.write("".join(lines))
    except UnicodeEncodeError:
        for line in lines:   # up to the row that cannot be encoded
            out.write(line)


def cmd_run(args) -> int:
    try:
        config = _procedure_config(args)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"invalid configuration: {exc}")
    if args.rebound is not None:
        try:
            n, new_bound = map(int, args.rebound.split(":"))
        except ValueError:
            return _fail(EXIT_BAD_CONFIG, "--rebound expects n:NPRIME")
        if not 0 <= n < new_bound:
            return _fail(EXIT_BAD_CONFIG, "--rebound expects n:NPRIME with "
                         f"0 <= n < NPRIME, got {args.rebound!r}")
        if args.bound is None:
            return _fail(EXIT_BAD_CONFIG,
                         "--rebound requires a bounded stream (--bound)")
        if n > args.bound:
            return _fail(EXIT_BAD_CONFIG, f"--rebound n={n} lies "
                         f"past the horizon N={args.bound}")
        # levels 1..n read only coefficients 1..n, which rebound keeps
        config = replace(config, sequence=config.sequence.rebounded(n, new_bound))
    try:   # the stream of the config it runs, rebound or not
        state = make_stream(config)
    except ValueError as exc:
        return _fail(EXIT_BAD_CONFIG, f"invalid configuration: {exc}")

    if not args.input:   # split lines as a file opened for csv does
        sys.stdin.reconfigure(newline="")
    try:
        infile = open(args.input, newline="", encoding="utf-8",   # as --output
                      errors="surrogateescape") if args.input \
            else contextlib.nullcontext(sys.stdin)
    except OSError as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    columns = ["id", "index", "pvalue", "alpha_i", "rejected", "wealth"]
    with infile as fh:
        reader = csv.reader(fh)
        rows, _, failure = _read_rows(reader, 1)   # the header
        if failure is not None:
            return _fail(*failure)
        if not rows or [h.strip() for h in rows[0][:2]] != ["id", "pvalue"]:
            return _fail(EXIT_BAD_INPUT, "input must start with header 'id,pvalue'")
        with _csv_out(args.output, columns) as (out, _):
            while rows:
                rows, starts, bad_read = _read_rows(reader, CHUNK_ROWS)
                ids, pvalues, lines, bad_line = _parse_rows(rows, starts)
                first = state.i + 1
                decisions, failure = _decide_rows(state, config, pvalues, lines)
                _write_rows(out, ids, first, pvalues, decisions)
                failure = failure or bad_line or bad_read   # the earlier line first
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
                config = default_config(ProcedureKind(name), alpha=args.alpha,
                                        bound=bound)
                make_stream(config)   # refuses dependent LORD's xi_1 > 1
                procs.append((label, config))
        if args.scenario == "platform" and args.rho is not None:
            raise ValueError("--rho applies to the mixture scenarios only")
        rho = 0.5 if args.rho is None else args.rho
        scenarios = []
        for pi1 in pi1_grid:
            if args.scenario == "platform":
                scenarios.append(PlatformTrialScenario(K=args.n, pi=pi1,
                                                       alpha=args.alpha))
            else:
                scenarios.append(MixtureScenario(
                    N=args.n, pi1=pi1, rho=rho,
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
    sim.add_argument("--rho", type=float,
                     help="mixture scenarios' correlation (default 0.5)")
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
    try:
        code = args.func(args)
        sys.stdout.flush()   # a buffered tail can meet a closed pipe too
        return code
    except _Unwritable as exc:
        return _fail(EXIT_BAD_INPUT, str(exc))
    except UnicodeEncodeError as exc:   # an id's bytes on strictly encoded stdout
        return _fail(EXIT_BAD_INPUT, f"output cannot hold the input: {exc}")
    except BrokenPipeError:
        # the reader went away (``| head``): point fd 1 at the null device,
        # so that the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail(EXIT_BAD_INPUT, "output closed before it was all written")


if __name__ == "__main__":
    sys.exit(main())

import csv
import dataclasses
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onfdr import cli
from onfdr.cli import CHUNK_ROWS, _parse_rows, _write_rows, main
from onfdr.procedures import Decisions, ProcedureKind, decide, \
    default_config, make_stream, rebound_stream, run_stream
from onfdr.scenarios import KIDNEY_REALISATIONS, KidneyTrialScenario, \
    MixtureScenario, estimate_many, eval_kidney
from onfdr.sequences import Normalization, SequenceKind, SequenceSpec, \
    build_table, validate_xi


SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def cli_env():
    """This environment with the checkout's src directory first on
    PYTHONPATH, so that a subprocess imports the package under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pvalues(tmp_path, rows, name="p.csv"):
    path = tmp_path / name
    with open(path, "w") as fh:
        fh.write("id,pvalue\n")
        for ident, p in rows:
            fh.write(f"{ident},{p}\n")
    return str(path)


class TestRun:
    def test_all_ones_lord2(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [(f"h{i}", 1.0) for i in range(3)])
        code, out, err = run_cli(capsys, ["run", "--input", path,
                                          "--procedure", "lord2"])
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(r["rejected"] == "false" for r in rows)

    def test_single_zero_lond(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [("only", 0.0)])
        code, out, _ = run_cli(capsys, ["run", "--input", path,
                                        "--procedure", "lond"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows[0]["rejected"] == "true"
        cfg = default_config(ProcedureKind.LOND_INDEP, alpha=0.05)
        beta1 = run_stream(cfg, [0.0])[0].level
        assert float(rows[0]["alpha_i"]) == beta1

    def test_round_trip_matches_library(self, tmp_path, capsys):
        pvals = [0.03, 0.8, 0.001, 0.2, 0.049]
        path = write_pvalues(tmp_path, [(f"h{i}", p) for i, p in enumerate(pvals)])
        code, out, _ = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lord3", "--alpha", "0.1"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cfg = default_config(ProcedureKind.LORD3, alpha=0.1)
        for row, rec in zip(rows, run_stream(cfg, pvals)):
            assert int(row["index"]) == rec.index
            assert float(row["pvalue"]) == rec.p
            assert float(row["alpha_i"]) == rec.level
            assert (row["rejected"] == "true") == rec.rejected
            assert float(row["wealth"]) == rec.wealth_after

    def test_rebound_flag(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [(f"h{i}", 0.9) for i in range(8)])
        code, out, _ = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lond", "--bound", "5",
            "--rebound", "4:12"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 8
        # after rebinding at n=4, remaining budget 0.01 spreads over 8 indices
        assert float(rows[4]["alpha_i"]) == pytest.approx(0.05 * 0.2 / 8,
                                                          abs=1e-12)

    def test_lond_original_flag(self, tmp_path, capsys):
        p = [0.001, 0.3, 0.0005, 0.02, 0.9, 0.004, 0.5]
        path = write_pvalues(tmp_path, [(f"h{i}", v) for i, v in enumerate(p)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lond", "--lond-original"])
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        want = decide(default_config(ProcedureKind.LOND_INDEP,
                                     lond_original=True), p)
        assert [float(r["alpha_i"]) for r in rows] == want.levels.tolist()
        assert [r["rejected"] == "true" for r in rows] == want.rejected.tolist()

    @pytest.mark.parametrize("procedure", [k.value for k in ProcedureKind])
    @pytest.mark.parametrize("option", [
        ["--w0", "0.01"], ["--b0", "0.01"], ["--lambda", "0.3"],
        ["--lond-original"], ["--seq-param", "2"]])
    def test_no_option_is_ignored(self, tmp_path, capsys, procedure, option):
        # each option is refused or moves the levels or the wealth; the
        # first p-value is a discovery for every rule
        p = [0.0005, 0.002, 0.4, 0.0001, 0.2, 0.9, 0.003, 0.5]
        path = write_pvalues(tmp_path, [(f"h{i}", v) for i, v in enumerate(p)])
        argv = ["run", "--input", path, "--procedure", procedure]
        code, plain, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        code, out, err = run_cli(capsys, argv + option)
        if code == 3:
            assert out == ""
            assert err.startswith("onfdr: invalid configuration: ")
        else:
            assert (code, err) == (0, "")
            before, after = ([(r["alpha_i"], r["wealth"])
                              for r in csv.DictReader(io.StringIO(text))]
                             for text in (plain, out))
            assert after != before

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.csv")
        code, out, err = run_cli(capsys, ["run", "--input", path])
        assert (code, out) == (2, "")
        assert err == f"onfdr: [Errno 2] No such file or directory: {path!r}\n"

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("identifier,p\nh1,0.2\n")
        code, _, err = run_cli(capsys, ["run", "--input", str(path)])
        assert code == 2 and "header" in err

    def test_malformed_header_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("identifier,p\nh1,0.2\n")
        out_path = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, ["run", "--input", str(path)])
        assert code == 2 and out == ""
        code, _, _ = run_cli(capsys, ["run", "--input", str(path),
                                      "--output", str(out_path)])
        assert code == 2 and not out_path.exists()

    def test_bad_pvalue_keeps_rows_already_written(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [("h1", 0.5), ("h2", 0.2), ("h3", 1.7)])
        code, out, err = run_cli(capsys, ["run", "--input", path])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 2 and "line 4" in err
        assert [r["id"] for r in rows] == ["h1", "h2"]

    def test_unparseable_pvalue_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,pvalue\nh1,hello\n")
        code, _, err = run_cli(capsys, ["run", "--input", str(path)])
        assert code == 2 and "line 2" in err

    def test_out_of_range_pvalue_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,pvalue\nh1,1.7\n")
        code, _, err = run_cli(capsys, ["run", "--input", str(path)])
        assert code == 2 and "line 2" in err

    def test_bad_config_exits_3(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [("h", 0.5)])
        code, _, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "saffron", "--w0", "0.03"])
        assert code == 3 and "invalid configuration" in err

    @pytest.mark.parametrize("options, overrides", [
        (["--w0", "0.01", "--b0", "0.04"], dict(w0=0.01, b0=0.04)),
        (["--sequence", "power-law", "--seq-param", "1.5"],
         dict(sequence=SequenceSpec(SequenceKind.POWER_LAW, shape_param=1.5))),
    ])
    def test_lord_dep_options_set_its_xi_table(self, tmp_path, capsys,
                                               options, overrides):
        # the xi table is normalized for the options given
        p = [0.001, 0.3, 1e-5, 0.02, 0.9, 1e-4, 0.5, 0.01]
        path = write_pvalues(tmp_path, [(f"h{i}", v) for i, v in enumerate(p)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lord-dep", *options])
        assert (code, err) == (0, "")
        rows = list(csv.DictReader(io.StringIO(out)))
        cfg = default_config(ProcedureKind.LORD_DEP, alpha=0.05, **overrides)
        want = decide(cfg, p)
        assert [float(r["alpha_i"]) for r in rows] == want.levels.tolist()
        assert [float(r["wealth"]) for r in rows] == want.wealth.tolist()

    @pytest.mark.parametrize("procedure", ["lord2", "lord3", "lord-dep"])
    @pytest.mark.parametrize("name", ["w0", "b0"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wealth_parameter_exits_3(self, tmp_path, capsys,
                                                 procedure, name, value):
        path = write_pvalues(tmp_path, [("h", 0.5)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", procedure,
            f"--{name}", value])
        assert (code, out) == (3, "")
        assert err == (f"onfdr: invalid configuration: a finite {name} "
                       f"{'>=' if name == 'w0' else '>'} 0 is required\n")

    @pytest.mark.parametrize("kind", ["jm", "inverse-square", "uniform",
                                      "constant"])
    def test_stray_seq_param_exits_3(self, tmp_path, capsys, kind):
        path = write_pvalues(tmp_path, [("h", 0.5)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--sequence", kind, "--seq-param", "7",
            "--bound", "10"])
        assert (code, out) == (3, "")
        assert err == (f"onfdr: invalid configuration: {kind} takes no "
                       "shape_param\n")

    def test_no_normalization_option(self, tmp_path, capsys):
        # the procedure sets its sequence's normalization
        path = write_pvalues(tmp_path, [("h", 0.5)])
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", path, "--normalization", "sum-one"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --normalization" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("rebound", [["--rebound", "-3:60"],
                                         ["--rebound=-3:60"],
                                         ["--rebound", "60:60"],
                                         ["--rebound", "abc"]])
    def test_bad_rebound_refused_before_output(self, tmp_path, capsys,
                                               rebound):
        path = write_pvalues(tmp_path, [(f"h{i}", 0.01) for i in range(70)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lond", "--bound", "50",
            *rebound])
        assert (code, out) == (3, "")
        assert err.startswith("onfdr: --rebound expects n:NPRIME")

    @pytest.mark.parametrize("options, message", [
        # unbounded, the stream reaches n
        (["--procedure", "lord++", "--rebound", "40:90"],
         "onfdr: --rebound requires a bounded stream (--bound)\n"),
        # unbounded, the stream ends before n
        (["--procedure", "lord++", "--rebound", "100:300"],
         "onfdr: --rebound requires a bounded stream (--bound)\n"),
        # n past the horizon
        (["--procedure", "lond", "--bound", "50", "--rebound", "60:90"],
         "onfdr: --rebound n=60 lies past the horizon N=50\n"),
    ])
    def test_impossible_rebound_refused_before_output(self, tmp_path, capsys,
                                                      options, message):
        path = write_pvalues(tmp_path, [(f"h{i}", 0.01) for i in range(70)])
        code, out, err = run_cli(capsys, ["run", "--input", path, *options])
        assert (code, out, err) == (3, "", message)
        dest = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, ["run", "--input", path, *options,
                                          "--output", str(dest)])
        assert (code, out, err) == (3, "", message)
        assert not dest.exists()

    def test_lord_dep_at_horizon_one_refused(self, tmp_path, capsys):
        # xi_1 = alpha / b0 = 2 > 1: the published constant is kept, so the
        # configuration is refused (README, Limits), also when a rebound
        # before the first hypothesis makes the horizon one
        path = write_pvalues(tmp_path, [("h", 0.001)])
        for horizon in (["--bound", "1"], ["--bound", "2", "--rebound", "0:1"]):
            code, out, err = run_cli(capsys, [
                "run", "--input", path, "--procedure", "lord-dep", *horizon])
            assert (code, out) == (3, ""), horizon
            assert err == ("onfdr: invalid configuration: leading coefficient "
                           "must be <= 1 to keep wealth nonnegative\n"), horizon

    def test_lord_dep_rebound_from_horizon_one_runs(self, tmp_path, capsys):
        # rebound before its first hypothesis, the horizon-one table is
        # never used: the stream runs on the rebound config, which the
        # library accepts too
        records = [("h1", 0.001), ("h2", 0.3), ("h3", 0.004), ("h4", 0.9)]
        path = write_pvalues(tmp_path, records)
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lord-dep",
            "--bound", "1", "--rebound", "0:5"])
        assert (code, err) == (0, "")
        assert out == expected_run(records, ProcedureKind.LORD_DEP, bound=1,
                                   rebound=(0, 5))

    @pytest.mark.parametrize("options, message", [
        (["--seq-param", "2"], "--seq-param requires --sequence"),
        (["--seq-param", "nan"], "--seq-param requires --sequence"),
        (["--sequence", "power-law", "--seq-param", "nan"],
         "POWER_LAW requires a finite shape_param m > 1"),
        (["--sequence", "log-power", "--seq-param", "inf"],
         "LOG_POWER requires a finite shape_param nu > 2"),
    ])
    def test_bad_seq_param_refused(self, tmp_path, capsys, options, message):
        path = write_pvalues(tmp_path, [("h", 0.001)])
        code, out, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lord++", *options])
        assert (code, out) == (3, "")
        assert err == f"onfdr: invalid configuration: {message}\n"

    def test_horizon_exhaustion_exits_3(self, tmp_path, capsys):
        path = write_pvalues(tmp_path, [(f"h{i}", 0.9) for i in range(4)])
        code, _, err = run_cli(capsys, [
            "run", "--input", path, "--procedure", "lord2", "--bound", "3"])
        assert code == 3 and "rebound" in err


LONG_ROWS = 20_000   # three chunks


@pytest.fixture(scope="module")
def long_stream(tmp_path_factory):
    """A 20 000-row CSV with discoveries for every rule: a burst of tiny
    p-values, then 3% signals."""
    rng = np.random.default_rng(2018)
    p = np.where(rng.random(LONG_ROWS) < 0.03, rng.random(LONG_ROWS) * 1e-4,
                 rng.random(LONG_ROWS))
    p[:20] = 1e-9
    path = tmp_path_factory.mktemp("long") / "p.csv"
    path.write_text("id,pvalue\n" + "".join(f"h{i},{v!r}\n"
                                            for i, v in enumerate(p.tolist())))
    return str(path), p.tolist()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunInChunks:
    def test_long_stream_spans_three_chunks(self):
        assert 2 * CHUNK_ROWS < LONG_ROWS <= 3 * CHUNK_ROWS

    # every rule unbounded; bounded, one rule of each level family
    @pytest.mark.parametrize("kind,bounded", [
        *((kind, False) for kind in ProcedureKind),
        *((kind, True) for kind in (ProcedureKind.LORDPP, ProcedureKind.SAFFRON,
                                    ProcedureKind.LORD3, ProcedureKind.LOND_DEP))])
    def test_equals_run_stream(self, long_stream, tmp_path, kind, bounded):
        path, p = long_stream
        out = str(tmp_path / "out.csv")
        argv = ["run", "--input", path, "--output", out,
                "--procedure", kind.value]
        if bounded:   # rebound inside the second chunk
            argv += ["--bound", "12000", "--rebound", "10000:20000"]
            cfg = default_config(kind, alpha=0.05, bound=12000)
            state = make_stream(cfg)
            recs = run_stream(cfg, p[:10000], state=state)
            rebound_stream(state, cfg, 20000)
            recs += run_stream(cfg, p[10000:], state=state)
        else:
            recs = run_stream(default_config(kind, alpha=0.05), p)
        assert main(argv) == 0
        rows = read_rows(out)
        assert [(r["id"], int(r["index"]), float(r["pvalue"])) for r in rows] \
            == [(f"h{k}", rec.index, rec.p) for k, rec in enumerate(recs)]
        assert [r["rejected"] == "true" for r in rows] == \
            [rec.rejected for rec in recs]
        assert any(rec.rejected for rec in recs)
        assert [float(r["alpha_i"]) for r in rows] == [rec.level for rec in recs]
        assert [float(r["wealth"]) if r["wealth"] else None for r in rows] == \
            [rec.wealth_after for rec in recs]

    @pytest.mark.parametrize("extra,bad,code,message", [
        ([], "1.7", 2, "line 9002: p-value must lie in [0, 1], got 1.7"),
        ([], "hello", 2, "line 9002: unparseable p-value 'hello'"),
        (["--bound", "9000"], None, 3,
         "line 9002: horizon N=9000 exhausted at index 9001; rebound to "
         "continue"),
        *(([], text, 2, f"line 9002: p-value must lie in [0, 1], got {text}")
          for text in ("1.0000000000000002", "-5e-324", "inf", "-inf")),
    ])
    def test_failure_in_second_chunk(self, tmp_path, capsys, extra, bad, code,
                                     message):
        # the rows before the bad line are written, then the run stops
        rows = [(f"h{i}", 0.5) for i in range(12000)]
        if bad is not None:
            rows[9000] = ("h9000", bad)
        path = write_pvalues(tmp_path, rows)
        got, out, err = run_cli(capsys, ["run", "--input", path,
                                         "--procedure", "lord++", *extra])
        assert (got, err) == (code, f"onfdr: {message}\n")
        written = list(csv.DictReader(io.StringIO(out)))
        assert [r["id"] for r in written] == [f"h{i}" for i in range(9000)]


# ---------------------------------------------------------------------------
# onfdr run's bytes: expected output built here from `decide`'s levels with
# Python repr and the id quoting rule, for inputs whose quoting, line
# endings, spelling or failure the reader and writer must keep
# ---------------------------------------------------------------------------

RUN_COLUMNS = ["id", "index", "pvalue", "alpha_i", "rejected", "wealth"]


def quoted_id(ident):
    """An id as `onfdr run` writes it: quoted, with its quotes doubled, if
    it holds a comma, a double quote, a carriage return or a newline (csv
    with a newline line terminator would leave a lone carriage return
    unquoted, and its reader would split the record there)."""
    if any(c in ident for c in ',"\r\n'):
        return '"' + ident.replace('"', '""') + '"'
    return ident


def run_line(ident, index, p, level, rejected, wealth):
    return (f"{quoted_id(ident)},{index},{p!r},{level!r},"
            f"{'true' if rejected else 'false'},"
            f"{'' if wealth is None else repr(wealth)}\n")


def expected_run(records, kind, bound=None, rebound=None):
    """The CSV `onfdr run` writes for the (id, p-value) ``records``: levels,
    flags and wealth from `decide` on one stream, rebound after
    ``rebound[0]`` hypotheses, with floats as their repr."""
    cfg = default_config(kind, alpha=0.05, bound=bound)
    if rebound is not None and rebound[0] == 0:
        # no hypothesis meets the first table: the stream starts on the
        # rebound one, even where the first horizon alone is refused
        cfg = dataclasses.replace(
            cfg, sequence=cfg.sequence.rebounded(0, rebound[1]))
        rebound = None
    state = make_stream(cfg)
    p = np.array([pv for _, pv in records], dtype=np.float64)
    cut = len(p) if rebound is None else min(rebound[0], len(p))
    runs = [decide(cfg, p[:cut], state)]
    if cut < len(p):
        rebound_stream(state, cfg, rebound[1])
        runs.append(decide(cfg, p[cut:], state))
    lines = [",".join(RUN_COLUMNS) + "\n"]
    for k, (ident, pv) in enumerate(records):
        run = runs[0] if k < cut else runs[1]
        j = k if k < cut else k - cut
        lines.append(run_line(
            ident, k + 1, pv, float(run.levels[j]), run.rejected[j],
            None if run.wealth is None else float(run.wealth[j])))
    return "".join(lines)


def chunked_rows(n):
    """``n`` records ``h<k>`` with p-value 0.5, and 1e-4 at every 7th."""
    return [(f"h{k}", 1e-4 if k % 7 == 0 else 0.5) for k in range(n)]


def csv_text(records):
    return "id,pvalue\n" + "".join(f"{i},{p!r}\n" for i, p in records)


LORDPP = ProcedureKind.LORDPP
_BYTES_CASES = {
    # name: (input text, options, records decided, kind, bound, rebound,
    #        exit code, stderr)
    "ids_csv_quotes": (
        'id,pvalue\n"a,b",0.01\n"q""x",0.2\n"multi\nline",0.001\nplain,0.3\n',
        [], [("a,b", 0.01), ('q"x', 0.2), ("multi\nline", 0.001),
             ("plain", 0.3)], LORDPP, None, None, 0, ""),
    "id_with_carriage_return": (
        'id,pvalue\n"a\rb",0.01\nc,0.5\n', [], [("a\rb", 0.01), ("c", 0.5)],
        LORDPP, None, None, 0, ""),
    "crlf_and_blank_lines": (
        "id,pvalue\r\nh1,0.01\r\n\r\nh2,0.5\r\n\r\n\r\nh3,0.0001\r\n", [],
        [("h1", 0.01), ("h2", 0.5), ("h3", 0.0001)], LORDPP, None, None, 0,
        ""),
    "extra_columns": (
        "id,pvalue,note\nh1,0.3,x,y\nh2,0.001,z\n", [],
        [("h1", 0.3), ("h2", 0.001)], LORDPP, None, None, 0, ""),
    "pvalue_spellings": (
        "id,pvalue\na, 0.02 \nb,5e-1\nc,0.50\nd,1\ne,0\n", [],
        list(zip("abcde", [0.02, 0.5, 0.5, 1.0, 0.0])), LORDPP, None, None, 0,
        ""),
    "bad_pvalue_first_row_of_chunk_2": (
        csv_text(chunked_rows(CHUNK_ROWS)) + "hbad,oops\nhnext,0.5\n", [],
        chunked_rows(CHUNK_ROWS), LORDPP, None, None, 2,
        "onfdr: line 8194: unparseable p-value 'oops'\n"),
    "short_row_in_chunk_2": (
        csv_text(chunked_rows(10500)) + "hshort\nhnext,0.5\n", [],
        chunked_rows(10500), LORDPP, None, None, 2,
        "onfdr: line 10502: expected id,pvalue\n"),
    "header_only": ("id,pvalue\n", [], [], LORDPP, None, None, 0, ""),
    "lord_dep_wealth": (
        csv_text(chunked_rows(300)), ["--procedure", "lord-dep"],
        chunked_rows(300), ProcedureKind.LORD_DEP, None, None, 0, ""),
    "lond_bound_rebound": (
        csv_text(chunked_rows(12000)),
        ["--procedure", "lond", "--bound", "10000", "--rebound", "9000:20000"],
        chunked_rows(12000), ProcedureKind.LOND_INDEP, 10000, (9000, 20000),
        0, ""),
    "rebound_at_0": (
        csv_text(chunked_rows(300)),
        ["--procedure", "saffron", "--bound", "200", "--rebound", "0:400"],
        chunked_rows(300), ProcedureKind.SAFFRON, 200, (0, 400), 0, ""),
    "rebound_at_chunk_boundary": (
        csv_text(chunked_rows(10000)),
        ["--procedure", "lord3", "--bound", "9000", "--rebound",
         f"{CHUNK_ROWS}:12000"],
        chunked_rows(10000), ProcedureKind.LORD3, 9000, (CHUNK_ROWS, 12000),
        0, ""),
    "rebound_past_the_input": (
        csv_text(chunked_rows(300)),
        ["--procedure", "lord-dep", "--bound", "1000", "--rebound", "500:900"],
        chunked_rows(300), ProcedureKind.LORD_DEP, 1000, (500, 900), 0, ""),
    "bad_pvalue_after_rebound": (
        csv_text(chunked_rows(9500)) + "hbad,1.5\nhnext,0.5\n",
        ["--bound", "10000", "--rebound", "9000:20000"],
        chunked_rows(9500), LORDPP, 10000, (9000, 20000), 2,
        "onfdr: line 9502: p-value must lie in [0, 1], got 1.5\n"),
}


@pytest.fixture(scope="module")
def dense_stream(tmp_path_factory):
    """A 20 000-row CSV in which 8% of the p-values are below 1e-6, so that
    each payout rule makes well over 1000 discoveries."""
    rng = np.random.default_rng(24)
    p = np.where(rng.random(LONG_ROWS) < 0.08, rng.random(LONG_ROWS) * 1e-6,
                 rng.random(LONG_ROWS))
    path = tmp_path_factory.mktemp("dense") / "p.csv"
    path.write_text("id,pvalue\n" + "".join(f"h{i},{v!r}\n"
                                            for i, v in enumerate(p.tolist())))
    return str(path)


class TestChunkSize:
    # each chunk's decide call reads the stream's payout account and pays
    # the chunks before it into it, whether chunks are far shorter than the
    # account's block (many calls per block), shorter or longer (a rebuild
    # per call)
    @pytest.mark.parametrize("extra", [
        [], ["--bound", "12000", "--rebound", "10000:20000"]],
        ids=["unbounded", "rebound"])
    @pytest.mark.parametrize("kind", ["lord2", "lord++", "saffron"])
    def test_output_does_not_depend_on_it(self, dense_stream, tmp_path,
                                          monkeypatch, kind, extra):
        def run(name):
            out = tmp_path / name
            assert main(["run", "--input", dense_stream, "--output", str(out),
                         "--procedure", kind, *extra]) == 0
            return out.read_bytes()

        want = run("default.csv")
        assert want.count(b",true,") > 1000
        for rows in (7, 64, 5000):
            monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
            assert run(f"chunks-{rows}.csv") == want, rows


class TestRunBytes:
    @pytest.mark.parametrize("dest", ["stdout", "output"])
    @pytest.mark.parametrize("name", list(_BYTES_CASES))
    def test_bytes(self, tmp_path, capsys, name, dest):
        text, options, records, kind, bound, rebound, code, err = \
            _BYTES_CASES[name]
        src = tmp_path / "in.csv"
        with open(src, "w", newline="") as fh:
            fh.write(text)
        want = expected_run(records, kind, bound, rebound)
        argv = ["run", "--input", str(src), *options]
        if dest == "stdout":
            assert run_cli(capsys, argv) == (code, want, err)
        else:
            out = tmp_path / "out.csv"
            assert run_cli(capsys, [*argv, "--output", str(out)]) == \
                (code, "", err)
            assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize("text,code,written", [
        (csv_text(chunked_rows(CHUNK_ROWS + 50)), 0, CHUNK_ROWS + 50),
        (csv_text(chunked_rows(CHUNK_ROWS)) + "hbad,1.5\nhnext,0.5\n", 2,
         CHUNK_ROWS),
    ], ids=["clean", "bad_line"])
    def test_stdin_equals_input(self, tmp_path, text, code, written):
        src = tmp_path / "in.csv"
        src.write_text(text)
        out = tmp_path / "out.csv"
        cli = [sys.executable, "-m", "onfdr.cli", "run", "--procedure",
               "saffron"]
        with open(src, "rb") as fh:
            piped = subprocess.run(cli, stdin=fh, capture_output=True,
                                   env=cli_env())
        named = subprocess.run([*cli, "--input", str(src), "--output",
                                str(out)], capture_output=True, env=cli_env())
        assert (piped.returncode, piped.stderr) == \
            (named.returncode, named.stderr)
        assert piped.stdout == out.read_bytes()
        assert (named.returncode, piped.stdout.count(b"\n")) == \
            (code, 1 + written)


# an id whose bytes (ff fe) are not UTF-8, as surrogateescape reads it
RAW_RECORDS = [("h1", 0.001), ("\udcff\udcfe", 0.0001), ("h3", 0.5)]
STRICT_STDIO = {"PYTHONIOENCODING": "utf-8:strict"}


def raw(text):
    return text.encode("utf-8", "surrogateescape")


def run_process(argv, stdin=b"", env=None):
    """`onfdr run` in a child process with ``argv`` and ``stdin`` bytes,
    under this environment updated by ``env``."""
    return subprocess.run([sys.executable, "-m", "onfdr.cli", "run", *argv],
                          input=stdin, capture_output=True,
                          env=cli_env() | (env or {}))


def one_error_line(proc, start):
    err = proc.stderr.decode()
    assert err.startswith(start) and err.count("\n") == 1, err
    assert "Traceback" not in err


class TestUnreadableInput:
    """Input that is only malformed exits 0 or 2 with at most one line on
    stderr, whichever way it comes in and goes out."""

    def test_input_file_keeps_an_ids_bytes(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_bytes(raw(csv_text(RAW_RECORDS)))
        want = raw(expected_run(RAW_RECORDS, LORDPP))
        for proc in (run_process(["--input", str(src)]),
                     run_process([], src.read_bytes())):
            assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")

    def test_output_file_keeps_an_ids_bytes(self, tmp_path):
        out = tmp_path / "out.csv"
        proc = run_process(["--output", str(out)], raw(csv_text(RAW_RECORDS)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes() == raw(expected_run(RAW_RECORDS, LORDPP))

    @pytest.mark.parametrize("route", ["stdin", "input"])
    def test_a_field_past_csvs_limit_is_a_bad_line(self, tmp_path, route):
        # the rows before it are decided and written first
        records = [("h1", 0.001), ("h2", 0.5)]
        src = tmp_path / "in.csv"
        src.write_text(csv_text(records) + "x" * 131073 + ",0.5\nh4,0.5\n")
        proc = run_process(["--input", str(src)]) if route == "input" \
            else run_process([], src.read_bytes())
        assert (proc.returncode, proc.stdout) == \
            (2, expected_run(records, LORDPP).encode())
        one_error_line(proc, "onfdr: line 4: field larger than field limit")

    def test_strict_stdin_refuses_a_byte_it_cannot_decode(self):
        # stdin is decoded a block at a time, so the line named is the first
        # one of the block that holds the byte: here the header's
        proc = run_process([], raw(csv_text(RAW_RECORDS)), STRICT_STDIO)
        assert (proc.returncode, proc.stdout) == (2, b"")
        one_error_line(proc, "onfdr: line 1: 'utf-8' codec can't decode byte 0xff")

    def test_strict_stdout_refuses_an_id_it_cannot_encode(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_bytes(raw(csv_text(RAW_RECORDS)))
        proc = run_process(["--input", str(src)], env=STRICT_STDIO)
        assert (proc.returncode, proc.stdout) == (2, b",".join(
            c.encode() for c in RUN_COLUMNS) + b"\n")
        one_error_line(proc, "onfdr: output cannot hold the input: 'utf-8' "
                       "codec can't encode")


# the per-row reading `_parse_rows` must agree with on every input
def parse_each(rows, first_line):
    ids, pvalues, lines = [], [], []
    for lineno, row in enumerate(rows, start=first_line):
        if not row:
            continue
        if len(row) < 2:
            return ids, pvalues, lines, (
                2, f"line {lineno}: expected id,pvalue")
        try:
            pvalues.append(float(row[1]))
        except ValueError:
            return ids, pvalues, lines, (
                2, f"line {lineno}: unparseable p-value {row[1]!r}")
        ids.append(row[0])
        lines.append(lineno)
    return ids, pvalues, lines, None


ids_text = st.one_of(st.text(max_size=6),
                     st.text(alphabet=',"\r\n aé中', max_size=4))
pvalue_text = st.one_of(
    st.floats(0, 1).map(repr), st.floats().map(repr),
    st.sampled_from([" 0.02 ", "5e-1", "0.50", "1", "0", "1_0", "", "x",
                     "nan", "-inf"]),
    st.text(max_size=4))
good_row = st.builds(lambda i, p, rest: [i, p, *rest], ids_text,
                     st.floats(0, 1).map(repr),
                     st.lists(st.text(max_size=3), max_size=2))
any_row = st.one_of(
    st.just([]), st.lists(ids_text, min_size=1, max_size=1), good_row,
    st.builds(lambda i, p, rest: [i, p, *rest], ids_text, pvalue_text,
              st.lists(st.text(max_size=3), max_size=2)))


class TestChunkHelpers:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.one_of(st.lists(good_row, max_size=30),
                          st.lists(any_row, max_size=30)),
           first=st.integers(2, 10**6))
    def test_parse_rows_equals_row_loop(self, rows, first):
        ids, pvalues, lines, failure = _parse_rows(rows, first)
        want = parse_each(rows, first)
        assert (ids, list(lines), failure) == (want[0], want[2], want[3])
        assert [repr(v) for v in pvalues] == [repr(v) for v in want[1]]

    @staticmethod
    def draw_decisions(data):
        """Ids (more than decided, as the reader may hand over), p-values,
        the decisions, and the first index."""
        n = data.draw(st.integers(0, 12))
        ids = data.draw(st.lists(ids_text, min_size=n, max_size=n + 2))
        pvalues = data.draw(st.lists(st.floats(0, 1), min_size=len(ids),
                                     max_size=len(ids)))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        levels = data.draw(st.lists(finite, min_size=n, max_size=n))
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        wealth = data.draw(st.none() | st.lists(finite, min_size=n,
                                                max_size=n))
        decisions = Decisions(np.array(levels, dtype=np.float64),
                              np.array(flags, dtype=bool),
                              None if wealth is None
                              else np.array(wealth, dtype=np.float64))
        return ids, pvalues, levels, flags, wealth, decisions, \
            data.draw(st.integers(1, 10**9))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_write_rows_equals_csv(self, data):
        ids, pvalues, levels, flags, wealth, decisions, first = \
            self.draw_decisions(data)
        n = len(levels)
        want = "".join(run_line(*row) for row in zip(
            ids, range(first, first + n), pvalues, levels, flags,
            [None] * n if wealth is None else wealth))
        got = io.StringIO()
        _write_rows(got, ids, first, pvalues, decisions)
        assert got.getvalue() == want

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_csv_reads_back_every_id(self, data):
        ids, pvalues, levels, flags, wealth, decisions, first = \
            self.draw_decisions(data)
        got = io.StringIO()
        _write_rows(got, ids, first, pvalues, decisions)
        rows = list(csv.reader(io.StringIO(got.getvalue(), newline="")))
        assert [row[0] for row in rows] == ids[:len(levels)]
        assert [len(row) for row in rows] == [6] * len(levels)
        assert [float(row[3]) for row in rows] == levels


class TestSequence:
    def test_uniform_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["sequence", "--kind", "uniform",
                                        "--n", "4", "--bound", "4"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["coefficient"]) for r in rows] == [0.25] * 4
        assert float(rows[-1]["cumulative"]) == pytest.approx(1.0, abs=1e-12)

    def test_single_term_carries_budget(self, capsys):
        code, out, _ = run_cli(capsys, ["sequence", "--kind", "jm",
                                        "--n", "1", "--bound", "1"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert float(rows[0]["coefficient"]) == pytest.approx(1.0, abs=1e-12)

    def test_unbounded_jm_first_coefficient(self, capsys):
        code, out, _ = run_cli(capsys, ["sequence", "--kind", "jm", "--n", "3"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0
        assert float(rows[0]["coefficient"]) == pytest.approx(0.0535167709,
                                                              abs=1e-9)

    def test_invalid_spec_exits_3(self, capsys):
        code, _, err = run_cli(capsys, ["sequence", "--kind", "uniform",
                                        "--n", "4"])
        assert code == 3 and "invalid sequence spec" in err

    @pytest.mark.parametrize("kind, message", [
        ("power-law", "POWER_LAW requires a finite shape_param m > 1"),
        ("log-power", "LOG_POWER requires a finite shape_param nu > 2")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_shape_param_not_finite_exits_3(self, capsys, kind, message, value):
        code, out, err = run_cli(capsys, ["sequence", "--kind", kind, "--n",
                                          "3", "--seq-param", value])
        assert (code, out) == (3, "")
        assert err == f"onfdr: invalid sequence spec: {message}\n"

    @pytest.mark.parametrize("kind", ["jm", "inverse-square", "uniform",
                                      "constant"])
    def test_stray_seq_param_exits_3(self, capsys, kind):
        code, out, err = run_cli(capsys, ["sequence", "--kind", kind, "--n",
                                          "4", "--bound", "4", "--seq-param",
                                          "7"])
        assert (code, out) == (3, "")
        assert err == (f"onfdr: invalid sequence spec: {kind} takes no "
                       "shape_param\n")

    @pytest.mark.parametrize("options, message", [
        (["--w0", "0.3", "--b0", "9"], "SUM_ONE takes no w0 or b0"),
        (["--alpha", "0.1"], "SUM_ONE takes no alpha"),
        (["--normalization", "sum-alpha", "--b0", "9"],
         "SUM_ALPHA takes no w0 or b0"),
    ])
    def test_stray_field_exits_3(self, capsys, options, message):
        code, out, err = run_cli(capsys, ["sequence", "--kind", "jm", "--n",
                                          "3", *options])
        assert (code, out) == (3, "")
        assert err == f"onfdr: invalid sequence spec: {message}\n"

    @pytest.mark.parametrize("options, fields", [
        (["--normalization", "sum-alpha"],
         dict(normalization=Normalization.SUM_ALPHA, alpha=0.05)),
        (["--normalization", "xi-weighted"],
         dict(normalization=Normalization.XI_WEIGHTED, alpha=0.05, w0=0.025,
              b0=0.025)),
        (["--normalization", "xi-weighted", "--alpha", "0.1", "--w0", "0.01",
          "--b0", "0.04"],
         dict(normalization=Normalization.XI_WEIGHTED, alpha=0.1, w0=0.01,
              b0=0.04)),
    ])
    def test_normalization_rows(self, capsys, options, fields):
        # alpha defaults to 0.05, w0 and b0 to dependent LORD's alpha / 2
        code, out, err = run_cli(capsys, [
            "sequence", "--kind", "log-power", "--seq-param", "3", "--n", "50",
            *options])
        assert (code, err) == (0, "")
        spec = SequenceSpec(SequenceKind.LOG_POWER, shape_param=3.0, **fields)
        table = build_table(spec, length_hint=50)
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [float(r["coefficient"]) for r in rows] == table.head(50).tolist()
        assert [float(r["cumulative"]) for r in rows] == \
            table.cumulative[:50].tolist()
        if spec.normalization is Normalization.XI_WEIGHTED:
            assert validate_xi(table, spec.w0, spec.b0, spec.alpha)

    @pytest.mark.parametrize("rows", ["0", "-3"])
    def test_no_rows_exits_3(self, capsys, rows):
        code, out, err = run_cli(capsys, ["sequence", "--kind", "jm",
                                          "--n", rows])
        assert (code, out) == (3, "")
        assert err == f"onfdr: --n must be at least 1, got {rows}\n"

    def test_output_file(self, tmp_path, capsys):
        dest = tmp_path / "seq.csv"
        code, out, _ = run_cli(capsys, ["sequence", "--kind", "inverse-square",
                                        "--n", "5", "--output", str(dest)])
        assert code == 0 and out == ""
        assert dest.read_text().startswith("index,coefficient,cumulative\n")


class TestKidney:
    def test_builtin_scenario_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, ["kidney", "--scenario", "2"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cells = eval_kidney(KidneyTrialScenario(), *KIDNEY_REALISATIONS[2])
        assert len(rows) == len(cells)
        for row in rows:
            cell = cells[row["procedure"]]
            assert row["fdr"] == cell.fdr and row["power"] == cell.power

    def test_custom_counts(self, capsys):
        code, out, _ = run_cli(capsys, ["kidney", "--y0", "0",
                                        "--y", "0,0,0,0,0,0,0,0,0,0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert all(r["fdr"] == "0/0" for r in rows)

    def test_bad_counts_exit_3(self, capsys):
        code, _, err = run_cli(capsys, ["kidney", "--y0", "64",
                                        "--y", "0,0,0,0,0,0,0,0,0,0"])
        assert code == 3

    @pytest.mark.parametrize("argv", [["--y0", "13"],
                                      ["--y", "0,0,0,0,0,0,0,0,0,0"]])
    def test_counts_need_both_flags(self, capsys, argv):
        code, out, err = run_cli(capsys, ["kidney"] + argv)
        assert code == 3 and out == "" and "--y0 and --y" in err

    def test_unparseable_counts_exit_3(self, capsys):
        code, out, err = run_cli(capsys, ["kidney", "--y0", "5", "--y", "a,b"])
        assert (code, out) == (3, "")
        assert err == "onfdr: unparseable counts 'a,b'\n"

    def test_scenario_excludes_counts(self, capsys):
        code, out, err = run_cli(capsys, ["kidney", "--scenario", "3",
                                          "--y0", "13",
                                          "--y", "5,13,10,15,10,15,5,11,5,3"])
        assert code == 3 and out == "" and "--scenario" in err

    @pytest.mark.parametrize("argv", [["--y0", "64", "--y", "0,0,0,0,0,0,0,0,0,0"],
                                      ["--alpha", "1.5"]])
    def test_refused_analysis_writes_nothing(self, capsys, argv):
        code, out, _ = run_cli(capsys, ["kidney"] + argv)
        assert code == 3 and out == ""

    def test_bad_alpha_refused_before_any_analysis(self, capsys):
        code, out, err = run_cli(capsys, ["kidney", "--alpha", "2"])
        assert code == 3 and out == ""
        assert err == "onfdr: alpha must lie in (0, 1)\n"

    def test_all_five_by_default(self, capsys):
        code, out, _ = run_cli(capsys, ["kidney"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and len(rows) == 5 * 8


class TestSimulate:
    def test_deterministic_bytes(self, capsys):
        argv = ["simulate", "--scenario", "constant", "--n", "25",
                "--pi1-grid", "0.2", "--reps", "30", "--seed", "5",
                "--procedures", "lond,bonferroni"]
        code1, out1, _ = run_cli(capsys, argv)
        code2, out2, _ = run_cli(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = list(csv.DictReader(io.StringIO(out1)))
        assert {r["procedure"] for r in rows} == {"lond", "bonferroni"}

    def test_bounded_labels(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "20",
            "--pi1-grid", "0.1", "--reps", "20", "--seed", "1",
            "--procedures", "lord2", "--bounded"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows[0]["procedure"] == "lord2-bounded"

    def test_platform_scenario(self, capsys):
        code, out, _ = run_cli(capsys, [
            "simulate", "--scenario", "platform", "--n", "10",
            "--pi1-grid", "0.2", "--reps", "20", "--seed", "2",
            "--procedures", "lond", "--bounded"])
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and rows[0]["scenario"] == "platform"

    def test_bad_grid_exits_3(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10",
            "--pi1-grid", "0.2,nope", "--reps", "10", "--seed", "1",
            "--procedures", "lond"])
        assert code == 3 and "invalid grid" in err

    @pytest.mark.parametrize("options, message", [
        (["--pi1-grid", "1.5"], "invalid grid: bad pi1 grid '1.5'"),
        (["--pi1-grid", ","], "invalid grid: bad pi1 grid ','"),
        (["--pi1-grid", "0.2", "--seed", "-1"], "seed must be >= 0, got -1"),
        # bounded dependent LORD at horizon one has xi_1 = alpha / b0 = 2
        (["--pi1-grid", "0.1", "--n", "1", "--procedures", "lord-dep",
          "--bounded"],
         "leading coefficient must be <= 1 to keep wealth nonnegative"),
    ])
    def test_refused_before_the_header(self, capsys, options, message):
        code, out, err = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10", "--reps", "10",
            "--procedures", "lond", *options])
        assert (code, out, err) == (3, "", f"onfdr: {message}\n")

    @pytest.mark.parametrize("threads", ["two", "0"])
    def test_bad_thread_setting_exits_3(self, capsys, monkeypatch, threads):
        monkeypatch.setenv("ONFDR_THREADS", threads)
        code, _, err = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10",
            "--pi1-grid", "0.2", "--reps", "10", "--seed", "1",
            "--procedures", "lond"])
        assert code == 3 and "ONFDR_THREADS" in err

    @pytest.mark.parametrize("extra,threads", [
        (["--alpha", "1.5"], None), (["--rho", "1.5"], None),
        (["--reps", "0"], None), ([], "0")])
    def test_refused_run_writes_nothing(self, capsys, monkeypatch, extra,
                                        threads):
        if threads is not None:
            monkeypatch.setenv("ONFDR_THREADS", threads)
        code, out, _ = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10",
            "--pi1-grid", "0.2", "--reps", "10", "--seed", "1",
            "--procedures", "lond"] + extra)
        assert code == 3 and out == ""

    def test_alpha_sets_the_offline_level(self, capsys):
        argv = ["simulate", "--scenario", "gaussian", "--n", "30",
                "--pi1-grid", "0.3", "--reps", "40", "--seed", "2",
                "--procedures", "bh"]
        rows = {}
        for alpha in ("0.05", "0.2"):
            code, out, _ = run_cli(capsys, argv + ["--alpha", alpha])
            assert code == 0
            rows[alpha] = list(csv.DictReader(io.StringIO(out)))[0]
        want = estimate_many([("bh", "bh")], MixtureScenario(
            N=30, pi1=0.3, rho=0.5, alpha=0.2), reps=40, seed=2)[0]
        got = rows["0.2"]
        assert [got["fdr"], got["fdr_se"], got["power"], got["power_se"]] == \
            [repr(want.fdr), repr(want.fdr_se), repr(want.power),
             repr(want.power_se)]
        assert (got["fdr"], got["power"]) != \
            (rows["0.05"]["fdr"], rows["0.05"]["power"])

    @pytest.mark.parametrize("scenario", ["gaussian", "constant", "platform"])
    def test_bad_alpha_refused_for_offline_rules(self, capsys, scenario):
        code, out, err = run_cli(capsys, [
            "simulate", "--scenario", scenario, "--n", "10",
            "--pi1-grid", "0.2", "--reps", "10", "--seed", "1",
            "--alpha", "2", "--procedures", "bh"])
        assert code == 3 and out == "" and "alpha" in err

    @pytest.mark.parametrize("names", ["", ",", " , "])
    def test_no_procedures_exits_3(self, capsys, names):
        code, out, err = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10",
            "--pi1-grid", "0.2", "--reps", "10", "--seed", "1",
            "--procedures", names])
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("onfdr: ")

    def test_unknown_procedure_exits_3(self, capsys):
        code, _, err = run_cli(capsys, [
            "simulate", "--scenario", "gaussian", "--n", "10",
            "--pi1-grid", "0.2", "--reps", "10", "--seed", "1",
            "--procedures", "lord9"])
        assert code == 3 and "unknown procedures" in err

    @pytest.mark.parametrize("arms", ["0", "-3"])
    def test_platform_without_arms_exits_3(self, capsys, arms):
        code, out, err = run_cli(capsys, [
            "simulate", "--scenario", "platform", "--n", arms,
            "--pi1-grid", "0.2", "--reps", "10", "--procedures", "lond"])
        assert (code, out, err) == (3, "", "onfdr: K must be >= 1\n")

    @pytest.mark.parametrize("rho", ["7", "nan", "0.5"])
    def test_rho_refused_for_platform(self, capsys, rho):
        code, out, err = run_cli(capsys, [
            "simulate", "--scenario", "platform", "--n", "25",
            "--pi1-grid", "0.2", "--reps", "10", "--procedures", "lond",
            "--rho", rho])
        assert (code, out, err) == (
            3, "", "onfdr: --rho applies to the mixture scenarios only\n")

    def test_rho_defaults_to_one_half(self, capsys):
        argv = ["simulate", "--scenario", "gaussian", "--n", "20",
                "--pi1-grid", "0.3", "--reps", "20", "--seed", "4",
                "--procedures", "lord++,bh"]
        default = run_cli(capsys, argv)
        assert default[0] == 0
        assert run_cli(capsys, argv + ["--rho", "0.5"]) == default
        assert run_cli(capsys, argv + ["--rho", "0.1"])[1] != default[1]

    def test_piped_output_equal_for_every_worker_count(self):
        # stdout to a pipe is block-buffered: a forked child that flushed
        # its copy of the buffer on exit would repeat the rows before it;
        # the crossover is set to 0 so that these small calls fork
        forking_cli = ("import sys; from onfdr import cli, scenarios; "
                       "scenarios._FORK_WORK = 0; sys.exit(cli.main())")
        argv = [sys.executable, "-c", forking_cli, "simulate", "--scenario",
                "gaussian", "--n", "20", "--pi1-grid", "0.1,0.3,0.5",
                "--reps", "64", "--seed", "3", "--procedures", "lond,bh"]
        env = cli_env()
        env.pop("PYTHONUNBUFFERED", None)
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(argv, capture_output=True,
                                  env={**env, "ONFDR_THREADS": threads})
            assert (proc.returncode, proc.stderr) == (0, b"")
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        rows = outs[1].splitlines()
        assert len(rows) == len(set(rows)) == 1 + 3 * 2


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["run"],
        ["simulate", "--scenario", "gaussian", "--n", "10", "--pi1-grid",
         "0.2", "--reps", "10", "--procedures", "lond"],
        ["sequence", "--kind", "jm", "--n", "5"],
        ["kidney", "--scenario", "1"],
    ], ids=["run", "simulate", "sequence", "kidney"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, argv):
        dest = str(tmp_path / "missing" / "out.csv")
        if argv[0] == "run":
            argv = argv + ["--input", write_pvalues(tmp_path, [("h1", 0.01)])]
        code, out, err = run_cli(capsys, argv + ["--output", dest])
        assert (code, out) == (2, "")
        assert err == f"onfdr: [Errno 2] No such file or directory: {dest!r}\n"


def test_closed_pipe_exits_2():
    # about 10 MB of table, far past any pipe buffer: the writer meets the
    # closed pipe whatever the scheduling
    proc = subprocess.Popen([sys.executable, "-m", "onfdr.cli", "sequence",
                             "--kind", "jm", "--n", "200000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=cli_env())
    with proc.stderr:
        assert proc.stdout.readline() == b"index,coefficient,cumulative\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 2
    assert err == "onfdr: output closed before it was all written\n"
    assert "Traceback" not in err and "Exception ignored" not in err


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "onfdr.cli", "sequence",
                           "--kind", "uniform", "--n", "2", "--bound", "2"],
                          capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "index,coefficient,cumulative"

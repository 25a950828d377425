import contextlib
import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgtsim import analysis, cli, compression, harness, problems, topology
from cgtsim.algorithms import DivergenceError
from cgtsim.harness import (
    ConfigError,
    compare,
    parse_config,
    preset,
    preset_listing,
    run_experiment,
    run_from_config,
    trace_csv,
    verify_suite,
)
from cgtsim.topology import spectral_info
from test_topology import NumpyRefusingZeros

CONFIG_TEXT = """
[topology]
kind = ring
n = 6
directed = false
weights = outdegree
p = 0.1

[problem]
n = 6
dim = 8
rho = 0.05
noise_std = 1.0
seed = 11

[algorithm]
method = cgt
compressor = topk:k=1
K = 120
trace_every = 1

[hyper]
eta = 0.05
gamma = 0.6

[output]
prefix = smoke
certify = false
"""


def test_parse_config_round_trip():
    cfg = parse_config(CONFIG_TEXT)
    assert cfg.topology.n == 6 and not cfg.topology.directed
    assert cfg.problem.dim == 8
    assert cfg.algorithm == "cgt"
    assert cfg.compressor == "topk:k=1"
    assert cfg.hyper.eta == 0.05 and cfg.hyper.gamma == 0.6
    again = parse_config(harness.config_text(cfg))
    assert again == cfg and hash(again) == hash(cfg)


def test_config_text_round_trips_every_preset():
    for cfg in [*harness.PRESETS.values(), harness.ExperimentConfig()]:
        text = harness.config_text(cfg)
        back = parse_config(text)
        assert back == cfg
        assert harness.config_text(back) == text


@pytest.mark.parametrize("method", harness.ALGORITHMS)
def test_run_from_config_looks_up_runner_at_call_time(monkeypatch, method):
    name = {"gt": "run_gt", "cgt": "run_cgt_efficient", "cgt-ref": "run_cgt_reference",
            "efcgt": "run_efcgt_efficient", "efcgt-ref": "run_efcgt_reference"}[method]
    calls = []
    original = getattr(harness, name)

    def traced(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, traced)
    cfg = dataclasses.replace(parse_config(CONFIG_TEXT), algorithm=method, K=3)
    run_from_config(cfg)
    assert len(calls) == 1


def test_config_vector_eta_refused_at_read():
    # one step size for every agent: a list of them does not parse
    with pytest.raises(ConfigError, match=re.escape("hyper.eta: cannot parse '0.05 0.05' as float")):
        parse_config(CONFIG_TEXT.replace("eta = 0.05", "eta = 0.05 0.05"))
    with pytest.raises(ConfigError, match="hyper.eta"):
        parse_config(CONFIG_TEXT.replace("eta = 0.05", "eta = 0.05 x"))


def test_config_size_mismatch_rejected():
    bad = CONFIG_TEXT.replace("n = 6\ndim = 8", "n = 5\ndim = 8")
    with pytest.raises(ConfigError, match="must equal"):
        parse_config(bad)


def test_config_unknown_algorithm_rejected():
    with pytest.raises(ConfigError, match="method"):
        parse_config(CONFIG_TEXT.replace("method = cgt", "method = sgd"))


def test_config_bad_compressor_named():
    with pytest.raises(ConfigError, match="compressor"):
        parse_config(CONFIG_TEXT.replace("topk:k=1", "gzip"))
    # the text strips surrounding whitespace, so such a value would not round-trip
    for comp in (" topk:k=1", "topk:k=1 ", "topk:k=1\t"):
        with pytest.raises(ConfigError, match=r"^algorithm\.compressor: "):
            dataclasses.replace(harness.ExperimentConfig(), compressor=comp)


def test_config_missing_required_field():
    no_eta = CONFIG_TEXT.replace("eta = 0.05\n", "")
    with pytest.raises(ConfigError, match="hyper.eta"):
        parse_config(no_eta)


def test_config_unknown_key_rejected():
    # a misspelt required key is reported as unknown, not as the missing field
    for old, new, message in [("gamma = 0.6", "gama = 0.6", r"hyper\.gama"),
                              ("eta = 0.05", "etaa = 0.05", r"hyper\.etaa"),
                              ("n = 6\ndim", "nn = 6\ndim", r"problem\.nn"),
                              ("method = cgt", "methd = cgt", r"algorithm\.methd")]:
        with pytest.raises(ConfigError, match=message + ": unknown key"):
            parse_config(CONFIG_TEXT.replace(old, new))


def test_config_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"\[hyperparams\]: unknown section"):
        parse_config(CONFIG_TEXT + "\n[hyperparams]\ngamma = 0.5\n")


@pytest.mark.parametrize("old,new,message", [
    ("eta = 0.05", "eta = -1", "hyper.eta: step-size eta must be positive and finite, got -1.0"),
    ("gamma = 0.6", "gamma = 0", "hyper.gamma: consensus step-size gamma must be in (0, 1], got 0.0"),
    ("gamma = 0.6", "gamma = 0.6\nalpha_x = 2", "hyper.alpha_x: alpha_x must be in (0, 1], got 2.0"),
], ids=["eta", "gamma", "alpha_x"])
def test_config_hyper_field_error_named(old, new, message):
    with pytest.raises(ConfigError) as info:
        parse_config(CONFIG_TEXT.replace(old, new))
    assert str(info.value) == message


def test_config_percent_is_literal():
    cfg = parse_config(CONFIG_TEXT.replace("prefix = smoke", "prefix = run%1"))
    assert cfg.prefix == "run%1"
    assert parse_config(harness.config_text(cfg)) == cfg
    with pytest.raises(ConfigError, match="algorithm.compressor"):
        parse_config(CONFIG_TEXT.replace("topk:k=1", "topk:k=%(x)s"))


@pytest.mark.parametrize("prefix", ["run #1", "run ;1", "#run", ";run", "run\n1", "run\r1",
                                    " run", "run ", "run\t"])
def test_config_prefix_the_text_cannot_hold_rejected(prefix):
    with pytest.raises(ConfigError, match=r"^output\.prefix: "):
        dataclasses.replace(harness.ExperimentConfig(), prefix=prefix)


def test_config_prefix_with_inner_comment_char_round_trips():
    cfg = dataclasses.replace(harness.ExperimentConfig(), prefix="run#1;a b")
    assert parse_config(harness.config_text(cfg)) == cfg


@pytest.mark.parametrize("old,new,section,field,value", [
    ("kind = ring", "kind = torus", "topology", "kind", "torus"),
    ("weights = outdegree", "weights = metropolis", "topology", "weights", "metropolis"),
    ("n = 6", "n = 30", "topology", "n", 30),
    ("method = cgt", "method = sgd", None, "algorithm", "sgd"),
    ("K = 120", "K = 0", None, "K", 0),
    ("trace_every = 1", "trace_every = 0", None, "trace_every", 0),
    ("trace_every = 1", "trace_every = 1\ninit = ones", None, "init", "ones"),
    ("topk:k=1", "gzip", None, "compressor", "gzip"),
    ("topk:k=1", "topk:k=9", None, "compressor", "topk:k=9"),
    ("prefix = smoke", "prefix = sub/run", None, "prefix", "sub/run"),
], ids=["kind", "weights", "n", "method", "K", "trace_every", "init", "compressor",
        "compressor-dim", "prefix"])
def test_config_replace_refuses_what_the_text_refuses(old, new, section, field, value):
    # a config checks itself when it is made, so replace() gives the text's message
    with pytest.raises(ConfigError) as from_text:
        parse_config(CONFIG_TEXT.replace(old, new, 1))
    cfg = parse_config(CONFIG_TEXT)
    change = ({field: value} if section is None
              else {section: dataclasses.replace(getattr(cfg, section), **{field: value})})
    with pytest.raises(ConfigError) as from_replace:
        dataclasses.replace(cfg, **change)
    assert str(from_replace.value) == str(from_text.value)


def test_config_with_a_network_of_another_size_is_refused_when_made():
    # a 30-agent W on the 10-agent problem: no config holds it, so no certificate
    # can be reported for it
    cfg = preset("fig1-cgt")
    with pytest.raises(ConfigError, match=re.escape("topology.n (30) must equal problem.n (10)")):
        dataclasses.replace(cfg, topology=dataclasses.replace(cfg.topology, n=30))


def test_run_experiment_writes_csv_and_summary(tmp_path):
    cfg = parse_config(CONFIG_TEXT)
    outcome = run_experiment(cfg, out_dir=tmp_path)
    assert outcome.csv_path.exists()
    lines = outcome.csv_path.read_text().splitlines()
    assert lines[0] == harness.CSV_HEADER
    assert len(lines) == cfg.K + 2  # header + K+1 rows at trace_every=1
    assert "final_residual=" in outcome.summary
    assert "bits=" in outcome.summary
    res = outcome.result
    assert outcome.summary.endswith(
        f" max_tracking_violation={res.max_tracking_violation:.3e}"
        f" max_mean_drift={res.max_mean_drift:.3e}")


def test_csv_byte_identical_across_runs(tmp_path):
    cfg = parse_config(CONFIG_TEXT)
    a = run_experiment(cfg, out_dir=tmp_path / "a").csv_path.read_bytes()
    b = run_experiment(cfg, out_dir=tmp_path / "b").csv_path.read_bytes()
    assert a == b


def test_total_bits_matches_model():
    cfg = parse_config(CONFIG_TEXT)
    res = run_from_config(cfg)
    from cgtsim.compression import TopK, bit_cost
    per_iter = 6 * 2 * bit_cost(TopK(k=1), 8)
    assert res.trace[-1].bits_sent == per_iter * cfg.K


def test_certificate_report_written(tmp_path):
    cfg = parse_config(CONFIG_TEXT.replace("certify = false", "certify = true"))
    outcome = run_experiment(cfg, out_dir=tmp_path)
    assert outcome.cert_path is not None and outcome.cert_path.exists()
    text = outcome.cert_path.read_text()
    assert "verdict = certified" in text
    assert "profile:" in text


def test_divergence_keeps_partial_trace(tmp_path):
    # oversized step on a biased compressor trips the guard
    from dataclasses import replace
    base = parse_config(CONFIG_TEXT)
    cfg = replace(base, hyper=harness.HyperParams(eta=60.0, gamma=0.6), K=4000)
    outcome = run_experiment(cfg, out_dir=tmp_path)
    assert outcome.diverged
    assert "DIVERGED" in outcome.summary
    res = outcome.result
    assert outcome.summary.endswith(
        f" max_tracking_violation={res.max_tracking_violation:.3e}"
        f" max_mean_drift={res.max_mean_drift:.3e}")
    assert outcome.csv_path.exists()
    assert len(outcome.csv_path.read_text().splitlines()) >= 3


def test_compare_merges_aligned_traces(tmp_path):
    base = parse_config(CONFIG_TEXT)
    from dataclasses import replace
    other = replace(base, algorithm="efcgt", prefix="smoke-ef")
    path = compare([base, other], out_dir=tmp_path, prefix="merged")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,cgt:topk:k=1,efcgt:topk:k=1"
    assert len(lines) == base.K + 2


def test_compare_header_quotes_a_label_with_a_comma(tmp_path):
    base = parse_config(CONFIG_TEXT)
    quant = dataclasses.replace(base, compressor="quant:b=2,q=inf")
    path = compare([quant, base, quant], out_dir=tmp_path, prefix="merged")
    text = path.read_text()
    assert text.splitlines()[0] == 'k,"cgt:quant:b=2,q=inf",cgt:topk:k=1,"cgt:quant:b=2,q=inf"'
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["k", "cgt:quant:b=2,q=inf", "cgt:topk:k=1", "cgt:quant:b=2,q=inf"]
    assert len(rows) == base.K + 2 and all(len(row) == 4 for row in rows)


def test_compare_single_config_passthrough(tmp_path):
    base = parse_config(CONFIG_TEXT)
    path = compare([base], out_dir=tmp_path)
    assert path.read_text().splitlines()[0] == "k,cgt:topk:k=1"


def test_compare_rejects_mismatched_problems(tmp_path):
    from dataclasses import replace
    base = parse_config(CONFIG_TEXT)
    other = replace(base, problem=replace(base.problem, seed=99))
    with pytest.raises(ConfigError, match="problem"):
        compare([base, other], out_dir=tmp_path)


def test_compare_rejects_mismatched_topology(tmp_path):
    from dataclasses import replace
    base = parse_config(CONFIG_TEXT)
    other = replace(base, topology=replace(base.topology, directed=True))
    with pytest.raises(ConfigError, match="topology"):
        compare([base, other], out_dir=tmp_path)


def test_compare_overlay_error_feedback_wins(tmp_path):
    # directed-ring top-1 pair: the error-feedback run reaches any given
    # residual level in fewer iterations, as the merged overlay shows
    a = dataclasses.replace(preset("fig3b-cgt", K=8000), trace_every=40)
    b = dataclasses.replace(preset("fig3b-efcgt", K=8000), trace_every=40, prefix="fig3b-efcgt")
    path = compare([a, b], out_dir=tmp_path, prefix="fig3b-overlay")
    lines = path.read_text().splitlines()
    assert lines[0] == "k,cgt:topk:k=1,efcgt:topk:k=1"
    last = lines[-1].split(",")
    assert float(last[2]) < float(last[1])


def test_presets_cover_the_table_rows():
    names = set(harness.PRESETS)
    expected = {
        "fig1-cgt", "fig2-cgt-directed",
        "fig3a-cgt", "fig3a-efcgt", "fig3b-cgt", "fig3b-efcgt",
        "fig4a-cgt", "fig4a-efcgt", "fig4b-cgt", "fig4b-efcgt",
        "fig5-cgt-normsign", "fig5-efcgt-normsign",
        "fig5-cgt-rescaled", "fig5-efcgt-rescaled",
    }
    assert names == expected
    # table values spot-checked against the parameter tables
    p = preset("fig3b-cgt")
    assert (p.hyper.eta, p.hyper.gamma) == (0.00034, 0.5)
    p = preset("fig3b-efcgt")
    assert (p.hyper.eta, p.hyper.gamma) == (0.0043, 1.0)
    p = preset("fig5-cgt-normsign")
    assert (p.hyper.eta, p.hyper.alpha_x) == (0.01, 0.05)
    p = preset("fig2-cgt-directed")
    assert p.K == 50_000 and p.hyper.eta == 0.0047
    p = preset("fig1-cgt")
    assert p.hyper.eta == 0.09 and not p.topology.directed


def test_preset_listing_mentions_omitted_baseline():
    listing = preset_listing()
    assert "omitted" in listing
    assert "fig1-cgt" in listing


def test_preset_overrides():
    p = preset("fig1-cgt", K=100, seed=3)
    assert p.K == 100 and p.problem.seed == 3
    # the keyed streams reduce a seed mod 2**64, so one outside [0, 2**64) is refused
    assert preset("fig1-cgt", seed=2**64 - 1).problem.seed == 2**64 - 1
    with pytest.raises(ConfigError) as exc:
        preset("fig1-cgt", seed=2**64)
    assert str(exc.value) == "problem.seed: must be in [0, 2**64), got 18446744073709551616"
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("fig9-lead")


@pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "3"])
def test_preset_refuses_a_seed_that_is_not_an_integer(seed):
    # a seed is refused when the config is made, not truncated or crashed on in the run
    with pytest.raises(ConfigError) as exc:
        preset("fig1-cgt", K=10, seed=seed)
    assert str(exc.value) == f"problem.seed: must be an integer, got {seed!r}"


def test_preset_takes_a_numpy_integer_seed_as_its_int_and_refuses_a_bool():
    for seed, want in ((np.int64(3), 3), (np.uint64(2**64 - 1), 2**64 - 1)):
        cfg = preset("fig1-cgt", K=10, seed=seed)
        assert trace_csv(run_from_config(cfg).trace) == trace_csv(
            run_from_config(preset("fig1-cgt", K=10, seed=want)).trace)
    # a bool seed is refused: config_text would write seed = True, which parse_config refuses
    with pytest.raises(ConfigError) as exc:
        preset("fig1-cgt", K=10, seed=True)
    assert str(exc.value) == "problem.seed: must be an integer, got True"


def test_config_text_reads_back_numpy_integer_counts():
    # every count a config holds, made NumPy integers, reads back from its text as the same value
    base = preset("fig1-cgt")
    cfg = dataclasses.replace(
        base, K=np.int64(30), trace_every=np.int32(3),
        topology=dataclasses.replace(base.topology, n=np.int64(6)),
        problem=dataclasses.replace(base.problem, n=np.int16(6), dim=np.int64(4),
                                    seed=np.uint64(2**64 - 1)))
    back = parse_config(harness.config_text(cfg))
    counts = [("K",), ("trace_every",), ("topology", "n"), ("problem", "n"), ("problem", "dim"),
              ("problem", "seed")]
    for path in counts:
        want, got = cfg, back
        for name in path:
            want, got = getattr(want, name), getattr(got, name)
        assert got == want and type(got) is int, path


def test_trace_csv_17_digit_floats():
    from cgtsim.algorithms import TraceRecord
    rec = TraceRecord(k=1, residual=1 / 3, opt_error=0.1, consensus_error=0,
                      tracking_error=0, compress_error_x=0, compress_error_y=0,
                      ef_error_x=0, ef_error_y=0, bits_sent=10)
    text = trace_csv([rec])
    assert "0.33333333333333331" in text


def test_csv_header_is_the_trace_record_fields_in_order():
    # trace_csv writes a row by position, so a reordered field must fail here, not
    # misalign the columns
    from cgtsim.algorithms import TraceRecord
    assert harness.CSV_HEADER.split(",") == [*TraceRecord._fields[:-1], "bits_cumulative"]
    rec = TraceRecord(7, *(2.0**-i for i in range(1, 9)), 640)
    row = next(csv.DictReader(io.StringIO(trace_csv([rec]))))
    assert [row[name] for name in harness.CSV_HEADER.split(",")] == [
        "7", *(repr(v) for v in rec[1:-1]), "640"]


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, text=CONFIG_TEXT, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_cli_run_ok(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path)
    rc = cli.main(["run", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final_residual=" in out
    assert (tmp_path / "out" / "smoke.csv").exists()


def test_cli_run_config_error_exit_1(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path, CONFIG_TEXT.replace("method = cgt", "method = foo"))
    rc = cli.main(["run", str(cfgfile)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_cli_run_missing_file_exit_1(tmp_path, capsys):
    rc = cli.main(["run", str(tmp_path / "nope.cfg")])
    assert rc == 1


@pytest.mark.parametrize("what", ["directory", "latin-1"])
def test_cli_run_unreadable_config_exit_1(tmp_path, capsys, what):
    # a directory, or a file that is not UTF-8: one config error line naming the path
    path = tmp_path
    if what == "latin-1":
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"# caf\xe9\n" + CONFIG_TEXT.encode())
    rc = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"config error: config file {path} cannot be read: ")


@pytest.mark.parametrize("below", [False, True])
def test_cli_out_at_a_regular_file_exit_1(tmp_path, capsys, below):
    # --out naming a regular file, or a path below one, is refused by every verb that writes
    cfgfile = write_cfg(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    out = str(blocker / "sub" if below else blocker)
    for argv in (["run", str(cfgfile)], ["preset", "fig3a-cgt", "--k", "5"],
                 ["compare", str(cfgfile)], ["certify", str(cfgfile)]):
        rc = cli.main(argv + ["--out", out])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1, argv
        assert err.startswith(f"config error: output directory {out} cannot be created: "), argv
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("argv,name", [
    (["run", "exp.cfg"], "smoke.csv"),
    (["run", "cert.cfg"], "smoke.cert.txt"),
    (["preset", "fig3a-cgt", "--k", "5"], "fig3a-cgt.csv"),
    (["compare", "exp.cfg"], "compare.csv"),
    (["certify", "exp.cfg"], "smoke.cert.txt"),
])
def test_cli_output_file_at_a_directory_exit_1(tmp_path, capsys, monkeypatch, argv, name):
    # a directory where a verb would write its file is refused before anything runs
    write_cfg(tmp_path)
    write_cfg(tmp_path, CONFIG_TEXT.replace("certify = false", "certify = true"), "cert.cfg")

    def never(*args, **kwargs):
        raise AssertionError("ran before its output file was checked")

    monkeypatch.setattr(harness, "run_from_config", never)
    monkeypatch.setattr(harness, "certificate_report", never)
    blocker = tmp_path / "out" / name
    blocker.mkdir(parents=True)
    argv = [str(tmp_path / a) if a.endswith(".cfg") else a for a in argv]
    rc = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"config error: output file {blocker} is a directory\n")


def test_cli_failed_write_after_a_run_exit_1(tmp_path, capsys, monkeypatch):
    # a write that fails once the run is done is one config error line naming the file
    out = tmp_path / "out"
    run = harness.run_from_config

    def run_then_block(cfg, **kwargs):
        (out / "smoke.csv").mkdir()
        return run(cfg, **kwargs)

    monkeypatch.setattr(harness, "run_from_config", run_then_block)
    rc = cli.main(["run", str(write_cfg(tmp_path)), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"config error: output file {out / 'smoke.csv'} cannot be written: ")


def test_cli_run_refuses_an_infeasible_certificate_before_the_run(tmp_path, capsys, monkeypatch):
    # the report does not depend on the run, so certify = true refuses it before anything
    # runs or is written
    def never(*args, **kwargs):
        raise AssertionError("ran before its certificate was built")

    monkeypatch.setattr(harness, "run_from_config", never)
    cfg = dataclasses.replace(preset("fig5-efcgt-normsign"), certify=True)
    out = tmp_path / "out"
    rc = cli.main(["run", str(write_cfg(tmp_path, harness.config_text(cfg))), "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        1, "config error: certification infeasible: error-feedback certification needs a "
           "contractive compressor; got C=19.0 with r=20.0\n")
    assert not (out / "fig5-efcgt-normsign.csv").exists()
    assert not (out / "fig5-efcgt-normsign.cert.txt").exists()


@pytest.mark.parametrize("verb", ["run", "certify"])
@pytest.mark.parametrize("field,message", [
    ("rho", "penalty terms 2*rho and n*rho must be finite, got rho=1e+308 at n=10"),
    ("noise_std", "features U and observations v must be finite"),
], ids=["rho", "noise_std"])
def test_cli_non_finite_problem_data_refused_at_read(tmp_path, capsys, verb, field, message):
    # rho = 1e308 overflows the penalty terms, and noise_std = 1e308 overflows v: both are
    # refused when the config is read, with no numpy warning and no traceback
    cfg = preset("fig1-cgt")
    cfg = dataclasses.replace(cfg, problem=dataclasses.replace(cfg.problem, **{field: 1e308}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main([verb, str(write_cfg(tmp_path, harness.config_text(cfg))),
                       "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"config error: problem: {message}\n")


@pytest.mark.parametrize("method", ["cgt", "efcgt"])
def test_cli_run_refuses_a_residual_normaliser_that_overflows(tmp_path, capsys, method):
    # at noise_std = 1e154 the data are finite but x* is about 7e153, so ||X0 - 1x*'||^2
    # overflows and every residual would read inf/inf = nan from k = 0 on
    cfg = dataclasses.replace(preset("fig1-cgt"), algorithm=method)
    cfg = dataclasses.replace(cfg, problem=dataclasses.replace(cfg.problem, noise_std=1e154))
    out = tmp_path / "out"
    rc = cli.main(["run", str(write_cfg(tmp_path, harness.config_text(cfg))), "--out", str(out)])
    assert (rc, capsys.readouterr().err) == (
        1, "config error: the squared distance to the optimum ||X0 - 1x*'||^2 overflows to "
           "inf (largest |x*| entry 6.926e+153); rescale the problem\n")
    assert not (out / "fig1-cgt.csv").exists()


def test_inf_trace_cells_at_the_overflow_edge_are_the_correctly_rounded_squares():
    # at noise_std = 1e153 the initial trackers, the gradients, are near 1e153 per entry:
    # the exact k = 0 tracking_error and compress_error_y, summed max-scaled, lie above
    # DBL_MAX (10^308.25), so inf is their correctly rounded value, and the run stays finite
    cfg = preset("fig1-cgt", K=50)
    cfg = dataclasses.replace(cfg, problem=dataclasses.replace(cfg.problem, noise_std=1e153))
    pb = harness.make_problem(cfg.problem)
    y0 = problems.gradient_matrix(pb, np.zeros((pb.n, pb.dim)))

    def log10_sum_sq(d):
        scale = np.abs(d).max()
        return 2 * math.log10(scale) + math.log10(float(np.sum((d / scale) ** 2)))

    # tracking_error is the spread of Y about its mean; compress_error_y is ||Y - H_y||^2
    # with H = 0
    exact = (log10_sum_sq(y0 - y0.mean(axis=0)), log10_sum_sq(y0))
    assert exact == (pytest.approx(308.56, abs=0.01), pytest.approx(308.61, abs=0.01))
    assert min(exact) > math.log10(sys.float_info.max)
    res = run_from_config(cfg)
    first = res.trace[0]
    assert (first.tracking_error, first.compress_error_y) == (math.inf, math.inf)
    assert all(math.isfinite(v) for r in res.trace[1:] for v in tuple(r))
    assert np.isfinite(res.final.Z).all() and res.trace[-1].residual < 1


@pytest.mark.parametrize("preset_name,alpha,contr", [
    ("fig1-cgt", "alpha_x", "5.008323553488432e-301"),
    ("fig3a-efcgt", "alpha_y", "5e-302"),
])
def test_cli_certify_names_an_alpha_too_small_for_a_slack(tmp_path, capsys, preset_name, alpha,
                                                         contr):
    # 1 - alpha*r*delta rounds to 1, so no slack tau > 1 exists; the refusal names the alpha
    cfg = preset(preset_name)
    cfg = dataclasses.replace(cfg, hyper=dataclasses.replace(cfg.hyper, **{alpha: 1e-300}))
    rc = cli.main(["certify", str(write_cfg(tmp_path, harness.config_text(cfg))),
                   "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (
        1, f"config error: certification infeasible: slack parameters tau must exceed 1, but "
           f"at {alpha}=1e-300 1 - {alpha}*r*delta = 1 - {contr} rounds to 1\n")


@pytest.mark.parametrize("method,comp", [("cgt", "quant:b=2,q=inf"), ("efcgt", "topk:k=1")])
def test_cli_certify_refuses_non_positive_mu_by_name(tmp_path, capsys, method, comp):
    # at rho = 1e-300 the eigensolve's rounding exceeds 2*rho, so mu comes out below zero;
    # both chains refuse it by name, not as a negative eta further down
    cfg = dataclasses.replace(preset("fig1-cgt"), algorithm=method, compressor=comp)
    cfg = dataclasses.replace(cfg, problem=dataclasses.replace(cfg.problem, rho=1e-300))
    mu = problems.constants(harness.make_problem(cfg.problem)).mu
    assert mu <= 0
    rc = cli.main(["certify", str(write_cfg(tmp_path, harness.config_text(cfg))),
                   "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (
        1, f"config error: certification infeasible: strong convexity mu must be positive, "
           f"got mu={mu!r}\n")


def test_cli_run_divergence_exit_2(tmp_path, capsys):
    text = CONFIG_TEXT.replace("eta = 0.05", "eta = 60.0").replace("K = 120", "K = 4000")
    cfgfile = write_cfg(tmp_path, text)
    rc = cli.main(["run", str(cfgfile), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (tmp_path / "out" / "smoke.csv").exists()


def test_cli_preset_list(capsys):
    rc = cli.main(["preset", "--list"])
    assert rc == 0
    assert "fig1-cgt" in capsys.readouterr().out


def test_cli_preset_unknown_exit_1(capsys):
    rc = cli.main(["preset", "fig99"])
    assert rc == 1


def test_cli_preset_run_small(tmp_path, capsys):
    rc = cli.main(["preset", "fig3a-cgt", "--k", "200", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig3a-cgt.csv").exists()


def test_cli_preset_override_refused_before_the_output_directory(tmp_path, capsys):
    out = tmp_path / "run-out"
    rc = cli.main(["preset", "fig1-cgt", "--k", "0", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "config error: algorithm.K: must be >= 1, got 0\n"
    assert not out.exists()


def test_cli_preset_seed_refused_before_the_output_directory(tmp_path, capsys):
    out = tmp_path / "run-out"
    rc = cli.main(["preset", "fig1-cgt", "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "config error: problem.seed: must be in [0, 2**64), got -1\n"
    assert not out.exists()


def test_cli_compare(tmp_path, capsys):
    a = write_cfg(tmp_path, CONFIG_TEXT, "a.cfg")
    b_text = CONFIG_TEXT.replace("method = cgt", "method = efcgt").replace("prefix = smoke", "prefix = smoke2")
    b = write_cfg(tmp_path, b_text, "b.cfg")
    rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path), "--prefix", "cmp"])
    assert rc == 0
    assert (tmp_path / "cmp.csv").exists()


def test_cli_certify(tmp_path, capsys):
    cfgfile = write_cfg(tmp_path)
    rc = cli.main(["certify", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "verdict = certified" in out
    assert (tmp_path / "smoke.cert.txt").exists()


@pytest.mark.parametrize("prefix", ["sub/run", "sub\\run", "../escaped", ".", "..", "nul\0run", ""])
def test_prefix_must_be_a_plain_file_name(tmp_path, capsys, prefix):
    cfgfile = write_cfg(tmp_path, CONFIG_TEXT.replace("prefix = smoke", f"prefix = {prefix}"))
    out = tmp_path / "out"
    for verb in ("run", "certify"):
        rc = cli.main([verb, str(cfgfile), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith("config error: output.prefix: ") and err.count("\n") == 1
    rc = cli.main(["compare", str(write_cfg(tmp_path, CONFIG_TEXT, "a.cfg")), "--out", str(out),
                   "--prefix", prefix])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("config error: compare prefix: ") and err.count("\n") == 1
    # nothing is written, inside --out or outside it
    assert sorted(path.name for path in tmp_path.rglob("*")) == ["a.cfg", "exp.cfg"]


@pytest.mark.parametrize("kind", ["topk", "randk"])
def test_k_above_dimension_refused_by_run_certify_and_bit_cost(tmp_path, capsys, kind):
    cfgfile = write_cfg(tmp_path, CONFIG_TEXT.replace("topk:k=1", f"{kind}:k=9"))  # dim = 8
    for verb in ("run", "certify"):
        rc = cli.main([verb, str(cfgfile), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert (rc, captured.err) == \
            (1, f"config error: algorithm.compressor: {kind}:k=9 exceeds dimension p=8\n")
        assert "verdict" not in captured.out
    over = compression.parse_compressor(f"{kind}:k=9")
    for price in (compression.bit_cost, compression.analytic_profile):
        with pytest.raises(compression.CompressionError, match="exceeds dimension p=8"):
            price(over, 8)
    # k == p keeps every entry: the exact profile
    assert compression.analytic_profile(compression.parse_compressor(f"{kind}:k=8"), 8) == \
        compression.CompressorProfile(C=0.0, delta=1.0, r=1.0)


@pytest.mark.parametrize("kind", ["topk", "randk"])
def test_k_above_dimension_refused_when_the_config_is_read(tmp_path, capsys, kind):
    text = CONFIG_TEXT.replace("topk:k=1", f"{kind}:k=9")  # dim = 8
    message = f"algorithm.compressor: {kind}:k=9 exceeds dimension p=8"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(text)
    # compare reads every config before it runs one, so the good config writes nothing
    good, bad = write_cfg(tmp_path, CONFIG_TEXT, "a.cfg"), write_cfg(tmp_path, text, "b.cfg")
    rc = cli.main(["compare", str(good), str(bad), "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"config error: {message}\n")
    assert not (tmp_path / "out").exists()


def _alpha_config(alpha):
    return harness.config_text(dataclasses.replace(
        harness.PRESETS["fig5-cgt-normsign"],
        hyper=dataclasses.replace(harness.PRESETS["fig5-cgt-normsign"].hyper,
                                  alpha_x=alpha, alpha_y=alpha)))


def test_cli_certify_refuses_alpha_the_run_warns_about(tmp_path, capsys):
    # normsign at p = 20 has r = 20: the certificate and the run share one range (0, 1/r]
    def certify(alpha):
        return cli.main(["certify", str(write_cfg(tmp_path, _alpha_config(alpha))),
                         "--out", str(tmp_path)])

    rc = certify(0.05)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    assert "verdict = certified\n" in captured.out
    alpha = 0.05 + 1e-13
    rc = certify(alpha)
    captured = capsys.readouterr()
    assert rc == 1, captured.out
    assert captured.err.startswith(
        f"config error: certification infeasible: alpha_x={alpha!r} outside (0, 1/r]")
    assert "Traceback" not in captured.out + captured.err
    with pytest.warns(UserWarning, match=r"alpha exceeds the theoretical range \(0, 1/r\]"):
        run_from_config(dataclasses.replace(parse_config(_alpha_config(alpha)), K=2))


def test_quantizer_run_warns_about_the_alpha_certify_refuses(tmp_path):
    # the quantizer has no analytic profile: the run reads r from the empirical one, as
    # certify does, and the estimate is made once per (kind, p)
    one_bit = dataclasses.replace(preset("fig1-cgt"), compressor="quant:b=1,q=inf", K=2)
    message = ("alpha exceeds the theoretical range (0, 1/r] = (0, 0.38693] "
               "for quant:b=1,q=inf")
    with pytest.warns(UserWarning, match=re.escape(message)):
        run_from_config(one_bit)
    with pytest.raises(ConfigError, match=r"alpha_x=1\.0 outside \(0, 1/r\] for r=2\.58"):
        harness.certificate_report(one_bit)
    kind = compression.parse_compressor(one_bit.compressor)
    assert compression.profile_for(kind, 20) is compression.profile_for(kind, 20)
    # fig1-cgt itself (two bits: C = 0.499, r = 1) and a diverging one-bit run at table K
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_from_config(dataclasses.replace(preset("fig1-cgt"), K=2))
    with pytest.warns(UserWarning, match=re.escape(message)):
        rc = cli.main(["run", str(write_cfg(tmp_path, harness.config_text(
            dataclasses.replace(one_bit, K=5000)))), "--out", str(tmp_path)])
    assert rc == cli.EXIT_DIVERGED


def test_cli_diverged_run_prints_no_floating_point_warning(tmp_path, capsys):
    # the divergence guard reports the overflow; numpy must not warn about it as well
    base = preset("fig1-cgt")
    cfg = write_cfg(tmp_path, harness.config_text(
        dataclasses.replace(base, hyper=dataclasses.replace(base.hyper, eta=1e300))))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_DIVERGED
    assert captured.out.startswith("fig1-cgt: DIVERGED at k=1 residual=inf")
    assert [str(w.message) for w in caught] == []
    assert "warning:" not in captured.err


def test_cli_prints_a_warning_as_one_line(tmp_path):
    # as the console script runs it: the warning reaches stderr as one "warning:" line,
    # with no library file, line number or source line
    one_bit = dataclasses.replace(preset("fig1-cgt"), compressor="quant:b=1,q=inf")
    cfg = write_cfg(tmp_path, harness.config_text(one_bit))
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from cgtsim.cli import main; sys.exit(main())",
         "run", str(cfg), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
    assert proc.returncode == cli.EXIT_DIVERGED, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: alpha exceeds the theoretical range (0, 1/r] = (0, 0.38693] for "
        "quant:b=1,q=inf; convergence is no longer guaranteed"]
    # in process the caller still receives the warning, and main restores the formatter
    formatwarning = warnings.formatwarning
    with pytest.warns(UserWarning, match="alpha exceeds"):
        rc = cli.main(["run", str(write_cfg(tmp_path, harness.config_text(
            dataclasses.replace(one_bit, K=2)))), "--out", str(tmp_path)])
    assert rc == cli.EXIT_OK
    assert warnings.formatwarning is formatwarning


def _set_line(text, key, value):
    """``text`` with the value of the one ``key = ...`` line replaced."""
    out, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    assert count == 1, key
    return out


@pytest.mark.parametrize("key,value,section", [
    ("p", "0.6", "topology"),
    ("rho", "-1", "problem"),
    ("seed", "-3", "problem.seed"),
    ("dim", "0", "problem"),
])
def test_parse_config_builds_topology_and_problem(key, value, section):
    text = harness.config_text(preset("fig1-cgt"))
    assert "directed = false" in text  # p = 0.6 leaves 1 - 2 p < 0 on the undirected ring
    with pytest.raises(ConfigError, match=f"^{section}: "):
        parse_config(_set_line(text, key, value))


def test_topology_errors_print_plain_floats():
    text = _set_line(harness.config_text(preset("fig1-cgt")), "p", "0.6")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == ("topology: agent 0: 1 - Deg_out*p = -0.19999999999999996 <= 0 "
                              "(Deg_out=2, p=0.6)")
    # the Laplacian scheme is the outdegree stencil with p = a, and refused as that
    laplacian = _set_line(_set_line(text, "weights", "laplacian"), "a", "0.75")
    with pytest.raises(ConfigError) as exc:
        parse_config(laplacian)
    assert str(exc.value) == "topology: agent 0: 1 - Deg_out*p = -0.5 <= 0 (Deg_out=2, p=0.75)"


@pytest.mark.parametrize("verb", ["run", "certify"])
@pytest.mark.parametrize("n,directed,a,deg", [
    (4, False, 0.5, 2), (2, False, 1.0, 1), (10, True, 1.0, 1), (10, False, 0.5, 2),
    (100, False, 0.5, 2),
], ids=["n4", "n2", "directed-n10", "n10", "n100"])
def test_cli_refuses_laplacian_ring_with_zero_self_weight(tmp_path, capsys, verb, n, directed,
                                                           a, deg):
    # a = 1/deg leaves each agent no self weight: a periodic ring whose spectral gap is 0,
    # which certify would divide by or certify on rounding noise
    cfg = preset("fig1-cgt")
    cfg = dataclasses.replace(
        cfg, problem=dataclasses.replace(cfg.problem, n=n),
        topology=dataclasses.replace(cfg.topology, n=n, directed=directed, weights="laplacian", a=a))
    rc = cli.main([verb, str(write_cfg(tmp_path, harness.config_text(cfg))),
                   "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (
        1, f"config error: topology: agent 0: 1 - Deg_out*p = 0.0 <= 0 (Deg_out={deg}, p={a!r})\n")


@pytest.mark.parametrize("method,comp", [("cgt", "quant:b=2,q=inf"), ("efcgt", "topk:k=1")])
@pytest.mark.parametrize("directed,p", [(False, 1e-300), (True, 0.9999999999999999)],
                         ids=["tiny-p", "p-below-one"])
def test_cli_certify_refuses_zero_spectral_gap_by_name(tmp_path, capsys, method, comp,
                                                        directed, p):
    # both rings build, but the power iteration rounds their gap s to exactly 0, and
    # every certificate constant c1..c4 divides by s
    cfg = dataclasses.replace(preset("fig1-cgt"), algorithm=method, compressor=comp)
    cfg = dataclasses.replace(cfg, topology=dataclasses.replace(cfg.topology, directed=directed, p=p))
    assert spectral_info(harness.make_topology(cfg.topology)).s == 0.0
    rc = cli.main(["certify", str(write_cfg(tmp_path, harness.config_text(cfg))),
                   "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (
        1, "config error: certification infeasible: spectral gap s must be positive, got s=0.0\n")


def test_cli_certify_refuses_an_unconverged_spectral_norm(tmp_path, capsys, monkeypatch):
    # a budget too small for fig1's ring stands in for a directed ring of about 520 or more
    # agents at p = 0.1, which the default 100000 steps do not resolve
    monkeypatch.setattr(topology, "_POWER_MAX_ITER", 20)
    rc = cli.main(["certify", str(write_cfg(tmp_path, harness.config_text(preset("fig1-cgt")))),
                   "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert re.fullmatch(r"config error: spectral norm's power iteration did not converge in 20 "
                        r"steps: its estimate \S+ of \|\|M\|\|\^2 still moved by more than 1e-12 "
                        r"\(relative\)\n", captured.err), captured.err
    assert not (tmp_path / "out" / "fig1-cgt.cert.txt").exists()


@pytest.mark.parametrize("section,builder", [("problem", "generate_ridge")])
def test_cli_refuses_a_size_that_cannot_be_allocated(tmp_path, capsys, monkeypatch, section,
                                                     builder):
    # a patched builder stands in for numpy refusing a problem too large for memory; asking
    # numpy for such an array could succeed lazily and touch gigabytes
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    text = harness.config_text(preset("fig1-cgt"))
    monkeypatch.setattr(harness, builder, refuse)
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == f"{section}: {message}"
    rc = cli.main(["run", str(write_cfg(tmp_path, text)), "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (1, f"config error: {section}: {message}\n")


def test_cli_refuses_a_ring_whose_dense_form_cannot_be_allocated(tmp_path, capsys, monkeypatch):
    # making W reads its stencil and allocates nothing, so the config is read; run and
    # certify each build a dense form, which numpy refuses here, and refuse it by name
    # before they write anything
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"
    text = harness.config_text(preset("fig1-cgt"))
    monkeypatch.setattr(topology, "np", NumpyRefusingZeros(message))
    parse_config(text)
    cfg_path = write_cfg(tmp_path, text)
    want = (f"config error: topology: the dense n x n form of the ring's weights at n=10 "
            f"cannot be allocated: {message}\n")
    for verb in ("run", "certify"):
        rc = cli.main([verb, str(cfg_path), "--out", str(tmp_path / "out")])
        assert (rc, capsys.readouterr()) == (1, ("", want)), verb
    assert not list(tmp_path.glob("out/*"))


def test_gt_certificate_describes_the_identity_operator_it_runs():
    cfgs = {comp: parse_config(CONFIG_TEXT.replace("method = cgt", "method = gt")
                               .replace("compressor = topk:k=1", f"compressor = {comp}"))
            for comp in ("quant:b=2,q=inf", "identity")}
    report = harness.certificate_report(cfgs["quant:b=2,q=inf"])
    assert report == harness.certificate_report(cfgs["identity"])
    assert f"compressor = {run_from_config(cfgs['quant:b=2,q=inf']).compressor}\n" in report


def test_cli_out_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "envout"))
    cfgfile = write_cfg(tmp_path)
    rc = cli.main(["run", str(cfgfile)])
    assert rc == 0
    assert (tmp_path / "envout" / "smoke.csv").exists()


def test_verify_suite_all_pass():
    checks = verify_suite(seed=1)
    failed = [c for c in checks if not c.passed]
    assert not failed, harness.verify_report(checks)


def test_verify_suite_reports_a_failed_certificate_and_a_guard_that_did_not_trip(monkeypatch):
    # each failure is one FAIL record with its detail, and the suite runs on past it
    def refuse(*args, **kw):
        raise analysis.AnalysisError("chain refused")

    run = harness.run_cgt_efficient

    def never_diverges(*args, **kw):
        try:
            return run(*args, **kw)
        except DivergenceError as exc:
            return exc.partial

    monkeypatch.setattr(analysis, "sufficient_params", refuse)
    monkeypatch.setattr(harness, "run_cgt_efficient", never_diverges)
    checks = verify_suite(seed=1)
    failed = [(c.name, c.detail) for c in checks if not c.passed]
    assert failed == [("certificate (identity)", "chain refused"),
                      ("certificate (top-1)", "chain refused"),
                      ("divergence guard triggers (expected failure)", "run did not diverge")]
    report = harness.verify_report(checks).splitlines()
    assert "[FAIL] certificate (top-1) -- chain refused" in report
    assert "[FAIL] divergence guard triggers (expected failure) -- run did not diverge" in report
    assert report[-1] == f"{len(checks) - 3}/{len(checks)} checks passed"


def test_cli_verify_exit_0(capsys):
    rc = cli.main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "checks passed" in out


@pytest.mark.parametrize("old,new", [
    ("eta = 0.05", "eta = -1"),
    ("eta = 0.05", "eta = nan"),
    ("dim = 8", "dim = 0"),
    ("dim = 8\n", "dim = 20\n"),  # with top-50 below: k exceeds the dimension
    ("p = 0.1", "p = 0.9"),
    ("seed = 11", "seed = -1"),
    ("compressor = topk:k=1", "compressor = quant:b=99999,q=inf"),
    ("rho = 0.05", "rho = inf"),
    ("noise_std = 1.0", "noise_std = nan"),
    ("compressor = topk:k=1", "compressor = topk:k=1%"),
], ids=["eta-negative", "eta-nan", "dim-zero", "topk-exceeds-dim", "weights-p-too-large",
        "seed-negative", "quant-bits-overflow", "rho-inf", "noise-std-nan", "compressor-percent"])
def test_cli_bad_config_exit_1_without_traceback(tmp_path, capsys, old, new):
    text = CONFIG_TEXT.replace(old, new)
    if new == "dim = 20\n":
        text = text.replace("topk:k=1", "topk:k=50")
    cfgfile = write_cfg(tmp_path, text)
    rc = cli.main(["run", str(cfgfile), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1, captured.err
    assert "config error:" in captured.err
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("compressor", [
    "normsign:q=inf,r=3", "topk:k=1,kk=2", "identity:k=3", "topk:k=1,k=2",
])
def test_cli_run_stray_compressor_argument_exit_1(tmp_path, capsys, compressor):
    cfgfile = write_cfg(tmp_path, CONFIG_TEXT.replace("topk:k=1", compressor))
    rc = cli.main(["run", str(cfgfile), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1, captured.err
    assert captured.err.startswith("config error: algorithm.compressor:")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.out + captured.err


# signs, zero, non-finite, overflow, junk, empty, two numbers, interpolation syntax, bad
# compressor strings; none parses as an int above 100, so n and dim stay at their preset
# sizes or fail
_HOSTILE = ["-1", "0", "nan", "inf", "-inf", "1e308", "abc", "", "1 2", "%1", "%(x)s",
            "quant:b=99999,q=inf", "quant:b=0,q=2", "quant:b=2,q=3", "quant", "topk:k=0",
            "topk:k=", "topk:k=1e308", "randk:k=-1", "normsign:q=nan", "identity:k=1"]


@given(name=st.sampled_from(sorted(harness.PRESETS)), data=st.data())
@settings(max_examples=300, deadline=None)
def test_cli_run_mutated_preset_exits_without_traceback(name, data):
    lines = harness.config_text(dataclasses.replace(harness.PRESETS[name], K=20)).splitlines()
    i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if " = " in line]))
    lines[i] = lines[i].split(" = ")[0] + " = " + data.draw(st.sampled_from(_HOSTILE))
    # a huge eta, rho or noise_std diverges (exit 2); its overflow warnings are expected
    with tempfile.TemporaryDirectory() as tmp, np.errstate(all="ignore"), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        path = Path(tmp) / "fuzz.cfg"
        path.write_text("\n".join(lines) + "\n")
        rc = cli.main(["run", str(path), "--out", tmp])
    assert rc in (0, 1, 2)


def test_cli_compare_divergence_exit_2(tmp_path, capsys):
    text = CONFIG_TEXT.replace("eta = 0.05", "eta = 60.0").replace("K = 120", "K = 4000")
    a = write_cfg(tmp_path, text, "a.cfg")
    b = write_cfg(tmp_path, text.replace("method = cgt", "method = efcgt"), "b.cfg")
    rc = cli.main(["compare", str(a), str(b), "--out", str(tmp_path), "--prefix", "cmp"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "diverged" in captured.err
    assert "Traceback" not in captured.out + captured.err
    # the merged CSV keeps both partial traces, each blank after its last recorded k
    assert "cmp.csv" in captured.err
    lines = (tmp_path / "cmp.csv").read_text().splitlines()
    assert lines[0] == "k,cgt:topk:k=1,efcgt:topk:k=1"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert len(rows) < 4001
    for col in (1, 2):
        cells = [r[col] for r in rows]
        last = max(i for i, cell in enumerate(cells) if cell)
        assert all(cells[: last + 1]) and not any(cells[last + 1:])
        final = float(cells[last])
        assert not math.isfinite(final) or final > 1e12


def test_compare_keeps_converged_column_past_divergence(tmp_path):
    base = parse_config(CONFIG_TEXT)
    wild = dataclasses.replace(base, algorithm="efcgt",
                               hyper=dataclasses.replace(base.hyper, eta=60.0))
    with pytest.raises(DivergenceError, match="merged.csv"):
        compare([base, wild], out_dir=tmp_path, prefix="merged")
    rows = [line.split(",") for line in (tmp_path / "merged.csv").read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(base.K + 1))
    assert all(r[1] for r in rows)
    assert rows[1][2] and not rows[-1][2]

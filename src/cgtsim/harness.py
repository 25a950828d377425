"""Experiment runner: configs, presets, CSV traces, certificates, verification.

Config files are flat key = value text with section headers, e.g.::

    [topology]
    kind = ring
    n = 10
    directed = true
    weights = outdegree
    p = 0.1

    [problem]
    n = 10
    dim = 20
    rho = 0.01
    noise_std = 5.0
    seed = 7

    [algorithm]
    method = cgt
    compressor = quant:b=2,q=inf
    K = 5000
    trace_every = 10

    [hyper]
    eta = 0.09
    gamma = 1.0
    alpha_x = 1.0
    alpha_y = 1.0

    [output]
    prefix = fig1-cgt
    certify = false
"""

from __future__ import annotations

import configparser
import csv
import io
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import analysis, compression, problems, topology
from .algorithms import (
    AlgorithmError,
    DivergenceError,
    HyperParams,
    RunResult,
    TraceRecord,
    run_cgt_efficient,
    run_cgt_reference,
    run_efcgt_efficient,
    run_efcgt_reference,
    run_gt,
)
from .compression import (
    Identity,
    NormSign,
    TopK,
    UnbiasedQuantize,
    analytic_profile,
    compress,
    parse_compressor,
    profile_for,
)
from .problems import constants as problem_constants
from .problems import generate_ridge
from .topology import build_ring, build_weights_outdegree, check_doubly_stochastic, spectral_info

OUT_DIR_ENV = "CGTSIM_OUT_DIR"

# the trace's fields in order, with bits_sent written as the running total it is
CSV_HEADER = ",".join([*TraceRecord._fields[:-1], "bits_cumulative"])

# method -> runner; each lambda finds its run_* here when a run starts, so a
# patched or traced runner is the one called
_RUNNERS = {
    "gt": lambda pb, W, hp, kind, K, seed, **kw: run_gt(pb, W, hp, K, seed, **kw),
    "cgt": lambda *args, **kw: run_cgt_efficient(*args, **kw),
    "cgt-ref": lambda *args, **kw: run_cgt_reference(*args, **kw),
    "efcgt": lambda *args, **kw: run_efcgt_efficient(*args, **kw),
    "efcgt-ref": lambda *args, **kw: run_efcgt_reference(*args, **kw),
}
ALGORITHMS = tuple(_RUNNERS)


class ConfigError(ValueError):
    """Raised with a named-field diagnostic for a config that cannot run: when its text
    is read, or when an ``ExperimentConfig`` is made or replaced."""


# what the config text cannot hold in a value: a line break (files are read with
# universal newlines) or an inline comment, which starts at a '#' or ';' that
# opens the value or follows whitespace
_NOT_IN_TEXT = re.compile(r"[\r\n]|(?:^|\s)[#;]")


def _check_file_name(where: str, name: str) -> None:
    """Refuse an output name that is not a plain file name inside the output directory."""
    if any(c in name for c in "/\\\0") or name in ("", ".", ".."):
        raise ConfigError(f"{where}: {name!r} is not a plain file name "
                          "(no '/', '\\' or NUL, not empty, '.' or '..')")


@dataclass(frozen=True)
class TopologySpec:
    kind: str = "ring"
    n: int = 10
    directed: bool = True
    weights: str = "outdegree"  # or "laplacian"
    p: float = 0.1
    a: float = 0.25


@dataclass(frozen=True)
class ProblemSpec:
    n: int = 10
    dim: int = 20
    rho: float = 0.01
    noise_std: float = 5.0
    seed: int = 405


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings.  Its own fields are checked when it is made, and
    ``dataclasses.replace`` checks the new config again; the ring weights and the problem
    data are checked where they are built, by ``parse_config`` or by a run or certificate."""

    topology: TopologySpec = TopologySpec()
    problem: ProblemSpec = ProblemSpec()
    algorithm: str = "cgt"
    compressor: str = "identity"
    hyper: HyperParams = HyperParams(eta=0.01)
    K: int = 5000
    trace_every: int = 10
    init: str = "zeros"
    prefix: str = "run"
    certify: bool = False

    def __post_init__(self) -> None:
        if self.topology.kind != "ring":
            raise ConfigError(f"topology.kind: unknown kind {self.topology.kind!r}")
        if self.topology.weights not in ("outdegree", "laplacian"):
            raise ConfigError(f"topology.weights: unknown scheme {self.topology.weights!r}")
        if self.topology.n != self.problem.n:
            raise ConfigError(
                f"topology.n ({self.topology.n}) must equal problem.n ({self.problem.n})"
            )
        if not problems._is_int(self.problem.seed):
            raise ConfigError(f"problem.seed: must be an integer, got {self.problem.seed!r}")
        if not 0 <= self.problem.seed < 2**64:  # the keyed streams reduce seeds mod 2**64
            raise ConfigError(f"problem.seed: must be in [0, 2**64), got {self.problem.seed!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm.method: {self.algorithm!r} not in {ALGORITHMS}")
        for name in ("K", "trace_every"):
            if not problems._is_int(getattr(self, name)):
                raise ConfigError(f"algorithm.{name}: must be an integer, "
                                  f"got {getattr(self, name)!r}")
        if self.K < 1:
            raise ConfigError(f"algorithm.K: must be >= 1, got {self.K}")
        if self.trace_every < 1:
            raise ConfigError(f"algorithm.trace_every: must be >= 1, got {self.trace_every}")
        if self.init not in ("zeros", "uniform"):
            raise ConfigError(f"algorithm.init: {self.init!r} not in ('zeros', 'uniform')")
        if self.compressor != self.compressor.strip():
            raise ConfigError(f"algorithm.compressor: {self.compressor!r} would not read back "
                              "from config text (surrounding whitespace)")
        try:
            kind = parse_compressor(self.compressor)
            if self.problem.dim >= 1:  # a smaller dimension is the problem section's error
                compression.check_dimension(kind, self.problem.dim)
        except compression.CompressionError as exc:
            raise ConfigError(f"algorithm.compressor: {exc}") from None
        if self.prefix != self.prefix.strip() or _NOT_IN_TEXT.search(self.prefix):
            raise ConfigError(f"output.prefix: {self.prefix!r} would not read back from config "
                              "text (line break, comment prefix or surrounding whitespace)")
        _check_file_name("output.prefix", self.prefix)


def _parse_value(section: str, key: str, conv: Callable, raw: str):
    try:
        if conv is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return conv(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {conv.__name__}") from None


# The config text format: each section's keys in render order, with the parser
# that reads a value and picks how it is written.  [topology], [problem] and
# [hyper] hold the fields of the config's attribute of that name, [algorithm]
# and [output] the config's own fields.  A key the text leaves out takes the
# dataclass default.
_FORMAT: dict[str, dict[str, Callable]] = {
    "topology": {"kind": str, "n": int, "directed": bool, "weights": str, "p": float, "a": float},
    "problem": {"n": int, "dim": int, "rho": float, "noise_std": float, "seed": int},
    "algorithm": {"method": str, "compressor": str, "K": int, "trace_every": int, "init": str},
    "hyper": {"eta": float, "gamma": float, "alpha_x": float, "alpha_y": float,
              "beta_x": float, "beta_y": float},
    "output": {"prefix": str, "certify": bool},
}
_SPECS = {"topology": TopologySpec, "problem": ProblemSpec, "hyper": HyperParams}
_REQUIRED = {("topology", "n"), ("problem", "n"), ("problem", "dim"), ("algorithm", "method"),
             ("hyper", "eta")}
_FIELD = {"method": "algorithm"}  # config key -> ExperimentConfig field, where they differ


def _render_value(conv: Callable, value) -> str:
    if conv is float:
        return _fmt(value)
    return str(value).lower() if conv is bool else str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Read config text; unknown sections and keys are rejected before any value is read."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None
    for section in parser.sections():
        if section not in _FORMAT:
            raise ConfigError(f"[{section}]: unknown section")
        known = {parser.optionxform(key) for key in _FORMAT[section]}
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key")
    fields = {section: {} for section in _FORMAT}
    for section, keys in _FORMAT.items():
        for key, conv in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                fields[section][_FIELD.get(key, key)] = _parse_value(section, key, conv, raw)
            elif (section, key) in _REQUIRED:
                raise ConfigError(f"{section}.{key}: missing required field")
    try:
        specs = {name: spec(**fields[name]) for name, spec in _SPECS.items()}
    except AlgorithmError as exc:  # only HyperParams checks its fields on construction
        raise ConfigError(f"hyper.{exc.field}: {exc}") from None
    cfg = ExperimentConfig(**specs, **fields["algorithm"], **fields["output"])
    # build the weights and the problem once, so a value only their constructors check,
    # or a problem too large to allocate, fails here and not when the run starts; the
    # weights hold no array, so a ring too large for its dense form is refused where
    # that form is built
    try:
        make_topology(cfg.topology)
    except topology.TopologyError as exc:
        raise ConfigError(f"topology: {exc}") from None
    try:
        make_problem(cfg.problem)
    except (problems.ProblemError, MemoryError) as exc:
        raise ConfigError(f"problem: {exc}") from None
    return cfg


def parse_config_file(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from None
    return parse_config(text)


def config_text(cfg: ExperimentConfig) -> str:
    """Render a config back to the flat text format (diff-friendly echo)."""
    blocks = []
    for section, keys in _FORMAT.items():
        owner = getattr(cfg, section) if section in _SPECS else cfg
        blocks.append(f"[{section}]\n" + "".join(
            f"{key} = {_render_value(conv, getattr(owner, _FIELD.get(key, key)))}\n"
            for key, conv in keys.items()))
    return "\n".join(blocks)


# ---------------------------------------------------------------------------
# building blocks

def make_topology(ts: TopologySpec) -> topology.WeightMatrix:
    """The ring's W; ``laplacian`` weights I - aL are the outdegree stencil with p = a."""
    ring = build_ring(ts.n, directed=ts.directed)
    return build_weights_outdegree(ring, ts.p if ts.weights == "outdegree" else ts.a)


def make_problem(ps: ProblemSpec) -> problems.RidgeProblem:
    return generate_ridge(ps.n, ps.dim, ps.rho, ps.noise_std, ps.seed)


def run_from_config(cfg: ExperimentConfig) -> RunResult:
    pb = make_problem(cfg.problem)
    W = make_topology(cfg.topology)
    kind = parse_compressor(cfg.compressor)
    runner = _RUNNERS[cfg.algorithm]
    return runner(pb, W, cfg.hyper, kind, cfg.K, cfg.problem.seed,
                  trace_every=cfg.trace_every, init=cfg.init)


# ---------------------------------------------------------------------------
# CSV emission

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trace_csv(trace: list[TraceRecord]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for t in trace:
        out.write(",".join([str(t.k), *map(_fmt, t[1:-1]), str(t.bits_sent)]) + "\n")
    return out.getvalue()


def make_out_dir(override: str | Path | None = None) -> Path:
    """The output directory, ``override`` or $CGTSIM_OUT_DIR or ./out, created if missing."""
    out = Path(override if override is not None else os.environ.get(OUT_DIR_ENV, "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} cannot be created: {exc}") from None
    return out


def output_file(out_dir: str | Path | None, name: str) -> Path:
    """``name`` in :func:`make_out_dir`'s directory; a directory of that name is refused
    here, before anything runs, and not by the write after the run."""
    path = make_out_dir(out_dir) / name
    if path.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    return path


def write_output(path: Path, text: str) -> None:
    """Write ``text`` to ``path``; a failed write is a config error that names the path."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"output file {path} cannot be written: {exc}") from None


@dataclass
class ExperimentOutcome:
    result: RunResult
    csv_path: Path
    cert_path: Path | None
    summary: str
    diverged: bool = False


def chain_text(params: analysis.SufficientParams) -> str:
    """The lines :func:`certificate_report` ends with: the chain's raw test vector, then the
    verdict, radius, theta, (gamma, eta) and test vector of its certificate."""
    cert = params.certificate
    return (f"epsilon-chain = {' '.join(map(_fmt, params.epsilon))}\n"
            f"verdict = {'certified' if cert.componentwise_ok else 'not-certified'}\n"
            f"rho = {_fmt(cert.rho_M)}\ntheta = {_fmt(cert.theta)}\n"
            f"gamma = {_fmt(cert.gamma)}\neta = {_fmt(cert.eta)}\n"
            f"epsilon = {' '.join(map(_fmt, cert.epsilon))}\n")


def certificate_report(cfg: ExperimentConfig) -> str:
    """Sufficient-parameter certificate for the configured compressor and problem."""
    pb = make_problem(cfg.problem)
    W = make_topology(cfg.topology)
    spec = spectral_info(W)
    consts = problem_constants(pb)
    # run_gt executes the identity operator whatever compressor the config names
    comp = "identity" if cfg.algorithm == "gt" else cfg.compressor
    profile = profile_for(parse_compressor(comp), pb.dim)
    try:
        if cfg.algorithm in ("efcgt", "efcgt-ref"):
            params = analysis.sufficient_params_ef(
                consts, spec, profile, cfg.hyper.alpha_x, cfg.hyper.alpha_y, n=pb.n)
            system_name = "error-feedback (7x7)"
        else:
            params = analysis.sufficient_params(
                consts, spec, profile, cfg.hyper.alpha_x, cfg.hyper.alpha_y, n=pb.n)
            system_name = "plain (5x5)"
    except analysis.AnalysisError as exc:
        raise ConfigError(f"certification infeasible: {exc}") from None
    return (f"system = {system_name}\ncompressor = {comp}\n"
            f"profile: C = {_fmt(profile.C)}, delta = {_fmt(profile.delta)}, "
            f"r = {_fmt(profile.r)} ({profile.provenance})\n"
            f"mu = {_fmt(consts.mu)}\nL = {_fmt(consts.L)}\nkappa = {_fmt(consts.kappa)}\n"
            f"s = {_fmt(spec.s)}\nnorm_IminusW = {_fmt(spec.norm_IminusW)}\n" + chain_text(params))


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentOutcome:
    """Run one config; write the trace CSV (and certificate) and build a summary line."""
    csv_path = output_file(out_dir, f"{cfg.prefix}.csv")
    cert_path = output_file(out_dir, f"{cfg.prefix}.cert.txt") if cfg.certify else None
    # the report does not depend on the run, so an infeasible one is refused before it
    report = certificate_report(cfg) if cfg.certify else None
    diverged = False
    try:
        result = run_from_config(cfg)
    except DivergenceError as exc:
        result = exc.partial
        diverged = True
    write_output(csv_path, trace_csv(result.trace))
    if cert_path is not None:
        write_output(cert_path, report)
    final = result.trace[-1]
    invariants = (f"max_tracking_violation={result.max_tracking_violation:.3e} "
                  f"max_mean_drift={result.max_mean_drift:.3e}")
    if diverged:
        summary = (f"{cfg.prefix}: DIVERGED at k={final.k} residual={final.residual:.3e} "
                   f"bits={final.bits_sent} {invariants}")
    else:
        try:
            fit = analysis.empirical_rate(result.trace)
            rate_txt = f"rate={fit.rate:.6f} r2={fit.r_squared:.4f}"
        except analysis.AnalysisError:
            rate_txt = "rate=n/a"
        summary = (f"{cfg.prefix}: final_residual={final.residual:.6e} {rate_txt} "
                   f"bits={final.bits_sent} {invariants}")
    return ExperimentOutcome(result=result, csv_path=csv_path, cert_path=cert_path,
                             summary=summary, diverged=diverged)


def compare(cfgs: list[ExperimentConfig], out_dir: str | Path | None = None,
            prefix: str = "compare") -> Path:
    """Run several configs on the same problem and merge residuals column-wise.

    A diverged run's column is blank after its last recorded k; the CSV is
    written before the first divergence is raised.
    """
    _check_file_name("compare prefix", prefix)
    if not cfgs:
        raise ConfigError("compare needs at least one config")
    base = cfgs[0]
    for cfg in cfgs[1:]:
        if cfg.problem != base.problem:
            raise ConfigError("compare: problem sections differ (seeds/problems must match)")
        if cfg.topology != base.topology:
            raise ConfigError("compare: topology sections differ")
        if cfg.K != base.K or cfg.trace_every != base.trace_every:
            raise ConfigError("compare: K/trace_every differ, traces would not align")
    path = output_file(out_dir, f"{prefix}.csv")
    columns, diverged = [], []
    for c in cfgs:
        try:
            trace = run_from_config(c).trace
        except DivergenceError as exc:
            trace = exc.partial.trace
            diverged.append(exc)
        columns.append({t.k: t.residual for t in trace})
    buf = io.StringIO()
    # csv quotes a label holding a comma, such as quant:b=2,q=inf
    rows = csv.writer(buf, lineterminator="\n")
    rows.writerow(["k", *(f"{c.algorithm}:{c.compressor}" for c in cfgs)])
    for k in sorted(set().union(*columns)):
        rows.writerow([k, *(_fmt(col[k]) if k in col else "" for col in columns)])
    write_output(path, buf.getvalue())
    if diverged:
        raise DivergenceError(f"{diverged[0]}; partial traces in {path}",
                              partial=diverged[0].partial)
    return path


# ---------------------------------------------------------------------------
# presets (parameter-table rows; baseline rows from other work are omitted)

# default data draw: calibrated so every parameter-table step size behaves as
# reported (the tables pin alpha/gamma/eta but not the draw, and step-size
# stability on the ring depends on it)
_PAPER_PROBLEM = ProblemSpec(n=10, dim=20, rho=0.01, noise_std=5.0, seed=405)
_RING_DIR = TopologySpec(kind="ring", n=10, directed=True, weights="outdegree", p=0.1)
_RING_UND = TopologySpec(kind="ring", n=10, directed=False, weights="outdegree", p=0.1)

PRESET_NOTE = ("baseline rows for the LEAD algorithm are intentionally omitted: "
               "they belong to a different method and are out of scope here")


def _preset(name: str, topo: TopologySpec, algorithm: str, comp: str, hp: HyperParams,
            K: int = 5000) -> ExperimentConfig:
    return ExperimentConfig(topology=topo, problem=_PAPER_PROBLEM, algorithm=algorithm,
                            compressor=comp, hyper=hp, K=K, trace_every=10, prefix=name)


PRESETS: dict[str, ExperimentConfig] = {cfg.prefix: cfg for cfg in (
    _preset("fig1-cgt", _RING_UND, "cgt", "quant:b=2,q=inf",
            HyperParams(eta=0.09, gamma=1.0, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig2-cgt-directed", _RING_DIR, "cgt", "quant:b=2,q=inf",
            HyperParams(eta=0.0047, gamma=1.0, alpha_x=1.0, alpha_y=1.0), K=50_000),
    _preset("fig3a-cgt", _RING_UND, "cgt", "topk:k=1",
            HyperParams(eta=0.11, gamma=0.6, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig3a-efcgt", _RING_UND, "efcgt", "topk:k=1",
            HyperParams(eta=0.12, gamma=0.6, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig3b-cgt", _RING_DIR, "cgt", "topk:k=1",
            HyperParams(eta=0.00034, gamma=0.5, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig3b-efcgt", _RING_DIR, "efcgt", "topk:k=1",
            HyperParams(eta=0.0043, gamma=1.0, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig4a-cgt", _RING_UND, "cgt", "randk:k=1",
            HyperParams(eta=0.11, gamma=0.1, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig4a-efcgt", _RING_UND, "efcgt", "randk:k=1",
            HyperParams(eta=0.11, gamma=0.1, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig4b-cgt", _RING_DIR, "cgt", "randk:k=1",
            HyperParams(eta=0.0001, gamma=0.2, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig4b-efcgt", _RING_DIR, "efcgt", "randk:k=1",
            HyperParams(eta=0.0012, gamma=0.3, alpha_x=1.0, alpha_y=1.0)),
    _preset("fig5-cgt-normsign", _RING_DIR, "cgt", "normsign:q=inf",
            HyperParams(eta=0.01, gamma=1.0, alpha_x=0.05, alpha_y=0.05)),
    _preset("fig5-efcgt-normsign", _RING_DIR, "efcgt", "normsign:q=inf",
            HyperParams(eta=0.02, gamma=1.0, alpha_x=0.05, alpha_y=0.05,
                        beta_x=0.01, beta_y=0.01)),
    _preset("fig5-cgt-rescaled", _RING_DIR, "cgt", "normsign-rescaled:q=inf,r=20",
            HyperParams(eta=0.0007, gamma=0.2, alpha_x=1.0, alpha_y=1.0)),
    # the rescaled operator is contractive, so plain error feedback applies;
    # the beta damping is the fix for the non-contractive norm-sign only
    _preset("fig5-efcgt-rescaled", _RING_DIR, "efcgt", "normsign-rescaled:q=inf,r=20",
            HyperParams(eta=0.0019, gamma=0.4, alpha_x=1.0, alpha_y=1.0)),
)}


def preset(name: str, K: int | None = None, seed: int | None = None) -> ExperimentConfig:
    """Look up a preset; K and seed may be overridden (horizons are not
    tabulated in the source material, so the defaults are conventions)."""
    if name not in PRESETS:
        known = ", ".join(sorted(PRESETS))
        raise ConfigError(f"unknown preset {name!r}; known presets: {known} ({PRESET_NOTE})")
    cfg = PRESETS[name]
    if K is not None:
        cfg = replace(cfg, K=K)
    if seed is not None:
        cfg = replace(cfg, problem=replace(cfg.problem, seed=seed))
    return cfg


def preset_listing() -> str:
    lines = [f"{name}: {c.algorithm} {c.compressor} eta={c.hyper.eta:g} "
             f"gamma={c.hyper.gamma:g} alpha={c.hyper.alpha_x:g} "
             f"({'directed' if c.topology.directed else 'undirected'} ring, K={c.K})"
             for name, c in sorted(PRESETS.items())]
    lines.append(f"note: {PRESET_NOTE}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# verification suite

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def verify_suite(seed: int = 7) -> list[CheckResult]:
    """Fast battery of the library's structural invariants."""
    checks: list[CheckResult] = []

    def record(name: str, passed: bool, detail: str = "") -> None:
        checks.append(CheckResult(name=name, passed=bool(passed), detail=detail))

    rng = np.random.default_rng(seed)

    # weight matrices are doubly stochastic; a corrupted one is rejected with an index
    for directed in (True, False):
        W = make_topology(TopologySpec(n=10, directed=directed))
        ok, detail = check_doubly_stochastic(W.matrix)
        record(f"doubly-stochastic ({'directed' if directed else 'undirected'} ring)", ok, detail)
    bad = make_topology(TopologySpec(n=10, directed=True)).matrix.copy()
    bad[0, 1] += 1e-6
    ok, detail = check_doubly_stochastic(bad)
    record("fault injection: corrupted column detected", (not ok) and ("column" in detail or "row" in detail), detail)

    # mixing contraction on random matrices
    W = make_topology(TopologySpec(n=10, directed=True))
    info = spectral_info(W)
    m = W.matrix  # built on each access
    worst = 0.0
    for _ in range(20):
        omega = rng.standard_normal((10, 5))
        bar = omega.mean(axis=0)
        lhs = np.linalg.norm(m @ omega - bar)
        rhs = info.rho_w * np.linalg.norm(omega - bar)
        worst = max(worst, lhs - rhs)
    record("mixing contraction (rho_w)", worst <= 1e-9, f"max violation {worst:.2e}")

    # compressor spot checks
    out = compress(TopK(k=1), np.array([3.0, -5.0, 1.0]))
    record("top-1 keeps the largest magnitude", np.array_equal(out, [0.0, -5.0, 0.0]), str(out))
    out = compress(NormSign(q=math.inf), np.array([2.0, -1.0]))
    record("norm-sign output", np.array_equal(out, [2.0, -2.0]), str(out))
    prof = analytic_profile(NormSign(q=2), 20)
    record("norm-sign profile (q=2)", prof is not None and prof.C == 19.0 and prof.delta == 0.05,
           repr(prof))
    ratio = compression.estimate_contraction(TopK(k=1), 20, trials=1000, rng=seed)
    record("top-1 variance ratio within bound", ratio <= 0.95 * (1 + 1e-9), f"{ratio:.6f}")

    # identities on short runs
    pb = make_problem(_PAPER_PROBLEM)
    W = make_topology(_RING_UND)
    hp = HyperParams(eta=0.09, gamma=1.0)
    res = run_cgt_efficient(pb, W, hp, UnbiasedQuantize(bits=2, q=math.inf), 200, seed)
    record("tracking identity (quant)", res.max_tracking_violation <= 1e-9,
           f"{res.max_tracking_violation:.2e}")
    record("mean dynamics identity (quant)", res.max_mean_drift <= 1e-12,
           f"{res.max_mean_drift:.2e}")

    # reference/efficient equivalence
    ref = run_cgt_reference(pb, W, hp, UnbiasedQuantize(bits=2, q=math.inf), 120, seed,
                            record_states=True)
    eff = run_cgt_efficient(pb, W, hp, UnbiasedQuantize(bits=2, q=math.inf), 120, seed,
                            record_states=True)
    dev = max(
        float(np.linalg.norm(a - b) / (1 + np.linalg.norm(b)))
        for a, b in zip(ref.states[:, 0], eff.states[:, 0])
    )
    record("reference/efficient equivalence (quant)", dev <= 1e-6, f"max rel dev {dev:.2e}")

    # identity collapse and error-feedback zeroing
    gt = run_gt(pb, W, hp, 100, seed)
    ident = run_cgt_reference(pb, W, hp, Identity(), 100, seed)
    record("identity compressor collapses to plain tracking",
           np.array_equal(gt.final.X, ident.final.X))
    ef = run_efcgt_reference(pb, W, hp, Identity(), 100, seed, trace_every=1)
    record("error feedback vanishes under identity",
           all(t.ef_error_x == 0.0 and t.ef_error_y == 0.0 for t in ef.trace))

    # certificates
    consts = problem_constants(pb)
    spec = spectral_info(W)
    for label, kind in (("identity", Identity()), ("top-1", TopK(k=1))):
        profile = analytic_profile(kind, pb.dim)
        assert profile is not None
        try:
            params = analysis.sufficient_params(consts, spec, profile, 1.0, 1.0, n=pb.n)
            eig = float(np.max(np.abs(np.linalg.eigvals(params.certificate.M))))
            okc = params.certificate.componentwise_ok and abs(eig - params.certificate.rho_M) <= 1e-9
            record(f"certificate ({label})", okc,
                   f"rho={params.certificate.rho_M:.12f} eig={eig:.12f}")
        except analysis.AnalysisError as exc:
            record(f"certificate ({label})", False, str(exc))

    # divergence guard: biased compressor without error feedback and oversized step
    try:
        run_cgt_efficient(pb, make_topology(_RING_DIR), HyperParams(eta=5.0, gamma=0.5),
                          TopK(k=1), 2000, seed)
        record("divergence guard triggers (expected failure)", False, "run did not diverge")
    except DivergenceError as exc:
        record("divergence guard triggers (expected failure)", True, str(exc))

    return checks


def verify_report(checks: list[CheckResult]) -> str:
    lines = [f"[{'PASS' if c.passed else 'FAIL'}] {c.name}" + (f" -- {c.detail}" if c.detail else "")
             for c in checks]
    n_fail = sum(not c.passed for c in checks)
    lines.append(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    return "\n".join(lines)

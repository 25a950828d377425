"""Where the tracer hooks into cgtsim, and the per-layer metrics it yields.

The layers are the library's modules.  Each target is a module-level name
that some caller looks up at call time: the engine finds
``compress_rows_multi``, ``metrics``, ``optimal_solution`` and
``analytic_profile`` in ``cgtsim.algorithms``; the harness finds
``spectral_info``, ``generate_ridge``, the runners and friends in
``cgtsim.harness``; the benchmark calls through the defining modules.  The
same function bound under two names is wrapped under both, with one span name.
"""

from __future__ import annotations

from cgtsim import algorithms, analysis, compression, harness, problems, topology

from tracer import Tracer

MODULES = ("compression", "algorithms", "problems", "topology", "analysis", "harness")
STOCHASTIC_KINDS = ("quant", "randk")
KINDS = ("identity", "quant", "topk", "randk", "normsign", "normsign-rescaled")
RUNNER_NAMES = ("run_gt", "run_cgt_reference", "run_cgt_efficient",
                "run_efcgt_reference", "run_efcgt_efficient")
# dense W @ Q products per iteration (the efficient forms add two at start-up)
MIX_CALLS = {"gt": 2, "cgt-ref": 2, "efcgt-ref": 2, "cgt": 2, "efcgt": 4}


def _kind(kind) -> str:
    return compression.compressor_label(kind).split(":")[0]


def _compress_span(kind, *args, **kwargs) -> str:
    return f"compression.compress.{_kind(kind)}"


def _count_rows_multi(counts, args, kwargs, result, exc):
    blocks = args[1]
    counts[f"compression.compress.{_kind(args[0])}.rows"] += len(blocks) * blocks[0].shape[0]


def _count_rows_one(counts, args, kwargs, result, exc):
    counts[f"compression.compress.{_kind(args[0])}.rows"] += 1


def _count_run(counts, args, kwargs, result, exc):
    res = result if exc is None else getattr(exc, "partial", None)
    if res is None:
        return
    pb, W = args[0], args[1]
    n, p = W.matrix.shape[0], pb.dim
    last = res.trace[-1]
    products = last.k * MIX_CALLS[res.algorithm] + (2 if res.algorithm in ("cgt", "efcgt") else 0)
    counts["algorithms.runs"] += 1
    counts["algorithms.iterations"] += last.k
    counts["algorithms.bits_sent"] += last.bits_sent
    counts["algorithms.mix_flops_computed"] += products * 2 * n * n * p
    counts["algorithms.mix_bytes_computed"] += products * 8 * (n * n + 2 * n * p)


def _count_csv(counts, args, kwargs, result, exc):
    if result is not None:
        counts["harness.trace_csv.bytes"] += len(result.encode())


def targets():
    """(module, attribute, span name, counter) for every traced name."""
    out = [
        (algorithms, "compress_rows_multi", _compress_span, _count_rows_multi),
        (compression, "compress", _compress_span, _count_rows_one),
        (harness, "compress", _compress_span, _count_rows_one),
        (compression, "empirical_profile", "compression.empirical_profile", None),
        (harness, "profile_for", "compression.profile_for", None),
        (compression, "parse_compressor", "compression.parse_compressor", None),
        (harness, "parse_compressor", "compression.parse_compressor", None),
        (algorithms, "metrics", "algorithms.metrics", None),
        (algorithms, "default_x0", "algorithms.default_x0", None),
        (algorithms, "optimal_solution", "problems.optimal_solution", None),
        (algorithms, "gradient_matrix", "problems.gradient_matrix", None),
        (problems, "generate_ridge", "problems.generate_ridge", None),
        (harness, "generate_ridge", "problems.generate_ridge", None),
        (problems, "constants", "problems.constants", None),
        (harness, "problem_constants", "problems.constants", None),
        (analysis, "sufficient_params", "analysis.sufficient_params", None),
        (analysis, "sufficient_params_ef", "analysis.sufficient_params_ef", None),
        (analysis, "spectral_radius", "analysis.spectral_radius", None),
        (analysis, "empirical_rate", "analysis.empirical_rate", None),
        (harness, "trace_csv", "harness.trace_csv", _count_csv),
        (harness, "certificate_report", "harness.certificate_report", None),
        (harness, "verify_suite", "harness.verify_suite", None),
        (harness, "make_problem", "harness.make_problem", None),
        (harness, "make_topology", "harness.make_topology", None),
    ]
    for mod in (compression, algorithms, harness):
        out.append((mod, "analytic_profile", "compression.analytic_profile", None))
    for mod in (topology, harness):
        out += [(mod, "build_ring", "topology.build_ring", None),
                (mod, "build_weights_outdegree", "topology.build_weights_outdegree", None),
                (mod, "spectral_info", "topology.spectral_info", None)]
    for mod in (algorithms, harness):
        out += [(mod, name, "algorithms.engine", _count_run) for name in RUNNER_NAMES]
    return out


def install(tracer: Tracer) -> None:
    """Patch every target; on a missing name, undo the patches made so far and raise."""
    try:
        for module, attr, name, counter in targets():
            tracer.patch(module, attr, name, counter)
    except Exception:
        tracer.restore()
        raise


# (name, unit, better) of the per-layer metrics, in report order.  Times are
# self times; every one of them is nonzero on every workload.  Spans that
# only some workloads enter are reported by call count here and with their
# times in the run's span table.
TIMES = (
    "compression.self_s", "compression.compress.stochastic.self_s",
    "compression.compress.deterministic.self_s", "compression.analytic_profile.self_s",
    "algorithms.self_s", "algorithms.engine.self_s", "algorithms.metrics.self_s",
    "problems.self_s", "problems.optimal_solution.self_s", "problems.generate_ridge.self_s",
    "topology.self_s", "topology.build_ring.self_s", "topology.build_weights_outdegree.self_s",
    "analysis.self_s", "harness.self_s",
)
CALLS = (
    "compression.empirical_profile", "compression.analytic_profile", "algorithms.metrics",
    "problems.optimal_solution", "problems.generate_ridge", "problems.constants",
    "topology.build_ring", "topology.build_weights_outdegree", "topology.spectral_info",
    "analysis.sufficient_params", "analysis.sufficient_params_ef", "analysis.spectral_radius",
    "analysis.empirical_rate", "harness.trace_csv", "harness.certificate_report",
    "harness.verify_suite",
)
COUNTS = (
    ("algorithms.runs", "count", "lower"),
    ("algorithms.iterations", "count", "lower"),
    ("algorithms.bits_sent", "bit", "lower"),
    ("algorithms.mix_flops_computed", "flop", "lower"),
    ("algorithms.mix_bytes_computed", "B", "lower"),
    ("harness.trace_csv.bytes", "B", "lower"),
)
PER_LAYER = (
    [(name, "s", "lower") for name in TIMES]
    + [("algorithms.engine.us_per_iter", "us", "lower"), ("trace.overhead_s", "s", "lower")]
    + [(f"compression.compress.{k}.{what}", "count", "lower")
       for k in KINDS for what in ("calls", "rows")]
    + [(f"{name}.calls", "count", "lower") for name in CALLS]
    + list(COUNTS)
    + [("topology.spectral_info.s_relerr_max", "1", "lower"),
       ("analysis.unsound_certs", "count", "lower"),
       ("bench.bit_identical", "count", "higher")]
)


def layer_values(spans: dict[str, tuple[float, float]], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from ``name -> (calls, self seconds)`` and the counters.

    Oracle figures (s_relerr_max, unsound_certs, bit_identical) and the
    tracing overhead come from the run itself and are added by the caller.
    """
    def self_of(pred) -> float:
        return sum(s for name, (_, s) in spans.items() if pred(name))

    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_of(lambda name, m=mod: name.startswith(m + "."))
    compress = "compression.compress."
    out["compression.compress.stochastic.self_s"] = self_of(
        lambda name: name.startswith(compress) and name[len(compress):] in STOCHASTIC_KINDS)
    out["compression.compress.deterministic.self_s"] = self_of(
        lambda name: name.startswith(compress) and name[len(compress):] not in STOCHASTIC_KINDS)
    for name in TIMES:
        if name not in out:
            out[name] = spans.get(name[: -len(".self_s")], (0, 0.0))[1]
    iters = counts.get("algorithms.iterations", 0.0)
    out["algorithms.engine.us_per_iter"] = (
        1e6 * out["algorithms.engine.self_s"] / iters if iters else 0.0)
    for k in KINDS:
        out[f"compression.compress.{k}.calls"] = spans.get(compress + k, (0, 0.0))[0]
        out[f"compression.compress.{k}.rows"] = counts.get(f"{compress}{k}.rows", 0.0)
    for name in CALLS:
        out[f"{name}.calls"] = spans.get(name, (0, 0.0))[0]
    for name, _, _ in COUNTS:
        out[name] = counts.get(name, 0.0)
    return out

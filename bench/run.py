"""cgtsim benchmark.

    python3 bench/run.py --workload presets --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  One process drives the library, one operation at a time.  A run

1. times the import of cgtsim in a fresh interpreter plus the workload's
   set-up, seven times, and takes the median;
2. runs the workload's untimed checks: full-length runs, and replays at
   the paper seed whose outputs must match ``reference.json`` (these also
   warm up caches and BLAS);
3. repeats passes over the workload's short operations until ``--seconds``
   have been measured, checking every output;
4. prints a report, then one JSON line with the end-to-end metrics
   (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every time is divided by the speed factor of interleaved calibration probes
(``speed.py``) that match the workload's kind of work, so it reads as
seconds at a fixed machine speed; the report lines also print the times as
measured.

A traced run measures half its time untraced and half traced; the per-layer
metrics are for one set-up plus one pass, and ``trace.overhead_s`` is the
traced minus the untraced ``wall_s``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# One BLAS thread: the single client owns one core, and the other core of a
# small machine absorbs background work instead of stalling a threaded GEMM.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time

# glibc sysconf names: _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL1_ICACHE_SIZE, ...
_SC_CACHES = (("L1d", 188), ("L1i", 185), ("L2", 191), ("L3", 194))
IMPORT_PROBE = "import time; t = time.perf_counter(); import cgtsim; print(time.perf_counter() - t)"
SETUP_REPEATS = 7
MAX_FAILURE_LINES = 20
WORKLOAD_NAMES = ("presets", "ring-1000", "sweep", "certify")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("runs_per_s", "1/s"),
    ("run_ms_p50", "ms"),
    ("run_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing library or reference data)."""


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def import_library():
    """Import cgtsim from this checkout's src/ and fail if it is absent."""
    src = ROOT / "src"
    if not (src / "cgtsim" / "__init__.py").is_file():
        raise BenchError(f"no cgtsim sources under {src}")
    sys.path.insert(0, str(src))
    import cgtsim
    if Path(cgtsim.__file__).resolve().parent != (src / "cgtsim").resolve():
        raise BenchError(f"imported cgtsim from {cgtsim.__file__}, not from {src}")
    return cgtsim


def time_import() -> float:
    """Import time of cgtsim (numpy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=_src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def machine_info() -> dict:
    import numpy as np

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    # cache sizes from the C library (cpuid on x86), reading no file outside the checkout
    libc = ctypes.CDLL(None)
    caches = {name: libc.sysconf(code) for name, code in _SC_CACHES}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cgtsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "cache_bytes": caches,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Tally:
    """Operations attempted and failed, digests matched, certificate audit."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.identical = 0
        self.failures: list[str] = []
        self.certs = 0
        self.unsound = 0
        self.s_relerr_max = 0.0

    def run(self, op, call=None):
        """Run one op, time it, judge its output; return (seconds, output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call("bench.op", op.run) if call else op.run()
        except Exception as exc:  # an unexpected raise is a failed operation
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        try:
            problems = self._judge(op, out)
        except Exception as exc:  # output too malformed to check
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            self._fail(op, "; ".join(problems))
        return dt, out

    def _judge(self, op, out) -> list[str]:
        problems = list(op.check(out))
        if op.ref_key is not None:
            want = self.reference.get(op.ref_key)
            if want is None:
                problems.append(f"no reference digest for {op.ref_key}")
            elif digest(op.text(out)) != want:
                problems.append(f"output differs from reference {op.ref_key}")
            else:
                self.identical += 1
        if op.audit is not None:
            built, optimistic, relerr = op.audit(out)
            self.certs += built
            self.unsound += optimistic
            self.s_relerr_max = max(self.s_relerr_max, relerr)
        return problems

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_LINES:
            self.failures.append(f"{op.label}: {why}")


class Passes:
    """Repeated passes over one list of operations, timed at a fixed machine speed.

    After each operation the probes run for a share of its time, and the
    operation's time is divided by their speed factor.
    """

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.walls: list[float] = []     # normalized pass times
        self.samples: list[list[float]] = [[] for _ in ops]  # normalized, per operation
        self.raw_walls: list[float] = []
        self.raw_samples: list[float] = []
        self.factors: list[float] = []

    def run(self, seconds: float, tally: Tally, call=None) -> "Passes":
        """Pass after pass until ``seconds`` have been measured; at least one."""
        start = time.perf_counter()
        while not self.walls or time.perf_counter() - start < seconds:
            wall = raw = 0.0
            for op, samples in zip(self.ops, self.samples):
                dt, _ = tally.run(op, call)
                f = self.speed.probe(dt)
                self.factors.append(f)
                self.raw_samples.append(dt)
                samples.append(dt / f)
                wall += dt / f
                raw += dt
            self.walls.append(wall)
            self.raw_walls.append(raw)
        return self

    def wall(self) -> float:
        return statistics.median(self.walls)

    def op_medians(self) -> list[float]:
        return [statistics.median(samples) for samples in self.samples]


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        import_library()
        time_import()  # fails early if a fresh interpreter cannot import it; warms the file cache
        ref_path = BENCH / "reference.json"
        if not ref_path.is_file():
            raise BenchError(f"missing {ref_path}")
        reference = json.loads(ref_path.read_text())
    except (BenchError, ImportError, subprocess.SubprocessError, ValueError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    import layers
    from speed import Speed
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(f"# workload {wl.name}: {wl.why}")
    print(f"# seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}")
    print("# machine " + json.dumps(machine_info(), sort_keys=True))

    speed = Speed(wl.probes)
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        f_import = speed.probe(t_import)
        t0 = time.perf_counter()
        inputs = wl.build(args.seed)
        t_build = time.perf_counter() - t0
        raw_setups.append(t_import + t_build)
        setups.append(t_import / f_import + t_build / speed.probe(t_build))
    setup_s = statistics.median(setups)
    ops = wl.ops(inputs)

    tally = Tally(reference)
    for op in wl.checks(args.seed):
        tally.run(op)
    checked = (tally.attempted, tally.identical)

    if args.trace:
        setup_tracer = Tracer()
        layers.install(setup_tracer)
        try:
            setup_tracer.call("bench.setup", wl.build, args.seed)
        finally:
            setup_tracer.restore()
        plain = Passes(ops, speed).run(args.seconds / 2, tally)
        pass_tracer = Tracer()
        layers.install(pass_tracer)
        mark = (tally.identical, tally.unsound, tally.certs)
        try:
            measured = Passes(ops, speed).run(args.seconds / 2, tally, pass_tracer.call)
        finally:
            pass_tracer.restore()
    else:
        mark = (tally.identical, tally.unsound, tally.certs)
        measured = Passes(ops, speed).run(args.seconds, tally)
    passes = len(measured.walls)
    identical_per_pass = (tally.identical - mark[0]) / passes
    unsound_per_pass = (tally.unsound - mark[1]) / passes
    certs_per_pass = (tally.certs - mark[2]) / passes
    wall_s = measured.wall()
    iters = sum(op.iters for op in ops)
    op_times = measured.op_medians()
    n = len(measured.raw_samples)

    report = [
        ("setup_s", setup_s, "s", f"median of {len(setups)}: import in a fresh interpreter "
                                  f"plus build; as measured {statistics.median(raw_setups):.6g} s"),
        ("wall_s", wall_s, "s", f"median of {passes} passes of {len(ops)} operations; as "
                                f"measured {statistics.median(measured.raw_walls):.6g} s"),
        ("iters_per_s", iters / wall_s, "1/s", f"{iters} engine iterations per pass"),
        ("runs_per_s", len(ops) / wall_s, "1/s", "operations per second of wall_s"),
        ("run_ms_p50", 1e3 * percentile(op_times, 50), "ms",
         f"over the medians of {len(ops)} operations x {passes} passes; over all {n} "
         f"samples as measured {1e3 * percentile(measured.raw_samples, 50):.6g} ms"),
        ("run_ms_p95", 1e3 * percentile(op_times, 95), "ms",
         f"over the medians of {len(ops)} operations x {passes} passes; over all {n} "
         f"samples as measured {1e3 * percentile(measured.raw_samples, 95):.6g} ms"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
         "peak resident set of this process"),
        ("ops_failed", tally.failed, "count", f"of ops_total = {tally.attempted}, "
                                             f"{checked[0]} of them untimed checks"),
        ("unsound_certs", unsound_per_pass, "count",
         f"of {certs_per_pass:g} certificates per pass built on an optimistic constant"),
        ("bit_identical_traces", tally.identical, "count",
         f"outputs equal to reference digests, {checked[1]} of them in the checks"),
        ("speed_factor", statistics.median(measured.factors), "1",
         f"median over operations of the {'+'.join(wl.probes)} probes' time over their "
         "nominal time; each time above is divided by its own"),
    ]
    for name, value, unit, note in report:
        if not (name == "iters_per_s" and iters == 0):
            print(f"# {name} = {value:.6g} {unit}  ({note})")
    for line in tally.failures:
        print(f"# FAILED {line}")

    if args.trace:
        # span times at the traced passes' median machine speed
        f = statistics.median(measured.factors)
        spans: dict[str, tuple[float, float]] = {}
        for table, scale in ((setup_tracer.by_name(), 1.0), (pass_tracer.by_name(), 1.0 / passes)):
            for name, (calls, _, self_s) in table.items():
                c, s = spans.get(name, (0.0, 0.0))
                spans[name] = (c + calls * scale, s + self_s / f * scale)
        counts = dict(setup_tracer.counts)
        for name, value in pass_tracer.counts.items():
            counts[name] = counts.get(name, 0.0) + value / passes
        values = layers.layer_values(spans, counts)
        values["trace.overhead_s"] = wall_s - plain.wall()
        values["topology.spectral_info.s_relerr_max"] = tally.s_relerr_max
        values["analysis.unsound_certs"] = unsound_per_pass
        values["bench.bit_identical"] = checked[1] + identical_per_pass
        print(f"# traced: {passes} passes, wall_s untraced {plain.wall():.6g} s, "
              f"traced {wall_s:.6g} s; span values are per set-up plus one pass")
        for name, (calls, self_s) in sorted(spans.items()):
            print(f"# span {name}: calls {calls:g}, self {self_s:.6g} s")
        missing = [name for name in layers.TIMES if not values[name] > 0]
        if missing:
            print(f"bench: traced layers with no time: {', '.join(missing)}", file=sys.stderr)
            return 3
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in layers.PER_LAYER}
    else:
        values = {name: value for name, value, _, _ in report}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

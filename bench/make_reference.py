"""Record the reference digests the benchmark compares its outputs with.

    python3 bench/make_reference.py

Run from the root of a source checkout.  Every engine anchor is run through
``harness.run_experiment`` (which writes the CSV the benchmark's own run path
must reproduce byte for byte); certificate reports and the verify report come
from ``harness.certificate_report`` and ``harness.verify_suite``.  Re-record
only when a change is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile

import run  # sets the BLAS thread count before numpy is imported

run.import_library()

from cgtsim import harness  # noqa: E402

import workloads  # noqa: E402


def csv_digests(engine_runs, out_dir) -> dict[str, str]:
    out = {}
    for r in engine_runs:
        if r.seed != r.cfg.problem.seed:
            raise ValueError(f"{r.key}: run_experiment keys compression by the problem seed")
        outcome = harness.run_experiment(r.cfg, out_dir=out_dir)
        out[r.key] = hashlib.sha256(outcome.csv_path.read_bytes()).hexdigest()
        print(f"{r.key}: {outcome.summary}", file=sys.stderr)
    return out


def main() -> int:
    ref: dict[str, str] = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        ref.update(csv_digests(workloads.presets_runs(workloads.ANCHOR_SEED), tmp))
        ref.update(csv_digests(workloads.presets_anchor_runs(), tmp))
        ref.update(csv_digests(workloads.ring_anchor_runs(), tmp))
        ref.update(csv_digests(workloads.sweep_anchor_runs(), tmp))
    for name, cfg in harness.PRESETS.items():
        ref[f"certify/{name}"] = run.digest(workloads.report_text(cfg))
    ref["certify/verify_suite"] = run.digest(harness.verify_report(harness.verify_suite()))
    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ref)} digests to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

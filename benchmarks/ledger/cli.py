"""Command line of the ledger: one run, the whole ledger, or a comparison.

* ``--workload W --trace 0|1`` runs that one workload in this process and
  ends standard output with the contract's one-line JSON result.
* Without ``--trace`` the ledger runs every selected workload in a fresh
  child process each — ``--runs`` untraced runs, then one traced run —
  and prints (and with ``--out`` writes) the assembled result set.
* ``--compare A.json [B.json]`` judges one result set against another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import env

SCHEMA = 1
DEFAULT_SEED = 13
SMOKE_SECONDS = 2


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python benchmarks/ledger", description=__doc__)
    parser.add_argument("--workload", help="run only this workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=int, help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run in this process: 0 end-to-end, 1 per-layer")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full", help="smoke: n=300 self-test size, not comparable")
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload in ledger mode")
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument("--spans", type=Path, help="directory for the traced runs' span files")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="SET.json", help="compare two result sets")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if args.compare:
        from .compare import main as compare_main

        return compare_main(args.compare)

    # Before numpy loads anywhere below.
    env.pin()
    env.use_source_tree()
    try:
        import repro  # noqa: F401
    except ImportError as error:
        print(f"ledger: cannot import the program under test from {env.ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    from .contract import RUN_SECONDS, WORKLOADS

    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.scale == "smoke" else RUN_SECONDS
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}; choose from {list(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace is not None:
        if args.workload is None:
            print("ledger: --trace runs one workload; name it with --workload", file=sys.stderr)
            return 2
        return run_one(args)
    return run_ledger(args)


# ----------------------------------------------------------------------
# one workload, this process
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    from . import workloads
    from .contract import END_TO_END, PER_LAYER, contract_names

    trace = bool(args.trace)
    outcome = workloads.run(args.workload, args.seed, args.seconds, args.scale, trace)
    declared = PER_LAYER if trace else END_TO_END
    values = (
        {name: (value, None) for name, value in outcome.per_layer.items()}
        if trace
        else outcome.end_to_end
    )
    metrics = {
        name: {"value": value, "unit": declared[name]["unit"], "samples": samples}
        for name, (value, samples) in values.items()
    }
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "fingerprints": outcome.fingerprints,
        "counts": outcome.counts,
        "repeats": outcome.repeats,
        "sizing": vars(workloads.Sizing.of(args.seconds, args.scale)),
    }
    if args.out:
        args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if args.spans and trace:
        args.spans.mkdir(parents=True, exist_ok=True)
        with (args.spans / f"{args.workload}.spans.jsonl").open("w") as handle:
            for row in outcome.spans:
                handle.write(json.dumps(row) + "\n")

    print(f"# {args.workload}  seed={args.seed} seconds={args.seconds} scale={args.scale} trace={args.trace}")
    print_metrics(metrics)
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    correct = outcome.failed == 0
    # A counter a later PR removed reads None; the line needs a number.
    line = {
        name: {
            "value": -1 if metrics[name]["value"] is None else metrics[name]["value"],
            "unit": metrics[name]["unit"],
        }
        for name in contract_names(trace)
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, outcome.attempted),
                "failed": outcome.failed,
                "metrics": line,
            }
        )
    )
    return 0 if correct else 1


def print_metrics(metrics: Dict[str, dict]) -> None:
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        value = entry["value"]
        shown = "null" if value is None else f"{value:.6g}"
        samples = f"  (n={entry['samples']})" if entry.get("samples") else ""
        print(f"  {name:<{width}}  {shown:>12} {entry['unit']}{samples}")


# ----------------------------------------------------------------------
# the ledger: every workload, a fresh child process each
# ----------------------------------------------------------------------
def child(args: argparse.Namespace, workload: str, trace: int, scratch: Path) -> dict:
    """Run one workload in a fresh interpreter; return its result document."""
    out = scratch / f"{workload}.{trace}.json"
    command = [
        sys.executable, str(Path(__file__).resolve().parent),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--scale", args.scale, "--trace", str(trace), "--out", str(out),
    ]
    if args.spans and trace:
        command += ["--spans", str(args.spans)]
    done = subprocess.run(command, capture_output=True, text=True)
    if not out.exists():
        raise SystemExit(
            f"ledger: {workload} (trace={trace}) died with code {done.returncode}:\n{done.stderr[-2000:]}"
        )
    document = json.loads(out.read_text())
    out.unlink()
    return document


def run_ledger(args: argparse.Namespace) -> int:
    from .contract import PRIMARY, WORKLOADS
    from statistics import median

    selected = [args.workload] if args.workload else list(WORKLOADS)
    result = {
        "schema": SCHEMA,
        "comparable": args.scale == "full",
        "host": env.fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "runs": args.runs,
        "config": dict(env.PINNED_CONFIG, seed=args.seed),
        "workloads": {},
    }
    failed = 0
    with env.scratch_dir() as scratch:
        for workload in selected:
            runs = [child(args, workload, 0, scratch) for _ in range(args.runs)]
            traced = child(args, workload, 1, scratch)
            end_to_end = {}
            for name, entry in runs[0]["metrics"].items():
                values = [run["metrics"][name]["value"] for run in runs]
                end_to_end[name] = dict(entry, value=median(values), runs=values)
            primary = PRIMARY[workload]
            entry = {
                "why": WORKLOADS[workload],
                "end_to_end": {k: v for k, v in end_to_end.items() if k in primary},
                "secondary": {k: v for k, v in end_to_end.items() if k not in primary},
                "per_layer": traced["metrics"],
                "attempted": sum(run["attempted"] for run in runs) + traced["attempted"],
                "failed": sum(run["failed"] for run in runs) + traced["failed"],
                "failures": [f for run in runs + [traced] for f in run["failures"]],
                "fingerprints": sorted({f for run in runs for f in run["fingerprints"]}),
                "traced_fingerprints": traced["fingerprints"],
                "counts": dict(runs[0]["counts"], **traced["counts"]),
                "repeats": [run["repeats"] for run in runs],
                "traced_repeats": traced["repeats"],
                "sizing": runs[0]["sizing"],
            }
            result["workloads"][workload] = entry
            failed += entry["failed"]

            print(f"# {workload} — {WORKLOADS[workload]}")
            print(" end-to-end (tracing off)")
            print_metrics(entry["end_to_end"])
            print(" secondary cells (same definitions, incidental samples)")
            print_metrics(entry["secondary"])
            print(" per layer (separate traced run)")
            print_metrics(entry["per_layer"])
            for failure in entry["failures"]:
                print(f"FAILED {failure}")
            sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"ledger: {len(selected)} workloads, {failed} failed operations")
    return 1 if failed else 0

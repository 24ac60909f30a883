"""The threebox benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size smoke] [--out FILE]

Workloads.  Each is a closed loop with one caller: one op is one in-process
``threebox.cli.main(argv)`` call, and the next op starts when it returns.

  simulate    ``simulate`` of the README request (prepare Face=Q, observe
              Suit?S then Face, postselect Face=K, query Suit=S) at 100k
              trials.  The random stream and the Monte Carlo walker do the
              work and the exact engine does none.
  exact-deep  16 ``exact --json`` ops on the three-box deck: depth 2, 4, 6
              and 8, events alternating Suit/Face or Suit?S/Face,
              postselecting Face=K at the last event, once as a query of
              1:Suit=S and once as a full tree report.  Enumeration,
              Fraction arithmetic and JSON output do the work, with no RNG.
  scenarios   ``scenario NAME --json`` for the five scenarios at the default
              100k trials: the user-facing reports, and the only workload
              that runs the scenarios, formulas and quantum modules.

The workload runs in a child process (``workload.py``) with the numeric
libraries' thread counts set to 1.  A full-size untraced run makes at least
16 passes, so a scenarios run may take longer than ``--seconds``.
``--trace 0`` prints the end-to-end metrics, every time scaled to a
reference host by the reference loop timed beside it (see
``reference.py``), with the measured time in its detail; ``--trace 1`` runs
a separate traced measurement and prints the per-layer metrics.
``--size smoke`` runs the same op lists at sizes that finish in well under
a second.

Output: a table of every metric with its unit, the provenance of the run,
any failed ops, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``metrics``
holds the metrics BENCHMARK.json declares for the mode.  An op fails when it
raises, exits with a code other than 0, or answers wrongly; ``correct`` is
false when any op answered wrongly.  A rate or ratio of a layer that did no
work prints as n/a in the table and as 0 on the last line.  ``--out FILE``
also writes the whole record as JSON.

Exit codes: 0 when the workload was measured; 1 when the program cannot be
found, imported or measured, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workload import HERE, ROOT, SIZES, WORKLOADS

SETUP_REPEATS = {"full": 7, "smoke": 1}
TIME_LIMIT_S = 170  # a run must end within 180 s

# A fresh interpreter's set-up: what every CLI invocation pays before its work,
# between two readings of the reference loop.  Prints measured and scaled seconds.
SETUP_PROBE = """
import sys
from time import perf_counter
sys.path[:0] = [sys.argv[1], sys.argv[3]]
import reference
before = reference.reading(5)
start = perf_counter()
import threebox.cli
threebox.cli.build_parser()
threebox.deckfile.load_deck(sys.argv[2])
seconds = perf_counter() - start
print(seconds, reference.scale(seconds, before, reference.reading(5)))
"""


class BenchError(Exception):
    """The program could not be found, imported or measured."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """Run a Python child to completion and return its stdout; its stderr passes through."""
    try:
        done = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[0]} did not finish within {timeout:.0f} s") from None
    if done.returncode != 0:
        raise BenchError(f"{argv[0]} exited with code {done.returncode}")
    return done.stdout


def measure_setup(repeats: int, deadline: float) -> dict:
    measured, scaled = [], []
    for _ in range(repeats):
        out = run_child(["-c", SETUP_PROBE, str(ROOT / "src"), str(ROOT / "decks" / "threebox.deck"), str(HERE)],
                        deadline - perf_counter())
        seconds, value = map(float, out.split()[-2:])
        measured.append(seconds)
        scaled.append(value)
    return {
        "value": statistics.median(scaled),
        "unit": "s",
        "detail": f"median of {repeats} fresh interpreters; measured {statistics.median(measured):.4g} s",
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def declared_metrics(trace: bool) -> list[str]:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declaration["per_layer" if trace else "end_to_end"]]


def format_value(value) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed; pass p seeds its ops with seed + p")
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--out", help="also write the whole record to this JSON file")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if not 0 <= args.seconds <= 120:
        parser.error("--seconds must be in [0, 120]")

    deadline = perf_counter() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "threebox" / "cli.py").is_file():
            raise BenchError(f"no threebox package under {ROOT / 'src'}")
        names = declared_metrics(bool(args.trace))
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = measure_setup(SETUP_REPEATS[args.size], deadline)
        out = run_child(
            [str(HERE / "workload.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            deadline - perf_counter(),
        )
        child = json.loads(out.splitlines()[-1])
        metrics.update(child["metrics"])
        missing = [name for name in names if name not in metrics]
        if missing:
            raise BenchError(f"no value for {', '.join(missing)}")
    except (BenchError, OSError, ValueError, KeyError, IndexError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1

    provenance = {
        **child["provenance"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "passes": child["passes"],
        "ops_per_pass": child["ops_per_pass"],
        "ops": child["attempted"],
    }
    print(f"threebox benchmark: {args.workload}, trace {'on' if args.trace else 'off'}, size {args.size}")
    for name, m in metrics.items():
        print(f"  {name:<36} {format_value(m['value']):>14} {m['unit']:<6} {m['detail']}")
    print("provenance: " + ", ".join(f"{key} {value}" for key, value in provenance.items()))
    for failure, count in child["failures"].items():
        print(f"failed x{count}: {failure}")
    result = {
        "correct": child["wrong"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {
            name: {"value": metrics[name]["value"] or 0, "unit": metrics[name]["unit"]} for name in names
        },
    }
    if args.out:
        record = {**result, "provenance": provenance, "failures": child["failures"], "detail": metrics}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the deepcoda CLI: one workload, one seed, a fixed measuring time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train --seed 1 --seconds 26 --trace 0

Each repeat is one fresh ``python -m deepcoda <command>`` process, run in a
closed loop by one sequential client: the next repeat starts when the last
has exited. Repeats continue until ``--seconds`` have passed (at least two,
so that reruns can be compared byte for byte). Every repeat's output is
checked. Set-up (input files, the model ``explain`` needs, and three timed
fresh imports of ``deepcoda.cli`` for ``setup_s``) happens before the clock
starts.

The host's speed drifts by tens of percent over seconds to minutes, so each
timed process is preceded by a run of ``yardstick.py``, a fixed piece of
work. ``wall_s`` and ``setup_s`` are the run's mean time scaled to the
reference host speed: mean raw time x YARDSTICK_REF_S / mean yardstick time.
Only correct repeats are timed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported.
With ``--trace 1`` untraced and traced repeats alternate, and the per-layer
metrics come from the traced ones (see tracer.py). The last line of stdout
is the JSON result; a full report, with the environment, lands in
``.bench_out/<workload>-seed<seed>-trace<trace>/report.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracer
import workloads

SETUP_SAMPLES = 3
# Times are reported at the host speed where yardstick.py takes this long: the
# run's mean raw time x YARDSTICK_REF_S / the run's mean yardstick wall.
YARDSTICK_REF_S = 1.0
CHILD_TIMEOUT_S = 150.0
LIMITS = (
    "shared host (nproc above); wall-clock times from a closed loop with one client, scaled by yardstick.py; "
    "no system-wide tracing, no CPU frequency pinning, no dropping of the file cache"
)


def spawn(cmd, cwd: Path, env: dict, stdout, stderr) -> tuple[float, float, int]:
    """Run ``cmd`` to completion: (wall seconds from spawn to exit, peak RSS in MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def output_digest(work: Path, stdout: bytes) -> str:
    digest = hashlib.sha256(stdout)
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(work)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def import_times(stderr: str) -> dict[str, float]:
    """``deepcoda`` and outermost ``scipy`` cumulative import seconds from ``-X importtime``."""
    entries = []  # (depth, module, cumulative us), in the order printed (children first)
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    totals = {"deepcoda": 0, "scipy": 0}
    stack: list[tuple[int, str]] = []  # ancestors, walking parents before children
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for _, a in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return {"deepcoda.import_s": totals["deepcoda"] / 1e6, "deepcoda.import_scipy_s": totals["scipy"] / 1e6}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "limits": LIMITS,
    }


def emit(values: dict, specs: list[dict]) -> dict:
    if set(values) != {s["name"] for s in specs}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ {s['name'] for s in specs})}")
    return {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]} for s in specs}


def median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def tracing_overhead(repeats: list[dict]) -> tuple[float, bool]:
    """Median of (traced wall - the plain wall just before it) over correct pairs, and
    whether it is resolved: larger than the interquartile range of the plain walls.
    The caller makes sure there is at least one such pair."""
    pairs = [(a, b) for a, b in zip(repeats, repeats[1:])
             if b["traced"] and not a["traced"] and not a["problems"] and not b["problems"]]
    plain = [r["wall_s"] for r in repeats if not r["traced"] and not r["problems"]]
    overhead = statistics.median(b["wall_s"] - a["wall_s"] for a, b in pairs)
    if len(plain) < 2:
        return overhead, False
    q1, _, q3 = statistics.quantiles(plain, n=4)
    return overhead, abs(overhead) > q3 - q1


def yardstick(root: Path, work: Path, env: dict) -> float:
    """Wall seconds of one fresh ``yardstick.py`` process: how fast the host runs right now."""
    wall, _, code = spawn([sys.executable, str(root / "perfbench" / "yardstick.py")], work, env,
                          subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"yardstick.py exited {code}")
    return wall


def measure_setup(root: Path, work: Path, env: dict, importtime: bool, yards: list[float]):
    """Fresh-interpreter ``import deepcoda.cli`` walls, with ``-X importtime`` splits if asked.
    Each is preceded by a yardstick run, appended to ``yards``."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import deepcoda.cli"]
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        yards.append(yardstick(root, work, env))
        with open(work / "import.err", "wb") as err:
            wall, _, code = spawn(cmd, work, env, subprocess.DEVNULL, err)
        if code != 0:
            raise RuntimeError(f"import deepcoda.cli exited {code}")
        walls.append(wall)
        imports.append(import_times((work / "import.err").read_text(encoding="utf-8")))
    return walls, imports


def repeat_once(cmd, work: Path, env: dict, check, sizes) -> tuple[dict, str | None, dict]:
    """One measured command: (record, digest of its output or None, quality figures)."""
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        wall, rss, code = spawn(cmd, work, env, out, err)
    record = {"wall_s": wall, "peak_rss_mb": rss, "exit_code": code, "problems": []}
    if code != 0:
        record["problems"].append(f"exit code {code}: {(work / 'stderr.txt').read_text()[-500:]}")
        return record, None, {}
    stdout = (work / "stdout.txt").read_bytes()
    quality = {}
    try:
        record["problems"], quality = check(work, stdout.decode(), sizes)
    except Exception as exc:  # a malformed output must count as a failed run, not stop the loop
        record["problems"].append(f"output check raised {exc!r}")
    return record, output_digest(work, stdout), quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, to smoke-test the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "deepcoda" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of a deepcoda checkout (src/deepcoda and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))  # output checks read files through the program's own parser
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    sizes = workloads.TINY if args.tiny else workloads.FULL
    prepare, check = workloads.WORKLOADS[args.workload]

    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli_argv, setup_calls = prepare(work, args.seed, sizes)
    for call in setup_calls:
        with open(work / "setup.log", "ab") as log:
            _, _, code = spawn([sys.executable, "-m", "deepcoda", *call], work, env, log, log)
        if code != 0:
            print(f"error: set-up call {call} exited {code}; see {work / 'setup.log'}", file=sys.stderr)
            return 1
    yards: list[float] = []
    setup_s, imports = measure_setup(root, work, env, bool(args.trace), yards)

    repeats, reference, quality = [], None, {}
    deadline = time.perf_counter() + args.seconds
    while len(repeats) < 2 or time.perf_counter() < deadline:
        traced = bool(args.trace and len(repeats) % 2)
        spans = work / f"spans-{len(repeats)}.json"
        runner = [str(root / "perfbench" / "tracer.py"), spans.name] if traced else ["-m", "deepcoda"]
        yards.append(yardstick(root, work, env))
        record, digest, figures = repeat_once([sys.executable, *runner, *cli_argv], work, env, check, sizes)
        record["traced"] = traced
        quality = figures or quality
        reference = reference or digest
        if digest is not None and digest != reference:
            record["problems"].append("output bytes differ from the first repeat")
        if traced and digest is not None:
            trace = json.loads(spans.read_text(encoding="utf-8"))
            record["layers"] = tracer.layer_metrics(trace)
            record["unaccounted_s"] = record["wall_s"] - trace["import_s"] - tracer.busy_s(trace, "cli.run")
        repeats.append(record)

    failed = sum(bool(r["problems"]) for r in repeats)
    # Timings come from correct repeats only: a command that fails early is not faster.
    plain = [r for r in repeats if not r["traced"] and not r["problems"]]
    traced_ok = [r for r in repeats if "layers" in r and not r["problems"]]
    paired = any("layers" in b and not (a["problems"] or b["problems"]) for a, b in zip(repeats, repeats[1:]))
    if not plain or (args.trace and not paired):
        print(f"error: no correct {'traced ' if args.trace else ''}repeat; see {work}", file=sys.stderr)
        return 1
    resolved = None
    scale = YARDSTICK_REF_S / statistics.mean(yards)
    if args.trace:
        overhead, resolved = tracing_overhead(repeats)
        values = {
            **median_of([r["layers"] for r in traced_ok]),
            **median_of(imports),
            "trace.overhead_s": overhead,
            "trace.unaccounted_s": statistics.median(r["unaccounted_s"] for r in traced_ok),
            "error_rate": failed / len(repeats),
            "final_loss": quality.get("final_loss", 0.0),
            "test_auc_median": quality.get("test_auc_median", 0.0),
        }
        metrics = emit(values, spec["per_layer"])
    else:
        values = {
            "wall_s": statistics.mean(r["wall_s"] for r in plain) * scale,
            "setup_s": statistics.mean(setup_s) * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = emit(values, spec["end_to_end"])

    env_record = environment()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "tiny": args.tiny, "cli_argv": cli_argv, "environment": env_record, "setup_s": setup_s,
        "yardstick_s": yards, "scale": scale,
        "imports": imports, "repeats": repeats, "quality": quality, "metrics": metrics,
        "trace_overhead_resolved": resolved,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"deepcoda {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(repeats)} repeats ({len(plain)} untraced), {failed} failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_record.items()))
    for i, r in enumerate(repeats):
        status = "ok" if not r["problems"] else "; ".join(r["problems"])
        print(f"  repeat {i} {'traced' if r['traced'] else 'plain'}: wall {r['wall_s']:.3f} s, "
              f"peak rss {r['peak_rss_mb']:.1f} MB, {status}")
    print(f"  setup_s samples: {', '.join(f'{s:.3f}' for s in setup_s)}")
    print(f"  yardstick mean {statistics.mean(yards):.3f} s over {len(yards)} runs; "
          f"times are scaled by {YARDSTICK_REF_S} / that = {scale:.3f}")
    if args.trace:
        print(f"  trace.overhead_s {overhead:+.3f} ({'resolved' if resolved else 'unresolved: within the untraced spread'})")
    print(f"  error_rate {failed}/{len(repeats)}; quality {quality}; report {work / 'report.json'}")
    print(json.dumps({"correct": failed == 0, "attempted": len(repeats), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end CLI benchmark with an additive per-layer budget.

    python3 bench_e2e/run.py --workload synth-b8 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Each timed run is a real
``python -m repro.cli`` invocation in a subprocess, driven as a closed
loop with one client: the next invocation starts after the previous one
exits, as long as less than ``--seconds`` have passed (so the last one
may run past the budget), and at least two run.
Every invocation is checked against the exit code and output digest
pinned in ``bench_e2e/pins.json``; a mismatch or a timeout counts as a
failed invocation and is never retried.

``--trace 0`` reports the end-to-end metrics: the fastest invocation's
wall and CPU time (medians are in the details), the median peak RSS,
and ``setup_s``, the median of several fresh interpreters importing what
the workload's subcommand imports.  ``--trace 1`` runs
the same untraced loop, then one traced invocation through
``bench_e2e/trace_main.py`` (with the program's own ``--profile``), and
reports the per-layer metrics of :mod:`layers`.  The last stdout line
is the result object; the line before it carries the details: the
environment stamp, every invocation, the failure fraction and, when
traced, the span trees and self-test results.

``--pin`` re-pins the digests after checking each one against a path
that does not share the timed code (see :data:`CROSS_CHECKS`).
"""

from __future__ import annotations

import argparse
import ctypes
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
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import tracing  # noqa: E402

PINS = BENCH_DIR / "pins.json"
#: Per-invocation wall-clock limit; an invocation past it is killed and fails.
TIMEOUT_S = 120.0
#: Fresh interpreters timed per run for ``setup_s`` (after one warm-up).
SETUP_SAMPLES = 5
#: The fuzz program seed.  Fixed, because the output digest is pinned.
FUZZ_SEED = 0


@dataclass(frozen=True)
class Workload:
    args: tuple
    #: "suite": digest the ``--save`` suite file; "json": the ``--json`` document.
    output: str
    #: Packages the subcommand imports lazily (timed by ``setup_s``).
    lazy_imports: tuple = ()
    #: Per-layer metrics that must be non-zero on this workload.
    works: tuple = ()
    #: Metric families allowed to be non-zero here (all others in
    #: :data:`EXCLUSIVE_FAMILIES` must be zero).
    families: tuple = ()


WORKLOADS = {
    "synth-b8": Workload(
        args=("synthesize", "--bound", "8"),
        output="suite",
        works=(
            "skeletons.generate_s",
            "skeletons.programs",
            "witnesses.enumerate_s",
            "witnesses.executions",
            "models.classify_s",
            "relax.minimality_s",
            "relax.relaxed_program_s",
            "relax.constrained_enum_s",
            "relax.permits_s",
            "relax.checks",
            "relax.relaxations",
            "mtm.derive_s",
            "mtm.executions_built",
            "canon.key_s",
            "cli.render_s",
        ),
    ),
    "mcm4-sat": Workload(
        args=(
            "synthesize", "--bound", "4", "--mcm", "--threads", "4",
            "--witness-backend", "sat",
        ),
        output="suite",
        works=(
            "symmetry.analyze_s",
            "symmetry.key_s",
            "symmetry.prunable_programs",
            "symmetry.witnesses_pruned",
            "sat.translate_s",
            "sat.solve_s",
            "sat.decode_s",
            "sat.sessions",
            "sat.propagations",
            "sat.conflicts",
        ),
        families=("sat.",),
    ),
    "allpairs-b7-j2": Workload(
        args=("diff", "--all-pairs", "--bound", "7", "--jobs", "2", "--json"),
        output="json",
        lazy_imports=("repro.conformance", "repro.orchestrate"),
        works=(
            "models.classify_s",
            "conformance.classify_s",
            "conformance.merge_s",
            "conformance.pairs",
            "orchestrate.pool_s",
            "orchestrate.spawn_s",
            "orchestrate.shards",
        ),
        families=("orchestrate.",),
    ),
    "fuzz-b12": Workload(
        args=("fuzz", "--seed", str(FUZZ_SEED), "--bound", "12", "--json"),
        output="json",
        lazy_imports=("repro.fuzz", "repro.conformance", "repro.orchestrate"),
        works=(
            "fuzz.generate_s",
            "fuzz.oracle_s",
            "fuzz.shrink_s",
            "fuzz.oracle_calls",
            "fuzz.shrink_steps",
            "fuzz.discriminating_ratio",
        ),
        families=("fuzz.",),
    ),
}

#: Metric families that only the workload exercising them may move.
EXCLUSIVE_FAMILIES = ("sat.", "fuzz.", "orchestrate.")

#: How ``--pin`` checks each digest against code the timed path does
#: not share: extra CLI flags whose output must be identical, or a
#: semantic check of the output.
CROSS_CHECKS = {
    "synth-b8": ("--no-symmetry", "--fresh-solver"),
    "mcm4-sat": ("--witness-backend", "explicit"),
    "allpairs-b7-j2": ("--jobs", "1"),
    "fuzz-b12": "every finding violates only invlpg (the AMD INVLPG erratum)",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (nothing is reported)."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    #: ``time.perf_counter()`` just before the process was started.
    started: float = 0.0
    digest: str = ""
    failure: str = ""
    stdout: str = field(default="", repr=False)
    stderr: str = field(default="", repr=False)

    def to_json(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "exit_code": self.exit_code,
            "digest": self.digest,
            "failure": self.failure,
        }


def run_process(argv: list, root: Path, env: dict, stdout_path: Path, stderr_path: Path):
    """Run one process to completion in its own session; returns (start
    ``perf_counter``, wall seconds, exit code, rusage of the whole reaped
    tree, timed out).  A process past :data:`TIMEOUT_S` is killed with
    its group."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(TIMEOUT_S, kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    _reap_orphans(proc.pid)
    return started, wall, proc.returncode, usage, timed_out.is_set()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _become_subreaper() -> None:
    """Have processes the program leaves behind (multiprocessing's
    resource tracker outlives the CLI by a moment) re-parented to this
    process, so that :func:`_reap_orphans` can wait for them."""
    PR_SET_CHILD_SUBREAPER = 36
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_orphans(pgid: int) -> None:
    """Wait for every remaining child; kill the program's process group
    if its leftovers have not exited on their own within 10 s."""
    timer = threading.Timer(10.0, _kill_group, (pgid,))
    timer.start()
    try:
        while True:
            os.waitpid(-1, 0)
    except ChildProcessError:
        pass
    finally:
        timer.cancel()


def _env(root: Path, trace_dir: Path | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("BENCH_E2E_TRACE_DIR", None)
    if trace_dir is not None:
        env["BENCH_E2E_TRACE_DIR"] = str(trace_dir)
    return env


def output_digest(workload: Workload, stdout: str, suite_path: Path) -> str:
    """The pinned-output digest: the saved suite's bytes, or the JSON
    document with its timing fields (``runtime_s``) removed."""
    if workload.output == "suite":
        return hashlib.sha256(suite_path.read_bytes()).hexdigest()
    document = _without_timings(json.loads(stdout))
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "runtime_s"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def invoke(
    root: Path,
    work: Path,
    workload: Workload,
    extra_args: tuple = (),
    trace_dir: Path | None = None,
) -> Invocation:
    """One CLI invocation of ``workload``, measured and digested."""
    suite_path = work / "suite.elts"
    if suite_path.exists():
        suite_path.unlink()
    args = list(workload.args) + list(extra_args)
    if workload.output == "suite":
        args += ["--save", str(suite_path)]
    if trace_dir is None:
        argv = [sys.executable, "-m", "repro.cli"] + args
    else:
        argv = [sys.executable, str(BENCH_DIR / "trace_main.py")] + args
    stdout_path, stderr_path = work / "stdout", work / "stderr"
    started, wall, code, usage, timed_out = run_process(
        argv, root, _env(root, trace_dir), stdout_path, stderr_path
    )
    result = Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=code,
        started=started,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr=stderr_path.read_text(encoding="utf-8", errors="replace"),
    )
    if timed_out:
        result.failure = f"timed out after {TIMEOUT_S:.0f}s"
        return result
    try:
        result.digest = output_digest(workload, result.stdout, suite_path)
    except (OSError, ValueError) as error:
        result.failure = f"no output to digest: {error}"
    return result


def check(result: Invocation, pin: dict) -> None:
    """Mark ``result`` failed unless it matches the pinned exit code and digest."""
    if result.failure:
        return
    if result.exit_code != pin["exit_code"]:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        result.failure = f"exit code {result.exit_code} != {pin['exit_code']}: {tail[0]}"
    elif result.digest != pin["digest"]:
        result.failure = f"output digest {result.digest[:16]} != pinned {pin['digest'][:16]}"


def measure_setup(root: Path, work: Path, workload: Workload) -> list:
    """Wall times of fresh interpreters importing the CLI and the
    modules the subcommand imports lazily (one untimed warm-up first)."""
    statement = "import repro.cli" + "".join(f", {name}" for name in workload.lazy_imports)
    argv = [sys.executable, "-c", statement]
    env = _env(root)
    times = []
    for index in range(SETUP_SAMPLES + 1):
        _started, wall, code, _usage, timed_out = run_process(
            argv, root, env, work / "setup.out", work / "setup.err"
        )
        if code != 0 or timed_out:
            detail = (work / "setup.err").read_text(errors="replace").strip()
            raise BenchError(f"importing the CLI failed: {detail[-400:]}")
        if index:
            times.append(wall)
    return times


#: Invocations every run makes, however long they take: the reported
#: times are the fastest invocation's, which needs a second sample.
MIN_INVOCATIONS = 2


def timed_loop(root: Path, work: Path, workload: Workload, pin: dict, seconds: float) -> list:
    """Closed loop, one client: invocations back to back, the next one
    started while less than ``seconds`` have passed."""
    results = []
    loop_started = time.perf_counter()
    while (
        len(results) < MIN_INVOCATIONS
        or time.perf_counter() - loop_started < seconds
    ):
        result = invoke(root, work, workload)
        check(result, pin)
        results.append(result)
    return results


def environment(root: Path) -> dict:
    """What a result depends on besides the code: cores, interpreter,
    commit (or a digest of the sources when the checkout has no git
    metadata), and the SAT core ``--solver-core auto`` resolves to."""
    probe = (
        "import json; from repro.sat import accel_status, resolve_solver_core; "
        "print(json.dumps({'accel_status': accel_status(), "
        "'solver_core_auto': resolve_solver_core('auto')}))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root,
        env=_env(root),
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise BenchError(f"environment probe failed: {completed.stderr.strip()[-400:]}")
    stamp = json.loads(completed.stdout)
    stamp["nproc"] = len(os.sched_getaffinity(0))
    stamp["python"] = platform.python_version()
    stamp["commit"] = _git_commit(root)
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    stamp["source_digest"] = digest.hexdigest()
    return stamp


def _git_commit(root: Path):
    if not (root / ".git").exists() or shutil.which("git") is None:
        return None
    completed = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return completed.stdout.strip() if completed.returncode == 0 else None


def _profile_total(result: Invocation):
    """The program's own ``--profile`` total: the stage-profile
    document's ``total_s`` or the fuzz counters' ``runtime_s``."""
    decoder = json.JSONDecoder()
    for text in (result.stderr, result.stdout):
        for index, char in enumerate(text):
            if char != "{" or (index and text[index - 1] != "\n"):
                continue
            try:
                document, _end = decoder.raw_decode(text, index)
            except ValueError:
                continue
            if document.get("kind") == "stage-profile":
                return document["total_s"]
            if "fuzz_stats" in document:
                return document["fuzz_stats"]["runtime_s"]
    return None


def traced_run(root: Path, work: Path, name: str, pin: dict, untraced: list) -> tuple:
    """One traced invocation folded into per-layer metrics; returns
    (invocation, metrics, details, self-test failures)."""
    workload = WORKLOADS[name]
    trace_dir = work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    result = invoke(root, work, workload, ("--profile",), trace_dir)
    check(result, pin)
    if result.failure:
        return result, None, {}, [f"traced invocation failed: {result.failure}"]
    main = json.loads((trace_dir / "main.json").read_text())
    workers = [json.loads(path.read_text()) for path in sorted(trace_dir.glob("worker-*.json"))]
    trees = [layers.process_tree(main, result.started, result.wall_s)]
    trees += [layers.worker_tree(worker) for worker in workers]
    outside = {
        "traced_wall_s": result.wall_s,
        "untraced_wall_s": statistics.median(r.wall_s for r in untraced),
        "profile_total_s": _profile_total(result),
    }
    if workload.args[0] == "fuzz":
        outside["fuzz_stats"] = json.loads(result.stdout)["stats"]
    values = layers.layer_metrics(trees, main["extra"], [w["extra"] for w in workers], outside)
    failures = layers.check_additivity(trees, values)
    failures += [
        f"wrap point not found: {target}"
        for document in [main] + workers
        for target in document["missing"]
    ]
    failures += expectations(name, values)
    details = {
        "trees": [_summarize(tree) for tree in trees],
        "profile_total_s": outside["profile_total_s"],
        "workers": len(workers),
    }
    return result, values, details, failures


def expectations(name: str, values: dict) -> list:
    """Each layer is non-zero where it does its work, and the exclusive
    families (SAT, fuzz, orchestrate) are zero everywhere else."""
    workload = WORKLOADS[name]
    failures = [f"{metric} is zero on {name}" for metric in workload.works if not values[metric]]
    for family in EXCLUSIVE_FAMILIES:
        if family in workload.families:
            continue
        failures += [
            f"{metric} is non-zero on {name}"
            for metric, value in values.items()
            if metric.startswith(family) and value
        ]
    for metric in ("startup_s", "trace.overhead_s"):
        if not values[metric]:
            failures.append(f"{metric} is zero on {name}")
    return failures


def _summarize(tree: dict) -> dict:
    """path -> [calls, total s, self s] for every node of a tree."""
    return {
        "/".join(ancestors + (node["name"],)): [
            node["count"],
            round(node["total_s"], 6),
            round(tracing.self_time(node), 6),
        ]
        for node, ancestors in tracing.walk(tree)
    }


def load_pins(name: str) -> dict:
    if not PINS.exists():
        raise BenchError(f"{PINS} is missing")
    pins = json.loads(PINS.read_text())["workloads"]
    if name not in pins:
        raise BenchError(f"no pinned output for workload {name!r}; run with --pin")
    return pins[name]


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        raise BenchError(f"{root} holds no repro sources (src/repro/cli.py)")
    return root


def bench(args) -> int:
    root = checkout_root()
    name = args.workload
    workload = WORKLOADS[name]
    pin = load_pins(name)
    work = root / ".bench_e2e"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        stamp = environment(root)
        setup = [] if args.trace else measure_setup(root, work, workload)
        results = timed_loop(root, work, workload, pin, args.seconds)
        details: dict = {}
        selftest: list = []
        if args.trace:
            traced, values, details, selftest = traced_run(root, work, name, pin, results)
            results.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in results if r.failure]
    ok = [r for r in results if not r.failure] or results
    if args.trace:
        metrics = {
            metric: {"value": (values or {}).get(metric, 0.0), "unit": unit}
            for metric, unit in layers.METRICS.items()
        }
    else:
        # Time on a shared host only ever gets added, and it comes in
        # phases that outlast single invocations, so the fastest
        # invocation is the steady estimate; medians go to the details.
        metrics = {
            "wall_s": {"value": min(r.wall_s for r in ok), "unit": "s"},
            "cpu_s": {"value": min(r.cpu_s for r in ok), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r.peak_rss_mb for r in ok), "unit": "MB"},
        }
    report = {
        "workload": name,
        "seed": args.seed,
        "args": list(workload.args),
        "environment": stamp,
        "invocations": [r.to_json() for r in results],
        "fail_frac": len(failed) / len(results),
        "wall_median_s": statistics.median(r.wall_s for r in ok),
        "cpu_median_s": statistics.median(r.cpu_s for r in ok),
        "setup_samples_s": setup,
        "selftest_failures": selftest,
        **details,
    }
    print(json.dumps({"bench_e2e": report}, sort_keys=True))
    for message in [r.failure for r in failed] + selftest:
        print(f"bench_e2e: {message}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not failed and not selftest,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


def pin(args) -> int:
    """Re-pin the exit code and digest of each requested workload after
    cross-checking the output against its independent path."""
    root = checkout_root()
    pins = json.loads(PINS.read_text()) if PINS.exists() else {"workloads": {}}
    names = [args.workload] if args.workload else list(WORKLOADS)
    work = root / ".bench_e2e"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for name in names:
            workload = WORKLOADS[name]
            timed = invoke(root, work, workload)
            if timed.failure:
                raise BenchError(f"{name}: {timed.failure}")
            cross = CROSS_CHECKS[name]
            if isinstance(cross, tuple):
                other = invoke(root, work, workload, cross)
                if other.failure or (other.exit_code, other.digest) != (
                    timed.exit_code,
                    timed.digest,
                ):
                    raise BenchError(f"{name}: output differs under {' '.join(cross)}")
                how = f"equal under {' '.join(cross)}"
            else:
                findings = json.loads(timed.stdout)["findings"]
                if not findings or any(f["violates"] != ["invlpg"] for f in findings):
                    raise BenchError(f"{name}: findings are not all invlpg-only")
                how = f"{len(findings)} findings; {cross}"
            pins["workloads"][name] = {
                "exit_code": timed.exit_code,
                "digest": timed.digest,
                "cross_check": how,
            }
            print(f"{name}: exit {timed.exit_code} digest {timed.digest[:16]} ({how})")
        pins["pinned_with"] = environment(root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="recorded only: every workload's input is fixed (see README.md)",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="cross-check and re-pin digests")
    args = parser.parse_args(argv)
    _become_subreaper()
    try:
        if args.pin:
            return pin(args)
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as error:
        print(f"bench_e2e: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

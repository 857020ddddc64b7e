"""Entry point of the benchmark's traced run.

    BENCH_E2E_TRACE_DIR=<dir> PYTHONPATH=src \\
        python3 bench_e2e/trace_main.py <repro.cli arguments>

behaves like ``python -m repro.cli <arguments>`` with the layer spans of
:mod:`layers` installed, and writes the process's span tree to
``<dir>/main.json`` when the command returns (the time from there to
process exit is the benchmark's ``shutdown`` span).

Spawned pool workers re-import the parent's main script as
``__mp_main__`` before they unpickle any task, so this file is also the
workers' start-up hook: there it installs the same spans plus a span
around each task entry point, and rewrites ``<dir>/worker-<pid>.json``
after every task (workers may be stopped without running exit hooks).
"""

import time

HOOK_STARTED = time.perf_counter()

import functools  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402


def _install(role: str) -> tracing.SpanTree:
    tree = tracing.SpanTree(role)
    tree.extra["hook_started"] = HOOK_STARTED
    started = tracing.clock()
    tracing.install(tree, layers.wrap_points(tree))
    if role == "worker":
        _wrap_worker_entries(tree)
    else:
        _record_spawns(tree)
    node = tree.root.child("trace.install")
    node.count = 1
    node.total = tracing.clock() - started
    return tree


def _wrap_worker_entries(tree: tracing.SpanTree) -> None:
    path = os.path.join(os.environ["BENCH_E2E_TRACE_DIR"], f"worker-{os.getpid()}.json")
    for target in layers.WORKER_ENTRIES:
        try:
            owner, attr = tracing.resolve(target)
        except (ImportError, AttributeError):
            tree.missing.append(target)
            continue
        traced = tree.span("worker.task", getattr(owner, attr))

        @functools.wraps(traced)
        def entry(*args, _traced=traced, **kwargs):
            tree.extra.setdefault("first_task_started", tracing.clock())
            try:
                return _traced(*args, **kwargs)
            finally:
                tree.dump(path)

        setattr(owner, attr, entry)


def _record_spawns(tree: tracing.SpanTree) -> None:
    """Note when the parent starts each pool worker process."""
    from concurrent.futures import ProcessPoolExecutor

    spawn = ProcessPoolExecutor._spawn_process

    @functools.wraps(spawn)
    def recorded(self):
        tree.extra.setdefault("spawn_calls", []).append(tracing.clock())
        return spawn(self)

    ProcessPoolExecutor._spawn_process = recorded


if __name__ == "__mp_main__":
    _install("worker")
elif __name__ == "__main__":
    _tree = _install("main")
    import repro.cli

    try:
        _code = repro.cli.main(sys.argv[1:])
    finally:
        _tree.extra["main_returned"] = tracing.clock()
        _tree.dump(os.path.join(os.environ["BENCH_E2E_TRACE_DIR"], "main.json"))
    sys.exit(_code)

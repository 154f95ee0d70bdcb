"""Fail on any executable line of src/qhesolve that tier-1 does not run.

Runs the tier-1 suite in this process under a stdlib line tracer
(sys.settrace and threading.settrace, limited to the package's files) and
compares the lines it saw with every line the compiler gives code for. A
line no test runs must be deleted or tested; the few that only a
subprocess test or interpreter exit runs are listed in ALLOWED, by file and
source text, each with its reason. An ALLOWED entry that matches no unrun
line is stale and fails too.

    PYTHONPATH=src python tests/unrun_lines.py [pytest args]

Exit status: pytest's own when it fails, else 1 for unrun or stale lines,
else 0.
"""
from __future__ import annotations

import importlib.util
import pathlib
import sys
import threading

SUBPROCESS = "runs only in subprocess tests"
SERVE = "the serve verb's body " + SUBPROCESS
PHASE_ESTIMATION = ("phase-estimation guard: no solve builds this circuit; "
                    "perfbench's server_jobs does, with valid systems")

# (file, function, stripped source text) -> why no tier-1 test runs it in
# this process; "<module>" is a file's top level
ALLOWED = {
    **{("__main__.py", "<module>", text): "python -m qhesolve " + SUBPROCESS
       for text in ("from .cli import run", "run()")},
    ("cli.py", "<module>", "run()"):
        "python -m qhesolve.cli; the console script and -m call run()",
    **{("cli.py", "_cmd_serve", text): SERVE for text in (
        "import signal  # only serve needs it, and every cold solve imports cli",
        "logging.basicConfig(",
        "level=logging.INFO if args.verbose else logging.WARNING,",
        'format="%(asctime)s %(name)s %(message)s")',
        "server = qserve.ExecutionServer(args.host, args.port, args.timeout)",
        "for signum in (signal.SIGINT, signal.SIGTERM):",
        "signal.signal(signum, signal.default_int_handler)",
        "try:",
        'sys.stdout.write("listening on {}:{}\\n".format(*server.address))',
        "sys.stdout.flush()",
        "server.serve_forever()",
        "except KeyboardInterrupt:",
        "server.shutdown()",
        "return 0")},
    **{("qserve.py", "ExecutionServer.serve_forever", text):
       "serve_forever runs only under the serve verb, in subprocess tests"
       for text in ('log.info("serving on %s:%d", *self.address)',
                    "self.serve_until_stopped()")},
    **{("qserve.py", "_close_idle", text):
       "an atexit hook: it runs only when a process that imports qhesolve "
       "as a library exits (a command ends with os._exit)"
       for text in ("for _, sock in _idle:", "sock.close()")},
    ("hhl.py", "uniformly_controlled_ry",
     'raise SolverError("need one angle per control value")'): PHASE_ESTIMATION,
    ("hhl.py", "choose_t0",
     'raise SolverError("need at least one register bit")'): PHASE_ESTIMATION,
    ("hhl.py", "choose_t0",
     'raise SolverError("general circuit needs positive eigenvalues")'): PHASE_ESTIMATION,
    ("hhl.py", "_register_values",
     'raise SolverError(f"eigenphase {phase} is not an exact register value")'):
        PHASE_ESTIMATION,
    ("hhl.py", "build_general_circuit",
     'raise SolverError("distinct eigenvalues collide in the register")'): PHASE_ESTIMATION,
}


def executable_lines(path: pathlib.Path) -> dict[int, str]:
    """{line: qualified name of its function} for every line that some
    instruction of the compiled file belongs to (line 0, a module's entry,
    is no source line)."""
    lines, todo = {}, [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update((line, code.co_qualname)
                     for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(package: pathlib.Path, pytest_args: list[str]):
    """(pytest's exit status, {filename: lines run}) for one traced run."""
    import pytest  # imports no qhesolve module, so import lines are traced

    prefix = str(package) + "/"
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, seen


def main(argv: list[str]) -> int:
    spec = importlib.util.find_spec("qhesolve")
    package = pathlib.Path(spec.submodule_search_locations[0]).resolve()
    status, seen = run_traced(package, ["-q", "--continue-on-collection-errors",
                                        "-p", "no:cacheprovider", *argv])
    if status != 0:
        print(f"unrun_lines: pytest exited {status}", file=sys.stderr)
        return int(status)
    unrun, used, total = [], set(), 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines.keys() - seen.get(str(path), set())):
            key = (path.name, lines[line], source[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            else:
                unrun.append("{}:{}: in {}: {}".format(path.name, line, *key[1:]))
    stale = ["{}: in {}: {}".format(*key) for key in ALLOWED if key not in used]
    print(f"unrun_lines: {total} executable lines, {len(unrun)} unrun and "
          f"not allowed, {len(used)} allowed entries used, {len(stale)} stale")
    for line in unrun:
        print(f"unrun: {line}")
    for entry in stale:
        print(f"stale allowlist entry: {entry}")
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

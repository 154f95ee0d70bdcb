"""Golden master: every argv and wire payload in corpus.txt gives exactly
the recorded output.

corpus.txt is a list of blocks, each opened by a `=== ` line:

    === file NAME           a circuit file; `{NAME}` in an argv is its path
                            (any other `{NAME}` is an unused path, for --out)
    === argv ARGS           cli.main(ARGS), shell-quoted: status, stdout, stderr
    === payload JSON        qserve.handle_request(JSON): the reply frame's bytes

Each output follows as a header line (`text` of a file, `status N`,
`stdout`, `stderr`, `reply`) and its text, one `| ` line per output line
(`|` alone for an empty one). A change that moves an
output on purpose regenerates the file, and its diff lists every moved
entry:

    PYTHONPATH=src python tests/test_corpus.py

To add a case, append its `=== ` line and regenerate. A few argv also run
in a real `python -m qhesolve` process, which must print the same bytes
before it ends.
"""
from __future__ import annotations

import contextlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

import pytest

from qhesolve import cli, qserve

CORPUS = pathlib.Path(__file__).with_name("corpus.txt")


def _quoted(text: str) -> list[str]:
    if text and not text.endswith("\n"):
        raise ValueError(f"output without a final newline: {text[-40:]!r}")
    return [f"| {line}" if line else "|" for line in text.split("\n")[:-1]]


def read_corpus(path: pathlib.Path = CORPUS):
    """(header lines, {file name: text}, [(kind, input, {section: text})])
    in file order; the header is every line before the first block."""
    files, entries, head = {}, [], []
    block = None
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        if line.startswith("=== "):
            kind, _, source = line[4:].partition(" ")
            block = (kind, source, {})
            section = None
            if kind == "file":
                files[source] = block[2]
            else:
                entries.append(block)
        elif block is None:
            head.append(line)
        elif line.startswith("| ") or line == "|":
            block[2][section] += line[2:] + "\n"
        else:
            section = line
            block[2][section] = ""
    files = {name: sections["text"] for name, sections in files.items()}
    return head, files, entries


def _argv(source: str, directory: str) -> list[str]:
    return [re.sub(r"\{([^{}]+)\}", lambda m: os.path.join(directory, m[1]), arg)
            for arg in shlex.split(source)]


def run_argv(source: str, directory: str) -> dict[str, str]:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage text to the terminal's width
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            status = cli.main(_argv(source, directory))
        except SystemExit as exc:  # a usage error
            status = exc.code
    return {f"status {status}": "", "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def run_process(source: str, directory: str) -> dict[str, str]:
    """run_argv's sections from a `python -m qhesolve` process, whose
    stdout is block-buffered, as it is for a user (unbuffered streams would
    hide a missing flush)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "qhesolve", *_argv(source, directory)],
        capture_output=True, text=True, timeout=60, env=env)
    return {f"status {done.returncode}": "", "stdout": done.stdout,
            "stderr": done.stderr}


def run_payload(source: str) -> dict[str, str]:
    reply = qserve._encode(qserve.handle_request(source.encode("utf-8")))
    return {"reply": reply.decode("utf-8") + "\n"}


def run_entry(kind: str, source: str, directory: str) -> dict[str, str]:
    return run_argv(source, directory) if kind == "argv" else run_payload(source)


@contextlib.contextmanager
def written(files: dict[str, str]):
    """A fresh directory holding the corpus's circuit files."""
    with tempfile.TemporaryDirectory() as directory:
        for name, text in files.items():
            pathlib.Path(directory, name).write_text(text, encoding="utf-8")
        yield directory


_, FILES, ENTRIES = read_corpus()


@pytest.fixture(scope="module")
def directory():
    with written(FILES) as directory:
        yield directory


@pytest.mark.parametrize("kind,source,recorded", ENTRIES,
                         ids=[f"{kind} {source}"[:120]
                              for kind, source, _ in ENTRIES])
def test_corpus_entry_is_unchanged(directory, kind, source, recorded):
    assert run_entry(kind, source, directory) == recorded


# a report, a file written with --out, a runtime error and a usage error
PROCESS_ARGV = (
    "solve --fixture eq7 --key 1,0 --mode replica --execution sampled"
    " --shots 8192 --seed 7",
    "synth --target-ry-deg -28.67 --t-budget 7 --out {rs.qc}",
    "solve --matrix=1,2,3 --rhs=1,1 --key 0,0",
    "serve --timeout -1",
)


@pytest.mark.parametrize("source", PROCESS_ARGV)
def test_a_process_emits_the_recorded_output(source):
    recorded = {s: r for kind, s, r in ENTRIES if kind == "argv"}[source]
    with written(FILES) as process, written(FILES) as in_process:
        assert run_process(source, process) == recorded
        run_argv(source, in_process)
        for name in set(re.findall(r"\{([^{}]+)\}", source)) - FILES.keys():
            text = pathlib.Path(process, name).read_text(encoding="utf-8")
            assert text == pathlib.Path(in_process, name).read_text(
                encoding="utf-8"), name


def test_a_process_prints_the_help_of_main(directory):
    assert run_process("--help", directory) == run_argv("--help", directory)


def regenerate(path: pathlib.Path = CORPUS):
    """Rewrite every entry's outputs from the code as it is now."""
    head, files, entries = read_corpus(path)
    lines = list(head)
    for name, text in files.items():
        lines += [f"=== file {name}", "text", *_quoted(text)]
    with written(files) as directory:
        for kind, source, _ in entries:
            lines.append(f"=== {kind} {source}")
            for section, text in run_entry(kind, source, directory).items():
                lines += [section, *_quoted(text)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"regenerated {CORPUS}", file=sys.stderr)

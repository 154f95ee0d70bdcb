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

To add a case, append its `=== ` line and regenerate.
"""
from __future__ import annotations

import contextlib
import io
import os
import pathlib
import re
import shlex
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


def run_argv(source: str, directory: str) -> dict[str, str]:
    argv = [re.sub(r"\{([^{}]+)\}", lambda m: os.path.join(directory, m[1]), arg)
            for arg in shlex.split(source)]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage text to the terminal's width
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # a usage error
            status = exc.code
    return {f"status {status}": "", "stdout": out.getvalue(),
            "stderr": err.getvalue()}


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

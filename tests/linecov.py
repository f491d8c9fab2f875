"""Report-only line coverage on the standard library's ``sys.settrace``.

    PYTHONPATH=src python -m pytest -p tests.linecov --linecov src/repro

Off unless ``--linecov DIR`` is passed.  Then every line run under DIR
while the tests run is recorded, and the terminal summary lists, per
file, the function-body lines no test executed.  It never fails a run.
"""

import inspect
import os
import sys
import threading


def pytest_addoption(parser):
    parser.addoption(
        "--linecov", metavar="DIR",
        help="list the function-body lines under DIR that no test ran",
    )


def pytest_load_initial_conftests(early_config, parser, args):
    # Before the conftests load, so import-time calls are traced too.
    root = early_config.known_args_namespace.linecov
    if root:
        early_config.pluginmanager.register(LineCoverage(root), "linecov")


def function_lines(path):
    """Line numbers of every function body in the file at ``path``
    (class and module bodies run at import, so they are left out)."""
    with open(path, encoding="utf-8") as handle:
        pending = [compile(handle.read(), path, "exec")]
    lines = set()
    while pending:
        code = pending.pop()
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines() if line)
            lines.discard(code.co_firstlineno)
    return lines


def spans(lines):
    """``[3, 4, 5, 9]`` -> ``"3-5, 9"``."""
    runs = []
    for line in sorted(lines):
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if b > a else f"{a}" for a, b in runs)


class LineCoverage:
    def __init__(self, root):
        self.root = os.path.realpath(root) + os.sep
        self.hits = set()
        self._inside = {}
        threading.settrace(self._call)
        sys.settrace(self._call)

    def _call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        inside = self._inside.get(filename)
        if inside is None:
            inside = self._inside[filename] = os.path.realpath(
                filename
            ).startswith(self.root)
        return self._line if inside else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def pytest_terminal_summary(self, terminalreporter):
        sys.settrace(None)
        threading.settrace(None)
        hits = {}
        for filename, line in self.hits:
            hits.setdefault(os.path.realpath(filename), set()).add(line)
        write = terminalreporter.write_line
        total = missed = 0
        for folder, _dirs, files in sorted(os.walk(self.root)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                lines = function_lines(path)
                unrun = lines - hits.get(path, set())
                total += len(lines)
                missed += len(unrun)
                if unrun:
                    shown = os.path.relpath(path, self.root)
                    write(f"{shown}: {len(unrun)} unexecuted: {spans(unrun)}")
        share = missed / total if total else 0.0
        write(
            f"linecov: {missed} of {total} function-body lines "
            f"unexecuted ({share:.1%})"
        )

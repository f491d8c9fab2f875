"""One gate for every committed ``BENCH_<name>.json`` artifact.

``benchmarks/bench_<name>.py`` declares ``measure()`` and its ``GATE``
rules as data; "Add a gated benchmark" in ``docs/extending.md`` says
how.  Usage::

    PYTHONPATH=src python -m benchmarks.gate cluster_scale
    PYTHONPATH=src python -m benchmarks.gate same A.json B.json
    python -m benchmarks.gate suite SUITE.json

The first form runs the bench, overwrites its artifact with the fresh
run, prints a markdown summary to stdout and exits 1 with one line per
broken rule on stderr.  The second compares two run outputs
(``repro ... --json``) after dropping their volatile ``host`` block.
The third prints, and never gates, the host end-to-end table of one
``python -m benchmarks.suite --json SUITE.json`` run.
"""

import importlib
import json
import operator
import os
import sys
from fnmatch import fnmatchcase

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: How far a toleranced value may move the worse way.
TOLERANCE = 0.10
SCALE = {"rise": 1 + TOLERANCE, "fall": 1 - TOLERANCE}
#: Host wall-clock seconds: machine noise, never matched exactly.
HOST_TIME = "wall_s"
OPS = {"==": operator.eq, ">=": operator.ge, ">": operator.gt,
       "<=": operator.le, "<": operator.lt}
#: The suite's host-side end-to-end metrics, one column each.
SUITE_COLUMNS = ("wall_s", "setup_s", "peak_rss_mb")


def load(path):
    """The JSON document at ``path``."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def artifact_path(name):
    """Where bench ``name``'s committed artifact lives."""
    return os.path.join(REPO_ROOT, f"BENCH_{name}.json")


def row_key(gate, row):
    """The row's key fields joined with ``/``."""
    return "/".join(str(row[field]) for field in gate["key"])


def keyed(artifact, gate):
    """The artifact with ``rows`` as a dict keyed by the gate's key."""
    if "key" not in gate:
        return artifact
    rows = {row_key(gate, row): row for row in artifact["rows"]}
    return dict(artifact, rows=rows)


def resolve(tree, pattern):
    """``{path: value}`` for every match of a dotted fnmatch pattern."""
    found = {(): tree}
    for part in pattern.split("."):
        found = {
            path + (name,): node[name]
            for path, node in found.items() if isinstance(node, dict)
            for name in node if fnmatchcase(name, part)
        }
    return {".".join(path): value for path, value in found.items()}


def check(name, gate, fresh, committed):
    """One line per rule the fresh artifact breaks against the committed."""
    new, old = keyed(fresh, gate), keyed(committed, gate)
    failures = []

    def fail(path, rule):
        failures.append(f"{name}: {path}: {rule}")

    if "key" in gate:
        for key in sorted(old["rows"].keys() - new["rows"].keys()):
            fail(f"rows.{key}", "row missing from the fresh run")
        for key in sorted(new["rows"].keys() - old["rows"].keys()):
            fail(f"rows.{key}", "row missing from the committed artifact")

    def matches(pattern, tree, rule):
        found = resolve(tree, pattern)
        if not found:
            fail(pattern, f"{rule}: no value at this path")
        return found

    for pattern in gate.get("exact", ()):
        now = matches(pattern, new, "exact")
        then = resolve(old, pattern)
        for path in sorted(now.keys() | then.keys()):
            if path.rsplit(".", 1)[-1] == HOST_TIME:
                continue
            if now.get(path) != then.get(path):
                fail(path, f"exact: {then.get(path)!r} -> {now.get(path)!r}")
    for pattern, worse in gate.get("tolerance", {}).items():
        then = resolve(old, pattern)
        for path, value in matches(pattern, new, "tolerance").items():
            if path not in then:
                continue  # a new row: reported by the row-key check
            bound = then[path] * SCALE[worse]
            if value > bound if worse == "rise" else value < bound:
                fail(path, f"{worse} > {TOLERANCE:.0%}: "
                           f"{then[path]!r} -> {value!r}")
    for pattern, op, bound in gate.get("targets", ()):
        label, limit = describe(fresh, op, bound)
        for path, value in matches(pattern, new, f"target {label}").items():
            if None in (value, limit) or not OPS[op](value, limit):
                fail(path, f"target {label}: {value!r}")
    return failures


def describe(fresh, op, bound):
    """``(label, value)`` of a target bound, read from the artifact."""
    if not isinstance(bound, str):
        return f"{op} {bound!r}", bound
    return f"{op} {bound} ({fresh.get(bound)!r})", fresh.get(bound)


def number(value):
    """True for an int or float that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def fmt(value, sign=""):
    """A table cell: thousands separators, 3 decimals below 1000."""
    if not number(value):
        return "-" if value is None else str(value)
    if isinstance(value, int):
        return f"{value:{sign},}"
    return f"{value:{sign},.{3 if abs(value) < 1000 else 0}f}"


def cell(row, column):
    """``row``'s value at a dotted column path, or None."""
    return resolve(row, column).get(column)


def summary(gate, fresh, committed):
    """The markdown summary: title, one table per list or dict, targets."""
    lines = [f"### {gate['title'].format(**fresh)}"]
    old_rows = keyed(committed, gate).get("rows", {})
    for path, columns in gate.get("tables", {}).items():
        lines += ["", "| " + " | ".join(columns) + " |",
                  "|" + " --- |" * len(columns)]
        rows = cell(fresh, path) or ()
        for row in [rows] if isinstance(rows, dict) else rows:
            old = old_rows.get(row_key(gate, row)) if path == "rows" else None
            cells = []
            for column in columns:
                value = cell(row, column)
                before = cell(old, column) if old else None
                text = fmt(value)
                if number(value) and number(before) and value != before:
                    text += f" ({fmt(value - before, '+')})"
                cells.append(text)
            lines.append("| " + " | ".join(cells) + " |")
    if gate.get("targets"):
        lines.append("")
    for pattern, op, bound in gate.get("targets", ()):
        label, _ = describe(fresh, op, bound)
        values = resolve(keyed(fresh, gate), pattern).values()
        lines.append(f"- `{pattern}` {label}: {', '.join(map(fmt, values))}")
    return "\n".join(lines)


def run(name):
    """Measure bench ``name``, rewrite its artifact, gate and summarise."""
    try:
        module = importlib.import_module(f"benchmarks.bench_{name}")
    except ModuleNotFoundError as err:
        if err.name != f"benchmarks.bench_{name}":
            raise
        return [f"{name}: no module benchmarks/bench_{name}.py"]
    if not hasattr(module, "GATE"):
        return [f"{name}: benchmarks/bench_{name}.py declares no GATE"]
    path = artifact_path(name)
    committed = load(path) if os.path.exists(path) else None
    fresh = module.measure()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(fresh, handle, indent=2)
        handle.write("\n")
    if committed is None:
        return [f"{name}: no committed artifact; wrote {path}"]
    print(summary(module.GATE, fresh, committed))
    return check(name, module.GATE, fresh, committed)


def same(path_a, path_b):
    """One line per top-level field in which two run outputs differ."""
    a, b = load(path_a), load(path_b)
    return [
        f"{path_a} and {path_b} differ in {field!r}"
        for field in sorted((a.keys() | b.keys()) - {"host"})
        if a.get(field) != b.get(field)
    ]


def suite_table(path):
    """Markdown: one row per workload of a suite ``--json`` output."""
    lines = ["### Benchmark suite, end to end", "",
             "| workload | " + " | ".join(SUITE_COLUMNS) + " |",
             "| --- |" + " --- |" * len(SUITE_COLUMNS)]
    for name, result in load(path)["summaries"].items():
        metrics = result["metrics"]
        cells = [fmt(metrics.get(column)) for column in SUITE_COLUMNS]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None):
    """CLI entry: ``<bench>``, ``same A.json B.json`` or ``suite
    SUITE.json``; 0 ok, 1 broken."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "same":
        failures = same(args[1], args[2])
    elif len(args) == 2 and args[0] == "suite":
        print(suite_table(args[1]))
        failures = []
    elif len(args) == 1 and args[0] not in ("same", "suite"):
        failures = run(args[0])
    else:
        print("usage: python -m benchmarks.gate BENCH | same A.json B.json"
              " | suite SUITE.json", file=sys.stderr)
        return 2
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

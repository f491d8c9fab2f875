"""Committed CLI transcripts: every ``repro`` output the refactors must keep.

Each case is a list of ``repro`` command lines run in one fresh
directory.  A step's transcript holds its exit code, its stdout and
stderr, and (when the command line names ``--json FILE``) the JSON it
wrote.  ``test_transcripts.py`` replays every case and compares.

Only host-volatile data is masked: host wall time and the events/s
derived from it (the trial commands' ``wall clock`` line, ``diff``'s
``host:`` line and the JSON ``host`` blocks) and the temporary
directory's path.  Simulated event counts stay pinned.

Regenerate only after an *intentional* change to what the CLI prints::

    PYTHONPATH=src python -m tests.transcripts.regen
"""

import contextlib
import io
import json
import os
import re

from repro.cli import main

TRANSCRIPTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "transcripts.json"
)
EXAMPLES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "examples"
)

#: Input files every case finds in its directory.
FIXTURES = {
    "crash-alpha.json": '{"crashes": [{"host": "alpha", "at": 2.0}]}',
    "crash-node0.json":
        '{"crashes": [{"host": "node0", "at": 12.0, "recover_at": 20.0}]}',
    "crash-node00.json": '{"crashes": [{"host": "node00", "at": 8.0}]}',
    "bad-json.json": "{not json",
    "bad-plan.json": '{"loss": [{"rate": 2.0}]}',
    "bad-slo.json": '{"slos": [{"name": "x", "metric": "m"}]}',
    "empty-trace.json": '{"traceEvents": []}',
    "unstamped.json": json.dumps({"traceEvents": [
        {"ph": "X", "name": "migrate", "pid": 1, "tid": 1,
         "ts": 0, "dur": 5, "args": {}},
    ]}),
}

TRIAL_COMMANDS = {
    "migrate": ["migrate", "minprog"],
    "sweep": ["sweep", "minprog"],
    "chain": ["chain", "minprog"],
    "precopy": ["precopy", "minprog"],
    "balance": ["balance", "chess", "chess", "pm-mid", "minprog",
                "--hosts", "3"],
    "stress": ["stress", "--hosts", "4", "--procs", "8", "--seed", "7"],
    "serve": ["serve", "--seed", "11", "--requests", "20"],
    "faults": ["faults", "minprog"],
}
SUBCOMMANDS = [
    "migrate", "sweep", "chain", "precopy", "balance", "stress", "serve",
    "faults", "report", "export", "figures", "inspect", "analyze",
    "health", "profile", "diff", "workloads",
]
_TRANSFER = {
    "migrate": ["--batch", "0"],
    "sweep": ["--pipeline", "0"],
    "chain": ["--prefetch", "-1"],
    "precopy": ["--batch", "0"],
    "balance": ["--pipeline", "0"],
}
_SLO_COMMANDS = ("migrate", "balance", "stress", "serve")
_CONFIG = {
    "stress": [
        ["--hosts", "1"], ["--procs", "0"], ["--rate", "0"],
        ["--sample-period", "-1"], ["--batch", "0"], ["--prefetch", "-1"],
    ],
    "serve": [
        ["--hosts", "1"], ["--procs", "0"], ["--rate", "0"],
        ["--request-rate", "0"], ["--retries", "-1"],
        ["--sample-period", "-1"], ["--pipeline", "0"],
    ],
}


def _cases():
    cases = {
        "migrate-default": [["migrate", "minprog", "--json", "out.json"]],
        "migrate-batched-dedup": [[
            "migrate", "minprog", "--batch", "8", "--pipeline", "4",
            "--dedup", "--json", "out.json",
        ]],
        "migrate-slo": [[
            "migrate", "minprog", "--slo", "slo-freeze.json",
            "--json", "out.json",
        ]],
        "migrate-crash-alpha": [[
            "migrate", "minprog", "--faults", "crash-alpha.json",
            "--json", "out.json",
        ]],
        "balance-inflight-2": [
            TRIAL_COMMANDS["balance"] + ["--inflight", "2", "--json",
                                         "out.json"],
        ],
        "workloads": [["workloads"]],
        "crashes": [
            TRIAL_COMMANDS[name] + ["--faults", plan, "--json", "out.json"]
            for name, plan in (
                ("sweep", "crash-alpha.json"),
                ("chain", "crash-alpha.json"),
                ("precopy", "crash-alpha.json"),
                ("balance", "crash-node0.json"),
                ("stress", "crash-node00.json"),
                ("serve", "crash-node00.json"),
            )
        ] + [TRIAL_COMMANDS["balance"] + [
            "--inflight", "2", "--faults", "crash-node0.json",
            "--json", "out.json",
        ]],
        "trace-tools": [
            ["migrate", "minprog", "--trace", "t.json"],
            ["migrate", "minprog", "--strategy", "pure-copy",
             "--trace", "copy.json"],
            ["inspect", "t.json"],
            ["analyze", "t.json", "--json", "analyze.json"],
            ["diff", "t.json", "t.json", "--json", "diff-self.json"],
            ["diff", "t.json", "copy.json", "--json", "diff.json"],
        ],
        "health": [
            ["stress", "--hosts", "4", "--procs", "12", "--seed", "7",
             "--sample-period", "0.5", "--slo", "slo-freeze.json",
             "--trace", "h.json"],
            ["health", "h.json"],
            ["health", "h.json", "--html", "h.html", "--json", "h-report.json"],
        ],
        "write-failures": [
            argv + [flag, "/dev/null/x"]
            for argv in TRIAL_COMMANDS.values()
            for flag in ("--json", "--trace")
        ],
        "usage-no-command": [[]],
        "usage-argparse": [
            ["migrate", "bogus"],
            ["migrate", "minprog", "--strategy", "bogus"],
            ["serve", "--services", "bogus"],
        ],
        "usage-balance-unknown-workload": [["balance", "bogus"]],
        "usage-trace-readers": [
            ["inspect", "missing.json"],
            ["inspect", "bad-json.json"],
            ["inspect", "empty-trace.json"],
            ["analyze", "missing.json"],
            ["analyze", "bad-json.json"],
            ["analyze", "unstamped.json"],
            ["health", "missing.json"],
            ["health", "bad-json.json"],
            ["health", "unstamped.json"],
            ["diff", "missing.json", "missing.json"],
            ["diff", "unstamped.json", "unstamped.json"],
        ],
        "usage-profile": [["profile"], ["profile", "profile", "workloads"]],
        "help": [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS],
    }
    for name, argv in TRIAL_COMMANDS.items():
        cases.setdefault(name, [argv + ["--json", "out.json"]])
        if name != "faults":
            cases[f"usage-faults-{name}"] = [
                argv + ["--faults", "missing.json"],
                argv + ["--faults", "bad-json.json"],
                argv + ["--faults", "bad-plan.json"],
            ]
    for name, flags in _TRANSFER.items():
        cases[f"usage-transfer-{name}"] = [TRIAL_COMMANDS[name] + flags]
    for name in _SLO_COMMANDS:
        cases[f"usage-slo-{name}"] = [
            TRIAL_COMMANDS[name] + ["--slo", spec]
            for spec in ("missing.json", "bad-json.json", "bad-slo.json")
        ]
    for name, variants in _CONFIG.items():
        cases[f"usage-config-{name}"] = [
            TRIAL_COMMANDS[name] + flags for flags in variants
        ]
    return cases


CASES = _cases()


def _mask(text, directory):
    text = text.replace(directory + os.sep, "<tmp>/").replace(directory, "<tmp>")
    text = re.sub(r"(?m)^wall clock .*$", "wall clock <masked>", text)
    return re.sub(r"(?m)^(  host: .* events \([^)]*\)), .*$", r"\1, <masked>",
                  text)


def _mask_json(data):
    """``data`` with the host wall-time fields of every ``host`` block
    masked."""
    if isinstance(data, list):
        return [_mask_json(item) for item in data]
    if not isinstance(data, dict):
        return data
    masked = {key: _mask_json(value) for key, value in data.items()}
    host = masked.get("host")
    if isinstance(host, dict):
        masked["host"] = {
            key: "<masked>" if key.startswith(("wall", "events_per_s"))
            else value
            for key, value in host.items()
        }
    return masked


def _json_target(argv):
    if "--json" in argv:
        return argv[argv.index("--json") + 1]
    return None


def run_step(argv, directory):
    """Run one ``repro`` command line in ``directory``; its transcript."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    # argparse wraps --help and usage text to the terminal's width.
    os.environ["COLUMNS"] = "80"
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main(list(argv))
            except SystemExit as stop:
                code = stop.code
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    step = {
        "argv": list(argv),
        "exit": code,
        "stdout": _mask(stdout.getvalue(), directory),
        "stderr": _mask(stderr.getvalue(), directory),
    }
    target = _json_target(argv)
    if target is not None and os.path.exists(os.path.join(directory, target)):
        with open(os.path.join(directory, target), encoding="utf-8") as handle:
            step["json"] = _mask_json(json.load(handle))
        os.remove(os.path.join(directory, target))
    return step


def run_case(name, directory):
    """Write the fixtures into ``directory`` and run case ``name``."""
    for filename, text in FIXTURES.items():
        with open(os.path.join(directory, filename), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    with open(os.path.join(EXAMPLES, "slo-freeze.json"),
              encoding="utf-8") as source:
        spec = source.read()
    with open(os.path.join(directory, "slo-freeze.json"), "w",
              encoding="utf-8") as handle:
        handle.write(spec)
    return [run_step(argv, directory) for argv in CASES[name]]


def read_transcripts():
    with open(TRANSCRIPTS, encoding="utf-8") as handle:
        return json.load(handle)

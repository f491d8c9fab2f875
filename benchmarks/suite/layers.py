"""Declared layers: every source file of ``repro`` belongs to exactly one.

Patterns are matched with :func:`fnmatch.fnmatchcase` against the file's
path relative to ``src/repro`` (POSIX separators).  There is no
catch-all: ``test_suite.py`` fails when a file matches no pattern or the
patterns of two layers, so a new module has to be placed on purpose
instead of landing silently in an ``other`` bucket.
"""

import os
from fnmatch import fnmatchcase

#: layer name -> path patterns, in report order (bottom of the stack first).
LAYERS = {
    "sim": ("sim/*.py",),
    "vm": ("accent/vm/*.py",),
    "kernel": (
        "accent/__init__.py",
        "accent/constants.py",
        "accent/disk.py",
        "accent/host.py",
        "accent/kernel.py",
        "accent/process.py",
    ),
    "ipc": ("accent/ipc/*.py",),
    "net": ("net/*.py",),
    "pager": ("accent/pager.py", "cor/*.py"),
    "store": ("store/*.py",),
    "migration": ("migration/*.py",),
    "cluster": ("cluster/*.py", "loadbalance/*.py"),
    "serve": ("serve/*.py",),
    "obs": ("obs/*.py", "metrics/*.py"),
    "workloads": ("workloads/*.py",),
    "harness": (
        "__init__.py",
        "__main__.py",
        "calibration.py",
        "cli.py",
        "testbed.py",
        "experiments/*.py",
        "faults/*.py",
    ),
}


def layers_of(relpath):
    """Every layer whose patterns match ``relpath`` (ideally exactly one)."""
    return [
        layer
        for layer, patterns in LAYERS.items()
        if any(fnmatchcase(relpath, pattern) for pattern in patterns)
    ]


class LayerMap:
    """Maps code-object file names to layers, caching each lookup.

    Files outside ``package_dir`` map to None; so does a file inside it
    that matches no layer, which the table test rules out.
    """

    def __init__(self, package_dir):
        self.package_dir = os.path.realpath(package_dir) + os.sep
        self._cache = {}

    def __call__(self, filename):
        layer = self._cache.get(filename, False)
        if layer is False:
            layer = None
            path = os.path.realpath(filename)
            if path.startswith(self.package_dir):
                relpath = path[len(self.package_dir):].replace(os.sep, "/")
                matches = layers_of(relpath)
                if len(matches) == 1:
                    layer = matches[0]
            self._cache[filename] = layer
        return layer

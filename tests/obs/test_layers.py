"""The declared layer table behind the profiler's per-layer shares."""

import os

from benchmarks.suite import layers as suite_layers
from repro.obs.layers import LAYERS, PACKAGE_DIR, LayerMap, layers_of


def test_every_source_file_maps_to_exactly_one_layer():
    seen = 0
    for directory, _, files in os.walk(PACKAGE_DIR):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            relpath = os.path.relpath(os.path.join(directory, filename),
                                      PACKAGE_DIR)
            matches = layers_of(relpath.replace(os.sep, "/"))
            assert len(matches) == 1, (relpath, matches)
            seen += 1
    assert seen > 50


def test_table_equals_the_benchmark_suites():
    """Profiler shares and the suite's ``<layer>.host_share`` metrics
    must be read over the same table, in the same order."""
    assert list(LAYERS.items()) == list(suite_layers.LAYERS.items())


def test_layer_map_places_program_files_only():
    layer_of = LayerMap()
    assert layer_of(os.path.join(PACKAGE_DIR, "sim", "engine.py")) == "sim"
    assert layer_of(os.path.join(PACKAGE_DIR, "cli.py")) == "harness"
    assert layer_of(os.__file__) is None

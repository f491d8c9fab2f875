"""The columnar link log against the list of records it replaced."""

import gc
import weakref

import pytest

from repro.metrics import LinkLog, LinkRecord, MetricsCollector, Timeline
from repro.testbed import Testbed


class RecordingTestbed(Testbed):
    """A testbed that keeps a weak reference to every world it builds."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.worlds = []

    def world(self, host_names=("alpha", "beta")):
        world = super().world(host_names=host_names)
        self.worlds.append(weakref.ref(world))
        return world


@pytest.fixture(scope="module")
def trial():
    """A real pure-IOU trial, plus every fragment as the old list of
    :class:`LinkRecord` tuples would have held it."""
    reference = []
    record_link = MetricsCollector.record_link

    def recording(self, nbytes, category, source, dest, **kwargs):
        reference.append(
            LinkRecord(self.engine.now, nbytes, category, source, dest)
        )
        return record_link(self, nbytes, category, source, dest, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MetricsCollector, "record_link", recording)
        testbed = RecordingTestbed(seed=1987)
        result = testbed.migrate("pm-start", strategy="pure-iou")
    return testbed, result, reference


def test_log_reads_as_the_record_list(trial):
    _, result, reference = trial
    log = result.link_records
    assert isinstance(log, LinkLog)
    assert len(log) == len(reference) > 100
    assert list(log) == reference
    assert [log[i] for i in range(len(log))] == reference
    assert log[-1] == reference[-1]
    assert log[-len(log)] == reference[0]
    with pytest.raises(IndexError):
        log[len(log)]


def test_timeline_bins_match_over_log_and_list(trial):
    _, result, _ = trial
    log = result.link_records
    timeline = Timeline(1.0)
    assert timeline.bins(log) == timeline.bins(list(log))
    marks = result.marks
    window = dict(start=marks["trial.start"], end=marks["trial.end"])
    assert timeline.bins(log, **window) == timeline.bins(list(log), **window)
    assert result.timeline() == timeline.bins(list(log), **window)


def test_result_log_outlives_its_world(trial):
    testbed, result, reference = trial
    gc.collect()
    assert [ref for ref in testbed.worlds if ref() is not None] == []
    assert list(result.link_records) == reference


def test_copy_is_independent():
    log = LinkLog([LinkRecord(0.5, 10, "x", "a", "b")])
    snapshot = log.copy()
    log.append(1.0, 20, "y", "b", "a")
    snapshot.append(2.0, 30, "x", "a", "b")
    assert list(log) == [
        LinkRecord(0.5, 10, "x", "a", "b"), LinkRecord(1.0, 20, "y", "b", "a"),
    ]
    assert list(snapshot) == [
        LinkRecord(0.5, 10, "x", "a", "b"), LinkRecord(2.0, 30, "x", "a", "b"),
    ]
    assert snapshot.routes == [("x", "a", "b")]

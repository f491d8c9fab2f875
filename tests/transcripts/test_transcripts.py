"""Replay every committed CLI transcript: text, JSON and exit codes.

See ``tests/transcripts/__init__`` for the case table, what is masked
and how to regenerate.
"""

import pytest

from tests.transcripts import CASES, read_transcripts, run_case

RECORDED = read_transcripts()


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_transcript_replays(name, tmp_path):
    fresh = run_case(name, str(tmp_path))
    for expected, actual in zip(RECORDED[name], fresh):
        assert actual["argv"] == expected["argv"]
        for key in ("stdout", "stderr", "exit", "json"):
            assert actual.get(key) == expected.get(key), (
                f"{' '.join(actual['argv'])}: {key} differs"
            )
    assert len(fresh) == len(RECORDED[name])

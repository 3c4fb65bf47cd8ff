"""The front end's rejections, byte for byte, against a recorded fixture.

``error_fixture.json`` holds 551 failing inputs and the rule and message
each raised when it was recorded; ``record_error_fixture.py`` says how the
inputs were made and records them again.
"""

import json
from pathlib import Path

from record_error_fixture import outcome

FIXTURE = json.loads((Path(__file__).parent / "error_fixture.json").read_text(encoding="utf-8"))


def test_every_recorded_error_repeats():
    assert len(FIXTURE) == 551
    for entry in FIXTURE:
        expected = [entry["rule"], entry["message"]]
        assert list(outcome(entry["source"], entry["root"])) == expected, entry


def test_the_fixture_covers_every_kind_of_input_and_positions_past_line_one():
    kinds = {entry["kind"] for entry in FIXTURE}
    assert kinds == {"fuzz", "swap", "drop", "head", "root", "hand"}
    assert sum(entry["rule"] == "ParseError" for entry in FIXTURE) > 300
    assert sum(entry["rule"] == "ProgramCheckError" for entry in FIXTURE) > 180
    assert any(entry["message"].startswith("2:") for entry in FIXTURE if entry["root"])

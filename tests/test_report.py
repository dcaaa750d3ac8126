"""Serialization of the shared result record."""

import json

from thetadim.report import CSV_HEADER, DimensionReport, csv_row, render_text, to_json


def sample(**overrides):
    fields = dict(
        group="Dstar(3)",
        order=12,
        num_classes=6,
        d1=13,
        d2=9,
        dim_cpi=11,
        dim_ker_eps=6,
        dim_classhat_z2=5,
        method="burnside",
        millis=1.5,
    )
    fields.update(overrides)
    return DimensionReport(**fields)


def test_json_summands_are_ints():
    data = json.loads(to_json(sample()))
    assert data["d1"] == 13 and isinstance(data["d1"], int)
    assert data["d2"] == 9


def test_json_missing_summands_become_null():
    data = json.loads(to_json(sample(d1=None, d2=None, method="closed")))
    assert data["d1"] is None and data["d2"] is None


def test_csv_row_uses_supplied_parameter():
    assert csv_row(7, sample()) == "7,11,6,burnside"
    assert csv_row("Dstar(3)", sample()) == "Dstar(3),11,6,burnside"
    assert CSV_HEADER.count(",") == csv_row(7, sample()).count(",")


def test_render_text_mentions_all_core_fields():
    text = render_text(sample())
    for token in ("Dstar(3)", "12", "11", "6", "burnside", "d1", "d2"):
        assert token in text
    # summand lines disappear when a route does not produce them
    assert "d1" not in render_text(sample(d1=None, d2=None))

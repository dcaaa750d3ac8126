"""Uniform result record for all computation routes, with JSON and CSV output."""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "CSV_HEADER",
    "DimensionReport",
    "csv_row",
    "render_text",
    "to_json",
]

CSV_HEADER = "param,dim_Cpi,dim_ker_eps,method"


class DimensionReport(
    namedtuple(
        "DimensionReport",
        "group order num_classes d1 d2 dim_cpi dim_ker_eps dim_classhat_z2 method millis",
    )
):
    """One route's answer: group and method are strs and millis a float; d1
    and d2, the two pair averages, are ints or None on routes that do not give
    them, and every other field is an int."""

    __slots__ = ()


def to_json(report: DimensionReport) -> str:
    import json  # only --json output pays for the import

    return json.dumps(
        {
            "group": report.group,
            "order": report.order,
            "num_classes": report.num_classes,
            "d1": report.d1,
            "d2": report.d2,
            "dim_Cpi": report.dim_cpi,
            "dim_ker_eps": report.dim_ker_eps,
            "dim_classhat_Z2": report.dim_classhat_z2,
            "method": report.method,
            "millis": report.millis,
        }
    )


def csv_row(param: int | str, report: DimensionReport) -> str:
    return f"{param},{report.dim_cpi},{report.dim_ker_eps},{report.method}"


def render_text(report: DimensionReport) -> str:
    lines = [
        f"group          {report.group}",
        f"order          {report.order}",
        f"classes        {report.num_classes}",
    ]
    if report.d1 is not None:
        lines.append(f"d1             {report.d1}")
    if report.d2 is not None:
        lines.append(f"d2             {report.d2}")
    lines.extend(
        [
            f"dim full       {report.dim_cpi}",
            f"dim kernel     {report.dim_ker_eps}",
            f"inversion gap  {report.dim_classhat_z2}",
            f"method         {report.method}",
            f"millis         {report.millis:.1f}",
        ]
    )
    return "\n".join(lines)

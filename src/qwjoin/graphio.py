"""JSON input and output: graph files and analysis reports.

Graphs travel as a small JSON document (order, simple flag, weighted edge
and loop lists). Analysis results travel as tagged JSON that reconstructs
the original certificate objects, so a report written to disk can be
reloaded and re-serialized to the identical document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .bounds import BoundReport, MimicrySummary
from .graphs import WeightedGraph, is_simple
from .transfer import (
    InducedTransferReport,
    JoinPeriodRatio,
    PeriodCertificate,
    PSTCertificate,
    SupportPartition,
    SymbolicTime,
)

_TAGGED_CLASSES = {
    cls.__name__: cls
    for cls in (
        SupportPartition,
        PeriodCertificate,
        PSTCertificate,
        JoinPeriodRatio,
        InducedTransferReport,
        BoundReport,
        MimicrySummary,
    )
}

_TUPLE_FIELDS = {"pair"}


def graph_to_dict(graph: WeightedGraph) -> dict:
    edges = zip(graph.rows.tolist(), graph.cols.tolist(), graph.weights.tolist())
    loops = zip(graph.loop_at.tolist(), graph.loop_weights.tolist())
    return {
        "order": graph.order,
        "simple": is_simple(graph),
        "edges": [list(edge) for edge in sorted(edges)],  # by endpoints, which are unique
        "loops": [list(loop) for loop in sorted(loops)],
    }


def graph_from_dict(data: dict) -> WeightedGraph:
    if not isinstance(data, dict):
        raise ValueError("a graph document must be a JSON object")
    unknown = set(data) - {"order", "simple", "edges", "loops"}
    if unknown:
        raise ValueError(f"unknown graph fields: {sorted(unknown)}")
    if "order" not in data:
        raise ValueError("a graph document needs an order")
    graph = WeightedGraph(
        data["order"], data.get("edges", ()), data.get("loops", ())
    )
    declared = data.get("simple")
    if declared is not None and bool(declared) != is_simple(graph):
        raise ValueError("the simple flag contradicts the loop list")
    return graph


def load_graph(path) -> WeightedGraph:
    with open(path) as handle:
        return graph_from_dict(json.load(handle))


def save_graph(graph: WeightedGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2) + "\n")


def to_jsonable(value):
    """Lower a result object to plain JSON values with type tags."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, Fraction):
        return {"__fraction__": [value.numerator, value.denominator]}
    if isinstance(value, complex):
        return {"__complex__": [value.real, value.imag]}
    if isinstance(value, SymbolicTime):
        return {
            "__time__": [value.pi_numerator, value.pi_denominator, value.sqrt_divisor]
        }
    if isinstance(value, WeightedGraph):
        return {"__graph__": graph_to_dict(value)}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {
                "__array__": {
                    "real": value.real.tolist(),
                    "imag": value.imag.tolist(),
                }
            }
        return {"__array__": value.tolist()}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.complexfloating):
        return {"__complex__": [float(value.real), float(value.imag)]}
    if is_dataclass(value) and type(value).__name__ in _TAGGED_CLASSES:
        payload = {
            f.name: to_jsonable(getattr(value, f.name)) for f in fields(value)
        }
        return {"__kind__": type(value).__name__, "fields": payload}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def from_jsonable(value):
    """Rebuild result objects from tagged JSON values."""
    if isinstance(value, list):
        return [from_jsonable(item) for item in value]
    if not isinstance(value, dict):
        return value
    if "__fraction__" in value:
        num, den = value["__fraction__"]
        return Fraction(num, den)
    if "__complex__" in value:
        re, im = value["__complex__"]
        return complex(re, im)
    if "__time__" in value:
        return SymbolicTime(*value["__time__"])
    if "__graph__" in value:
        return graph_from_dict(value["__graph__"])
    if "__array__" in value:
        body = value["__array__"]
        if isinstance(body, dict):
            return np.asarray(body["real"]) + 1j * np.asarray(body["imag"])
        return np.asarray(body, dtype=float)
    if "__kind__" in value:
        cls = _TAGGED_CLASSES[value["__kind__"]]
        kwargs = {key: from_jsonable(item) for key, item in value["fields"].items()}
        for name in _TUPLE_FIELDS & set(kwargs):
            kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)
    return {key: from_jsonable(item) for key, item in value.items()}


@dataclass
class AnalysisReport:
    kind: str
    payload: object


# json's spellings of the values whose float.__repr__ is not JSON
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _write(value, indent: str, out: list) -> None:
    """Append value as json.dumps(value, sort_keys=True, indent=2) writes it at this indent.

    The checks run in json's order (str, None, True, False, int, float), so
    bools never print as ints. A list of finite floats is written in one join.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif not isinstance(value, (list, tuple, dict)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    elif not value:
        out.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, dict):
        inner = indent + "  "
        for i, key in enumerate(sorted(value)):
            out.append((",\n" if i else "{\n") + inner + _quote(key) + ": ")
            _write(value[key], inner, out)
        out.append("\n" + indent + "}")
    else:
        inner = indent + "  "
        try:
            text = (",\n" + inner).join(map(float.__repr__, value))
        except TypeError:  # float.__repr__ refuses an item that is not a float
            text = "n"
        if "n" in text:  # another item, or a nan or inf
            for i, item in enumerate(value):
                out.append((",\n" if i else "[\n") + inner)
                _write(item, inner, out)
        else:
            out.append("[\n" + inner + text)
        out.append("\n" + indent + "]")


def report_to_json(report: AnalysisReport) -> str:
    """The report as json.dumps(doc, sort_keys=True, indent=2) writes it, byte for byte.

    json writes with indent through its pure-Python encoder; _write does the
    same with fewer calls.
    """
    out: list[str] = []
    _write({"kind": report.kind, "payload": to_jsonable(report.payload)}, "", out)
    return "".join(out)


def report_from_json(text: str) -> AnalysisReport:
    doc = json.loads(text)
    return AnalysisReport(kind=doc["kind"], payload=from_jsonable(doc["payload"]))

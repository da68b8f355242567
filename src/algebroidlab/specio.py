"""JSON serialization for algebroids and paths.

File format (1-based indices at this boundary only):

{
  "dimension": 3,
  "rank": 3,
  "labels": ["x1", "x2", "x3"],            // optional
  "anchor": [["0", "-x3", "x2"], ...],      // rank rows of dimension entries
  "bracket": [
    {"s": 1, "t": 2, "u": 3, "value": "-1"},
    ...
  ],
  "metadata": {"name": ...}                 // optional; carried, never read
}

Bracket entries list c[s][t][u]; the (t, s, u) entry is filled in with the
opposite sign automatically. Listing both orientations is allowed as long
as they agree.

A document may instead give top-level "kind" and "params", which are fed
to the catalog builder (dimension/rank/anchor/bracket are then ignored).
"""

from __future__ import annotations

import json

from .algebroid import (
    _Spec,
    _bounded,
    _bracket_entries,
    _bracket_from_entries,
    _positive_rank,
    build_algebroid,
    catalog_build,
)
from .fields import Chart, _field_array


def algebroid_from_dict(data):
    if "kind" in data:
        built = catalog_build(data["kind"], data.get("params", {}))
        extra = data.get("metadata")
        if extra:
            merged = dict(extra)
            merged.update(built.metadata)
            built.metadata = merged
        return built
    data = _Spec(data, "algebroid spec")
    m = _bounded(data["dimension"], "dimension")
    r = _positive_rank(data["rank"])
    labels = data.get("labels")
    chart = Chart(m, tuple(labels)) if labels else Chart(m)
    anchor_rows = data.get("anchor")
    if anchor_rows is None:
        anchor_rows = [["0"] * m for _ in range(r)]
    anchor = _field_array(chart, anchor_rows, (r, m), "anchor")

    tensor = _bracket_from_entries(chart, r, data.get("bracket", []))
    return build_algebroid(chart, r, anchor, tensor, data.get("metadata"))


def algebroid_to_dict(algebroid):
    out = {
        "dimension": algebroid.dimension,
        "rank": algebroid.rank,
        "labels": list(algebroid.chart.labels),
        "anchor": [[f.to_string() for f in row] for row in algebroid.anchor],
        "bracket": _bracket_entries(algebroid),
    }
    if algebroid.metadata:
        out["metadata"] = dict(algebroid.metadata)
    return out


def load_algebroid(path):
    with open(path) as fh:
        return algebroid_from_dict(json.load(fh))


def save_algebroid(algebroid, path):
    with open(path, "w") as fh:
        json.dump(algebroid_to_dict(algebroid), fh, indent=2, sort_keys=True)
        fh.write("\n")


def path_from_dict(algebroid, data):
    from .transport import APath

    segments = [_Spec(seg, "path segment")
                for seg in _Spec(data, "path")["segments"]]
    return APath(algebroid, [(seg["t0"], seg["t1"], seg["gamma"], seg["coeffs"])
                             for seg in segments])

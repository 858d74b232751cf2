"""Problem ingestion and result serialization.

Inputs, each record read through one table from column or key to type:
  network   — nodes.csv (NODE_FIELDS) and links.csv (LINK_FIELDS) in one
              directory, or a JSON file (NETWORK_FIELDS) of such objects
  shelters  — CSV (SHELTER_FIELDS)
  scenario  — JSON {"name": ..., "productions": {origin_id: vehicles}}, read
              as a DemandScenario whose name defaults to the file's stem
  config    — flat text, dotted keys (ga.population_size = 20), _CONFIG_SCHEMA
A text value (CSV cell, config value) reads as tp(text); an empty cell is
absent. A JSON value follows the results' strict read rule below: "1000" is
not a number, and an unknown key is an error. Any failure raises
ProblemLoadError naming the file and the line or entry.

Results (AssignmentResult, SolveReport, EnumerationReport, study rows) go
to JSON through one codec, to_jsonable / from_jsonable, driven by each
dataclass's fields and their annotations:
  dataclass                 — object keyed by field name; fields marked
                              metadata={"json": False} are not written
  tuple[int, ...]           — a selection, written as a 0/1 string ("0101")
  tuple[T, ...]             — list
  dict[tuple[str, str], V]  — object nested by the first key (origin ->
                              shelter -> value)
  dict[str, V]              — object
  Optional[T]               — null or T
  float, int, bool, str     — number, integer, true/false, string
Reads are strict: a value is accepted only when its JSON type matches the
annotation (a bool is not a number, 2.5 is not an integer, null only fills
an Optional), and anything else raises ValueError naming the type and the
field. A key that names no written field raises ValueError naming the type
and the key, except a retired key of that type (_RETIRED_KEYS), which is
skipped. A key missing on read takes the field's default; canonical_json
writes sorted keys, so equal records give equal bytes.

Rows of one result dataclass (study rows, GA history, enumeration
evaluations) go to CSV through to_csv / from_csv, driven by the same
fields:
  field order is column order, after one header line
  dict[str, V]              — one column per key, headed by the key (at
                              most one such field per row type)
  any other field           — one column, headed by the field name
  cell                      — str() of the field's JSON value; "" for null
A column missing on read takes the field's default, as a missing JSON key
does.

All writes are whole-file atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io as _io
import json
import math
import os
import reprlib
import tempfile
import types
import typing
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .enumeration import EnumerationReport
from .ga import Evaluation, SolveReport
from .network import Link, Network, Node, validate_network
from .problem import (
    AssignmentConfig,
    CandidateShelter,
    DemandScenario,
    GAConfig,
    ImpedanceParameter,
    PenaltyConfig,
    ShelterSet,
    selection_from_string,
    selection_to_string,
)

FREE_FLOW_SPEED_MPH = 35.0

# per input record: its CSV columns or JSON keys, each with its value type
NODE_FIELDS = {"id": str, "kind": str}
LINK_FIELDS = {
    "id": str, "from": str, "to": str, "capacity_vph": float,
    "free_flow_min": float, "length_mi": float, "max_saturation": float,
}
SHELTER_FIELDS = {"node_id": str, "capacity_vph": float}
NETWORK_FIELDS = {"nodes": tuple[dict, ...], "links": tuple[dict, ...]}  # a network JSON file
NODE_COLUMNS, LINK_COLUMNS, SHELTER_COLUMNS = map(tuple, (NODE_FIELDS, LINK_FIELDS, SHELTER_FIELDS))


class ProblemLoadError(Exception):
    """Raised on parse failures (with file/line) or validation findings."""

    def __init__(self, message: str, findings: Sequence = ()):
        self.findings = tuple(findings)
        if findings:
            message = message + "\n" + "\n".join(f"  {f}" for f in findings)
        super().__init__(message)


@dataclass(frozen=True)
class ProblemBundle:
    network: Network
    shelters: ShelterSet
    scenarios: tuple[DemandScenario, ...]
    impedance: ImpedanceParameter
    penalties: PenaltyConfig
    ga: GAConfig
    assignment: AssignmentConfig

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ValueError("a problem bundle needs at least one scenario")


def minutes_from_length(length_mi: float, speed_mph: float = FREE_FLOW_SPEED_MPH) -> float:
    """Free-flow minutes for a link of the given length at the given speed."""
    if not (math.isfinite(length_mi) and length_mi > 0):
        raise ValueError("length_mi must be finite and > 0")
    return length_mi / speed_mph * 60.0


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text
        raise ProblemLoadError(f"{path}: {exc}") from None


def _read_json(path: Path, tp: object, **defaults: object) -> object:
    """The JSON file at `path`, read as annotation `tp` by from_jsonable;
    an object takes `defaults` for the keys it lacks."""
    try:
        doc = json.loads(_read_text(path))
        return from_jsonable(tp, {**defaults, **doc} if isinstance(doc, dict) else doc)
    except (RecursionError, ValueError) as exc:  # also an integer too long to read
        raise ProblemLoadError(f"{path}: {exc}") from None


def _read_csv(path: Path, allowed: Mapping[str, type], required: Sequence[str]):
    """(line, cells) per row of a CSV file: its non-empty cells, stripped."""
    reader = csv.DictReader(_io.StringIO(_read_text(path)))
    try:
        rows = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        raise ProblemLoadError(f"{path}:{reader.line_num}: {exc}") from None
    header = reader.fieldnames or []
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise ProblemLoadError(f"{path}:1: unknown column(s) {unknown}; allowed: {list(allowed)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ProblemLoadError(f"{path}:1: missing required column(s) {missing}")
    for line, row in rows:
        if None in row:  # DictReader's key for the cells past the header's
            raise ProblemLoadError(f"{path}:{line}: more cells than columns")
        yield line, {c: v.strip() for c, v in row.items() if v and v.strip()}


def _record(make, fields: Mapping[str, type], values: Mapping, where: str, read=None):
    """make(typed, where), typed holding each of `values` as its type tp in
    `fields`: a text cell read as tp(cell), a JSON value as read(tp, value).
    Any failure raises ProblemLoadError naming `where`."""
    typed = {}
    for key, value in values.items():
        if key not in fields:
            raise ProblemLoadError(f"{where}: unknown key {key!r}")
        try:
            typed[key] = read(fields[key], value) if read else fields[key](value)
        except (OverflowError, ValueError) as exc:
            raise ProblemLoadError(f"{where}: {key}: {exc}") from None
    try:
        return make(typed, where)
    except KeyError as exc:
        raise ProblemLoadError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ProblemLoadError(f"{where}: {exc}") from None


def _node(fields: Mapping[str, object], where: str) -> Node:
    return Node(fields["id"], fields["kind"])


def _shelter(fields: Mapping[str, object], where: str) -> CandidateShelter:
    return CandidateShelter(fields["node_id"], fields["capacity_vph"])


def _link(fields: Mapping[str, object], where: str) -> Link:
    """The free-flow time is free_flow_min, or else length_mi at FREE_FLOW_SPEED_MPH."""
    if "free_flow_min" in fields:
        if "length_mi" in fields:
            warnings.warn(f"{where}: both free_flow_min and length_mi given; free_flow_min wins")
        free_flow_min = fields["free_flow_min"]
    elif "length_mi" in fields:
        free_flow_min = minutes_from_length(fields["length_mi"])
    else:
        raise ValueError("need free_flow_min or length_mi")
    return Link(
        fields["id"], fields["from"], fields["to"], fields["capacity_vph"], free_flow_min,
        fields.get("max_saturation", 1.0),
    )


def _network(fields: Mapping[str, tuple], where: str) -> Network:
    return Network(
        [_record(_node, NODE_FIELDS, x, f"{where}: node {i}", from_jsonable)
         for i, x in enumerate(fields["nodes"])],
        [_record(_link, LINK_FIELDS, x, f"{where}: link {i}", from_jsonable)
         for i, x in enumerate(fields["links"])],
    )


def load_network(path: str | os.PathLike) -> Network:
    """Load a network from a nodes.csv/links.csv directory or a JSON file."""
    p = Path(path)
    if p.is_dir():
        nodes, links = p / "nodes.csv", p / "links.csv"
        return Network(
            [_record(_node, NODE_FIELDS, row, f"{nodes}:{line}")
             for line, row in _read_csv(nodes, NODE_FIELDS, NODE_COLUMNS)],
            [_record(_link, LINK_FIELDS, row, f"{links}:{line}")
             for line, row in _read_csv(links, LINK_FIELDS, ("id", "from", "to", "capacity_vph"))],
        )
    if p.suffix == ".json":
        return _record(_network, NETWORK_FIELDS, _read_json(p, dict), str(p), from_jsonable)
    raise ProblemLoadError(f"{p}: expected a directory with nodes.csv/links.csv or a .json file")


def load_shelters(path: str | os.PathLike) -> ShelterSet:
    p = Path(path)
    candidates = []
    first_line: dict[str, int] = {}
    for line, row in _read_csv(p, SHELTER_FIELDS, SHELTER_COLUMNS):
        shelter = _record(_shelter, SHELTER_FIELDS, row, f"{p}:{line}")
        first = first_line.setdefault(shelter.node_id, line)
        if first != line:
            raise ProblemLoadError(
                f"{p}:{line}: shelter candidate {shelter.node_id!r} already listed on line {first}"
            )
        candidates.append(shelter)
    if not candidates:
        raise ProblemLoadError(f"{p}: no shelter candidates")
    return ShelterSet(candidates=tuple(candidates))


def load_scenario(path: str | os.PathLike) -> DemandScenario:
    """A scenario JSON file; its name defaults to the file's stem."""
    p = Path(path)
    return _read_json(p, DemandScenario, name=p.stem)


_CONFIG_SECTIONS = {
    "impedance": ImpedanceParameter,
    "penalties": PenaltyConfig,
    "ga": GAConfig,
    "assignment": AssignmentConfig,
}
# dotted key -> value type, from the config dataclasses' annotations
_CONFIG_SCHEMA: dict[str, type] = {
    f"{section}.{name}": hint
    for section, cls in _CONFIG_SECTIONS.items()
    for name, hint in typing.get_type_hints(cls).items()
}


def parse_config_text(text: str, where: str = "<config>") -> dict[str, object]:
    """Parse dotted key=value lines into typed values; '#' starts a comment."""
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ProblemLoadError(f"{where}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_SCHEMA:
            raise ProblemLoadError(f"{where}:{lineno}: unknown config key {key!r}")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ProblemLoadError(
                f"{where}:{lineno}: config key {key!r} already set on line {first}"
            )
        tp = _CONFIG_SCHEMA[key]
        try:
            values[key] = tp(value)
        except ValueError:
            raise ProblemLoadError(
                f"{where}:{lineno}: bad value {value!r} for {key!r} ({tp.__name__})"
            ) from None
    return values


def _configs_from_values(
    values: Mapping[str, object], where: str = "<config>"
) -> tuple[ImpedanceParameter, PenaltyConfig, GAConfig, AssignmentConfig]:
    def section(prefix: str) -> dict[str, object]:
        return {k.split(".", 1)[1]: v for k, v in values.items() if k.startswith(prefix + ".")}

    try:
        return tuple(cls(**section(prefix)) for prefix, cls in _CONFIG_SECTIONS.items())
    except (TypeError, ValueError) as exc:
        raise ProblemLoadError(f"{where}: {exc}") from None


def load_config(
    path: Optional[str | os.PathLike],
) -> tuple[ImpedanceParameter, PenaltyConfig, GAConfig, AssignmentConfig]:
    """Load solver configuration; a missing path means all defaults."""
    if path is None:
        return _configs_from_values({})
    p = Path(path)
    return _configs_from_values(parse_config_text(_read_text(p), str(p)), str(p))


def load_problem(
    network_path: str | os.PathLike,
    shelters_path: str | os.PathLike,
    scenario_paths: Sequence[str | os.PathLike],
    config_path: Optional[str | os.PathLike] = None,
) -> ProblemBundle:
    """Load and cross-validate a full problem; raises ProblemLoadError on
    any parse failure or validation finding."""
    network = load_network(network_path)
    shelters = load_shelters(shelters_path)
    if not scenario_paths:
        raise ProblemLoadError("at least one scenario file is required")
    scenarios = tuple(load_scenario(p) for p in scenario_paths)
    impedance, penalties, ga, assignment = load_config(config_path)

    findings = validate_network(network, shelters)
    if findings:
        raise ProblemLoadError("network validation failed", findings)
    origin_kind = set(network.origin_ids())
    for scenario in scenarios:
        for origin in sorted(scenario.productions):
            if origin not in origin_kind:
                raise ProblemLoadError(
                    f"scenario {scenario.name!r}: production origin {origin!r} "
                    "is not an origin node of the network"
                )
    return ProblemBundle(
        network=network,
        shelters=shelters,
        scenarios=scenarios,
        impedance=impedance,
        penalties=penalties,
        ga=ga,
        assignment=assignment,
    )


# ---- result serialization ----------------------------------------------


def canonical_json(data: object) -> str:
    """Canonical JSON text: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_text_atomic(path: str | os.PathLike, text: str) -> None:
    """Whole-file atomic write: temp file in the same directory, then rename."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=p.parent, prefix=p.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, p)
    except BaseException:
        os.unlink(tmp)
        raise


@functools.cache
def _json_fields(cls: type) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, hints[f.name])
        for f in dataclasses.fields(cls)
        if f.metadata.get("json", True)
    )


def _optional_inner(tp: object) -> object:
    """T for Optional[T]."""
    return next(a for a in typing.get_args(tp) if a is not type(None))


def to_jsonable(value: object, tp: object = None) -> object:
    """`value` as JSON-ready data, following its annotation `tp`.

    Called on a result dataclass, `tp` defaults to its type; the module
    docstring lists the format rules.
    """
    if value is None:
        return None
    if tp is None:
        tp = type(value)
    if dataclasses.is_dataclass(tp):
        return {name: to_jsonable(getattr(value, name), hint) for name, hint in _json_fields(tp)}
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return to_jsonable(value, _optional_inner(tp))
    if origin is tuple:
        if args[0] is int:
            return selection_to_string(value)
        return [to_jsonable(item, args[0]) for item in value]
    if origin is dict:
        key, item = args
        if typing.get_origin(key) is tuple:
            nested: dict[str, dict] = {}
            for (outer, inner_key), v in value.items():
                nested.setdefault(outer, {})[inner_key] = to_jsonable(v, item)
            return nested
        return {k: to_jsonable(v, item) for k, v in value.items()}
    return value


# per kind of JSON value: the Python types it reads as (a bool is only a
# bool) and its name in a read error
_JSON_KINDS = {
    dict: (dict, "an object"), list: (list, "a list"), str: (str, "a string"),
    bool: (bool, "true or false"), int: (int, "an integer"), float: ((int, float), "a number"),
}


# per result type, by name: keys it no longer has that files written
# before may hold; a read skips them
_RETIRED_KEYS = {
    "SolveReport": ("assignment_diagnostics",),
    "ScenarioResultRow": ("total_time_veh_h",),
}


def _checked(kind: type, doc: object, what: str = "") -> object:
    """`doc` if its JSON type is `kind`'s, else a ValueError naming `what`."""
    accepted, name = _JSON_KINDS[kind]
    if isinstance(doc, bool) != (kind is bool) or not isinstance(doc, accepted):
        raise ValueError(f"expected {what or name}, got {reprlib.repr(doc)}")
    return float(doc) if kind is float else doc


def _item(tp: object, doc: object, owner: Optional[str], key: str) -> object:
    """from_jsonable(tp, doc) at `key` of record type `owner` (None: a dict)."""
    try:
        return from_jsonable(tp, doc)
    except (OverflowError, ValueError) as exc:  # OverflowError: float() of a huge integer
        where = f"{owner}.{key}" if owner else f"[{key!r}]"
        message = str(exc)  # the error at a dict key, "[...]", joins `where` directly
        raise ValueError(where + ("" if message.startswith("[") else ": ") + message) from None


def from_jsonable(tp: object, doc: object) -> object:
    """Rebuild a value of annotation `tp` (a result dataclass, say) from
    the output of to_jsonable; the module docstring lists the strict read
    rule."""
    if tp in _JSON_KINDS:  # a scalar, the most common value: skip the typing dispatch
        return _checked(tp, doc)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return None if doc is None else from_jsonable(_optional_inner(tp), doc)
    if origin is tuple:
        if args[0] is int:  # a selection is a 0/1 string
            return selection_from_string(_checked(str, doc))
        return tuple(from_jsonable(args[0], item) for item in _checked(list, doc))
    if origin is dict:
        key, item = args
        if typing.get_origin(key) is tuple:
            nested = from_jsonable(dict[str, dict[str, item]], doc)
            return {(outer, k): v for outer, row in nested.items() for k, v in row.items()}
        return {k: _item(item, v, None, k) for k, v in _checked(dict, doc).items()}
    _checked(dict, doc, f"a {tp.__name__} object")
    fields = _json_fields(tp)
    known = {name for name, _ in fields}.union(_RETIRED_KEYS.get(tp.__name__, ()))
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(f"{tp.__name__}: unknown key {reprlib.repr(min(unknown))}")
    values = {n: _item(hint, doc[n], tp.__name__, n) for n, hint in fields if n in doc}
    try:
        return tp(**values)
    except TypeError as exc:  # a key whose field has no default is missing
        raise ValueError(f"{tp.__name__}: {exc}") from None


# per-type names, for callers that import them
assignment_result_to_dict = solve_report_to_dict = enumeration_report_to_dict = to_jsonable


def _spread_field(tp: type) -> Optional[str]:
    """The dict[str, V] field of row type `tp`, which spreads over one CSV
    column per key; None when it has none."""
    return next((name for name, hint in _json_fields(tp) if typing.get_origin(hint) is dict), None)


def _csv_header(tp: type, keys: Sequence[str]) -> list[str]:
    """Columns of row type `tp`, with `keys` for its spread field."""
    spread = _spread_field(tp)
    return [c for name, _ in _json_fields(tp) for c in (keys if name == spread else (name,))]


def _csv_cell(value: object) -> str:
    return "" if value is None else str(value)


def _from_cell(cell: str, hint: object) -> object:
    """The JSON value of a CSV cell, read by its field's annotation."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        if cell == "":
            return None
        hint = _optional_inner(hint)
    if hint is bool:
        if cell not in ("True", "False"):
            raise ValueError(f"not a bool: {cell!r}")
        return cell == "True"
    return hint(cell) if hint in (float, int) else cell


def to_csv(rows: Sequence, tp: type, **extra: Sequence) -> str:
    """CSV text of `rows`, instances of dataclass `tp`, under a header line.

    Each keyword appends one column of per-row values; the module
    docstring lists the format rules.
    """
    docs = [to_jsonable(row, tp) for row in rows]
    spread = _spread_field(tp)
    keys = list(docs[0][spread]) if spread and docs else []
    buffer = _io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_csv_header(tp, keys) + list(extra))
    for doc, *more in zip(docs, *extra.values(), strict=True):
        if spread and list(doc[spread]) != keys:
            raise ValueError(f"every row needs the same {spread} keys")
        cells = [
            value
            for name, _ in _json_fields(tp)
            for value in (doc[name].values() if name == spread else (doc[name],))
        ]
        writer.writerow([_csv_cell(value) for value in cells + more])
    return buffer.getvalue()


def from_csv(tp: type, text: str, **extra: list) -> list:
    """Rows of dataclass `tp` from the text to_csv writes.

    Each keyword names one trailing column, and its list receives that
    column's cells as text.
    """
    try:
        table = [record for record in csv.reader(_io.StringIO(text)) if record]
    except csv.Error as exc:
        raise ValueError(f"{tp.__name__} CSV: {exc}") from None
    if not table:
        raise ValueError(f"{tp.__name__} CSV has no header")
    header, body = table[0], table[1:]
    kept = [column not in _RETIRED_KEYS.get(tp.__name__, ()) for column in header]
    columns = [column for column, keep in zip(header, kept) if keep]
    own = columns[: len(columns) - len(extra)]
    hints = dict(_json_fields(tp))
    spread = _spread_field(tp)
    keys = [column for column in own if column not in hints]  # the spread field's
    if columns != [c for c in _csv_header(tp, keys) if c in own] + list(extra):
        raise ValueError(f"unrecognized {tp.__name__} CSV header: {header}")
    rows = []
    for record in body:
        if len(record) != len(header):
            raise ValueError(f"{tp.__name__} CSV row has {len(record)} cells, header {len(header)}")
        record = [cell for cell, keep in zip(record, kept) if keep]
        doc: dict[str, object] = {} if spread is None else {spread: {}}
        for column, cell in zip(own, record):
            if column in hints:
                doc[column] = _from_cell(cell, hints[column])
            else:
                doc[spread][column] = _from_cell(cell, typing.get_args(hints[spread])[1])
        rows.append(from_jsonable(tp, doc))
        for column, cell in zip(extra.values(), record[len(own):]):
            column.append(cell)
    return rows


def enumeration_report_to_csv(report: EnumerationReport) -> str:
    flags = [i == report.best for i in range(len(report.evaluations))]
    return to_csv(report.evaluations, Evaluation, is_best=flags)


def enumeration_report_from_csv(text: str) -> EnumerationReport:
    is_best: list[str] = []
    evaluations = from_csv(Evaluation, text, is_best=is_best)
    best = [i for i, cell in enumerate(is_best) if cell == "True"]
    if len(best) != 1:
        raise ValueError(f"enumeration CSV needs exactly one is_best=True row, found {len(best)}")
    return EnumerationReport(evaluations=tuple(evaluations), best=best[0])

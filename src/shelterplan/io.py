"""Problem ingestion and result serialization.

Formats:
  network   — directory with nodes.csv + links.csv, or one JSON document
  shelters  — CSV (node_id,capacity_vph)
  scenario  — JSON {"name": ..., "productions": {origin_id: vehicles}}
  config    — flat text, dotted keys (ga.population_size = 20)

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

NODE_COLUMNS = ("id", "kind")
LINK_COLUMNS = ("id", "from", "to", "capacity_vph", "free_flow_min", "length_mi", "max_saturation")
SHELTER_COLUMNS = ("node_id", "capacity_vph")


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


def _float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ProblemLoadError(f"{where}: not a number: {value!r}") from None


def _read_csv(path: Path, allowed: tuple[str, ...], required: tuple[str, ...]):
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemLoadError(f"{path}: {exc}") from None
    reader = csv.DictReader(_io.StringIO(text))
    header = reader.fieldnames or []
    unknown = [c for c in header if c not in allowed]
    if unknown:
        raise ProblemLoadError(f"{path}:1: unknown column(s) {unknown}; allowed: {list(allowed)}")
    missing = [c for c in required if c not in header]
    if missing:
        raise ProblemLoadError(f"{path}:1: missing required column(s) {missing}")
    for line, row in enumerate(reader, start=2):
        yield line, {k: (v.strip() if v is not None else "") for k, v in row.items()}


def _link_from_fields(fields: Mapping[str, str], where: str) -> Link:
    free_flow = fields.get("free_flow_min", "")
    length = fields.get("length_mi", "")
    if free_flow:
        free_flow_min = _float(free_flow, where)
        if length:
            warnings.warn(
                f"{where}: both free_flow_min and length_mi given; free_flow_min wins",
                stacklevel=2,
            )
    elif length:
        free_flow_min = minutes_from_length(_float(length, where))
    else:
        raise ProblemLoadError(f"{where}: need free_flow_min or length_mi")
    saturation = fields.get("max_saturation", "")
    try:
        return Link(
            id=fields["id"],
            from_node=fields["from"],
            to_node=fields["to"],
            capacity_vph=_float(fields["capacity_vph"], where),
            free_flow_min=free_flow_min,
            max_saturation=_float(saturation, where) if saturation else 1.0,
        )
    except KeyError as exc:
        raise ProblemLoadError(f"{where}: missing field {exc}") from None
    except ValueError as exc:
        raise ProblemLoadError(f"{where}: {exc}") from None


def load_network(path: str | os.PathLike) -> Network:
    """Load a network from a nodes.csv/links.csv directory or a JSON file."""
    p = Path(path)
    if p.is_dir():
        nodes = []
        for line, row in _read_csv(p / "nodes.csv", NODE_COLUMNS, NODE_COLUMNS):
            try:
                nodes.append(Node(id=row["id"], kind=row["kind"]))
            except ValueError as exc:
                raise ProblemLoadError(f"{p / 'nodes.csv'}:{line}: {exc}") from None
        links = [
            _link_from_fields(row, f"{p / 'links.csv'}:{line}")
            for line, row in _read_csv(
                p / "links.csv", LINK_COLUMNS, ("id", "from", "to", "capacity_vph")
            )
        ]
        return Network(nodes, links)
    if p.suffix == ".json":
        try:
            doc = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ProblemLoadError(f"{p}: {exc}") from None
        try:
            nodes = [Node(id=str(n["id"]), kind=str(n["kind"])) for n in doc["nodes"]]
            links = [
                _link_from_fields({k: str(v) for k, v in entry.items()}, f"{p}: link {i}")
                for i, entry in enumerate(doc["links"])
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProblemLoadError(f"{p}: malformed network document: {exc}") from None
        return Network(nodes, links)
    raise ProblemLoadError(f"{p}: expected a directory with nodes.csv/links.csv or a .json file")


def load_shelters(path: str | os.PathLike) -> ShelterSet:
    p = Path(path)
    candidates = []
    first_line: dict[str, int] = {}
    for line, row in _read_csv(p, SHELTER_COLUMNS, SHELTER_COLUMNS):
        first = first_line.setdefault(row["node_id"], line)
        if first != line:
            raise ProblemLoadError(
                f"{p}:{line}: shelter candidate {row['node_id']!r} already listed on line {first}"
            )
        try:
            candidates.append(
                CandidateShelter(
                    node_id=row["node_id"],
                    capacity_vph=_float(row["capacity_vph"], f"{p}:{line}"),
                )
            )
        except ValueError as exc:
            raise ProblemLoadError(f"{p}:{line}: {exc}") from None
    if not candidates:
        raise ProblemLoadError(f"{p}: no shelter candidates")
    return ShelterSet(candidates=tuple(candidates))


def load_scenario(path: str | os.PathLike) -> DemandScenario:
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer too long to read
        raise ProblemLoadError(f"{p}: {exc}") from None
    if not isinstance(doc, dict) or "productions" not in doc:
        raise ProblemLoadError(f"{p}: scenario document needs a 'productions' object")
    name = str(doc.get("name", p.stem))
    raw = doc["productions"]
    if not isinstance(raw, dict):
        raise ProblemLoadError(f"{p}: 'productions' must map origin ids to vehicle counts")
    productions: dict[str, float] = {}
    for origin, value in raw.items():
        # JSON numbers read as int or float; true reads as bool, no vehicle count
        if type(value) not in (int, float):
            raise ProblemLoadError(
                f"{p}: production for origin {origin!r} must be a JSON number, got {value!r}"
            )
        try:
            productions[origin] = float(value)
        except OverflowError:  # an integer beyond float range; DemandScenario rejects inf
            productions[origin] = math.inf
    try:
        return DemandScenario(name=name, productions=productions)
    except ValueError as exc:
        raise ProblemLoadError(f"{p}: {exc}") from None


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
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_SCHEMA:
            raise ProblemLoadError(f"{where}:{lineno}: unknown config key {key!r}")
        first = first_line.setdefault(key, lineno)
        if first != lineno:
            raise ProblemLoadError(
                f"{where}:{lineno}: config key {key!r} already set on line {first}"
            )
        caster = _CONFIG_SCHEMA[key]
        try:
            values[key] = caster(value) if caster is not str else value
        except ValueError:
            raise ProblemLoadError(
                f"{where}:{lineno}: bad value {value!r} for {key!r} ({caster.__name__})"
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
    try:
        text = p.read_text()
    except OSError as exc:
        raise ProblemLoadError(f"{p}: {exc}") from None
    return _configs_from_values(parse_config_text(text, str(p)), str(p))


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


# per result type: keys it no longer has that files written before may
# hold; a read skips them
_RETIRED_KEYS = {SolveReport: ("assignment_diagnostics",)}


def from_jsonable(tp: object, doc: object) -> object:
    """Rebuild a value of annotation `tp` (a result dataclass, say) from
    the output of to_jsonable; the module docstring lists the strict read
    rule."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return None if doc is None else from_jsonable(_optional_inner(tp), doc)
    record = dataclasses.is_dataclass(tp)
    if record or origin is dict:
        kind = dict
    elif origin is tuple:
        kind = str if args[0] is int else list  # a selection is a 0/1 string
    else:
        kind = tp
    accepted, name = _JSON_KINDS[kind]
    if isinstance(doc, bool) != (kind is bool) or not isinstance(doc, accepted):
        what = f"a {tp.__name__} object" if record else name
        raise ValueError(f"expected {what}, got {reprlib.repr(doc)}")
    if record:
        fields = _json_fields(tp)
        known = {name for name, _ in fields}.union(_RETIRED_KEYS.get(tp, ()))
        unknown = [key for key in doc if key not in known]
        if unknown:
            raise ValueError(f"{tp.__name__}: unknown key {reprlib.repr(min(unknown))}")
        values = {}
        for name, hint in fields:
            if name in doc:
                try:
                    values[name] = from_jsonable(hint, doc[name])
                except (OverflowError, ValueError) as exc:  # float() of a huge integer
                    raise ValueError(f"{tp.__name__}.{name}: {exc}") from None
        try:
            return tp(**values)
        except TypeError as exc:  # a key whose field has no default is missing
            raise ValueError(f"{tp.__name__}: {exc}") from None
    if origin is tuple:
        return selection_from_string(doc) if kind is str else tuple(
            from_jsonable(args[0], item) for item in doc
        )
    if origin is dict:
        key, item = args
        if typing.get_origin(key) is tuple:
            nested = from_jsonable(dict[str, dict[str, item]], doc)
            return {(outer, k): v for outer, row in nested.items() for k, v in row.items()}
        return {k: from_jsonable(item, v) for k, v in doc.items()}
    return float(doc) if tp is float else doc


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
    own = header[: len(header) - len(extra)]
    hints = dict(_json_fields(tp))
    spread = _spread_field(tp)
    keys = [column for column in own if column not in hints]  # the spread field's
    if header != [c for c in _csv_header(tp, keys) if c in own] + list(extra):
        raise ValueError(f"unrecognized {tp.__name__} CSV header: {header}")
    rows = []
    for record in body:
        if len(record) != len(header):
            raise ValueError(f"{tp.__name__} CSV row has {len(record)} cells, header {len(header)}")
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

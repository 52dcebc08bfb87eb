"""Scenario files: a strict, nested YAML schema describing one experiment.

A scenario bundles the grid, the source beam, the water channel, the
wavefront sensor, and the analysis to run. Parsing is total: any problem
produces a :class:`ScenarioError` carrying the offending location (line and
column for syntax, key path otherwise), unknown keys are rejected with a
spelling suggestion, and all defaults are applied explicitly so a parsed
scenario can be re-serialized and re-run bit-identically.
"""

from __future__ import annotations

import copy
import difflib
import math
import operator
from collections.abc import Hashable
from dataclasses import dataclass, make_dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from .channel import SCREEN_SOURCES, ChannelConfig
from .field import (DEFAULT_GRID, DEFAULT_WAIST_DIVISOR, DEFAULT_WAVELENGTH,
                    ConfigError, Grid, check_waist, waist_or_default)
from .qkd import oam_alphabet
from .shack_hartmann import (LensletArray, check_fit_modes,
                             check_intensity_floor, lenslet_tiling)
from .zernike import check_aperture, nm_from_index

#: Fixed default seed so default runs reproduce bit-identically.
DEFAULT_SEED = 1234

#: The analysis kinds that produce a BB84 detection matrix.
QKD_KINDS = ("qkd-pol", "qkd-oam")
SOURCE_KINDS = ("gaussian", "lg", "petal")


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, where: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class SchemaField:
    """One schema entry (name in the document, type, default, docs)."""

    name: str
    kind: type
    default: Any
    doc: str
    choices: tuple | None = None
    minimum: float | None = None
    above: float | None = None          # strict lower bound
    maximum: float | None = None
    required: bool = False


_GRID = (
    SchemaField("n_samples", int, DEFAULT_GRID.n_samples,
           "samples per grid side (even, >= 16)", minimum=16),
    SchemaField("spacing", float, DEFAULT_GRID.spacing, "meters per sample",
           above=0.0),
)

_SOURCE = (
    SchemaField("kind", str, "gaussian", "beam family", choices=SOURCE_KINDS),
    SchemaField("waist", float, None, "beam waist in meters (default: grid "
           f"extent / {DEFAULT_WAIST_DIVISOR:g})", above=0.0),
    SchemaField("ell", int, 0, "azimuthal index for lg/petal sources"),
    SchemaField("p", int, 0, "radial index for lg sources", minimum=0),
    SchemaField("wavelength", float, DEFAULT_WAVELENGTH,
           "vacuum wavelength in meters", above=0.0),
)

_SCREENS = (
    SchemaField("kind", str, "none", "per-screen statistics",
           choices=SCREEN_SOURCES),
    SchemaField("sigma", float, 0.2, "modal: coefficient scale in radians; "
           "per-mode sigma_j = sigma * ((n_j + 1) / 2)^(-11/6) "
           "(synthetic default decay, tilt-dominated)", minimum=0.0),
    SchemaField("j_max", int, 15, "modal: highest mode index", minimum=2),
    SchemaField("sigmas", dict, None, "modal: explicit {j: sigma_radians} table "
           "overriding sigma/j_max"),
    SchemaField("aperture_radius", float, None, "modal: screen aperture radius in "
           "meters (default: 0.45 * grid extent)", above=0.0),
    SchemaField("r0", float, None, "kolmogorov: Fried parameter in meters",
           above=0.0),
    SchemaField("subharmonic_levels", int, ChannelConfig.subharmonic_levels,
           "kolmogorov: low-frequency completion levels "
           "(0 = plain FFT screen)", minimum=0),
)

_OCCLUSION = (
    SchemaField("rate", float, ChannelConfig.occlusion_rate,
           "mean floating objects per frame (Poisson)", minimum=0.0),
    SchemaField("radius", float, None, "occluder radius in meters "
           "(default: grid extent / 10)", above=0.0),
    SchemaField("opacity", float, ChannelConfig.occluder_opacity,
           "amplitude blocking fraction in [0, 1]", minimum=0.0,
           maximum=1.0),
)

_CHANNEL = (
    SchemaField("length", float, ChannelConfig.length,
           "path length through water in meters", above=0.0),
    SchemaField("refractive_index", float, ChannelConfig.refractive_index,
           "water refractive index", minimum=1.0),
    SchemaField("attenuation_db_per_m", float,
           ChannelConfig.attenuation_db_per_m,
           "bulk extinction (5.4 turbid river, 1.3 turbid coastal, "
           "0.13 pure water)", minimum=0.0),
    SchemaField("n_screens", int, ChannelConfig.n_screens,
           "number of turbulence screens", minimum=0),
)

_SENSOR = (
    SchemaField("count_x", int, LensletArray.count_x, "lenslets across",
           minimum=1),
    SchemaField("count_y", int, LensletArray.count_y, "lenslets down",
           minimum=1),
    SchemaField("pitch", float, LensletArray.pitch, "lenslet pitch in meters",
           above=0.0),
    SchemaField("focal_length", float, LensletArray.focal_length,
           "lenslet focal length in meters", above=0.0),
    SchemaField("pixel_size", float, LensletArray.pixel_size,
           "camera pixel size in meters", above=0.0),
    SchemaField("pixels_per_lenslet", int, LensletArray.pixels_per_lenslet,
           "camera pixels per lenslet side", minimum=2),
)

#: The analysis section's keys by the kind that reads them.
_ANALYSIS = {
    "wavefront": (
        SchemaField("j_max", int, 15, "highest fitted mode", minimum=2),
        SchemaField("fit_aperture_radius", float, None, "analysis disk "
               "radius in meters (default: the lenslet array's half-width)",
               above=0.0),
        SchemaField("intensity_floor", float, 0.01, "lenslet validity "
               "floor as fraction of the brightest lenslet, below 1",
               minimum=0.0)),
    "qkd-pol": (
        SchemaField("theta", float, 0.0, "channel rotation in radians"),
        SchemaField("depolarization", float, 0.0802, "depolarization "
               "fraction (QBER = depolarization / 2 at theta = 0)",
               minimum=0.0, maximum=1.0)),
    "qkd-oam": (
        SchemaField("ell_values", list, [-4, 4], "distinct mode indices"),
        SchemaField("superposition_basis", bool, False,
               "add the two-mode superposition basis"),
        SchemaField("trials", int, 100, "Monte Carlo channel realizations",
               minimum=1)),
    "images": (
        SchemaField("modes", list, None, "list of source sections"),
        SchemaField("time_average", bool, False, "also write the per-mode "
               "average over frames (long-exposure analogue)")),
}
ANALYSIS_KINDS = tuple(_ANALYSIS)
_KIND = SchemaField("kind", str, None, "what to compute",
                    choices=ANALYSIS_KINDS, required=True)

_TOP = (
    SchemaField("name", str, None, "scenario name", required=True),
    SchemaField("seed", int, DEFAULT_SEED, "master seed for every random draw",
           minimum=0),
    SchemaField("frames", int, 1, "frames per source (wavefront and images "
           "kinds); QKD kinds take 1", minimum=1),
)

#: Every section by dotted path, in the order they are checked, each after
#: the section it is nested in: (its keys, its keys by the kind reading them).
_SECTIONS = {
    "grid": (_GRID, {}),
    "source": (_SOURCE, {}),
    "channel": (_CHANNEL, {}),
    "channel.screens": (_SCREENS, {}),
    "channel.occlusion": (_OCCLUSION, {}),
    "sensor": (_SENSOR, {}),
    "analysis": ((_KIND,), _ANALYSIS),
}

#: What a wrong-typed value was expected to be, by schema type.
_NOUNS = {float: "a number", int: "an integer", bool: "true/false",
          str: "a string", list: "a list", dict: "a mapping"}

#: (SchemaField attribute, symbol, test a value passes) of each bound, in
#: the order they are checked and listed.
_BOUNDS = (("minimum", ">=", operator.ge), ("above", ">", operator.gt),
           ("maximum", "<=", operator.le))


@dataclass(frozen=True)
class SourceSpec:
    kind: str
    waist: float | None
    ell: int
    p: int
    wavelength: float

    @property
    def label(self) -> str:
        """The name a run gives this source in file names, rows and
        errors; an images analysis needs a distinct one per mode."""
        if self.kind == "gaussian":
            return "gaussian"
        if self.kind == "lg":
            return f"lg{self.ell:+d}" + (f"p{self.p}" if self.p else "")
        return f"petal{abs(self.ell)}"


@dataclass(frozen=True)
class AnalysisSpec:
    """The analysis to run; each kind's subclass in ``_SPECS`` adds the keys
    that kind reads as its fields (``modes`` as SourceSpecs, ``ell_values``
    as a tuple)."""

    kind: str


_SPECS = {kind: make_dataclass(f"{kind.title().replace('-', '')}Analysis",
                               [f.name for f in fields],
                               bases=(AnalysisSpec,), frozen=True)
          for kind, fields in _ANALYSIS.items()}


@dataclass(frozen=True)
class Scenario:
    """A fully validated experiment description."""

    name: str
    seed: int
    frames: int
    grid: Grid
    source: SourceSpec
    channel: ChannelConfig
    sensor: LensletArray
    analysis: AnalysisSpec
    resolved: dict

    def to_yaml(self) -> str:
        """Canonical re-serialization; parsing it reproduces this scenario."""
        return yaml.safe_dump(self.resolved, sort_keys=True,
                              default_flow_style=False)


def _coerce(field: SchemaField, value, where: str):
    if value is None:
        if field.default is None and not field.required:
            return None
        raise ScenarioError("expected a value, got null", where)
    if field.kind is float and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    # A bool is an int to Python, but only true/false fields take one.
    accepts = (int, float) if field.kind is float else field.kind
    if isinstance(value, bool) is not (field.kind is bool) \
            or not isinstance(value, accepts):
        raise ScenarioError(f"expected {_NOUNS[field.kind]}, got {value!r}",
                            where)
    if field.kind is float:
        value = float(value)
        if not math.isfinite(value):
            raise ScenarioError(f"non-finite value {value}", where)
    if field.choices is not None and value not in field.choices:
        raise ScenarioError(
            f"must be one of {list(field.choices)}, got {value!r}", where)
    for name, symbol, holds in _BOUNDS:
        bound = getattr(field, name)
        if bound is not None and not holds(value, bound):
            raise ScenarioError(f"must be {symbol} {bound}, got {value}",
                                where)
    return value


def _apply_schema(section: Mapping | None, schema: tuple[SchemaField, ...],
                  where: str, by_kind: Mapping | None = None) -> dict:
    """``schema``'s keys, and with ``by_kind`` those of the kind named,
    coerced or defaulted, then each section nested at ``where`` by its row
    of ``_SECTIONS``. Any other key is refused, with the closest of the
    known keys and those sections' names."""
    if section is None:
        section = {}
    if not isinstance(section, Mapping):
        raise ScenarioError(f"expected a mapping section, got {section!r}",
                            where)
    if by_kind:
        schema = (*schema, *_kind_fields(section, by_kind, where))
    nested = {path.rpartition(".")[2]: path for path in _SECTIONS
              if path.rpartition(".")[0] == where}
    known = [f.name for f in schema] + list(nested)
    out = {}
    for key in section:
        if key not in known:
            close = difflib.get_close_matches(str(key), known, n=1, cutoff=0.4)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ScenarioError(f"unknown key {key!r}{hint}", where)
    for field in schema:
        path = f"{where}.{field.name}" if where else field.name
        if field.name in section:
            out[field.name] = _coerce(field, section[field.name], path)
        elif field.required:
            raise ScenarioError("missing required key", path)
        else:
            out[field.name] = copy.deepcopy(field.default)
    for key, path in nested.items():
        fields, kinds = _SECTIONS[path]
        out[key] = _apply_schema(section.get(key), fields, path, kinds)
    return out


def _kind_fields(section: Mapping, by_kind: Mapping,
                 where: str) -> tuple[SchemaField, ...]:
    """The keys of the kind ``section`` names, its ``kind`` read first so a
    misspelled one is reported there; another kind's key is refused at its
    own path."""
    if "kind" not in section:
        raise ScenarioError("missing required key", f"{where}.kind")
    kind = _coerce(_KIND, section["kind"], f"{where}.kind")
    for other, fields in by_kind.items():
        stray = [f.name for f in fields if other != kind and f.name in section]
        if stray:
            raise ScenarioError(f"only {other} {where} reads this key, not "
                                f"{kind}", f"{where}.{stray[0]}")
    return by_kind[kind]


def modal_sigma_table(sigma: float, j_max: int) -> dict[int, float]:
    """Synthetic per-mode deviations: tilt-dominated power-law decay."""
    table = {}
    for j in range(2, j_max + 1):
        n = nm_from_index(j).n
        table[j] = sigma * ((n + 1) / 2.0) ** (-11.0 / 6.0)
    return table


def _checked(where: str, rule, *args, **kwargs):
    """``rule(*args, **kwargs)``; a ValueError it raises becomes a
    ScenarioError at ``where``, extended by a ConfigError's key."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        key = exc.key if isinstance(exc, ConfigError) else ""
        where = ".".join(filter(None, (where, key)))
        raise ScenarioError(str(exc), where) from None


def _build_channel(resolved: dict, seed: int) -> ChannelConfig:
    ch = resolved["channel"]
    scr = ch["screens"]
    occ = ch["occlusion"]
    source = scr["kind"] if ch["n_screens"] > 0 else "none"
    modal_sigmas = None
    if source == "modal":
        table = scr["sigmas"] if scr["sigmas"] is not None \
            else modal_sigma_table(scr["sigma"], scr["j_max"])
        modal_sigmas = tuple(table.items())
    # The channel section's keys are ChannelConfig's field names.
    return _checked(
        "channel", ChannelConfig, **{f.name: ch[f.name] for f in _CHANNEL},
        screen_source=source, modal_sigmas=modal_sigmas,
        screen_aperture_radius=scr["aperture_radius"], r0=scr["r0"],
        subharmonic_levels=scr["subharmonic_levels"],
        occlusion_rate=occ["rate"], occluder_radius=occ["radius"],
        occluder_opacity=occ["opacity"], seed=seed)


def _build_source(sec: dict, grid: Grid, where: str) -> SourceSpec:
    if sec["waist"] is not None:
        _checked(f"{where}.waist", check_waist, sec["waist"], grid)
    if sec["kind"] == "petal" and sec["ell"] == 0:
        raise ScenarioError("petal sources need ell != 0", f"{where}.ell")
    return SourceSpec(**sec)


class _StrictLoader(yaml.SafeLoader):
    """yaml's safe loader, refusing a key repeated within one mapping; a
    ``<<`` merge is not checked, so an explicit key may override it."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            key = self.construct_object(key_node, deep=deep)
            if not isinstance(key, Hashable):
                continue                # the base loader refuses it
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"found duplicate key {key!r}",
                    key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def read_document(text: str) -> dict:
    """Read YAML text into the raw scenario mapping, not yet validated."""
    try:
        doc = yaml.load(text, Loader=_StrictLoader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f"line {mark.line + 1}, column {mark.column + 1}" \
            if mark else "document"
        raise ScenarioError(f"syntax error: {exc.problem}", where) from None
    except yaml.YAMLError as exc:
        raise ScenarioError(f"syntax error: {exc}") from None
    if doc is None:
        raise ScenarioError("empty scenario document")
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be a mapping")
    return doc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    return parse_document(read_document(text))


def parse_document(doc: Mapping) -> Scenario:
    """Validate a raw scenario mapping; ``doc`` itself is not modified."""
    resolved = _apply_schema(copy.deepcopy(dict(doc)), _TOP, "")
    ana = resolved["analysis"]
    if ana["kind"] in QKD_KINDS and resolved["frames"] != 1:
        raise ScenarioError(f"a {ana['kind']} analysis reads no frames; must "
                            f"be 1, got {resolved['frames']} (set qkd-oam "
                            f"realizations with analysis.trials)", "frames")

    # The schema has already checked spacing > 0 and n_samples >= 16.
    grid = _checked("grid.n_samples", Grid, resolved["grid"]["n_samples"],
                    resolved["grid"]["spacing"])
    source = _build_source(resolved["source"], grid, "source")
    channel = _build_channel(resolved, resolved["seed"])
    if channel.screen_aperture_radius is not None:
        _checked("channel.screens.aperture_radius", check_aperture,
                 channel.screen_aperture_radius, grid)
    sensor = _checked("sensor", LensletArray, **resolved["sensor"])

    keys = dict(ana)
    if ana["kind"] == "images":
        if not ana["modes"]:
            raise ScenarioError("images analysis needs a non-empty modes "
                                "list", "analysis.modes")
        built = []
        for i, entry in enumerate(ana["modes"]):
            where = f"analysis.modes[{i}]"
            sec = _apply_schema(entry, _SOURCE, where)
            spec = _build_source(sec, grid, where)
            if spec.label in (b.label for b in built):
                raise ScenarioError(
                    f"repeats the label {spec.label!r} of an earlier mode; "
                    "each mode's frames are named by its label", where)
            built.append(spec)
            ana["modes"][i] = sec
        keys["modes"] = tuple(built)
    if ana["kind"] == "qkd-oam":
        _checked("analysis", oam_alphabet, ana["ell_values"],
                 ana["superposition_basis"],
                 waist_or_default(source.waist, grid), grid)
        keys["ell_values"] = tuple(ana["ell_values"])
    if ana["kind"] == "wavefront":
        _checked("", lenslet_tiling, sensor, grid)
        _checked("analysis.intensity_floor", check_intensity_floor,
                 ana["intensity_floor"])
        if ana["fit_aperture_radius"] is not None:
            _checked("analysis.fit_aperture_radius", check_aperture,
                     ana["fit_aperture_radius"], grid)
        _checked("analysis", check_fit_modes, sensor, ana["j_max"],
                 ana["fit_aperture_radius"])

    return Scenario(name=resolved["name"], seed=resolved["seed"],
                    frames=resolved["frames"], grid=grid, source=source,
                    channel=channel, sensor=sensor,
                    analysis=_SPECS[ana["kind"]](**keys), resolved=resolved)


def load_scenario(ref: str | Path, sets: Sequence[str] = (),
                  seed: int | None = None,
                  frames: int | None = None) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name.

    ``sets`` holds ``key.path=value`` overrides applied in order, then
    ``seed`` and ``frames`` replace the document's values when given.
    """
    path = Path(ref)
    if path.is_file():
        text = _checked(str(path), path.read_text, encoding="utf-8")
    else:
        bundled = bundled_scenarios()
        if str(ref) not in bundled:
            raise ScenarioError(
                f"no scenario file or bundled scenario named {ref!r}; "
                f"bundled: {sorted(bundled)}")
        text = bundled[str(ref)]
    doc = read_document(text)
    for item in sets:
        if "=" not in item:
            raise ScenarioError(f"--set needs key.path=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        set_by_path(doc, dotted.strip(), raw)
    if seed is not None:
        doc["seed"] = seed
    if frames is not None:
        doc["frames"] = frames
    return parse_document(doc)


def bundled_scenarios() -> dict[str, str]:
    """Names and document text of the scenarios shipped in the package."""
    out = {}
    base = resources.files(__package__) / "scenarios"
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".yaml"):
            out[entry.name[:-5]] = entry.read_text()
    return out


def set_by_path(doc: dict, dotted: str, raw_value: str) -> None:
    """Apply one 'section.key=value' override onto a raw document dict."""
    parts = dotted.split(".")
    cursor = doc
    for part in parts[:-1]:
        nxt = cursor.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise ScenarioError(f"cannot descend into {part!r}", dotted)
        cursor = nxt
    try:
        cursor[parts[-1]] = yaml.load(raw_value, Loader=_StrictLoader)
    except yaml.YAMLError as exc:
        problem = getattr(exc, "problem", exc)
        raise ScenarioError(f"cannot parse value {raw_value!r}: {problem}",
                            dotted) from None


def schema_reference() -> str:
    """Human-readable reference of every key, type, default, and meaning."""
    lines = ["Scenario schema (YAML). Types and defaults; required keys "
             "are marked *.", ""]
    def emit(title, schema):
        lines.append(title)
        for f in schema:
            default = "required *" if f.required else f"default {f.default!r}"
            extras = [f"one of {list(f.choices)}"] if f.choices else []
            extras += [f"{symbol} {getattr(f, name)}"
                       for name, symbol, _ in _BOUNDS
                       if getattr(f, name) is not None]
            extra = f" ({', '.join(extras)})" if extras else ""
            lines.append(f"  {f.name:<22} {f.kind.__name__:<6} {default}"
                         f"{extra}")
            lines.append(f"  {'':<22} {f.doc}")
        lines.append("")
    emit("top level", _TOP)
    for section, (schema, by_kind) in _SECTIONS.items():
        emit(section, schema)
        for kind, fields in by_kind.items():
            emit(f"{section}, kind {kind}", fields)
    return "\n".join(lines)

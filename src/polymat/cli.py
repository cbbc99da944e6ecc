"""Command-line front end: JSON documents in, deterministic JSON reports out.

Every subcommand is a row of ``COMMANDS``, whose reader and handler turn its
document into a report through public library calls alone.

Exit codes: 0 when the computation succeeded or the property holds, 1
when a checked property fails (the report carries the witness), 2 for
usage, schema or size-cap errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any

from . import __version__
from .algebra import (
    FacetDescription,
    GenericGorensteinParams,
    base_ring_generators,
    closed_inseparable_subsets,
    ehrhart_generators,
    ehrhart_gorenstein,
    generic_gorenstein_rank,
    h_star,
    hilbert_values,
    is_generic,
    normality_check,
)
from .constructions import (
    borel_gorenstein,
    is_transversal,
    principal_borel,
    sublattice,
    sublattice_polymatroid,
    transversal,
    transversal_presentation,
    veronese,
)
from .core import SizeCapExceeded, Verdict, as_vector, subset_elements, subset_mask
from .exchange import ExchangeMode, exchange_property, is_sortable, rewrite_balanced, sort_pair
from .polymatroid import (
    BaseSet,
    DiscretePolymatroid,
    RankFunction,
    VectorSet,
    base_set,
    bases,
    contract,
    discrete_polymatroid,
    downward_closure,
    is_base_set,
    is_discrete_polymatroid,
    lift,
    polymatroid_from_rank,
    polymatroid_sum,
    rank_function,
    rank_function_from_values,
    truncate,
    validate_rank_function,
    vector_set,
)
from .toric import white_check

KINDS = ("vector-set", "base-set", "rank-function", "transversal", "sublattice", "borel", "params")


class SchemaError(ValueError):
    """Input document rejected; the message names the offending field."""


@dataclass(frozen=True)
class Document:
    kind: str
    value: Any


def _require(payload: dict, field: str, kind: str) -> Any:
    if field not in payload:
        raise SchemaError(f"document of kind {kind!r} is missing field {field!r}")
    return payload[field]


def _is_int(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _int_field(payload: dict, field: str, kind: str) -> int:
    v = _require(payload, field, kind)
    if not _is_int(v):
        raise SchemaError(f"field {field!r} must be an integer, got {v!r}")
    return v


def _vector_list(payload: dict, field: str, kind: str) -> list:
    v = _require(payload, field, kind)
    if not isinstance(v, list) or not v:
        raise SchemaError(f"field {field!r} must be a nonempty list")
    return v


def _list_of_lists(payload: dict, field: str, kind: str) -> list:
    rows = _vector_list(payload, field, kind)
    if not all(isinstance(row, list) for row in rows):
        raise SchemaError(f"field {field!r} must be a list of lists")
    return rows


def parse_document(text: str | bytes) -> Document:
    """Validate a JSON document against its kind's schema."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise SchemaError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise SchemaError(f"field 'kind' must be one of {KINDS}, got {kind!r}")
    try:
        if kind in ("vector-set", "base-set"):
            n = _int_field(payload, "n", kind)
            vectors = _list_of_lists(payload, "vectors", kind)
            build = base_set if kind == "base-set" else vector_set
            return Document(kind, build((as_vector(v) for v in vectors), n))
        if kind == "rank-function":
            n = _int_field(payload, "n", kind)
            values = _require(payload, "values", kind)
            if not isinstance(values, list):
                raise SchemaError("field 'values' must be a list")
            return Document(kind, rank_function_from_values(values, n))
        if kind == "transversal":
            n = _int_field(payload, "n", kind)
            family = _list_of_lists(payload, "family", kind)
            return Document(kind, transversal_presentation(n, family))
        if kind == "sublattice":
            n = _int_field(payload, "n", kind)
            members = _require(payload, "members", kind)
            mu_vals = _require(payload, "mu", kind)
            if not isinstance(members, list) or not isinstance(mu_vals, list):
                raise SchemaError("fields 'members' and 'mu' must be lists")
            if len(members) != len(mu_vals):
                raise SchemaError("fields 'members' and 'mu' must have equal length")
            if not all(isinstance(m, list) for m in members):
                raise SchemaError("field 'members' must be a list of lists")
            masks = [subset_mask(m, n) for m in members]
            lat = sublattice(n, masks)
            if not all(_is_int(v) for v in mu_vals):
                raise SchemaError("field 'mu' must hold integers")
            return Document(kind, (lat, dict(zip(masks, mu_vals))))
        if kind == "borel":
            return Document(kind, as_vector(_vector_list(payload, "a", kind)))
        extras = {k: v for k, v in payload.items() if k != "kind"}
        return Document(kind, extras)
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _load(path: str) -> Document:
    try:
        with open(path, "rb") as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _parse_vector(text: str) -> tuple:
    try:
        return as_vector(int(part) for part in text.split(","))
    except ValueError as exc:
        raise SchemaError(f"bad vector {text!r}: {exc}") from exc


# --- readers: each subcommand names the one that turns its document into the
# value its handler takes.  Only _polymatroid closes a base set downward.


def _document(doc: Document) -> Document:
    return doc


def _polymatroid(doc: Document) -> DiscretePolymatroid:
    if doc.kind == "vector-set":
        return discrete_polymatroid(doc.value)
    if doc.kind == "base-set":
        return discrete_polymatroid(downward_closure(VectorSet(doc.value.n, doc.value.vectors)))
    if doc.kind == "rank-function":  # the table keeps the verdict _rank_function checked
        return polymatroid_from_rank(_rank_function(doc))
    raise SchemaError(
        f"expected a vector-set, base-set or rank-function document, got {doc.kind!r}"
    )


def _vectors(doc: Document) -> BaseSet:
    """A base-set document as given, else the bases of the polymatroid: the
    exchange checks and the base ring take any vectors of equal modulus."""
    return doc.value if doc.kind == "base-set" else bases(_polymatroid(doc))


def _base_set(doc: Document) -> BaseSet:
    """The bases of the polymatroid; a base-set document must pass is_base_set."""
    if doc.kind != "base-set":
        return bases(_polymatroid(doc))
    verdict = is_base_set(doc.value)
    if not verdict:
        raise SchemaError(f"field 'vectors' is not a base set: {verdict.witness}")
    return doc.value


def _rank_function(doc: Document) -> RankFunction:
    """A rank-function document that passes the axioms, else the rank of the bases."""
    if doc.kind != "rank-function":
        return rank_function(_base_set(doc))
    verdict = validate_rank_function(doc.value)
    if not verdict:
        raise SchemaError(f"field 'values' is not a valid rank function: {verdict.witness}")
    return doc.value


def _generators(which: str, doc: Document):
    if which == "base":
        return base_ring_generators(_vectors(doc))
    return ehrhart_generators(_polymatroid(doc))


def _encode(value: Any) -> Any:
    """The JSON form of a handler's payload.  A Verdict becomes its truth
    value, and on failure its witness joins the dict as ``witness``; point
    sets, base sets and rank functions become documents, facet descriptions
    their facets; tuples become lists."""
    if isinstance(value, FacetDescription):
        facets = [{"subset": subset_elements(m), "rank": r} for m, r in value.rank_facets]
        value = {"coordinate_facets": value.coordinate_facets, "rank_facets": facets}
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            if isinstance(item, Verdict):
                out[key] = item.holds
                if item.witness is not None:
                    out["witness"] = _encode(item.witness)
            else:
                out[key] = _encode(item)
        return out
    if isinstance(value, (list, tuple)):
        return [_encode(x) for x in value]
    if isinstance(value, DiscretePolymatroid):
        value = value.point_set
    if isinstance(value, VectorSet):
        kind = "base-set" if isinstance(value, BaseSet) else "vector-set"
        return {"kind": kind, "n": value.n, "vectors": _encode(sorted(value.vectors))}
    if isinstance(value, RankFunction):
        return {"kind": "rank-function", "n": value.n, "values": list(value.values)}
    return value


# --- subcommand handlers: (reader's value, args) -> payload; main encodes the
# payload and derives the exit code from its "verdict" field.  A handler that
# is one library call is written in its row of COMMANDS.

_VALIDATORS = {
    "vector-set": is_discrete_polymatroid,
    "base-set": is_base_set,
    "rank-function": validate_rank_function,
}


def _cmd_validate(doc: Document, args) -> dict:
    if doc.kind not in _VALIDATORS:
        raise SchemaError(f"nothing to validate for kind {doc.kind!r}")
    return {"verdict": _VALIDATORS[doc.kind](doc.value)}


def _cmd_rewrite(B: BaseSet, args) -> dict:
    out, moves = rewrite_balanced([_parse_vector(s) for s in args.seq], B)
    return {"result": {"sequence": out, "moves": moves}}


def _cmd_white(B: BaseSet, args) -> dict:
    verdict = white_check(B, args.degree, max_base_size=args.max_base_size)
    label = "verified instance" if verdict else "candidate counterexample"
    return {"verdict": verdict, "degree": args.degree, "label": label}


def _cmd_hilbert(doc: Document, args) -> dict:
    gens = _generators(args.which, doc)
    return {"result": {"which": args.which, "values": hilbert_values(gens, args.terms)}}


def _cmd_gorenstein(doc: Document, args) -> dict:
    if args.method == "hstar":
        data = h_star(_generators(args.which, doc))
        h = data.h_star_trimmed
        return {"verdict": h == h[::-1], "h_star": h, "krull_dim": data.krull_dim}
    if args.which == "ehrhart":
        delta = ehrhart_gorenstein(_rank_function(doc))
        return {"verdict": delta is not None, "delta": delta}
    if doc.kind != "borel":
        raise SchemaError("the base-ring criterion method needs a borel document")
    return {"verdict": borel_gorenstein(doc.value)}


def _cmd_is_transversal(P: DiscretePolymatroid, args) -> dict:
    pres = is_transversal(P)
    if pres is None:
        return {"verdict": False}
    return {"verdict": True, "presentation": pres.subsets_as_elements()}


def _cmd_sum(_, args) -> dict:
    return {"result": polymatroid_sum(*(_polymatroid(_load(path)) for path in args.files))}


def _cmd_normality(doc: Document, args) -> dict:
    gens = _generators(args.which, doc)
    return {"verdict": normality_check(gens, args.tmax), "t_max": args.tmax}


def _cmd_construct(_, args) -> dict:
    target = args.target
    if target == "veronese":
        return {"result": veronese(*_flags_or_params(args, "caps"))}
    if target == "borel":
        if args.generator is None:
            raise SchemaError("construct borel needs --generator")
        return {"result": principal_borel(_parse_vector(args.generator))}
    if target == "generic-gorenstein":
        params = GenericGorensteinParams(*_flags_or_params(args, "alpha"))
        return {"result": generic_gorenstein_rank(params)}
    if target == "transversal":
        B, rho = transversal(_construct_document(args))
        return {"result": {"base_set": B, "rank_function": rho}}
    return {"result": sublattice_polymatroid(*_construct_document(args))}


def _flags_or_params(args, field: str) -> tuple:
    """The vector flag named ``field`` with --rank, or else the fields
    ``field`` and ``d`` of a params document."""
    flag = getattr(args, field)
    if flag is not None and args.rank is not None:
        return _parse_vector(flag), args.rank
    if args.file is None:
        raise SchemaError(f"construct {args.target} needs flags or a params document")
    doc = _load(args.file)
    if doc.kind != "params":
        raise SchemaError(f"construct {args.target} needs a params document")
    for name in (field, "d"):
        if name not in doc.value:
            raise SchemaError(f"params document is missing field {name!r}")
    vec, d = doc.value[field], doc.value["d"]
    if not isinstance(vec, list):
        raise SchemaError(f"params field {field!r} must be a list")
    if not _is_int(d):
        raise SchemaError("params field 'd' must be an integer")
    return as_vector(vec), d


def _construct_document(args) -> Any:
    """The value of the document named by the target (transversal or sublattice)."""
    doc = None if args.file is None else _load(args.file)
    if doc is None or doc.kind != args.target:
        raise SchemaError(f"construct {args.target} needs a {args.target} document")
    return doc.value


_WHICH = ("--which", dict(choices=["base", "ehrhart"], required=True))

# Each subcommand: (name, help, reader, handler, options).  A command with a
# reader takes the path of its document first; each option is (name, keywords
# of add_argument).
COMMANDS = (
    ("validate", "validate a vector set, base set or rank function", _document, _cmd_validate, ()),
    ("bases", "maximal vectors of a polymatroid", _base_set, lambda B, args: {"result": B}, ()),
    ("rank", "rank function of a base set", _rank_function, lambda rho, args: {"result": rho}, ()),
    ("exchange", "check an exchange property", _vectors,
     lambda B, args: {"verdict": exchange_property(B, ExchangeMode(args.mode)), "mode": args.mode},
     (("--mode", dict(choices=[m.value for m in ExchangeMode], required=True)),)),
    ("sort", "apply the sorting operator to a pair", None,
     lambda _, args: {"result": {"pair": sort_pair(_parse_vector(args.u), _parse_vector(args.v))}},
     (("--u", dict(required=True)), ("--v", dict(required=True)))),
    ("sortable", "closure under the sorting operator", _vectors,
     lambda B, args: {"verdict": is_sortable(B)}, ()),
    ("rewrite", "balance a sequence of bases by symmetric exchanges", _vectors, _cmd_rewrite,
     (("--seq", dict(action="append", required=True, help="vector, repeatable")),)),
    ("white", "fiber-graph connectivity in a given degree", _vectors, _cmd_white,
     (("--degree", dict(type=int, default=2)), ("--max-base-size", dict(type=int, default=64)))),
    ("hilbert", "Hilbert function values", _document, _cmd_hilbert,
     (_WHICH, ("--terms", dict(type=int, default=4)))),
    ("gorenstein", "Gorenstein verdicts", _document, _cmd_gorenstein,
     (_WHICH, ("--method", dict(choices=["hstar", "criterion"], default="hstar")))),
    ("facets", "coordinate and rank facets", _rank_function,
     lambda rho, args: {"result": closed_inseparable_subsets(rho)}, ()),
    ("generic", "genericity of a polymatroid", _polymatroid,
     lambda P, args: {"verdict": is_generic(P)}, ()),
    ("construct", "build a classical family instance", None, _cmd_construct, (
        ("target", dict(choices=["veronese", "borel", "transversal", "sublattice",
                                 "generic-gorenstein"])),
        ("file", dict(nargs="?")),
        ("--caps", dict()),
        ("--generator", dict()),
        ("--alpha", dict()),
        ("--rank", dict(type=int)),
    )),
    ("is-transversal", "transversal presentation by Moebius inversion", _polymatroid,
     _cmd_is_transversal, ()),
    ("truncate", "restrict to a smaller rank", _polymatroid,
     lambda P, args: {"result": truncate(P, args.rank)},
     (("--rank", dict(type=int, required=True)),)),
    ("contract", "contract at a point", _polymatroid,
     lambda P, args: {"result": contract(P, _parse_vector(args.at))},
     (("--at", dict(required=True)),)),
    ("lift", "append a slack coordinate", _polymatroid, lambda P, args: {"result": lift(P)}, ()),
    ("sum", "polymatroid sum of several inputs", None, _cmd_sum, (("files", dict(nargs="+")),)),
    ("normality", "degree-by-degree saturation check", _document, _cmd_normality,
     (_WHICH, ("--tmax", dict(type=int, default=2)))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Discrete polymatroid toolkit: validation, exchange, toric and Hilbert checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help, read, handler, options in COMMANDS:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, read=read)
        if read is not None:
            p.add_argument("file")
        for option, keywords in options:
            p.add_argument(option, **keywords)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        value = None if args.read is None else args.read(_load(args.file))
        payload = _encode(args.handler(value, args))
        code = 1 if payload.get("verdict") is False else 0
    except (SchemaError, SizeCapExceeded, ValueError) as exc:
        code, payload = 2, {"error": str(exc)}
    except Exception as exc:  # a fault still gets a JSON report and exit 2, never a traceback
        code, payload = 2, {"error": f"internal error: {type(exc).__name__}: {exc}"}
    report = {"command": args.command, "version": __version__}
    report.update(payload)
    report["timing_ms"] = int((time.perf_counter() - started) * 1000)
    json.dump(report, sys.stdout, sort_keys=True, separators=(", ", ": "))
    sys.stdout.write("\n")
    return code


def entry() -> None:
    sys.exit(main())

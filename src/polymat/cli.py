"""Command-line front end: JSON documents in, deterministic JSON reports out.

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
            rho = rank_function_from_values(values, n)
            verdict = validate_rank_function(rho)
            if not verdict:
                raise SchemaError(f"field 'values' is not a valid rank function: {verdict.witness}")
            return Document(kind, rho)
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


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _vectors_doc(kind: str, n: int, vectors) -> dict:
    return {"kind": kind, "n": n, "vectors": [list(v) for v in sorted(vectors)]}


def _rank_doc(rho: RankFunction) -> dict:
    return {"kind": "rank-function", "n": rho.n, "values": list(rho.values)}


def _verdict_payload(verdict: Verdict, **extra) -> dict:
    out: dict[str, Any] = {"verdict": verdict.holds, **extra}
    if verdict.witness is not None:
        out["witness"] = _jsonable(verdict.witness)
    return out


def _as_polymatroid(doc: Document) -> DiscretePolymatroid:
    if doc.kind == "vector-set":
        return discrete_polymatroid(doc.value)
    if doc.kind == "base-set":
        return discrete_polymatroid(downward_closure(VectorSet(doc.value.n, doc.value.vectors)))
    if doc.kind == "rank-function":
        return polymatroid_from_rank(doc.value)
    raise SchemaError(
        f"expected a vector-set, base-set or rank-function document, got {doc.kind!r}"
    )


def _as_base_set(doc: Document) -> BaseSet:
    return doc.value if doc.kind == "base-set" else bases(_as_polymatroid(doc))


def _as_rank_function(doc: Document) -> RankFunction:
    if doc.kind == "rank-function":
        return doc.value
    return rank_function(bases(_as_polymatroid(doc)))


def _generators(which: str, doc: Document):
    if which == "base":
        return base_ring_generators(_as_base_set(doc))
    return ehrhart_generators(_as_polymatroid(doc))


# --- subcommand handlers ----------------------------------------------------
# Each handler returns the report payload; main derives the exit code from
# its "verdict" field.


def _cmd_validate(args) -> dict:
    doc = _load(args.file)
    if doc.kind == "vector-set":
        verdict = is_discrete_polymatroid(doc.value)
    elif doc.kind == "base-set":
        verdict = is_base_set(doc.value)
    elif doc.kind == "rank-function":
        verdict = validate_rank_function(doc.value)
    else:
        raise SchemaError(f"nothing to validate for kind {doc.kind!r}")
    return _verdict_payload(verdict)


def _cmd_bases(args) -> dict:
    B = bases(_as_polymatroid(_load(args.file)))
    return {"result": _vectors_doc("base-set", B.n, B.vectors)}


def _cmd_rank(args) -> dict:
    return {"result": _rank_doc(_as_rank_function(_load(args.file)))}


def _cmd_exchange(args) -> dict:
    verdict = exchange_property(_as_base_set(_load(args.file)), ExchangeMode(args.mode))
    return _verdict_payload(verdict, mode=args.mode)


def _cmd_sort(args) -> dict:
    s, t = sort_pair(_parse_vector(args.u), _parse_vector(args.v))
    return {"result": {"pair": [list(s), list(t)]}}


def _cmd_sortable(args) -> dict:
    return _verdict_payload(is_sortable(_as_base_set(_load(args.file))))


def _cmd_rewrite(args) -> dict:
    B = _as_base_set(_load(args.file))
    out, moves = rewrite_balanced([_parse_vector(s) for s in args.seq], B)
    return {"result": {"sequence": [list(v) for v in out], "moves": _jsonable(moves)}}


def _cmd_white(args) -> dict:
    B = _as_base_set(_load(args.file))
    verdict = white_check(B, args.degree, max_base_size=args.max_base_size)
    label = "verified instance" if verdict else "candidate counterexample"
    return _verdict_payload(verdict, degree=args.degree, label=label)


def _cmd_hilbert(args) -> dict:
    gens = _generators(args.which, _load(args.file))
    return {"result": {"which": args.which, "values": hilbert_values(gens, args.terms)}}


def _cmd_gorenstein(args) -> dict:
    doc = _load(args.file)
    if args.method == "hstar":
        data = h_star(_generators(args.which, doc))
        h = data.h_star_trimmed
        return {"verdict": h == h[::-1], "h_star": list(h), "krull_dim": data.krull_dim}
    if args.which == "ehrhart":
        delta = ehrhart_gorenstein(_as_rank_function(doc))
        return {"verdict": delta is not None, "delta": delta}
    if doc.kind != "borel":
        raise SchemaError("the base-ring criterion method needs a borel document")
    return {"verdict": borel_gorenstein(doc.value)}


def _cmd_facets(args) -> dict:
    desc = closed_inseparable_subsets(_as_rank_function(_load(args.file)))
    return {
        "result": {
            "coordinate_facets": list(desc.coordinate_facets),
            "rank_facets": [
                {"subset": list(subset_elements(mask)), "rank": value}
                for mask, value in desc.rank_facets
            ],
        }
    }


def _cmd_generic(args) -> dict:
    return _verdict_payload(is_generic(_as_polymatroid(_load(args.file))))


def _cmd_is_transversal(args) -> dict:
    pres = is_transversal(_as_polymatroid(_load(args.file)))
    if pres is None:
        return {"verdict": False}
    return {"verdict": True, "presentation": [list(s) for s in pres.subsets_as_elements()]}


def _cmd_truncate(args) -> dict:
    P = truncate(_as_polymatroid(_load(args.file)), args.rank)
    return {"result": _vectors_doc("vector-set", P.n, P.points)}


def _cmd_contract(args) -> dict:
    P = contract(_as_polymatroid(_load(args.file)), _parse_vector(args.at))
    return {"result": _vectors_doc("vector-set", P.n, P.points)}


def _cmd_lift(args) -> dict:
    B = lift(_as_polymatroid(_load(args.file)))
    return {"result": _vectors_doc("base-set", B.n, B.vectors)}


def _cmd_sum(args) -> dict:
    P = polymatroid_sum(*(_as_polymatroid(_load(path)) for path in args.files))
    return {"result": _vectors_doc("vector-set", P.n, P.points)}


def _cmd_normality(args) -> dict:
    gens = _generators(args.which, _load(args.file))
    return _verdict_payload(normality_check(gens, args.tmax), t_max=args.tmax)


def _cmd_construct(args) -> dict:
    target = args.target
    if target == "veronese":
        B = veronese(*_flags_or_params(args, "caps"))
        return {"result": _vectors_doc("base-set", B.n, B.vectors)}
    if target == "borel":
        if args.generator is None:
            raise SchemaError("construct borel needs --generator")
        S = principal_borel(_parse_vector(args.generator))
        return {"result": _vectors_doc("vector-set", S.n, S.vectors)}
    if target == "generic-gorenstein":
        rho = generic_gorenstein_rank(GenericGorensteinParams(*_flags_or_params(args, "alpha")))
        return {"result": _rank_doc(rho)}
    if target == "transversal":
        B, rho = transversal(_construct_document(args))
        return {
            "result": {
                "base_set": _vectors_doc("base-set", B.n, B.vectors),
                "rank_function": _rank_doc(rho),
            }
        }
    P = sublattice_polymatroid(*_construct_document(args))
    return {"result": _vectors_doc("vector-set", P.n, P.points)}


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymat",
        description="Discrete polymatroid toolkit: validation, exchange, toric and Hilbert checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", _cmd_validate, help="validate a vector set, base set or rank function")
    p.add_argument("file")
    p = add("bases", _cmd_bases, help="maximal vectors of a polymatroid")
    p.add_argument("file")
    p = add("rank", _cmd_rank, help="rank function of a base set")
    p.add_argument("file")
    p = add("exchange", _cmd_exchange, help="check an exchange property")
    p.add_argument("--mode", choices=[m.value for m in ExchangeMode], required=True)
    p.add_argument("file")
    p = add("sort", _cmd_sort, help="apply the sorting operator to a pair")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p = add("sortable", _cmd_sortable, help="closure under the sorting operator")
    p.add_argument("file")
    p = add("rewrite", _cmd_rewrite, help="balance a sequence of bases by symmetric exchanges")
    p.add_argument("--seq", action="append", required=True, help="vector, repeatable")
    p.add_argument("file")
    p = add("white", _cmd_white, help="fiber-graph connectivity in a given degree")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--max-base-size", type=int, default=64, dest="max_base_size")
    p.add_argument("file")
    p = add("hilbert", _cmd_hilbert, help="Hilbert function values")
    p.add_argument("--which", choices=["base", "ehrhart"], required=True)
    p.add_argument("--terms", type=int, default=4)
    p.add_argument("file")
    p = add("gorenstein", _cmd_gorenstein, help="Gorenstein verdicts")
    p.add_argument("--which", choices=["base", "ehrhart"], required=True)
    p.add_argument("--method", choices=["hstar", "criterion"], default="hstar")
    p.add_argument("file")
    p = add("facets", _cmd_facets, help="coordinate and rank facets")
    p.add_argument("file")
    p = add("generic", _cmd_generic, help="genericity of a polymatroid")
    p.add_argument("file")
    p = add("construct", _cmd_construct, help="build a classical family instance")
    p.add_argument(
        "target",
        choices=["veronese", "borel", "transversal", "sublattice", "generic-gorenstein"],
    )
    p.add_argument("file", nargs="?")
    p.add_argument("--caps")
    p.add_argument("--generator")
    p.add_argument("--alpha")
    p.add_argument("--rank", type=int)
    p = add("is-transversal", _cmd_is_transversal, help="search for a transversal presentation")
    p.add_argument("file")
    p = add("truncate", _cmd_truncate, help="restrict to a smaller rank")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("file")
    p = add("contract", _cmd_contract, help="contract at a point")
    p.add_argument("--at", required=True)
    p.add_argument("file")
    p = add("lift", _cmd_lift, help="append a slack coordinate")
    p.add_argument("file")
    p = add("sum", _cmd_sum, help="polymatroid sum of several inputs")
    p.add_argument("files", nargs="+")
    p = add("normality", _cmd_normality, help="degree-by-degree saturation check")
    p.add_argument("--which", choices=["base", "ehrhart"], required=True)
    p.add_argument("--tmax", type=int, default=2)
    p.add_argument("file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload = args.handler(args)
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

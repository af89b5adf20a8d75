"""Command line interface.

Every command reads a presentation from a JSON file and writes a JSON
report to stdout. Exit codes: 0 on success, 1 on invalid input or
exceeded search limits (a trilnd.InputError, or a file that cannot be
read or is not UTF-8), 2 when a verification fails (a relation is
broken, the derivation is not homogeneous, or nilpotency is refuted by
divisibility or a degree cycle), 3 when nilpotency ends inconclusive (a
guard such as the cap tripped), 4 when a self-check fails (an
InternalError, a bug), 141 (128 + SIGPIPE) when the reader of stdout
goes away. Exits 1 and 4 print {"error", "kind"}. Any other exception
is a bug too: it exits 4 and prints its traceback to stderr as well.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote

from .classify import (
    InadmissibleDescriptor,
    LndDescriptor,
    _Construction,
    class_report,
    enumerate_lnds,
)
from .derivation import (
    derivation_from_text,
    is_well_defined,
    kernel_member,
    nilpotency_check,
)
from .gaussian import InputError, InternalError, InvalidArgument, gq_format, gq_parse
from .grading import NonHomogeneous, derivation_degree
from .oracle import oracle_enumerate
from .poly import (
    _EXPONENT_RE,
    poly_format,
    poly_parse,
)
from .presentation import (
    TrinomialPresentation,
    _is_int,
    _json_object,
    all_ones_rescaling,
)
from .toric import Cone2D, demazure_roots

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFICATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141

_INPUT_ERRORS = (InputError, UnicodeDecodeError, OSError)


def json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for the values a report
    holds: dicts with str keys, lists and tuples, str, int, bool and None.
    Anything else raises TypeError. newline is the line break and
    indentation of obj's own level.

    The stdlib's encoder leaves its C implementation when given an indent;
    this one keeps the stdlib's C string escape, and writes each string
    or int member of a container in the container's own loop.
    """
    cls = type(obj)
    if cls is str:
        return _quote(obj)
    if cls is dict or cls is list or cls is tuple:
        if not obj:
            return "{}" if cls is dict else "[]"
        inner = newline + "  "
        parts = []
        append = parts.append
        if cls is dict:
            for key, value in obj.items():
                if type(key) is not str:
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                kind = type(value)
                if kind is str:
                    append(f"{_quote(key)}: {_quote(value)}")
                elif kind is int:
                    append(f"{_quote(key)}: {int.__repr__(value)}")
                else:
                    append(f"{_quote(key)}: {json_text(value, inner)}")
            opening, closing = "{", "}"
        else:
            for value in obj:
                kind = type(value)
                if kind is str:
                    append(_quote(value))
                elif kind is int:
                    append(int.__repr__(value))
                else:
                    append(json_text(value, inner))
            opening, closing = "[", "]"
        return opening + inner + ("," + inner).join(parts) + newline + closing
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _emit(obj) -> None:
    # flush here, so that a closed stdout fails inside main
    print(json_text(obj), flush=True)


def _read_text(path: str) -> str:
    """The text of the file at path, or of stdin for "-"."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_lambdas(text):
    """The --lambdas samples. Each entry is read first, then an empty
    entry, a list of none and a value listed twice raise InvalidArgument."""
    if text is None:
        return None
    chunks = [chunk.strip() for chunk in text.split(",")]
    lams = [gq_parse(chunk) for chunk in chunks if chunk]
    if not lams:
        raise InvalidArgument("--lambdas lists no sample")
    if "" in chunks:
        raise InvalidArgument(f"--lambdas has an empty entry: {text!r}")
    for k, lam in enumerate(lams):
        if lam in lams[:k]:
            raise InvalidArgument(f"--lambdas lists {gq_format(lam)} twice")
    return tuple(lams)


def _integer(text: str) -> int:
    """The type of every integer option: an integer in the grammar of a
    derivation-text exponent, argparse.ArgumentTypeError otherwise (a usage
    error, exit 2); int() alone also reads "1_0" and any Unicode digit."""
    if not _EXPONENT_RE.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _integers(text: str) -> tuple:
    """Comma-separated integers, each read by _integer."""
    return tuple(map(_integer, text.split(",")))


def _descriptor_from_json(text: str) -> LndDescriptor:
    hook = functools.partial(_json_object, error=InadmissibleDescriptor)
    try:
        data = json.loads(text, object_pairs_hook=hook)
    except InputError:  # a repeated field
        raise
    except (ValueError, RecursionError) as exc:  # also too deep, or past the digit limit
        raise InadmissibleDescriptor(f"descriptor is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or "kind" not in data:
        raise InadmissibleDescriptor('descriptor must be an object with a "kind" field')
    unknown = set(data) - {"kind", "k", "c", "roles", "param"}
    if unknown:
        raise InadmissibleDescriptor(f"unknown descriptor fields: {sorted(unknown)}")
    param = data.get("param")
    if param is not None:
        if not isinstance(param, str):
            raise InadmissibleDescriptor("param must be a scalar string such as \"1+i\"")
        param = gq_parse(param)
    k = data.get("k")
    if k is not None and not _is_int(k):
        raise InadmissibleDescriptor(f"k must be an integer, got {json.dumps(k)}")
    c = data.get("c")
    roles = data.get("roles")
    for name, value in (("c", c), ("roles", roles)):
        if value is not None and (
            not isinstance(value, list) or not all(_is_int(x) for x in value)
        ):
            raise InadmissibleDescriptor(
                f"{name} must be a list of integers, got {json.dumps(value)}"
            )
    return LndDescriptor(
        kind=data["kind"],
        k=k,
        c=tuple(c) if c is not None else None,
        roles=tuple(roles) if roles is not None else None,
        param=param,
    )


def _degree_info(degree, grading):
    return {"degree": list(degree), "degree_label": grading.format_weight(degree)}


def cmd_analyze(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    _emit(class_report(P, args.expand).to_dict())
    return EXIT_OK


def cmd_lnds(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    records = []
    expanded_count = 0
    # the instances are dropped with the loop, before the report is encoded
    for inst in enumerate_lnds(P, _parse_lambdas(args.lambdas), expand=args.expand):
        record = {"descriptor": inst.descriptor.to_dict()}
        if not args.expand:
            expanded_count += 1 if inst.orbit is None else inst.orbit.size
            if inst.orbit is not None:
                record["orbit"] = inst.orbit.to_dict()
        if inst.derivation is None:
            record["error"] = inst.error
        else:
            record["images"] = inst.derivation.image_strings()
            if not inst.derivation.is_zero():
                record.update(_degree_info(inst.degree_shift(), P.grading))
        records.append(record)
    out = {"presentation": P.to_input_dict(), "count": len(records)}
    if not args.expand:
        out["expanded_count"] = expanded_count
    out["lnds"] = records
    _emit(out)
    return EXIT_OK


def cmd_kernel(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    desc = _descriptor_from_json(args.descriptor)
    # one construction gives both the kernel and the derivation
    construction = _Construction(P, desc)
    gens = construction.kernel(desc.param)
    out = {
        "presentation": P.to_input_dict(),
        "descriptor": desc.to_dict(),
        "kernel": [poly_format(g) for g in gens],
    }
    if args.member is not None:
        member = poly_parse(args.member, allowed=P.generators)
        delta = construction.build(desc.param)
        out["member"] = {
            "poly": poly_format(member),
            "in_kernel": kernel_member(delta, member),
        }
    _emit(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    # every check runs on the packed images; Poly images are built only for
    # a residue
    delta = derivation_from_text(P, _read_text(args.derivation))
    if args.cap < 1:  # refused before any check, whatever the derivation
        raise InvalidArgument("cap must be at least 1")
    out = {"presentation": P.to_input_dict()}
    report = is_well_defined(delta)
    out["well_defined"] = report.ok
    if not report.ok:
        out["relation_index"] = report.relation_index
        out["residue"] = poly_format(report.residue)
        out["verified"] = False
        _emit(out)
        return EXIT_VERIFICATION
    try:
        info = None
        if not delta.is_zero():
            info = _degree_info(derivation_degree(delta, P.grading), P.grading)
    except NonHomogeneous as exc:
        out["homogeneous"] = False
        out["witness"] = str(exc)
        out["verified"] = False
        _emit(out)
        return EXIT_VERIFICATION
    out["homogeneous"] = True
    if info:
        out.update(info)
    nil = nilpotency_check(delta, cap=args.cap)
    out["nilpotency"] = {
        "status": nil.status,
        "cap": nil.cap,
        "index": nil.index,
        **nil.evidence(),
    }
    out["verified"] = nil.verified
    _emit(out)
    if nil.verified:
        return EXIT_OK
    return EXIT_VERIFICATION if nil.status == "refuted" else EXIT_INCONCLUSIVE


def cmd_oracle(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    weights = None
    if args.weight:
        weights = []
        for chunk in args.weight:
            try:
                weights.append(_integers(chunk))
            except (ValueError, argparse.ArgumentTypeError):  # also past the digit limit
                raise InvalidArgument(
                    f"weight {chunk!r} must be comma-separated integers"
                ) from None
    report = oracle_enumerate(
        P,
        weights=weights,
        degree_bound=args.bound,
        cap=args.cap,
        max_unknowns=args.max_unknowns,
    )
    _emit(report.to_dict())
    return EXIT_OK


def cmd_demazure(args) -> int:
    try:
        ray1, ray2 = map(_integers, args.rays.split(":"))
    except (ValueError, argparse.ArgumentTypeError):
        raise InvalidArgument('rays must look like "x1,y1:x2,y2"') from None
    cone = Cone2D(ray1, ray2)
    family = demazure_roots(cone, args.ray)
    out = family.to_dict()
    out["rays"] = [list(cone.ray1), list(cone.ray2)]
    if args.materialize is not None:
        out["member"] = {
            "p": args.materialize,
            "root": list(family.root(args.materialize)),
        }
    _emit(out)
    return EXIT_OK


def cmd_normalize(args) -> int:
    P = TrinomialPresentation.from_json(_read_text(args.presentation))
    _emit(all_ones_rescaling(P).to_dict())
    return EXIT_OK


# Built once per process: parse_args leaves the parser as it was, and
# argparse looks up stderr and the terminal width only when it prints.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilnd",
        description="classify and verify graded locally nilpotent derivations "
        "of trinomial algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    expand_help = (
        "list every admissible tuple of an orbit of equal-exponent tuples, "
        "instead of one record per orbit"
    )
    p = sub.add_parser("analyze", help="full classification report")
    p.add_argument("--presentation", required=True, help="path to a presentation JSON file")
    p.add_argument("--expand", action="store_true", help=expand_help)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("lnds", help="materialize one derivation per class")
    p.add_argument("--presentation", required=True)
    p.add_argument(
        "--lambdas",
        help="comma-separated parameter samples for infinite families, e.g. 0,1,-1,i",
    )
    p.add_argument("--expand", action="store_true", help=expand_help)
    p.set_defaults(func=cmd_lnds)

    p = sub.add_parser("kernel", help="kernel generators of a described derivation")
    p.add_argument("--presentation", required=True)
    p.add_argument(
        "--descriptor",
        required=True,
        help='derivation descriptor JSON, e.g. {"kind":"t2c","c":[1,1,1],"roles":[0,1,2],"param":"i"}',
    )
    p.add_argument("--member", help="polynomial to test for kernel membership")
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("verify", help="check a derivation given as gen = poly lines")
    p.add_argument("--presentation", required=True)
    p.add_argument("--derivation", required=True, help="path to the derivation text file")
    p.add_argument("--cap", type=_integer, default=64, help="nilpotency iteration cap")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="linear-algebra search per degree")
    p.add_argument("--presentation", required=True)
    p.add_argument(
        "--weight",
        action="append",
        help="degree shift as comma-separated integers; repeatable; "
        "defaults to the classifier-induced box",
    )
    p.add_argument("--bound", type=_integer, default=4, help="image degree bound")
    p.add_argument("--cap", type=_integer, default=64, help="nilpotency iteration cap (default 64)")
    p.add_argument("--max-unknowns", type=_integer, default=600, dest="max_unknowns")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("demazure", help="root family of a ray of a plane cone")
    p.add_argument("--rays", required=True, help='cone rays as "x1,y1:x2,y2"')
    p.add_argument("--ray", type=_integer, required=True, choices=(1, 2))
    p.add_argument(
        "--materialize", type=_integer, help="also output the p-th member of the family"
    )
    p.set_defaults(func=cmd_demazure)

    p = sub.add_parser(
        "normalize", help="rescale variables so all trinomial coefficients become 1"
    )
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=cmd_normalize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            return args.func(args)
        except BrokenPipeError:  # an OSError, but no input error
            raise
        except _INPUT_ERRORS as exc:
            error, code = exc, EXIT_INPUT
        except Exception as exc:
            if not isinstance(exc, InternalError):
                # a bug no self-check caught: its traceback goes to stderr.
                # Imported here so that no command loads traceback at start-up.
                import traceback

                traceback.print_exc()
            error, code = exc, EXIT_INTERNAL
        _emit({"error": str(error), "kind": type(error).__name__})
        return code
    except BrokenPipeError:
        # nobody reads stdout any more, whether for a report or for an
        # error; dropping it keeps the flush at interpreter exit from
        # failing again on what is still buffered
        sys.stdout = None
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Subcommands: check, glue-delta, glue-theta, ideal, reduce, random,
export-dot.  Posets and complexes travel as JSON files; anywhere a complex
file is expected, an inline facet string like "a*b*c,b*c*d" also works.

Exit codes: 0 success, 1 unreadable or malformed input, 2 violated
precondition, size guard or memory limit, 3 invalid gluing spec.

``run`` parses with one parser per process, ``_parser``, built by
``build_parser`` on the first ``run`` and kept: building it costs about
ten times a parse, which a process that runs the CLI many times (a batch
of ``random`` chunks, a script that embeds the CLI) would pay on every
call.  A shell invocation runs once and so still builds one parser.
Reuse is safe because ``parse_args`` returns a new namespace on each call
and only reads the parser, and because no action of the parser has a
mutable default (no ``append``, ``extend`` or list default), the one way
an argparse parser carries state from one parse to the next.
``build_parser`` still returns a fresh parser on each call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .complexes import SimplicialComplex, parse_facet_string
from .errors import (
    ElementNotFoundError,
    FormatError,
    InvalidGluingError,
    MeetUndefinedError,
    PreconditionError,
    SizeLimitError,
    StructureError,
)
from .gluing import GluingSpec, delta_glue, theta_glue
from .ideal import reduce_face_poset_ideal, stanley_poset_ideal
from .poset import Poset, _loads
from .random_model import RandomModelParams, run_batch


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _loads(fh.read())
        except (FormatError, UnicodeDecodeError) as exc:  # a UnicodeDecodeError is a ValueError, which would exit 2
            raise FormatError(f"{path}: {exc}") from None


def _load_poset(path) -> Poset:
    return Poset.from_json_dict(_read_json(path))


def _load_complex(arg) -> SimplicialComplex:
    if os.path.exists(arg):
        return SimplicialComplex.from_json_dict(_read_json(arg))
    return parse_facet_string(arg)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _bool_word(value) -> str:
    return "true" if value else "false"


def _cmd_check(args) -> int:
    if args.poset:
        p = _load_poset(args.poset)
    else:
        p = _load_complex(args.complex).face_poset()
    if args.test == "simplicial":
        print(_bool_word(p.is_simplicial()))
    else:
        print(_bool_word(p.is_face_poset()))
    return 0


def _cmd_glue_delta(args) -> int:
    a = _load_poset(args.a)
    b = _load_poset(args.b)
    spec = GluingSpec.from_json_dict(_read_json(args.spec))
    try:
        out = delta_glue(a, b, dict(spec.facet_map), dict(spec.atom_map))
    except (InvalidGluingError, ElementNotFoundError) as exc:
        print(str(exc), file=sys.stderr)
        return 3
    _write_text(args.out, out.to_json())
    return 0


def _cmd_glue_theta(args) -> int:
    d1 = _load_complex(args.a)
    d2 = _load_complex(args.b)
    out = theta_glue(d1, d2)
    _write_text(args.out, out.to_json())
    return 0


def _write_lines(lines):
    """Each line and a newline, in one write; nothing for no lines."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _cmd_ideal(args) -> int:
    _write_lines(stanley_poset_ideal(_load_poset(args.poset)).render_lines())
    return 0


def _cmd_reduce(args) -> int:
    _write_lines(reduce_face_poset_ideal(_load_poset(args.poset)).render_lines())
    return 0


_SAMPLE_JSON = (
    '    {\n      "seed": %d,\n      "is_face_poset": %s,\n      "atoms": %d,\n      "elements": %d\n    }'
)


def _batch_json(batch) -> str:
    """``json.dumps(batch, indent=2) + "\\n"`` for a ``run_batch`` result,
    in one pass: the head through ``json.dumps``, and each per-sample
    record through one fixed template."""
    head = json.dumps({key: value for key, value in batch.items() if key != "per_sample"}, indent=2)
    records = [
        _SAMPLE_JSON % (s["seed"], _bool_word(s["is_face_poset"]), s["atoms"], s["elements"])
        for s in batch["per_sample"]
    ]
    return head[:-2] + ',\n  "per_sample": [\n' + ",\n".join(records) + "\n  ]\n}\n"


def _cmd_random(args) -> int:
    params = RandomModelParams(n=args.n, p1=args.p1, p2=args.p2, seed=args.seed)
    batch = run_batch(params, args.count)
    text = _batch_json(batch)
    if args.tally:
        print(f"faceposet: {batch['face_poset_count']}/{batch['samples']}")
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export_dot(args) -> int:
    sys.stdout.write(_load_poset(args.poset).to_dot())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simposets",
        description="Simplicial posets: checks, gluings, ideals, random samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a predicate on a poset or complex")
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--poset", metavar="FILE")
    grp.add_argument("--complex", metavar="FILE_OR_FACETS")
    c.add_argument("--test", choices=["simplicial", "faceposet"], required=True)
    c.set_defaults(func=_cmd_check)

    d = sub.add_parser("glue-delta", help="glue two posets along an ideal isomorphism")
    d.add_argument("--a", metavar="FILE", required=True)
    d.add_argument("--b", metavar="FILE", required=True)
    d.add_argument("--spec", metavar="FILE", required=True)
    d.add_argument("--out", metavar="FILE", required=True)
    d.set_defaults(func=_cmd_glue_delta)

    t = sub.add_parser("glue-theta", help="glue two complexes along shared faces")
    t.add_argument("--a", metavar="FILE_OR_FACETS", required=True)
    t.add_argument("--b", metavar="FILE_OR_FACETS", required=True)
    t.add_argument("--out", metavar="FILE", required=True)
    t.set_defaults(func=_cmd_glue_theta)

    i = sub.add_parser("ideal", help="print the defining ideal of a simplicial poset")
    i.add_argument("--poset", metavar="FILE", required=True)
    i.set_defaults(func=_cmd_ideal)

    r = sub.add_parser("reduce", help="print the reduced monomial ideal of a face poset")
    r.add_argument("--poset", metavar="FILE", required=True)
    r.set_defaults(func=_cmd_reduce)

    g = sub.add_parser("random", help="sample random simplicial posets")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p1", type=float, required=True)
    g.add_argument("--p2", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--tally", action="store_true")
    g.add_argument("--out", metavar="FILE")
    g.set_defaults(func=_cmd_random)

    e = sub.add_parser("export-dot", help="write a poset as graphviz DOT")
    e.add_argument("--poset", metavar="FILE", required=True)
    e.set_defaults(func=_cmd_export_dot)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``run``, built on the first call; safe to share only
    while no action has a mutable default (see the module docstring)."""
    return build_parser()


def run(argv) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, StructureError, ElementNotFoundError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionError, SizeLimitError, MeetUndefinedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. the n x n order matrix of a huge --poset file
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))

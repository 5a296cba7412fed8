"""Command-line surface: the Report type, the file reader and writer,
the parser and ``run``.

Output is line-oriented "key: value" text with TSV blocks for tables;
--json emits the same data as one JSON document. Exit codes: 0 success,
1 usage, 2 input parse/validation or an output that cannot be written,
3 budget exceeded (bounds reported). Start-up imports argparse and
nothing else: each subparser names its ``_cmd_<name>`` function in
``odsk.commands``, which ``run`` imports once the arguments have
parsed, and every other import waits for the function that needs it.
``run`` writes a subcommand's output, or the budget report, to stdout
or to the -o file.
"""

import argparse
import sys

from . import __getattr__  # odsk.cli.concepts and the like: the package's names


class Report:
    """Ordered key/value scalars plus named TSV tables."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key: str, value):
        self.items.append((key, value))

    def add_table(self, key: str, header: list[str], rows: list[list]):
        self.items.append((key, {"header": header, "rows": rows}))

    def emit(self, as_json: bool) -> str:
        if as_json:
            import json
            from decimal import Decimal
            doc = {}
            for key, value in self.items:
                if isinstance(value, dict) and "header" in value:
                    doc[key] = [dict(zip(value["header"], map(str, row)))
                                for row in value["rows"]]
                else:
                    doc[key] = value
            # json.dumps(doc, indent=2) field by field, because the json
            # module cannot write a Decimal as a number
            fields = [f"  {json.dumps(key, ensure_ascii=False)}: " + (
                str(value) if isinstance(value, Decimal) else
                json.dumps(value, ensure_ascii=False, indent=2).replace("\n", "\n  "))
                for key, value in doc.items()]
            return ("{\n" + ",\n".join(fields) + "\n}\n") if fields else "{}\n"
        lines = []
        for key, value in self.items:
            if isinstance(value, dict) and "header" in value:
                lines.append(f"{key}:")
                lines.append("\t".join(value["header"]))
                for row in value["rows"]:
                    lines.append("\t".join(str(c) for c in row))
            else:
                lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    from .errors import OdskError, ParseError
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OdskError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc}") from exc


def _write(text: str, path: str | None) -> None:
    """Write to the file ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    from .errors import OdskError
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OdskError(f"cannot write {path}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="odsk", description="Ordinal data analysis toolkit")
    top.add_argument("--json", action="store_true", help="emit JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("concepts", help="enumerate formal concepts")
    p.add_argument("context")
    common(p)
    p.set_defaults(func="_cmd_concepts")

    p = sub.add_parser("implications", help="Duquenne-Guigues canonical base")
    p.add_argument("context")
    common(p)
    p.set_defaults(func="_cmd_implications")

    p = sub.add_parser("guttman", help="Ferrers/Guttman scale test")
    p.add_argument("context")
    common(p)
    p.set_defaults(func="_cmd_guttman")

    p = sub.add_parser("complete", help="Dedekind-MacNeille completion")
    p.add_argument("poset")
    common(p)
    p.set_defaults(func="_cmd_complete")

    p = sub.add_parser("dimension", help="order dimension with realizer")
    p.add_argument("poset")
    p.add_argument("--spec", default=None, help="scaling spec for .csv input")
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--no-quotient", action="store_true",
                   help="leave scale ties incomparable (strict domination)")
    p.add_argument("--verify-points", action="store_true",
                   help="check Pts = 3*W + D on a .csv table input")
    common(p)
    p.set_defaults(func="_cmd_dimension")

    p = sub.add_parser("pareto", help="Pareto maxima of a scaled table")
    p.add_argument("table")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func="_cmd_pareto")

    p = sub.add_parser("scale", help="conceptual scaling to a CXT context")
    p.add_argument("table")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func="_cmd_scale")

    p = sub.add_parser("factors", help="ordinal factorization")
    p.add_argument("context")
    p.add_argument("-k", type=int, required=True)
    common(p)
    p.set_defaults(func="_cmd_factors")

    om = sub.add_parser("omspace", help="ordered metric space analytics")
    omsub = om.add_subparsers(dest="subcommand", required=True)
    p = omsub.add_parser("distortion", help="relational distortion")
    p.add_argument("poset")
    p.add_argument("distances")
    p.add_argument("--reflexive-close", action="store_true")
    common(p)
    p.set_defaults(func="_cmd_distortion")
    p = omsub.add_parser("mediate", help="context-mediated attribute metric")
    p.add_argument("context")
    p.add_argument("distances")
    common(p)
    p.set_defaults(func="_cmd_mediate")

    p = sub.add_parser("draw", help="order diagram to SVG/DOT")
    p.add_argument("input", help="poset .tsv or context .cxt")
    p.add_argument("--algo", choices=("dimdraw", "layered"), default="dimdraw")
    p.add_argument("--budget-ms", type=int, default=None)
    p.add_argument("--reduced-labels", action="store_true")
    p.add_argument("-o", "--output", default=None, dest="drawing", metavar="OUTPUT")
    p.set_defaults(func="_cmd_draw")

    return top


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    import warnings
    from . import commands
    from .errors import BudgetExceeded, OdskError
    try:
        try:
            with warnings.catch_warnings():  # shown as plain "warning: <message>" lines
                warnings.showwarning = lambda message, *_: sys.stderr.write(f"warning: {message}\n")
                out = getattr(commands, args.func)(args)
        except BudgetExceeded as exc:
            rep = Report()
            rep.add("error", "budget exceeded")
            rep.add("detail", str(exc))
            for key, bound in (("lower_bound", exc.lower), ("upper_bound", exc.upper)):
                if bound is not None:
                    rep.add(key, bound)
            out = rep, 3
        out, code = out if isinstance(out, tuple) else (out, 0)
        # draw's -o names its drawing, so its quality report goes to stdout
        _write(out if isinstance(out, str) else out.emit(args.json), getattr(args, "output", None))
        return code
    except OdskError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

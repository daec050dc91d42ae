"""Command-line driver for the kernel-subgroup toolkit.

Each subcommand delegates to exactly one library operation and prints a
machine-readable report on standard output.  One exit-code contract
holds everywhere: 0 means verified success, 1 means verification
failure or bad input, 2 means a search budget ran out before a verdict.
"Don't know" and "no" are deliberately different codes — the reports
feed experiment logs, and conflating them would corrupt the record.

Each subcommand takes only the flags it reads: `--format`, and the search
budgets of the searches it runs (`_BUDGETS` below).  Any other flag is bad
input, exit 1.

Output bytes are a function of the flags and inputs alone; rerunning a
command reproduces its output exactly.  Nothing samples: every subcommand
here is deterministic, so none takes a seed.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import re
import sys
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import jsonout
from .words import WordParseError, parse_factors, to_text
from .abelian import FactorHom, ab_image, normalize_basis
from .kernels import (KernelGroup, ProductElement, contains,
                      rewrite_in_generators, standard_generators, theta)
from .splitting import SplittingData, reassemble, syllable_form
from .presentations import (DEFAULT_LEN_CAP_FACTOR, DEFAULT_NODE_CAP,
                            area_search, dehn_function, parse_presentation,
                            with_abelian_evaluation)
from .metrics import (_check_h_index, ambient_length, distance,
                      distortion_table, h_family)
from .certificates import (CertificateError, lower_bound_report,
                           toy_amalgam_check)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2


class _ArgParser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; our contract reserves 2."""

    def error(self, message):
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


_GROUP_RE = re.compile(r"^K(\d+)_(\d+)_(\d+)$")
_H_RE = re.compile(r"^h\((\d+)\)$")


def _parse_group(text: str) -> KernelGroup:
    m = _GROUP_RE.match(text.strip())
    if not m:
        raise ValueError(f"group descriptor {text!r} is not of the form"
                         " K<n>_<m>_<r>")
    return KernelGroup(*(int(g) for g in m.groups()))


def _parse_element(G: KernelGroup, text: str) -> ProductElement:
    count = text.count(";") + 1
    if count != G.n:
        raise ValueError(f"expected {G.n} factor words separated by ';',"
                         f" got {count}")
    return ProductElement(parse_factors(G.factor_group(), text))


def _parse_rows(text: str) -> FactorHom:
    rows = []
    for part in text.split(";"):
        entries = part.replace(",", " ").split()
        if not entries:
            raise ValueError("empty matrix row")
        rows.append([int(v) for v in entries])
    if len({len(r) for r in rows}) != 1:
        raise ValueError("matrix rows must all have the same length")
    return FactorHom(len(rows), len(rows[0]), rows)


# -- output -------------------------------------------------------------------

Rows = Tuple[Sequence[str], List[Sequence[object]]]


def _cell(value) -> str:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return str(value)
    return json.dumps(value, sort_keys=True)


def _render(payload: dict, fmt: str, rows: Optional[Rows] = None) -> str:
    if fmt == "json":
        return jsonout.dumps(payload) + "\n"
    if fmt == "csv":
        import csv   # here: only --format csv reads it
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows is not None:
            header, data = rows
            writer.writerow(header)
            writer.writerows(data)
        else:
            keys = sorted(payload)
            writer.writerow(keys)
            writer.writerow([_cell(payload[k]) for k in keys])
        return buf.getvalue()
    if rows is not None:
        header, data = rows
        table = [list(map(_cell, header))] + [list(map(_cell, r)) for r in data]
        widths = [max(len(row[i]) for row in table) for i in range(len(header))]
        return "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            + "\n" for row in table)
    return "".join(f"{k} = {_cell(v)}\n" for k, v in payload.items())


class _Outcome(NamedTuple):
    payload: dict
    code: int
    rows: Optional[Rows] = None
    default_format: str = "table"


# -- subcommands --------------------------------------------------------------

def cmd_member(args) -> _Outcome:
    G = _parse_group(args.group)
    g = _parse_element(G, args.element)
    vec = theta(G, g)
    member = vec == (0,) * G.r
    payload = {"group": repr(G), "element": repr(g),
               "abelian_image": list(vec), "member": member}
    return _Outcome(payload, EXIT_OK if member else EXIT_FAIL)


def cmd_rewrite(args) -> _Outcome:
    G = _parse_group(args.group)
    g = _parse_element(G, args.element)
    if not contains(G, g):
        raise ValueError("element is not in the kernel; nothing to rewrite")
    w = rewrite_in_generators(G, g)
    round_trip = w.eval() == g
    payload = {"group": repr(G), "element": repr(g), "word": w.to_text(),
               "symbols": len(w), "round_trip": round_trip}
    return _Outcome(payload, EXIT_OK if round_trip else EXIT_FAIL)


def cmd_normalize_basis(args) -> _Outcome:
    h = _parse_rows(args.rows)
    change = normalize_basis(h)
    ok = FactorHom(h.rank, h.target_rank,
                   [ab_image(h, w) for w in change.new_basis]).is_standard()
    payload = {"rows": [list(r) for r in h.images],
               "new_basis": [to_text(w) for w in change.new_basis],
               "inverse_basis": [to_text(w) for w in change.inverse_basis],
               "moves": len(change.moves), "verified": ok}
    return _Outcome(payload, EXIT_OK if ok else EXIT_FAIL)


def cmd_split(args) -> _Outcome:
    G = _parse_group(args.group)
    if G.r != G.m:
        raise ValueError("splitting needs the full kernel, r = m")
    D = SplittingData(G.n, G.m)
    g = _parse_element(G, args.element)
    form = syllable_form(D, g)
    hat = "".join(
        f"{D.hat_group.names[k - 1]}^{e} " for k, e in form.blocks).strip()
    ok = reassemble(D, form.m_part,
                    D.hat_group.word(hat or "1")) == g
    payload = {"group": repr(G), "element": repr(g),
               "m_part": [to_text(w) for w in form.m_part.factors],
               "blocks": [[k, e] for k, e in form.blocks],
               "reassembled": ok}
    return _Outcome(payload, EXIT_OK if ok else EXIT_FAIL)


def cmd_area(args) -> _Outcome:
    P = parse_presentation(args.presentation)
    w = P.word(args.word)
    res = area_search(P, w, node_cap=args.node_cap,
                      len_cap_factor=args.len_cap_factor)
    payload = {"presentation": P.to_text(), "word": to_text(w)}
    payload.update(res.to_json())
    if res.status == "exact":
        code = EXIT_OK
    elif res.regime_empty:
        code = EXIT_FAIL  # proven impossible: the word is not null-homotopic
    else:
        code = EXIT_INCONCLUSIVE
    return _Outcome(payload, code)


def cmd_dehn(args) -> _Outcome:
    P = with_abelian_evaluation(parse_presentation(args.presentation))
    res = dehn_function(P, args.n, node_cap=args.node_cap,
                        len_cap_factor=args.len_cap_factor)
    payload = {"presentation": P.to_text()}
    payload.update(res.to_json())
    return _Outcome(payload, EXIT_OK if res.exact else EXIT_INCONCLUSIVE)


def cmd_metric(args) -> _Outcome:
    G = _parse_group(args.group)
    gens = standard_generators(G)
    m = _H_RE.match(args.target.strip())
    if m:
        g = h_family(int(m.group(1)), G)
    else:
        g = _parse_element(G, args.target)
        if not contains(G, g):
            raise ValueError("target is outside the subgroup; no distance")
    res = distance(gens, g, args.radius)
    payload = {"group": repr(G), "target": repr(g),
               "ambient_length": ambient_length(g), "radius": args.radius,
               "explored": res.explored}
    if res.found:
        payload["distance"] = res.value
        return _Outcome(payload, EXIT_OK)
    payload["certificate"] = f"distance > {res.radius}"
    return _Outcome(payload, EXIT_INCONCLUSIVE)


def cmd_distortion(args) -> _Outcome:
    if args.n_max < 1:
        raise ValueError("--n-max must be at least 1")
    rows = distortion_table(range(1, args.n_max + 1), args.radius)
    header = ("n", "ambient_length", "status", "value")
    data = [list(r) for r in rows]
    payload = {"rows": [dict(zip(header, r)) for r in data]}
    return _Outcome(payload, EXIT_OK, rows=(header, data))


# certify's report grows like n^2 (it prints a kernel word of about 3n^2
# symbols and n^2 conjugated relators): n = 256 prints 9.5 MB, takes
# 3-5 s and peaks at 125-127 MB on a 2-vCPU VM, so larger n is refused
_CERTIFY_MAX_N = 256


def cmd_certify(args) -> _Outcome:
    if args.n > _CERTIFY_MAX_N:
        _check_h_index(args.n)      # an h_n past the letter cap exits 1
        payload = {"n": args.n, "max_n": _CERTIFY_MAX_N, "status": "refused",
                   "reason": f"certify takes n <= {_CERTIFY_MAX_N}: its"
                             " report grows like n^2"}
        return _Outcome(payload, EXIT_INCONCLUSIVE, default_format="json")
    rep = lower_bound_report(args.n)
    return _Outcome(rep.to_json(), EXIT_OK, default_format="json")


def cmd_toy_amalgam(args) -> _Outcome:
    rep = toy_amalgam_check(args.k, args.n, node_cap=args.node_cap)
    codes = {"verified-bound": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE,
             "refuted": EXIT_FAIL}
    return _Outcome(rep.to_json(), codes[rep.status], default_format="json")


# -- wiring -------------------------------------------------------------------

# the budget flags, each given only to the subcommands that read it:
# dest -> (flag, default, least accepted value, help)
_BUDGETS = {
    "node_cap": ("--node-cap", DEFAULT_NODE_CAP, 1,
                 "search node budget; it also sets the push cap to 8 times"
                 " this value, and the push cap is often the budget that"
                 " stops a search"),
    "len_cap_factor": ("--len-cap-factor", DEFAULT_LEN_CAP_FACTOR, 1,
                       "intermediate words may exceed the input by this"
                       " many relator lengths"),
    "radius": ("--radius", 6, 0, "ball radius for subgroup-metric searches"),
}


def _check_budgets(args: argparse.Namespace) -> None:
    for dest, (flag, _, least, _) in _BUDGETS.items():
        if getattr(args, dest, least) < least:
            raise ValueError(f"{flag} must be at least {least}")


def _command(sub, name: str, func, summary: str, *budgets: str
             ) -> _ArgParser:
    """A subcommand parser with `--format` and the named budget flags."""
    p = sub.add_parser(name, help=summary)
    for dest in budgets:
        flag, default, _, text = _BUDGETS[dest]
        p.add_argument(flag, type=int, default=default, help=text)
    p.add_argument("--format", choices=("table", "csv", "json"),
                   default=None, help="output format (default: table,"
                   " except certify/toy-amalgam which default to json)")
    p.set_defaults(func=func)
    return p


def build_parser() -> _ArgParser:
    parser = _ArgParser(prog="kgroups",
                        description="kernel subgroups of products of free"
                                    " groups: membership, rewriting, area"
                                    " search, metrics, certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "member", cmd_member,
                 "decide membership in the kernel")
    p.add_argument("--group", required=True, help="descriptor K<n>_<m>_<r>")
    p.add_argument("--element", required=True,
                   help="factor words separated by ';'")

    p = _command(sub, "rewrite", cmd_rewrite,
                 "rewrite a kernel element over the standard generators")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True)

    p = _command(sub, "normalize-basis", cmd_normalize_basis,
                 "find a basis on which a map to Z^r is standard")
    p.add_argument("--rows", required=True,
                   help="generator images, rows separated by ';'")

    p = _command(sub, "split", cmd_split,
                 "semidirect decomposition along the last factor")
    p.add_argument("--group", required=True)
    p.add_argument("--element", required=True)

    p = _command(sub, "area", cmd_area,
                 "minimal-area null expression for a word",
                 "node_cap", "len_cap_factor")
    p.add_argument("--presentation", required=True,
                   help='e.g. "< x, y | [x,y] >"')
    p.add_argument("--word", required=True)

    p = _command(sub, "dehn", cmd_dehn,
                 "max area over null-homotopic words of bounded length,"
                 " for a presentation of Z^rank, one search per symmetry"
                 " orbit",
                 "node_cap", "len_cap_factor")
    p.add_argument("--presentation", required=True,
                   help="a presentation of Z^rank: every commutator"
                        " [e_i,e_j] must be a relator, and every relator"
                        " null in Z^rank")
    p.add_argument("--n", type=int, required=True, help="word-length bound")

    p = _command(sub, "metric", cmd_metric,
                 "word metric on the subgroup via ball search", "radius")
    p.add_argument("--group", required=True)
    p.add_argument("--target", required=True,
                   help="factor words separated by ';', or h(<n>)")

    p = _command(sub, "distortion", cmd_distortion,
                 "distance vs ambient length for the h(n) family", "radius")
    p.add_argument("--n-max", type=int, default=3)

    p = _command(sub, "certify", cmd_certify,
                 "certified area lower bound for the n-th test word")
    p.add_argument("--n", type=int, required=True)

    p = _command(sub, "toy-amalgam", cmd_toy_amalgam,
                 "check Area >= 2n*d on the glued toy group", "node_cap")
    p.add_argument("--k", type=int, default=1, help="power of the edge"
                                                    " generator")
    p.add_argument("--n", type=int, default=1, help="commuting power in the"
                                                    " test word")

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _ArgParser:
    """The parser, built on the first call and reused by later ones."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_budgets(args)
        out = args.func(args)
    except (WordParseError, ValueError, CertificateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAIL
    fmt = args.format or out.default_format
    sys.stdout.write(_render(out.payload, fmt, out.rows))
    return out.code


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: map grammar, job configs, and reference runs.

Map expressions follow

    map  := term (("+"|"-") term)*
    term := coef "/" "(" "z" (("-"|"+") cnum)? ")"
    cnum := number | "(" number ("+"|"-") number "i" ")"

with whitespace ignored, "(z)" denoting a pole at 0, and a leading "-"
negating the first residue.  coef is a plain number in the base grammar; a
parenthesized complex coef is also accepted so that format_map can round-trip
maps with non-real residues.

Subcommands: check (goodness only), bounds (CSV of bracket rows), trace
(boundary CSV / SVG), verdict (full text report), repro (rerun a built-in
example against its published reference values).

Every subcommand runs in two phases, and the phase picks the exit code.
_job reads and checks the map, the config file and the flags; run does the
numerics.  Exit codes: 0 success; 2 when the job was wrong before any
numerics: a parse error, a bad config or parameter, a map that is not good,
or an output path that cannot be written; 3 for any other failure inside
the numerics, numpy's LinAlgError included.
"""

import argparse
import errno
import os
import re
import sys

from . import boundary, capacity
from .closedform import rotational_map
from .errors import CapaxError, InvalidMap, ParseError
from .ratmap import Goodness, RationalMapPF, is_n_good

_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def _skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.i)
        self.i += 1

    def number(self):
        self._skip_ws()
        m = _NUM_RE.match(self.text, self.i)
        if not m:
            raise ParseError("expected a number", self.i)
        self.i = m.end()
        return float(m.group())

    def at_end(self):
        return self.peek() == ""


def _parse_cnum(s):
    """number, or '(' number ('+'|'-') number 'i' ')'."""
    if s.peek() == "(":
        s.take("(")
        re_part = s.number()
        op = s.peek()
        if op not in "+-":
            raise ParseError("expected '+' or '-' in complex literal", s.i)
        s.i += 1
        im_part = s.number()
        s.take("i")
        s.take(")")
        return complex(re_part, im_part if op == "+" else -im_part)
    return complex(s.number(), 0.0)


def parse_map(text):
    """Parse a map expression into a RationalMapPF.

    ParseError carries the failing offset; InvalidMap carries the index of a
    term with a duplicate pole or an effectively zero residue.
    """
    s = _Scanner(text)
    if s.at_end():
        raise ParseError("empty map expression", 0)
    terms = []
    sign = 1.0
    if s.peek() == "-":
        s.i += 1
        sign = -1.0
    while True:
        coef = _parse_cnum(s)
        s.take("/")
        s.take("(")
        s.take("z")
        ch = s.peek()
        if ch in "+-":
            s.i += 1
            c = _parse_cnum(s)
            pole = c if ch == "-" else -c
        else:
            pole = 0j
        s.take(")")
        residue = sign * coef
        idx = len(terms)
        if abs(residue) <= 1e-15:
            raise InvalidMap("residue is zero", idx)
        for _, p in terms:
            if abs(pole - p) <= 1e-10:
                raise InvalidMap(f"duplicate pole {pole}", idx)
        terms.append((residue, pole))
        if s.at_end():
            break
        ch = s.peek()
        if ch not in "+-":
            raise ParseError("expected '+' or '-' between terms", s.i)
        s.i += 1
        sign = 1.0 if ch == "+" else -1.0
    return RationalMapPF.from_terms(terms)


def _fmt17(x):
    x = float(x) + 0.0  # normalize -0.0
    return f"{x:.17g}"


def _fmt_cnum(c):
    op = "+" if c.imag >= 0 else "-"
    return f"({_fmt17(c.real)}{op}{_fmt17(abs(c.imag))}i)"


def format_map(R):
    """Inverse of parse_map at 17 significant digits: parse_map(format_map(R))
    reconstructs R bit for bit."""
    parts = []
    for idx, (a, p) in enumerate(R.terms):
        neg = a.real < 0 or (a.real == 0 and a.imag < 0)
        body = -a if neg else a
        coef = _fmt17(body.real) if body.imag == 0 else _fmt_cnum(body)
        if p == 0:
            pole_txt = "z"
        elif p.imag == 0:
            op = "-" if p.real > 0 else "+"
            pole_txt = f"z{op}{_fmt17(abs(p.real))}"
        else:
            flip = p.real < 0 or (p.real == 0 and p.imag < 0)
            op = "+" if flip else "-"
            pole_txt = f"z{op}{_fmt_cnum(-p if flip else p)}"
        sep = "-" if neg else "+"
        if idx == 0:
            parts.append(("-" if neg else "") + f"{coef}/({pole_txt})")
        else:
            parts.append(f"{sep}{coef}/({pole_txt})")
    return "".join(parts)


def validate_params(kmax, nodes, tol):
    """The argument checks every subcommand applies; ValueError on failure.
    nodes=None leaves the resolution to the program."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if nodes is not None and not boundary.valid_n(nodes):
        raise ValueError(f"nodes must be a power of two in [64, {boundary.MAX_N}]")
    if not tol > 0:
        raise ValueError("tol must be positive")


CONFIG_KEYS = ("map", "kmax", "nodes", "tol", "out", "svg")


def load_config(path):
    """Line-oriented key = value file with an optional [map] section of
    'term = re_a im_a / re_p im_p' lines.  Keys outside CONFIG_KEYS are
    rejected; svg is known to every subcommand so one file can serve them
    all, and only trace writes it."""
    settings = {}
    terms = []
    in_map = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line == "[map]":
                in_map = True
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if in_map:
                if key != "term":
                    raise ValueError(f"{path}:{lineno}: only term lines in [map]")
                left, _, right = value.partition("/")
                try:
                    ra, ia = (float(x) for x in left.split())
                    rp, ip = (float(x) for x in right.split())
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: term must be 're_a im_a / re_p im_p'"
                    ) from exc
                terms.append((complex(ra, ia), complex(rp, ip)))
            elif key in CONFIG_KEYS:
                settings[key] = value
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    if terms:
        settings["_terms"] = terms
    return settings


def _job(args):
    """Read and check everything one invocation needs, before any numerics.

    Fills args.map, map_text, kmax, nodes, tol, out and svg from the flags,
    then the config file, then the defaults; repro's map is its example and
    its default kmax the largest reference k.  An output path must name a
    file in an existing directory."""
    settings = load_config(args.config_path) if getattr(args, "config_path", None) else {}
    defaults = {"kmax": 5, "nodes": None, "tol": capacity.DEFAULT_TOL}
    map_text = getattr(args, "map_text", None) or settings.get("map")
    if args.command == "repro":
        args.map = example_map(args.example)
        defaults["kmax"] = max(REFERENCE_BOUNDS[args.example])
    elif map_text:
        args.map = parse_map(map_text)
    elif "_terms" in settings:
        args.map = RationalMapPF.from_terms(settings["_terms"])
        map_text = format_map(args.map)
    else:
        raise ValueError("no map given: use --map or a --config with a [map] section")
    args.map_text = map_text
    for name, cast in (("kmax", int), ("nodes", int), ("tol", float)):
        value = cast(settings[name]) if name in settings else defaults[name]
        if getattr(args, name) is None:
            setattr(args, name, value)
    args.out = args.out or settings.get("out")
    # only trace writes an SVG; the other subcommands ignore the svg key
    args.svg = (args.svg or settings.get("svg")) if args.command == "trace" else None
    validate_params(args.kmax, args.nodes, args.tol)
    for path in (args.out, args.svg):
        if path:
            _check_out_path(path)
    return args


def _check_out_path(path):
    """OSError unless path names a file in an existing directory, with the
    message open() would give."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def bounds_csv(bounds):
    lines = ["k,lower,upper"]
    for k, low, up in bounds.rows:
        lines.append(f"{k},{low:.15g},{up:.15g}")
    return "\n".join(lines) + "\n"


def _fmt_complex(c):
    if c.imag == 0:
        return f"{c.real:.17g}"
    op = "+" if c.imag >= 0 else "-"
    return f"{c.real:.17g}{op}{abs(c.imag):.17g}i"


def run(job, command):
    """Execute one subcommand on a job from _job.  Every exception here comes
    from the numerics, except an OSError from an output path."""
    gv = is_n_good(job.map)
    if gv.status is not Goodness.GOOD:
        sys.stderr.write(
            f"map classifies as {gv.status.value} (margin {gv.margin:.6g}); "
            "refusing to run the pipeline\n"
        )
        return 2
    report = (
        f"map: {job.map_text}\n"
        f"n: {job.map.n}\n"
        f"sum_residues: {_fmt_complex(job.map.derivative_at_infinity())}\n"
        f"goodness: {gv.status.value} (margin {gv.margin:.6g})\n"
    )
    if command == "check":
        sys.stdout.write(report)
        if job.out:
            _emit(report, job.out)
        return 0
    if command == "trace":
        sampling = boundary.trace(job.map, N=job.nodes)
        _emit(boundary.emit_csv(sampling), job.out)
        if job.svg:
            _emit(boundary.emit_svg(sampling), job.svg)
        return 0
    bounds = capacity.bounds_sequence(job.map, job.kmax, N=job.nodes)
    if command == "bounds":
        _emit(bounds_csv(bounds), job.out)
        return 0
    av = capacity.verdict(bounds, tol=job.tol)
    if command == "repro":
        _emit(repro_csv(job.example, bounds), job.out)
        note = " (numerical evidence only)" if job.example == 5 else ""
        sys.stderr.write(
            f"example {job.example}: verdict {av.status} at k={av.k_used}, "
            f"margin {av.margin:.6g}{note}; certified: "
            f"{'yes' if bounds.certified else 'no'}\n"
        )
        return 0
    k, low, up = bounds.final
    report += (
        f"bracket: k={k} lower={low:.15g} upper={up:.15g} (N={bounds.N})\n"
        f"verdict: {av.status} (margin {av.margin:.6g})\n"
        f"certified: {'yes' if bounds.certified else 'no'}\n"
    )
    sys.stdout.write(report)
    if job.out:
        _emit(report, job.out)
    return 0


# --------------------------------------------------------------------------
# built-in examples with published reference values
# --------------------------------------------------------------------------

_EXAMPLE_TEXT = {
    1: "0.3/(z+1)+0.2/(z-1)",
    2: "0.95/(z+1)+0.98/(z-1)",
    3: "0.2/(z+2)+0.1/(z)+0.4/(z-5)",
    5: "0.5/(z)+0.4/(z-(2+1i))+0.4/(z-(2-1i))",
    6: "0.4/(z)+0.4/(z-6)+0.4/(z-(1+1i))",
}

REFERENCE_BOUNDS = {
    1: {
        1: (0.492562045464946, 0.500047419736669),
        2: (0.499952584760167, 0.500003281768904),
        3: (0.499996718252636, 0.500000110442346),
        4: (0.499999889557678, 0.500000003956031),
        5: (0.499999996043969, 0.500000000292436),
    },
    2: {
        1: (1.469145654305464, 1.998883274734441),
        2: (1.863490503463674, 1.997657625980182),
        3: (1.864633834925701, 1.957570768708159),
        4: (1.902817542815138, 1.956984859867938),
        5: (1.903387234304595, 1.944734961210238),
        10: (1.924138647216576, 1.935693736889831),
        20: (1.928820666790728, 1.931123140362772),
        30: (1.929615838914482, 1.930334911010434),
        35: (1.929706466138935, 1.930230869959049),
        40: (1.929751020215389, 1.930091261090859),
    },
    3: {
        1: (0.696735209508754, 0.700011861859377),
        2: (0.699988138057939, 0.700000163885012),
        3: (0.699999835775098, 0.700000002518033),
    },
    4: {
        1: (0.897012961211562, 1.003766600572323),
        2: (0.996247533470256, 1.000449247199905),
        3: (0.999550954532515, 1.000227970885994),
        4: (0.999772081072887, 1.000015305500631),
        5: (0.999984694733624, 1.000004234543914),
        6: (0.999995765474017, 1.000002049275081),
    },
    5: {
        1: (1.156483451112665, 1.306262607579208),
        2: (1.293906716808142, 1.300866124135705),
        3: (1.299286594644695, 1.300451765037035),
        4: (1.299697642245979, 1.300120036845019),
    },
    6: {
        1: (1.125853723035751, 1.203267502101022),
        2: (1.197416632904951, 1.201353200697178),
        3: (1.199380567900335, 1.200524665448821),
        4: (1.200219059439418, 1.200426277666660),
        5: (1.200321460719667, 1.200387399481300),
        6: (1.200361472698255, 1.200378783416171),
        7: (1.200370456320151, 1.200375934512287),
    },
}


def example_map(example_id):
    if example_id == 4:
        return rotational_map(3, 1.0)
    return parse_map(_EXAMPLE_TEXT[example_id])


def repro_csv(example_id, bounds):
    """The rows of bounds beside the example's reference rows, with their
    differences."""
    ref = REFERENCE_BOUNDS[example_id]
    lines = ["k,lower,upper,paper_lower,paper_upper,abs_err_l,abs_err_u"]
    for k, low, up in bounds.rows:
        if k not in ref:
            continue
        rl, ru = ref[k]
        lines.append(
            f"{k},{low:.15g},{up:.15g},{rl:.15g},{ru:.15g},"
            f"{abs(low - rl):.15g},{abs(up - ru):.15g}"
        )
    return "\n".join(lines) + "\n"


_NODES_HELP = (
    "trace resolution, a power of two (default: chosen from the critical "
    f"values, {boundary.AUTO_N_MIN}..{boundary.DEFAULT_N})"
)


def _build_parser():
    p = argparse.ArgumentParser(
        prog="capax",
        description="Two-sided analytic capacity bounds for |R(z)| >= 1 level sets",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("check", "classify the map by its critical values"),
        ("bounds", "emit bracket rows k,lower,upper as CSV"),
        ("trace", "emit boundary nodes as CSV (and optionally SVG)"),
        ("verdict", "full text report with the extremality verdict"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--map", dest="map_text", help="map expression")
        sp.add_argument("--config", dest="config_path", help="key = value file")
        sp.add_argument("--kmax", type=int, help="largest pole order (default 5)")
        sp.add_argument("--nodes", type=int, help=_NODES_HELP)
        sp.add_argument("--tol", type=float, help="verdict tolerance (default 1e-6)")
        sp.add_argument("--out", help="output path (default stdout)")
        if name == "trace":
            sp.add_argument("--svg", help="SVG output path")
    rp = sub.add_parser("repro", help="rerun a built-in example against reference values")
    rp.add_argument("example", type=int, choices=range(1, 7))
    rp.add_argument("--kmax", type=int)
    rp.add_argument("--nodes", type=int, help=_NODES_HELP)
    rp.add_argument("--tol", type=float)
    rp.add_argument("--out")
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        job = _job(args)
    except (CapaxError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        return run(job, args.command)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (CapaxError, ValueError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())

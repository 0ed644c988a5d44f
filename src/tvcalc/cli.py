"""Command-line surface: compute, enumerate, bounds, census, verify.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 invalid
triangulation.  JSON output never includes wall-clock times, so it is
byte-identical across runs; timings appear only in the human-readable
form.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import mpmath

from .census import MAX_CENSUS_TETS, enumerate_census
from .colourings import (
    _checked_skeleton,
    _derived,
    admissible_colouring,
    count_admissible,
    enumerate_admissible,
    sweep_sum,
    tetrahedron_weight,
    tv,
)
from .cyclotomic import MAX_DIGITS, field_init, numeric_eval
from .fastalgo import adm4_structured, bounds, tv_odd_fast
from .homology import betti_z2, cocycle_space_1
from .loopcoords import (
    IntersectionSymbol,
    decompose_symbol,
    intersection_symbol,
    symbol_of,
    tet_weight_loop,
)
from .triangulation import parse_triangulation, serialise_triangulation

USAGE = 2
INVALID_INPUT = 3
VERIFY_FAILED = 1


class _Exit(Exception):
    """An early end of a command: its exit code and stderr message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _usage_error(message: str) -> _Exit:
    return _Exit(USAGE, f"tv: error: {message}")


def _load_skeleton(path: str, r: int, q: int = 1):
    """Parse and validate, then check the level (r, q); returns a
    connected closed 3-manifold Skeleton."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Exit(INVALID_INPUT, f"tv: cannot read {path}: {exc}")
    try:
        skel = _checked_skeleton(parse_triangulation(text))
        if betti_z2(skel, 0) != 1:
            raise ValueError("triangulation is not connected")
    except ValueError as exc:
        raise _Exit(INVALID_INPUT,
                    f"tv: invalid triangulation in {path}: {exc}")
    try:
        field_init(r, q)
    except ValueError as exc:
        raise _usage_error(str(exc))
    return skel


@dataclass
class ResultDocument:
    """One computed invariant value plus how it was obtained."""

    input_path: str
    r: int
    q: int
    algorithm: str
    class_bits: str | None
    digits: int
    exact: list
    decimal_real: str
    decimal_imag: str
    admissible: int
    nodes_visited: int
    wall_seconds: float

    def to_json(self) -> str:
        doc = {
            "input": self.input_path,
            "r": self.r,
            "q": self.q,
            "algorithm": self.algorithm,
            "class": self.class_bits,
            "digits": self.digits,
            "exact": self.exact,
            "decimal": {"real": self.decimal_real,
                        "imag": self.decimal_imag},
            "counts": {"admissible": self.admissible,
                       "nodes_visited": self.nodes_visited},
        }
        return json.dumps(doc, sort_keys=True)

    def human_lines(self):
        yield f"input:      {self.input_path}"
        yield f"level:      r={self.r} q={self.q}"
        yield f"algorithm:  {self.algorithm}"
        if self.class_bits is not None:
            yield f"class:      [{self.class_bits}]"
        yield f"exact:      {self.exact}"
        yield (f"decimal:    {self.decimal_real} + {self.decimal_imag}i"
               f"  ({self.digits} digits)")
        yield (f"counts:     {self.admissible} admissible, "
               f"{self.nodes_visited} nodes visited")
        yield f"wall time:  {self.wall_seconds:.3f}s"


def _choose_algorithm(args, skel) -> str:
    """Resolve --algorithm."""
    explicit = args.algorithm
    if args.class_bits is not None and explicit in ("tv4", "odd-fast"):
        raise _usage_error("--class only works with the naive algorithm")
    if explicit == "tv4":
        if args.r != 4:
            raise _usage_error("--algorithm tv4 requires --r 4")
        return "tv4"
    if explicit == "odd-fast":
        if args.r % 2 == 0:
            raise _usage_error("--algorithm odd-fast requires odd r >= 3")
        if args.q != 1:
            raise _usage_error(
                "--algorithm odd-fast is only defined for q = 1")
        if skel.v != 1:
            raise _usage_error("--algorithm odd-fast needs a one-vertex "
                               "triangulation; rerun without --algorithm")
        return "odd-fast"
    if explicit == "naive":
        return "naive"
    # auto selection
    if args.class_bits is not None:
        return "naive"
    if args.r == 4:
        return "tv4"
    if args.r % 2 == 1 and args.q == 1:
        if skel.v == 1:
            return "odd-fast"
        print("tv: note: fast odd-r path needs a one-vertex triangulation; "
              "using the naive state sum", file=sys.stderr)
    return "naive"


def _cmd_compute(args) -> int:
    if not 1 <= args.digits <= MAX_DIGITS:
        raise _usage_error(f"--digits must be between 1 and {MAX_DIGITS}")
    skel = _load_skeleton(args.file, args.r, args.q)

    class_coords = None
    if args.class_bits is not None:
        basis = _derived(skel, cocycle_space_1)
        bits = args.class_bits
        if len(bits) != basis.beta1 or any(ch not in "01" for ch in bits):
            raise _usage_error(
                f"--class needs a bit string of length {basis.beta1}")
        class_coords = tuple(int(ch) for ch in bits)

    algorithm = _choose_algorithm(args, skel)

    # every value comes from ``tv`` (odd-fast runs it on the zero class
    # and rescales); the algorithm picks the search behind the reported
    # counts
    start = time.perf_counter()
    if algorithm == "tv4":
        value = tv(skel, 4, args.q)
        _, stats = adm4_structured(skel)
    elif algorithm == "odd-fast":
        value = tv_odd_fast(skel, args.r)
        # counts describe the level-r integer-only search
        stats = count_admissible(skel, args.r, integer_only=True)
    else:
        value = tv(skel, args.r, args.q, class_coords)
        stats = count_admissible(skel, args.r, class_coords=class_coords)
    wall = time.perf_counter() - start

    approx = numeric_eval(value, args.digits)
    doc = ResultDocument(
        input_path=args.file, r=args.r, q=args.q, algorithm=algorithm,
        class_bits=args.class_bits, digits=args.digits,
        exact=value.to_strings(),
        decimal_real=mpmath.nstr(approx.real, args.digits),
        decimal_imag=mpmath.nstr(approx.imag, args.digits),
        admissible=stats.admissible_count,
        nodes_visited=stats.nodes_visited,
        wall_seconds=wall)
    if args.json:
        print(doc.to_json())
    else:
        for line in doc.human_lines():
            print(line)
    return 0


def _cmd_enumerate(args) -> int:
    skel = _load_skeleton(args.file, args.r)
    if args.count_only:
        stats = count_admissible(skel, args.r,
                                 integer_only=args.integer_only)
        print(f"admissible: {stats.admissible_count}")
        print(f"nodes visited: {stats.nodes_visited}")
        return 0
    colourings, _ = enumerate_admissible(
        skel, args.r, integer_only=args.integer_only)
    for col in colourings:
        print(" ".join(str(a) for a in col))
    return 0


def _cmd_bounds(args) -> int:
    print(bounds(_load_skeleton(args.file, args.r), args.r).to_json())
    return 0


def _cmd_census(args) -> int:
    if args.tets < 1:
        raise _usage_error("--tets must be >= 1")
    if args.tets > MAX_CENSUS_TETS:
        raise _usage_error(f"--tets must be at most {MAX_CENSUS_TETS}")
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Exit(INVALID_INPUT, f"tv: cannot create {out}: {exc}")
    count = 0
    for index, tri in enumerate(enumerate_census(
            args.tets, one_vertex=args.one_vertex,
            z2_homology_sphere=args.z2hs)):
        path = out / f"census_t{args.tets}_{index:04d}.tri"
        try:
            path.write_text(serialise_triangulation(tri))
        except OSError as exc:
            raise _Exit(INVALID_INPUT, f"tv: cannot write {path}: {exc}")
        print(path)
        count += 1
    print(f"wrote {count} file(s) to {out}")
    return 0


def _run_verify(skel, r: int) -> int:
    failures = 0

    def check(name: str, passed: bool, detail: str = ""):
        nonlocal failures
        tag = "ok" if passed else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{tag}: {name}{suffix}")
        if not passed:
            failures += 1

    basis = _derived(skel, cocycle_space_1)
    level3 = count_admissible(skel, 3).admissible_count
    check("level-3 count is 2^(v-1+beta1)",
          level3 == 1 << (skel.v - 1 + basis.beta1),
          f"{level3} colourings, beta1={basis.beta1}")

    colourings, stats = enumerate_admissible(skel, r)
    check(f"level-{r} enumeration self-consistent",
          all(admissible_colouring(skel, col, r)
              for col in colourings),
          f"{len(colourings)} colourings, {stats.nodes_visited} nodes")

    domain_size = (r - 1) ** skel.e
    if domain_size <= 200_000:
        direct = sum(
            1 for cand in product(range(r - 1), repeat=skel.e)
            if admissible_colouring(skel, cand, r))
        check("enumeration matches the direct filter",
              direct == len(colourings), f"{domain_size} candidates")
    else:
        print(f"ok: direct filter skipped ({domain_size} candidates)")

    ctx = field_init(r, 1)
    n_tets = len(skel.triangulation.gluings)
    symbols = {}
    recon_ok = True
    for col in colourings:
        for tet in range(n_tets):
            sym = intersection_symbol(skel, col, tet)
            dec = decompose_symbol(sym)
            if symbol_of(dec).rows != sym.rows:
                recon_ok = False
            symbols.setdefault(sym.rows, dec)
    check("every symbol decomposes and reconstructs", recon_ok,
          f"{len(symbols)} distinct symbols")
    weights_ok = True
    for rows, dec in sorted(symbols.items()):
        sym = IntersectionSymbol(rows)
        same = tet_weight_loop(ctx, dec) == tetrahedron_weight(
            ctx, sym.doubled_colours())
        if not same:
            weights_ok = False
        counts = f"vertex loops {dec.vertex_counts}"
        if dec.p:
            counts += f" + {dec.p} x ({dec.i},{dec.j}) loop"
        print(f"    {sym}  ->  {counts}  "
              f"[weights {'agree' if same else 'DIFFER'}]")
    check("loop weights equal edge-colour weights", weights_ok)

    total = sweep_sum(skel, colourings, r, 1)
    by_class = total.ctx.zero
    for bits in range(1 << basis.beta1):
        coords = tuple((bits >> k) & 1 for k in range(basis.beta1))
        by_class = by_class + tv(skel, r, 1, coords)
    check("elimination sum matches the colouring sweep",
          tv(skel, r, 1) == total)
    check("class-wise sums add up to the state sum", by_class == total)

    if r == 4:
        fast, _ = adm4_structured(skel)
        check("structured level-4 enumeration matches",
              set(fast) == set(colourings))
    if r % 2 == 1 and skel.v == 1:
        check("fast odd-r value matches the state sum",
              tv_odd_fast(skel, r) == total)

    report = bounds(skel, r)
    applicable = [b for b in (report.naive, report.kernel_sum_bound,
                              report.coarse_cocycle_bound,
                              report.integer_colour_bound,
                              report.small_level_bound) if b is not None]
    check("count within every applicable bound",
          all(report.actual <= b for b in applicable),
          report.to_json())

    int_stats = count_admissible(skel, r, integer_only=True)
    check("integer-only search visits no more nodes",
          int_stats.nodes_visited <= stats.nodes_visited,
          f"{int_stats.nodes_visited} <= {stats.nodes_visited}")

    if failures:
        print(f"{failures} check(s) failed")
        return VERIFY_FAILED
    print("all checks passed")
    return 0


def _cmd_verify(args) -> int:
    return _run_verify(_load_skeleton(args.file, args.r), args.r)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tv",
        description="Exact Turaev-Viro-type invariants of closed "
                    "3-manifold triangulations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate the invariant")
    p.add_argument("--file", required=True, help="gluing-table file")
    p.add_argument("--r", type=int, required=True, help="level, >= 3")
    p.add_argument("--q", type=int, default=1,
                   help="root choice, 0 < q < 2r, gcd(r, q) = 1")
    p.add_argument("--algorithm", choices=["naive", "tv4", "odd-fast"],
                   help="default: auto-select")
    p.add_argument("--class", dest="class_bits", metavar="BITS",
                   help="restrict to one cohomology class "
                        "(bit string of length beta1)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output, no timings")
    p.add_argument("--digits", type=int, default=12,
                   help=f"decimal display precision, 1..{MAX_DIGITS}")
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("enumerate", help="list admissible colourings")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--integer-only", action="store_true",
                   help="even doubled colours only")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("bounds", help="colouring-count bounds as JSON")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("census", help="write all closed triangulations "
                                      "with the given tetrahedron count")
    p.add_argument("--tets", type=int, required=True)
    p.add_argument("--one-vertex", action="store_true")
    p.add_argument("--z2hs", action="store_true",
                   help="keep Z/2-homology spheres only")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", help="run the cross-check suite")
    p.add_argument("--file", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_cmd_verify)

    return parser


# Built on the first call of main: building it costs some ten times what
# parsing one command line does, and in-process callers make many calls.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())

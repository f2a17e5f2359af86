"""Command-line driver: analyze / check / gfd over algebra description files.

Exit codes: 0 all checks pass, 1 a theorem check failed, 2 input error,
3 inconclusive (a search or resolution budget was exhausted).
"""

import argparse
import sys

from . import borel, homology, reps, strat, tilting
from .errors import (DecompositionFailed, NonTerminating, ParseError,
                     SearchBudgetExceeded, StratakitError, Truncated)
from .parser import parse_file
from .report import Report

INCONCLUSIVE = (DecompositionFailed, NonTerminating, SearchBudgetExceeded,
                Truncated)


def _algebra_section(rep, f, a):
    rep.add("algebra", "name", f.name or "(unnamed)")
    rep.add("algebra", "field", "Q" if f.field.is_rational else f"GF({f.field.p})")
    rep.add("algebra", "vertices", " ".join(f.vertices))
    rep.add("algebra", "dim", a.dim)


def _classification_section(rep, a, cap):
    cls = strat.classify(a)
    rep.add("class", "kind", cls.kind())
    rep.add("class", "standardly_stratified", cls.standardly_stratified)
    rep.add("class", "properly_stratified", cls.properly_stratified)
    rep.add("class", "quasi_hereditary", cls.quasi_hereditary)
    return cls


def _dimension_section(rep, a, cls, cap):
    gl = homology.global_dim(a, cap)
    rep.add("dims", "gl_dim", gl)
    if not cls.standardly_stratified:
        return
    tilt = tilting.characteristic_tilting(a, cap)
    for t in tilt.summands:
        rep.add("tilting", t.label, " ".join(str(d) for d in t.dims))
    pd_t = homology.proj_dim(tilt.total, cap)
    inj_t = homology.inj_dim(tilt.total, cap)
    rep.add("dims", "pd_T", pd_t)
    rep.add("dims", "inj_T", inj_t)
    g = tilting.gfd_algebra(a, cap)
    rep.add("dims", "gfd_nabla_bar", g.gfd_regular)
    rep.add("dims", "t_codim_A", g.tcodim_regular)
    rep.add("dims", "gfd_probe_sup", g.probe_sup)
    if cls.properly_stratified:
        cot = tilting.characteristic_cotilting(a, cap)
        rep.add("dims", "inj_S", homology.inj_dim(cot.total, cap))
        rep.add("dims", "S_iso_T",
                reps.is_isomorphic(cot.total, tilt.total))


def cmd_analyze(args):
    rep = Report()
    f = parse_file(args.file)
    a = f.build()
    _algebra_section(rep, f, a)
    cls = _classification_section(rep, a, args.cap)
    _dimension_section(rep, a, cls, args.cap)
    return rep


def cmd_check(args):
    rep = Report()
    f = parse_file(args.file)
    a = f.build()
    _algebra_section(rep, f, a)
    cls = _classification_section(rep, a, args.cap)
    _dimension_section(rep, a, cls, args.cap)
    for result in tilting.verify_section2(a, args.cap):
        rep.add_check("checks", result.name, result.passed, result.detail)
    if args.borel:
        bf = parse_file(args.borel)
        b = bf.build()
        emb_terms = None
        if args.embedding:
            ef = parse_file(args.embedding)
            emb_terms = ef.embedding
        elif bf.embedding:
            emb_terms = bf.embedding
        if not emb_terms:
            raise ParseError("no embedding block found; pass --embedding")
        images = {name: [(c, tuple(p)) for (c, p) in terms]
                  for name, terms in emb_terms.items()}
        e = borel.check_embedding(borel.Embedding(b, a, images))
        rep.add("borel", "B_dim", b.dim)
        rep.add("borel", "B_gl_dim", homology.global_dim(b, args.cap))
        br = borel.is_exact_borel(e, args.cap)
        rep.add_check("borel", "exact_borel", br.verdict,
                      "; ".join(f"{n}:{'ok' if okc else 'fail'}"
                                for n, okc, _ in br.clauses))
        ok, _ = borel.verify_lemma_induction_bounds(e, args.cap)
        rep.add_check("borel", "induction_bounds", ok)
        bound_ok, equality, ga, gb = borel.verify_gldim_doubling(e, args.cap)
        rep.add_check("borel", "gldim_doubling", bound_ok,
                      f"{ga} <= 2*{gb}" + (", equality" if equality else ""))
        if f.duality:
            try:
                _, clauses = borel.duality_check(a, f.duality, args.cap)
                for cname, flag in clauses:
                    rep.add_check("duality", cname, flag)
            except StratakitError as err:
                rep.add_check("duality", "anti_automorphism", False, str(err))
    return rep


def cmd_gfd(args):
    rep = Report()
    f = parse_file(args.file)
    a = f.build()
    _algebra_section(rep, f, a)
    m = _resolve_module(f, a, args.module)
    rep.add("module", "name", args.module)
    rep.add("module", "dims", " ".join(str(d) for d in m.dims))
    rep.add("gfd", "nabla_bar", tilting.gfd_nabla_bar(m, args.cap))
    try:
        rep.add("gfd", "delta_bar", tilting.gfd_delta_bar(m, args.cap))
    except StratakitError as err:
        rep.add("gfd", "delta_bar", f"undefined ({err})")
    return rep


def _resolve_module(f, a, name):
    if name in f.modules:
        return f.module_rep(a, name)
    builders = {"E": reps.simple, "P": reps.projective, "I": reps.injective,
                "Delta": strat.standard, "Nabla": strat.costandard,
                "DeltaBar": strat.proper_standard,
                "NablaBar": strat.proper_costandard}
    for prefix, fn in builders.items():
        if name.startswith(prefix + "(") and name.endswith(")"):
            label = name[len(prefix) + 1:-1]
            return fn(a, a.vertex_index(label))
    if name == "A":
        return reps.regular_module(a)
    raise ParseError(f"unknown module {name!r}; declare it in the file or use "
                     "E(v), P(v), I(v), Delta(v), Nabla(v), DeltaBar(v), "
                     "NablaBar(v), A")


def main(argv=None):
    top = argparse.ArgumentParser(prog="stratakit")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file")
        p.add_argument("--cap", type=int, default=homology.DEFAULT_CAP)
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("analyze", help="classification and dimension table")
    common(p)
    p.set_defaults(fn=cmd_analyze)
    p = sub.add_parser("check", help="verify the theorem suite")
    common(p)
    p.add_argument("--borel", help="subalgebra description file")
    p.add_argument("--embedding", help="embedding description file")
    p.set_defaults(fn=cmd_check)
    p = sub.add_parser("gfd", help="good filtration dimensions of one module")
    common(p)
    p.add_argument("--module", required=True)
    p.set_defaults(fn=cmd_gfd)

    args = top.parse_args(argv)
    try:
        rep = args.fn(args)
    except ParseError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except INCONCLUSIVE as err:
        print(f"inconclusive: {err}", file=sys.stderr)
        return 3
    except StratakitError as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(rep.render(args.format))
    if rep.inconclusive:
        return 3
    return 0 if rep.ok else 1


if __name__ == "__main__":
    sys.exit(main())

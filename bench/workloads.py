"""Workload definitions: input generators, operations and reference answers.

Each workload is a list of operations that one caller runs one after another
(a closed loop).  The seed picks the prime for the GF(p) families and the
order of the operations; the program under test sees only the description
files written here.
"""

import os
import random
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(HERE, "golden")

WORKLOADS = ("borel_pair", "families_gfp", "path_build")

# Primes of similar size, so the choice moves GF(p) arithmetic cost little.
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163,
          167, 173, 179, 181, 191, 193, 197, 199)

# Family sizes, chosen so one pass takes seconds, not minutes, on a 2-core
# host; the largest member sets slowest_op_s.
RAD2_SIZES = (4, 6, 8)
FREE_SIZES = (3, 5)
XY_LENGTHS = (4, 5, 6, 7)
XY_DEGREE_CAPS = (10, 11, 12, 13)


# -- generators ---------------------------------------------------------------

def linear_a(n, p, rad2):
    """Linear A_n, arrows i -> i+1, optionally with all length-2 paths zero.

    With rad^2 = 0 it is quasi-hereditary with gl.dim = pd T = n-1, inj T = 0.
    Without relations it is hereditary with gl.dim = pd T = 1, inj T = 0.
    """
    name = f"A{n}_{'rad2' if rad2 else 'free'}"
    lines = [f"name {name}", f"field GF {p}",
             "vertices " + " ".join(str(i) for i in range(1, n + 1))]
    lines += [f"arrow a{i} {i} {i + 1}" for i in range(1, n)]
    if rad2:
        lines += [f"relation 1*a{i + 1}.a{i}" for i in range(1, n - 1)]
    return name, "\n".join(lines) + "\n"


def auslander3(p):
    """Auslander algebra of k[x]/(x^3), vertices declared in reverse order.

    Vertex i stands for k[x]/(x^i); a_i is the inclusion i -> i+1 and b_i the
    projection i+1 -> i.  Quasi-hereditary, gl.dim 2, pd T = inj T = 1.
    """
    lines = ["name aus3", f"field GF {p}", "vertices 3 2 1"]
    for i in (1, 2):
        lines += [f"arrow a{i} {i} {i + 1}", f"arrow b{i} {i + 1} {i}"]
    lines += ["relation 1*b1.a1", "relation 1*a1.b1 - 1*b2.a2"]
    return "aus3", "\n".join(lines) + "\n"


def local_xy(m):
    """k<x,y>/(x^2, y^2, (xy)^m, (yx)^m) over Q; m = 0 drops the last two.

    For m >= 1 the basis is the alternating words shorter than 2m: dim 4m-1,
    longest path 2m-1.  With m = 0 the ideal is not admissible.
    """
    name = f"xy{m}"
    lines = [f"name {name}", "field Q", "vertices 1",
             "arrow x 1 1", "arrow y 1 1", "relation 1*x.x", "relation 1*y.y"]
    if m:
        lines += ["relation 1*" + ".".join(["y", "x"] * m),
                  "relation 1*" + ".".join(["x", "y"] * m)]
    return name, "\n".join(lines) + "\n"


# -- closed-form answers --------------------------------------------------------

def _vec(dims):
    return " ".join(str(d) for d in dims)


def linear_a_answers(n, rad2):
    """Report lines that `analyze` and `check` must print for linear_a(n)."""
    out = {"class.kind": "quasi-hereditary",
           "dims.gl_dim": str(n - 1 if rad2 else 1),
           "dims.pd_T": str(n - 1 if rad2 else 1),
           "dims.inj_T": "0"}
    for i in range(1, n + 1):
        if rad2:
            dims = [1 if j in (i - 1, i) else 0 for j in range(1, n + 1)]
        else:
            dims = [1 if j <= i else 0 for j in range(1, n + 1)]
        out[f"tilting.T({i})"] = _vec(dims)
    return out


def auslander3_answers():
    return {"class.kind": "quasi-hereditary", "dims.gl_dim": "2",
            "dims.pd_T": "1", "dims.inj_T": "1",
            "tilting.T(3)": "1 0 0", "tilting.T(2)": "2 1 0",
            "tilting.T(1)": "3 2 1"}


# -- operations -------------------------------------------------------------------

def _write(workdir, name, text):
    path = os.path.join(workdir, name + ".alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _cli(cmd, path, limit, ref, extra=()):
    label = f"{cmd} {os.path.basename(path)[:-4]}"
    return {"id": label, "kind": "cli", "limit": limit, "ref": ref,
            "argv": [cmd, path, *extra, "--format", "machine"]}


def family_ops(workdir, p):
    """`analyze` and `check` on each GF(p) family member with known answers."""
    ops = []
    members = [(n, True) for n in RAD2_SIZES] + [(n, False) for n in FREE_SIZES]
    for n, rad2 in members:
        name, text = linear_a(n, p, rad2)
        path = _write(workdir, name, text)
        for cmd, limit in (("analyze", 20.0), ("check", 40.0)):
            ref = {"rc": 0, "lines": linear_a_answers(n, rad2),
                   "field": f"GF({p})",
                   "golden": f"families_gfp/{name}.{cmd}.txt"}
            ops.append(_cli(cmd, path, limit, ref))
    return ops


def make_ops(workload, seed, workdir):
    """Write the workload's inputs into workdir and return its operations."""
    rng = random.Random(seed)
    if workload == "borel_pair":
        paths = {}
        for name in ("borelA", "borelB"):
            paths[name] = os.path.join(workdir, name + ".alg")
            shutil.copyfile(os.path.join(DATA, name + ".alg"), paths[name])
        ops = [
            _cli("analyze", paths["borelB"], 20.0,
                 {"rc": 0, "golden": "borel_pair/analyze_borelB.txt"}),
            _cli("analyze", paths["borelA"], 40.0,
                 {"rc": 0, "golden": "borel_pair/analyze_borelA.txt"}),
            _cli("check", paths["borelA"], 80.0,
                 {"rc": 0, "golden": "borel_pair/check_borelA_borelB.txt"},
                 extra=("--borel", paths["borelB"])),
        ]
    elif workload == "families_gfp":
        ops = family_ops(workdir, rng.choice(PRIMES))
    elif workload == "path_build":
        ops = []
        for m in XY_LENGTHS:
            name, text = local_xy(m)
            ops.append({"id": f"build {name}", "kind": "build", "limit": 40.0,
                        "file": _write(workdir, name, text),
                        "ref": {"dim": 4 * m - 1, "max_len": 2 * m - 1}})
        name, text = local_xy(0)
        path = _write(workdir, name, text)
        for cap in XY_DEGREE_CAPS:
            ops.append({"id": f"build {name} degree_cap={cap}",
                        "kind": "not_admissible", "limit": 30.0, "file": path,
                        "degree_cap": cap, "ref": {"raises": "NotAdmissible"}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# -- reference checks ---------------------------------------------------------------

def read_golden(rel):
    with open(os.path.join(GOLDEN, rel), encoding="utf-8") as fh:
        return fh.read()


def _without_field(text):
    return [ln for ln in text.splitlines() if not ln.startswith("algebra.field = ")]


def check_report(ref, rc, stdout):
    """None when a CLI result matches its reference, else the first mismatch."""
    if rc != ref["rc"]:
        return f"exit code {rc}, expected {ref['rc']}"
    got = dict(ln.split(" = ", 1) for ln in stdout.splitlines() if " = " in ln)
    expected = dict(ref.get("lines", {}))
    if "field" in ref:
        expected["algebra.field"] = ref["field"]
    for key, value in expected.items():
        if got.get(key) != value:
            return f"{key} = {got.get(key)!r}, expected {value!r}"
    for key, value in got.items():
        if key.startswith("checks.") and not value.startswith(("pass", "info")):
            return f"{key} = {value!r}"
    golden = read_golden(ref["golden"])
    if "field" in ref:
        # GF(p) answers do not depend on p: only the field line may differ
        if _without_field(stdout) != _without_field(golden):
            return "output differs from " + ref["golden"]
    elif stdout != golden:
        return "output differs from " + ref["golden"]
    return None


def check_build(ref, dim, max_len):
    if (dim, max_len) != (ref["dim"], ref["max_len"]):
        return f"dim {dim}, max_len {max_len}, expected {ref['dim']}, {ref['max_len']}"
    return None


# -- spans each workload must reach, and layers it must not, in the traced pass --

_COMMON = ("quiver.build_algebra.calls", "parser.parse_file.calls")
_UPPER = ("linalg.rref.calls", "linalg.solve.calls", "linalg.kernel_basis.calls",
          "reps.hom_basis.calls", "reps.decompose_with_inclusions.calls",
          "reps.minimal_polynomial.calls", "reps.find_isomorphism.calls",
          "homology.min_proj_resolution.calls", "homology.ext_dim.calls",
          "strat.filtration_certificate.calls", "strat.classify.calls",
          "tilting.characteristic_tilting.calls", "tilting.gfd_algebra.calls",
          "tilting.t_codim.calls", "tilting.verify_section2.calls",
          "tilting.ringel_dual.calls", "cli.main.calls")
_BOREL = ("borel.is_exact_borel.calls",
          "borel.verify_lemma_induction_bounds.calls", "borel.induce.calls")

REACH = {"borel_pair": _COMMON + _UPPER + _BOREL,
         "families_gfp": _COMMON + _UPPER,
         "path_build": _COMMON}
# Only borel_pair goes through `borel`.
AVOID_LAYERS = {"borel_pair": (), "families_gfp": ("borel",),
                "path_build": ("borel",)}

"""A grammar fuzz of the CLI's robustness contract.

Argument lists for `torus-series`, `wigner` and `mollify` are drawn from the spec
grammar of gmc.specs. Each slot takes a valid value five times in six, and
otherwise an edge token (0, -1, 0.5, 1e300, 1e-300, nan, inf, 10^20) or junk, so
that both the answers and the refusals are reached. Whatever the input, the exit
code is 0 or 2; exit 2 writes one `error:` line (or argparse's usage message) to
stderr, and exit 0 writes nothing there and a CSV of finite values. Bumps stay
near the origin (|centre| <= 2, radius <= 1): far and wide bumps are a question
of cost, not of the contract.
"""
import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gmc.cli import main

EDGE = st.sampled_from(("0", "-1", "0.5", "1e300", "1e-300", "nan", "inf", str(10**20)))
JUNK = st.sampled_from(("", "soon", "e", "comb:", "json:/nonexistent.json"))


def mostly(valid, *other):
    """valid five times in six, else one of other (the edge tokens when none is given)."""
    rare = st.one_of(*other) if other else EDGE
    return st.sampled_from((True,) * 5 + (False,)).flatmap(lambda ok: valid if ok else rare)


def small(lo, hi):
    return st.integers(lo, hi).map(str)


def spec(head, value):
    return value.map(lambda v: f"{head}:{v}")


def keyed(head, parts, max_size=3):
    return st.lists(st.one_of(*parts), max_size=max_size).map(lambda p: ":".join([head, *p]))


torus_vector = mostly(
    st.one_of(
        st.just("comb"),
        spec("unit", small(-8, 8)),
        spec("poly", small(0, 3)),
        spec("geometric", st.sampled_from(("0.25", "0.5", "-0.5", "0.9"))),
        spec("formula", st.sampled_from(("invsq", "invsq2", "alternating"))),
    ),
    spec("unit", EDGE), spec("poly", EDGE), spec("geometric", EDGE), st.just("formula:nope"), JUNK,
)
heisenberg_vector = mostly(
    st.one_of(
        spec("e", small(0, 12)),
        st.just("delta"),
        st.just("gauss"),
        spec("gauss", st.sampled_from(("0.5", "0.8", "1.3"))),
        spec("poly-growth", st.sampled_from(("-1", "0", "0.5", "1"))),
    ),
    spec("e", EDGE), spec("gauss", EDGE), spec("poly-growth", EDGE), JUNK,
)
band_limit = mostly(small(0, 8))
band = mostly(
    st.builds("band:{}:{}".format, band_limit, st.sampled_from(("ones", "fejer", "gauss"))),
    st.builds("band:{}:{}".format, band_limit, st.lists(mostly(small(-2, 2)), min_size=1, max_size=5).map(",".join)),
    st.sampled_from(("band", "band:2", "band:2:x", "bump3:radius=0.5")),
)
coordinate = mostly(st.sampled_from(("0", "0.5", "-1", "1.5", "-2")), st.sampled_from(("nan", "inf", "1e-300", "a")))
centre = mostly(
    st.tuples(coordinate, coordinate, coordinate).map(lambda c: "center=({},{},{})".format(*c)),
    st.sampled_from(("center=0,0,0", "center=(1,2)", "center=(1,2,3,4)", "center=")),
)
bump_radius = mostly(st.sampled_from(("0.25", "0.4", "0.5", "0.8", "1")), st.sampled_from(("0", "-1", "1e-300", "nan", "inf")))
bump3 = mostly(
    keyed("bump3", (centre, bump_radius.map("radius={}".format), mostly(small(-2, 2)).map("mass={}".format))),
    keyed("bump3", (st.sampled_from(("flavor=hot", "radius", "")),)),
    st.just("band:2:ones"),
)
index = mostly(small(1, 6))
n_list = mostly(st.lists(index, min_size=1, max_size=3).map(",".join), st.just(""))
mollifier = mostly(
    index | keyed("mollifier", (index.map("n={}".format), bump_radius.map("radius={}".format)), max_size=2),
    keyed("mollifier", (st.just("flavor=hot"),), max_size=2),
    st.sampled_from(("soon", "", "mollifier", "bump:n=2")),
    EDGE,
)
coordinates = mostly(st.sampled_from(("-1.5", "-1", "0", "0.5", "1.5")))
grid = mostly(
    st.builds("{}:{}:{},{}:{}:{}".format, coordinates, coordinates, mostly(small(1, 4)), coordinates, coordinates, mostly(small(1, 4))),
    st.sampled_from(("0:1:2", "a,b", "0:1:2,0:1")),
)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


torus_series = st.builds(
    lambda a, f, m: ["torus-series", a, f, f"--m-max={m}"], torus_vector, band, mostly(small(0, 8))
)
wigner = st.builds(
    lambda phi, psi, g, moll: ["wigner", phi, psi, f"--grid={g}", *moll],
    heisenberg_vector, heisenberg_vector, grid, optional("--mollify", mollifier),
)
mollify_torus = st.builds(
    lambda eta, zeta, f, n, r: ["mollify", "--group", "torus", eta, zeta, f, f"--n={n}", *r],
    torus_vector, torus_vector, band, n_list, optional("--radius", bump_radius),
)
mollify_heisenberg = st.builds(
    lambda eta, zeta, f, n, r: ["mollify", "--group", "heisenberg", eta, zeta, f, f"--n={n}", *r],
    heisenberg_vector, heisenberg_vector, bump3, n_list, optional("--radius", bump_radius),
)


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(st.one_of(torus_series, wigner, mollify_torus, mollify_heisenberg))
def test_cli_keeps_its_contract_on_the_spec_grammar(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 2), (argv, code, stderr)
    if code == 2:
        one_line = stderr.startswith("error: ") and stderr.count("\n") == 1
        usage = stderr.startswith("usage: gmc") and "error:" in stderr
        assert one_line or usage, (argv, stderr)
        return
    assert stderr == "", (argv, stderr)
    header, *rows = stdout.splitlines()
    assert rows, (argv, stdout)
    for row in rows:
        values = [float(v) for v in row.split(",")]
        assert len(values) == len(header.split(",")) and all(map(math.isfinite, values)), (argv, row)
